(* Journal schema v5: v1 (PR 1) had no header and a Trial_finished without
   the steps/switches/exns fields the resume path replays; v2 (PR 3) had
   no degradation fields and no per-line checksum; v3 (PR 5) added both;
   v4 added the static pre-filter events (Pair_filtered,
   Static_classified); v5 adds the phase-1 detector identity and
   (sampling) miss bound to Phase1_finished.  The reader skips records it
   cannot parse, so an old journal degrades to "nothing to resume"
   instead of failing. *)
let schema_version = 5

type event =
  | Journal_opened of { schema : int }
  | Campaign_started of {
      domains : int;
      base_trials : int;
      budget : int option;
      cutoff : bool;
    }
  | Phase1_finished of {
      potential : int;
      wall : float;
      degraded : bool;
      level : string;
      detector : string;
      miss_bound : float option;
    }
  | Phase1_recorded of {
      events : int;
      bytes : int;
      shards : int;
      record_wall : float;
      detect_wall : float;
    }
  | Wave_started of { wave : int; tasks : int }
  | Trial_started of { pair : string; seed : int; domain : int }
  | Trial_finished of {
      pair : string;
      seed : int;
      domain : int;
      race : bool;
      error : bool;
      deadlock : bool;
      steps : int;
      switches : int;
      exns : int;
      wall : float;
      degraded : bool;
      level : string;
      trigger : string;
      evicted : int;
    }
  | Trial_crashed of {
      pair : string;
      seed : int;
      domain : int;
      exn_ : string;
      backtrace : string;
    }
  | Trial_exhausted of {
      pair : string;
      seed : int;
      domain : int;
      reason : string;
      steps : int;
      wall : float;
    }
  | Pair_filtered of { pair : string; reason : string }
  | Static_classified of {
      universe : int;
      universe_impossible : int;
      frontier : int;
      likely : int;
      unknown : int;
      impossible : int;
      filtered : int;
      wall : float;
    }
  | Pair_resolved of { pair : string; at_trial : int }
  | Pair_quarantined of { pair : string; crashes : int; at_trial : int }
  | Trials_cancelled of { pair : string; count : int }
  | Budget_granted of { pair : string; extra : int }
  | Worker_crashed of { domain : int; attempt : int; exn_ : string }
  | Worker_respawned of { domain : int; attempt : int; backoff : float }
  | Worker_gave_up of { domain : int }
  | Worker_spawned of { worker : int; pid : int }
  | Worker_killed of { worker : int; pid : int; reason : string }
  | Traces_saved of { dir : string; count : int; bytes : int }
  | Corpus_updated of { dir : string; added : int; deduped : int; total : int }
  | Resume_loaded of { entries : int; skipped : int }
  | Campaign_interrupted of { executed : int; remaining : int }
  | Repro_written of {
      pair : string;
      fingerprint : string;
      seed : int;
      file : string;
      steps_before : int;
      steps_after : int;
      switches_before : int;
      switches_after : int;
      oracle_runs : int;
    }
  | Campaign_finished of {
      wall : float;
      trials : int;
      cancelled : int;
      throughput : float;
    }

(* ------------------------------------------------------------------ *)
(* JSON rendering, through the shared codec                            *)

type jv = Rf_util.Json.t =
  | Null
  | B of bool
  | I of int
  | F of float
  | S of string
  | L of jv list
  | O of (string * jv) list

let fields_of_event = function
  | Journal_opened { schema } -> ("journal_opened", [ ("schema", I schema) ])
  | Campaign_started { domains; base_trials; budget; cutoff } ->
      ( "campaign_started",
        [
          ("domains", I domains);
          ("base_trials", I base_trials);
          ("budget", (match budget with Some b -> I b | None -> Null));
          ("cutoff", B cutoff);
        ] )
  | Phase1_finished { potential; wall; degraded; level; detector; miss_bound }
    ->
      ( "phase1_finished",
        [
          ("potential", I potential);
          ("wall", F wall);
          ("degraded", B degraded);
          ("level", S level);
          ("detector", S detector);
          ("miss_bound", (match miss_bound with Some x -> F x | None -> Null));
        ] )
  | Phase1_recorded { events; bytes; shards; record_wall; detect_wall } ->
      ( "phase1_recorded",
        [
          ("events", I events);
          ("bytes", I bytes);
          ("shards", I shards);
          ("record_wall", F record_wall);
          ("detect_wall", F detect_wall);
        ] )
  | Wave_started { wave; tasks } ->
      ("wave_started", [ ("wave", I wave); ("tasks", I tasks) ])
  | Trial_started { pair; seed; domain } ->
      ("trial_started", [ ("pair", S pair); ("seed", I seed); ("domain", I domain) ])
  | Trial_finished
      {
        pair;
        seed;
        domain;
        race;
        error;
        deadlock;
        steps;
        switches;
        exns;
        wall;
        degraded;
        level;
        trigger;
        evicted;
      } ->
      ( "trial_finished",
        [
          ("pair", S pair);
          ("seed", I seed);
          ("domain", I domain);
          ("race", B race);
          ("error", B error);
          ("deadlock", B deadlock);
          ("steps", I steps);
          ("switches", I switches);
          ("exns", I exns);
          ("wall", F wall);
          ("degraded", B degraded);
          ("level", S level);
          ("trigger", S trigger);
          ("evicted", I evicted);
        ] )
  | Trial_crashed { pair; seed; domain; exn_; backtrace } ->
      ( "trial_crashed",
        [
          ("pair", S pair);
          ("seed", I seed);
          ("domain", I domain);
          ("exn", S exn_);
          ("backtrace", S backtrace);
        ] )
  | Trial_exhausted { pair; seed; domain; reason; steps; wall } ->
      ( "trial_exhausted",
        [
          ("pair", S pair);
          ("seed", I seed);
          ("domain", I domain);
          ("reason", S reason);
          ("steps", I steps);
          ("wall", F wall);
        ] )
  | Pair_filtered { pair; reason } ->
      ("pair_filtered", [ ("pair", S pair); ("reason", S reason) ])
  | Static_classified
      {
        universe;
        universe_impossible;
        frontier;
        likely;
        unknown;
        impossible;
        filtered;
        wall;
      } ->
      ( "static_classified",
        [
          ("universe", I universe);
          ("universe_impossible", I universe_impossible);
          ("frontier", I frontier);
          ("likely", I likely);
          ("unknown", I unknown);
          ("impossible", I impossible);
          ("filtered", I filtered);
          ("wall", F wall);
        ] )
  | Pair_resolved { pair; at_trial } ->
      ("pair_resolved", [ ("pair", S pair); ("at_trial", I at_trial) ])
  | Pair_quarantined { pair; crashes; at_trial } ->
      ( "pair_quarantined",
        [ ("pair", S pair); ("crashes", I crashes); ("at_trial", I at_trial) ] )
  | Trials_cancelled { pair; count } ->
      ("trials_cancelled", [ ("pair", S pair); ("count", I count) ])
  | Budget_granted { pair; extra } ->
      ("budget_granted", [ ("pair", S pair); ("extra", I extra) ])
  | Worker_crashed { domain; attempt; exn_ } ->
      ( "worker_crashed",
        [ ("domain", I domain); ("attempt", I attempt); ("exn", S exn_) ] )
  | Worker_respawned { domain; attempt; backoff } ->
      ( "worker_respawned",
        [ ("domain", I domain); ("attempt", I attempt); ("backoff", F backoff) ] )
  | Worker_gave_up { domain } -> ("worker_gave_up", [ ("domain", I domain) ])
  | Worker_spawned { worker; pid } ->
      ("worker_spawned", [ ("worker", I worker); ("pid", I pid) ])
  | Worker_killed { worker; pid; reason } ->
      ( "worker_killed",
        [ ("worker", I worker); ("pid", I pid); ("reason", S reason) ] )
  | Traces_saved { dir; count; bytes } ->
      ( "traces_saved",
        [ ("dir", S dir); ("count", I count); ("bytes", I bytes) ] )
  | Corpus_updated { dir; added; deduped; total } ->
      ( "corpus_updated",
        [
          ("dir", S dir);
          ("added", I added);
          ("deduped", I deduped);
          ("total", I total);
        ] )
  | Resume_loaded { entries; skipped } ->
      ("resume_loaded", [ ("entries", I entries); ("skipped", I skipped) ])
  | Campaign_interrupted { executed; remaining } ->
      ( "campaign_interrupted",
        [ ("executed", I executed); ("remaining", I remaining) ] )
  | Repro_written
      {
        pair;
        fingerprint;
        seed;
        file;
        steps_before;
        steps_after;
        switches_before;
        switches_after;
        oracle_runs;
      } ->
      ( "repro_written",
        [
          ("pair", S pair);
          ("fingerprint", S fingerprint);
          ("seed", I seed);
          ("file", S file);
          ("steps_before", I steps_before);
          ("steps_after", I steps_after);
          ("switches_before", I switches_before);
          ("switches_after", I switches_after);
          ("oracle_runs", I oracle_runs);
        ] )
  | Campaign_finished { wall; trials; cancelled; throughput } ->
      ( "campaign_finished",
        [
          ("wall", F wall);
          ("trials", I trials);
          ("cancelled", I cancelled);
          ("throughput", F throughput);
        ] )

let event_name ev = fst (fields_of_event ev)

let to_json ~seq ~elapsed ev =
  let name, fields = fields_of_event ev in
  Rf_util.Json.to_string
    (O (("seq", I seq) :: ("t", F elapsed) :: ("ev", S name) :: fields))

(* ------------------------------------------------------------------ *)
(* Reading back                                                        *)

let opt_int_f fields k =
  match List.assoc_opt k fields with
  | Some (I n) -> Some (Some n)
  | Some Null -> Some None
  | _ -> None

let event_of_fields fields : event option =
  let open Rf_util.Json in
  let ( let* ) = Option.bind in
  match str fields "ev" with
  | Some "journal_opened" ->
      let* schema = int fields "schema" in
      Some (Journal_opened { schema })
  | Some "campaign_started" ->
      let* domains = int fields "domains" in
      let* base_trials = int fields "base_trials" in
      let* budget = opt_int_f fields "budget" in
      let* cutoff = bool fields "cutoff" in
      Some (Campaign_started { domains; base_trials; budget; cutoff })
  | Some "phase1_finished" ->
      let* potential = int fields "potential" in
      let* wall = float fields "wall" in
      (* degradation fields arrived in v3, detector identity in v5;
         default for older journals *)
      let degraded = Option.value ~default:false (bool fields "degraded") in
      let level = Option.value ~default:"full" (str fields "level") in
      let detector = Option.value ~default:"hybrid" (str fields "detector") in
      let miss_bound = float fields "miss_bound" in
      Some (Phase1_finished { potential; wall; degraded; level; detector; miss_bound })
  | Some "phase1_recorded" ->
      let* events = int fields "events" in
      let* bytes = int fields "bytes" in
      let* shards = int fields "shards" in
      let* record_wall = float fields "record_wall" in
      let* detect_wall = float fields "detect_wall" in
      Some (Phase1_recorded { events; bytes; shards; record_wall; detect_wall })
  | Some "wave_started" ->
      let* wave = int fields "wave" in
      let* tasks = int fields "tasks" in
      Some (Wave_started { wave; tasks })
  | Some "trial_started" ->
      let* pair = str fields "pair" in
      let* seed = int fields "seed" in
      let* domain = int fields "domain" in
      Some (Trial_started { pair; seed; domain })
  | Some "trial_finished" ->
      let* pair = str fields "pair" in
      let* seed = int fields "seed" in
      let* domain = int fields "domain" in
      let* race = bool fields "race" in
      let* error = bool fields "error" in
      let* deadlock = bool fields "deadlock" in
      let* steps = int fields "steps" in
      let* switches = int fields "switches" in
      let* exns = int fields "exns" in
      let* wall = float fields "wall" in
      let degraded = Option.value ~default:false (bool fields "degraded") in
      let level = Option.value ~default:"full" (str fields "level") in
      let trigger = Option.value ~default:"" (str fields "trigger") in
      let evicted = Option.value ~default:0 (int fields "evicted") in
      Some
        (Trial_finished
           {
             pair;
             seed;
             domain;
             race;
             error;
             deadlock;
             steps;
             switches;
             exns;
             wall;
             degraded;
             level;
             trigger;
             evicted;
           })
  | Some "trial_crashed" ->
      let* pair = str fields "pair" in
      let* seed = int fields "seed" in
      let* domain = int fields "domain" in
      let* exn_ = str fields "exn" in
      let* backtrace = str fields "backtrace" in
      Some (Trial_crashed { pair; seed; domain; exn_; backtrace })
  | Some "trial_exhausted" ->
      let* pair = str fields "pair" in
      let* seed = int fields "seed" in
      let* domain = int fields "domain" in
      let* reason = str fields "reason" in
      let* steps = int fields "steps" in
      let* wall = float fields "wall" in
      Some (Trial_exhausted { pair; seed; domain; reason; steps; wall })
  | Some "pair_filtered" ->
      let* pair = str fields "pair" in
      let* reason = str fields "reason" in
      Some (Pair_filtered { pair; reason })
  | Some "static_classified" ->
      let* universe = int fields "universe" in
      let* universe_impossible = int fields "universe_impossible" in
      let* frontier = int fields "frontier" in
      let* likely = int fields "likely" in
      let* unknown = int fields "unknown" in
      let* impossible = int fields "impossible" in
      let* filtered = int fields "filtered" in
      let* wall = float fields "wall" in
      Some
        (Static_classified
           {
             universe;
             universe_impossible;
             frontier;
             likely;
             unknown;
             impossible;
             filtered;
             wall;
           })
  | Some "pair_resolved" ->
      let* pair = str fields "pair" in
      let* at_trial = int fields "at_trial" in
      Some (Pair_resolved { pair; at_trial })
  | Some "pair_quarantined" ->
      let* pair = str fields "pair" in
      let* crashes = int fields "crashes" in
      let* at_trial = int fields "at_trial" in
      Some (Pair_quarantined { pair; crashes; at_trial })
  | Some "trials_cancelled" ->
      let* pair = str fields "pair" in
      let* count = int fields "count" in
      Some (Trials_cancelled { pair; count })
  | Some "budget_granted" ->
      let* pair = str fields "pair" in
      let* extra = int fields "extra" in
      Some (Budget_granted { pair; extra })
  | Some "worker_crashed" ->
      let* domain = int fields "domain" in
      let* attempt = int fields "attempt" in
      let* exn_ = str fields "exn" in
      Some (Worker_crashed { domain; attempt; exn_ })
  | Some "worker_respawned" ->
      let* domain = int fields "domain" in
      let* attempt = int fields "attempt" in
      let* backoff = float fields "backoff" in
      Some (Worker_respawned { domain; attempt; backoff })
  | Some "worker_gave_up" ->
      let* domain = int fields "domain" in
      Some (Worker_gave_up { domain })
  | Some "worker_spawned" ->
      let* worker = int fields "worker" in
      let* pid = int fields "pid" in
      Some (Worker_spawned { worker; pid })
  | Some "worker_killed" ->
      let* worker = int fields "worker" in
      let* pid = int fields "pid" in
      let* reason = str fields "reason" in
      Some (Worker_killed { worker; pid; reason })
  | Some "traces_saved" ->
      let* dir = str fields "dir" in
      let* count = int fields "count" in
      let* bytes = int fields "bytes" in
      Some (Traces_saved { dir; count; bytes })
  | Some "corpus_updated" ->
      let* dir = str fields "dir" in
      let* added = int fields "added" in
      let* deduped = int fields "deduped" in
      let* total = int fields "total" in
      Some (Corpus_updated { dir; added; deduped; total })
  | Some "resume_loaded" ->
      let* entries = int fields "entries" in
      let* skipped = int fields "skipped" in
      Some (Resume_loaded { entries; skipped })
  | Some "campaign_interrupted" ->
      let* executed = int fields "executed" in
      let* remaining = int fields "remaining" in
      Some (Campaign_interrupted { executed; remaining })
  | Some "repro_written" ->
      let* pair = str fields "pair" in
      let* fingerprint = str fields "fingerprint" in
      let* seed = int fields "seed" in
      let* file = str fields "file" in
      let* steps_before = int fields "steps_before" in
      let* steps_after = int fields "steps_after" in
      let* switches_before = int fields "switches_before" in
      let* switches_after = int fields "switches_after" in
      let* oracle_runs = int fields "oracle_runs" in
      Some
        (Repro_written
           {
             pair;
             fingerprint;
             seed;
             file;
             steps_before;
             steps_after;
             switches_before;
             switches_after;
             oracle_runs;
           })
  | Some "campaign_finished" ->
      let* wall = float fields "wall" in
      let* trials = int fields "trials" in
      let* cancelled = int fields "cancelled" in
      let* throughput = float fields "throughput" in
      Some (Campaign_finished { wall; trials; cancelled; throughput })
  | _ -> None

let event_of_json line =
  Option.bind (Rf_util.Json.object_of_string line) event_of_fields

let parse_flat line =
  match Rf_util.Json.object_of_string line with
  | Some fields
    when List.for_all (function _, (L _ | O _) -> false | _ -> true) fields ->
      Some fields
  | _ -> None

let load_result path =
  (* a crash mid-write leaves at most one torn line, necessarily the last;
     a line that is not a whole object ends the useful journal prefix *)
  let rec go events skipped = function
    | [] -> (List.rev events, skipped)
    | "" :: rest -> go events skipped rest
    | line :: rest -> (
        match Rf_util.Json.check_seal line with
        | Rf_util.Json.Sealed_bad ->
            (* checksum mismatch: corrupted in place, not torn — skip the
               record, keep reading, and let the caller warn *)
            go events (skipped + 1) rest
        | Sealed_ok | Unsealed -> (
            match event_of_json line with
            | Some ev -> go (ev :: events) skipped rest
            | None ->
                let n = String.length line in
                if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
                  (List.rev events, skipped)
                else (* well-formed object of an unknown/newer event *)
                  go events skipped rest))
  in
  go [] 0 (Rf_util.Json.read_lines path)

let load path = fst (load_result path)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

type sink = Drop | Lines of out_channel * bool (* close channel on close *) | Memory

type t = {
  mutex : Mutex.t;
  mutable seq : int;
  started : float;
  sink : sink;
  mutable mem : event list;  (** newest first; Memory sink only *)
  mutable closed : bool;
}

let make sink =
  {
    mutex = Mutex.create ();
    seq = 0;
    started = Unix.gettimeofday ();
    sink;
    mem = [];
    closed = false;
  }

let null () = make Drop
let to_channel oc = make (Lines (oc, false))

let open_file path =
  let t = make (Lines (open_out path, true)) in
  t

let memory () = make Memory

let emit t ev =
  match t.sink with
  | Drop -> ()
  | Memory ->
      Mutex.protect t.mutex (fun () ->
          t.seq <- t.seq + 1;
          t.mem <- ev :: t.mem)
  | Lines (oc, _) ->
      Mutex.protect t.mutex (fun () ->
          if not t.closed then begin
            t.seq <- t.seq + 1;
            let line =
              Rf_util.Json.seal
                (to_json ~seq:t.seq ~elapsed:(Unix.gettimeofday () -. t.started) ev)
            in
            output_string oc line;
            output_char oc '\n';
            flush oc
          end)

let open_file path =
  let t = open_file path in
  emit t (Journal_opened { schema = schema_version });
  t

let events t = Mutex.protect t.mutex (fun () -> List.rev t.mem)

let flush_log t =
  match t.sink with
  | Lines (oc, _) ->
      Mutex.protect t.mutex (fun () -> if not t.closed then flush oc)
  | _ -> ()

(* [close] shares the emit mutex so a worker mid-write can never race the
   channel teardown, and is idempotent. *)
let close t =
  match t.sink with
  | Lines (oc, close_ch) ->
      Mutex.protect t.mutex (fun () ->
          if not t.closed then begin
            t.closed <- true;
            if close_ch then close_out oc else flush oc
          end)
  | _ -> ()
