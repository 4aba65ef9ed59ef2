(* The traced run: one pass of a workload re-executed through the
   program's public calls, with a span around each call into a layer.

   table1 / fork-wide re-run each campaign as its parts, sequentially:
   phase 1 (Engine.run with a timed Detector.feed listener), the cutoff
   wave loop of phase 2 (Engine.run under a timed Algo.strategy), and the
   reproduction pass (Repro.write_all, i.e. record + Fuzzer.minimize_schedule
   + Fuzzer.replay_schedule).  serve-warm re-runs one warm cycle: replay
   of every stored repro, Btrace.load + Fuzzer.phase1_of_recordings of
   the phase-1 cache, Campaign.run on the worker fleet, Repro.write_all,
   Corpus.update and Service.Ledger.save after every verdict.

   Spans stay in memory and are written out when the run ends.  The
   traced pass must reach the same confirmed fingerprints (and for
   serve-warm the same cycle fingerprint) as the untraced program: that
   is the check that it measured the same work.  End-to-end numbers never
   come from here; the untraced reference runs made here give the
   tracing overhead and the campaign counters. *)

open Bench_util
module W = Workloads
module Fuzzer = Racefuzzer.Fuzzer
module Algo = Racefuzzer.Algo
module Campaign = Rf_campaign.Campaign
module Event_log = Rf_campaign.Event_log
module Corpus = Rf_campaign.Corpus
module Service = Rf_campaign.Service
module Ledger = Rf_campaign.Service.Ledger
module Repro = Rf_campaign.Repro
module Engine = Rf_runtime.Engine
module Strategy = Rf_runtime.Strategy
module Outcome = Rf_runtime.Outcome
module Detector = Rf_detect.Detector
module Site = Rf_util.Site

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

type span = {
  id : int;
  name : string;  (** "<layer>.<call>" *)
  parent : int;  (** -1 for the pass root *)
  pass : int;  (** the traced run re-executes one pass: 0 *)
  start : float;
  mutable stop : float;
  mutable children : float;  (** time covered by child spans *)
  mutable inner : float;  (** timed choose/feed calls made directly inside *)
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

(* Time attributed to the strategy and detector wrappers. *)
let choose_s = ref 0.0
let choose_n = ref 0
let feed_s = ref 0.0
let feed_n = ref 0

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let with_span name f =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = !next_id; name; parent; pass = 0; start = now (); stop = 0.0; children = 0.0; inner = 0.0 }
  in
  incr next_id;
  stack := s :: !stack;
  let finish () =
    s.stop <- now ();
    stack := List.tl !stack;
    spans := s :: !spans;
    match !stack with p :: _ -> p.children <- p.children +. (s.stop -. s.start) | [] -> ()
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let attribute dt acc n =
  acc := !acc +. dt;
  incr n;
  match !stack with p :: _ -> p.inner <- p.inner +. dt | [] -> ()

(* Timing wrappers: the wrapped closures see exactly the same views and
   events, so schedules and PRNG streams are unchanged. *)
let timed_strategy (s : Strategy.t) =
  Strategy.make ~name:(Strategy.name s) (fun v ->
      let t0 = now () in
      let tid = s.Strategy.choose v in
      attribute (now () -. t0) choose_s choose_n;
      tid)

let timed_feed d ev =
  let t0 = now () in
  Detector.feed d ev;
  attribute (now () -. t0) feed_s feed_n

let self_time s = s.stop -. s.start -. s.children -. s.inner

(* Self time per layer, the strategy and detector wrappers included. *)
let layer_self () =
  let tbl = Hashtbl.create 16 in
  let add l dt = Hashtbl.replace tbl l (dt +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)) in
  List.iter (fun s -> add (layer_of s.name) (self_time s)) !spans;
  add "strategy" !choose_s;
  add "detect" !feed_s;
  tbl

let write_spans path =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"pass\": %d, \"start\": %.6f, \"end\": %.6f, \"self\": %.6f}\n"
        s.id s.name s.parent s.pass s.start s.stop (self_time s))
    (List.sort (fun a b -> compare a.id b.id) !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Counters the traced pass gathers                                      *)

type counters = {
  mutable steps : int;  (** engine steps of in-process runs *)
  mutable runtime_words : float;  (** minor words allocated by phase-2 trials *)
  mutable trial_steps : int;
  mutable det_events : int;
  mutable det_entries : int;
  mutable peak_heap_w : int;
  mutable offline_s : float;
  mutable bt_bytes : int;
  mutable bt_decode_s : float;
  mutable oracle_runs : int;
  mutable shrink_s : float;
  mutable reval_s : float list;
  mutable ledger_s : float list;
  mutable corpus_s : float list;
}

let c =
  {
    steps = 0;
    runtime_words = 0.0;
    trial_steps = 0;
    det_events = 0;
    det_entries = 0;
    peak_heap_w = 0;
    offline_s = 0.0;
    bt_bytes = 0;
    bt_decode_s = 0.0;
    oracle_runs = 0;
    shrink_s = 0.0;
    reval_s = [];
    ledger_s = [];
    corpus_s = [];
  }

let timed_span record name f =
  let r, dt = time (fun () -> with_span name f) in
  record dt;
  r

let ledger_save ~dir ledger =
  timed_span (fun dt -> c.ledger_s <- dt :: c.ledger_s) "service.ledger_save" (fun () ->
      Ledger.save ~dir ledger)

let repro_pass ~dir ~target ~program results =
  let r, dt =
    time (fun () ->
        with_span "replay.shrink" (fun () ->
            Repro.write_all ~fuel:W.repro_fuel ~dir ~target ~program results))
  in
  c.shrink_s <- c.shrink_s +. dt;
  c.oracle_runs <- c.oracle_runs + r.Repro.oracle_runs;
  r

(* ------------------------------------------------------------------ *)
(* A campaign as its parts                                               *)

(* Phase 1 as Fuzzer.phase1 runs it inline: one hybrid detector shared by
   the seeds, the random scheduler, every operation a switch point. *)
let phase1 ~seeds program =
  with_span "campaign.phase1" (fun () ->
      let t0 = now () in
      let d = Detector.hybrid () in
      let outcomes =
        List.map
          (fun seed ->
            with_span "runtime.run" (fun () ->
                Engine.run
                  ~config:{ Engine.default_config with seed }
                  ~listeners:[ timed_feed d ]
                  ~strategy:(timed_strategy (Strategy.random ()))
                  program))
          seeds
      in
      let stats = Detector.stats d in
      c.steps <- c.steps + sumi (List.map (fun o -> o.Outcome.steps) outcomes);
      c.det_events <- c.det_events + stats.Detector.st_mem_events;
      c.det_entries <- c.det_entries + stats.Detector.st_entries;
      c.peak_heap_w <- max c.peak_heap_w (Gc.quick_stat ()).Gc.top_heap_words;
      {
        Fuzzer.potential = Detector.races d;
        p1_outcomes = outcomes;
        p1_wall = now () -. t0;
        p1_degraded = None;
        p1_recording = None;
        p1_name = "hybrid";
        p1_stats = stats;
      })

(* One phase-2 trial as Fuzzer.run_trial runs it (no governor, no
   deadline): the Algo strategy for the pair, switch points restricted
   to synchronization plus the pair's two sites. *)
let trial program pair seed =
  let watch = Site.Set.add (Site.Pair.fst pair) (Site.Set.singleton (Site.Pair.snd pair)) in
  let report = Algo.fresh_report () in
  let strategy = timed_strategy (Algo.strategy ~pair ~report ()) in
  let w0 = Gc.minor_words () in
  let o =
    with_span "runtime.trial" (fun () ->
        Engine.run
          ~config:{ Engine.default_config with seed; policy = Engine.Sync_and watch }
          ~strategy program)
  in
  c.runtime_words <- c.runtime_words +. (Gc.minor_words () -. w0);
  c.steps <- c.steps + o.Outcome.steps;
  c.trial_steps <- c.trial_steps + o.Outcome.steps;
  { Fuzzer.t_seed = seed; t_outcome = o; t_report = report; t_degraded = None }

type pstate = {
  pair : Site.Pair.t;
  mutable granted : int;
  mutable queued : int;
  mutable slots : Fuzzer.trial option array;
  mutable first_race : int;
  mutable first_error : int;
  mutable settled : bool;
}

let resolution ps =
  if ps.first_race = max_int || ps.first_error = max_int then None
  else Some (max ps.first_race ps.first_error)

(* Campaign.fuzz_pairs' cutoff semantics, on one domain: seed-major
   waves; a pair resolved (raced and erred) at index k keeps trials
   0..k; its unused grant returns to a pool re-granted round-robin to
   unresolved pairs, at most one base list per pair per wave, with fresh
   seeds above the base list. *)
let phase2 ~seeds program pairs =
  with_span "campaign.phase2" (fun () ->
      let base = Array.of_list seeds in
      let nbase = Array.length base in
      let extra = 1 + Array.fold_left max 0 base in
      let seed_of idx = if idx < nbase then base.(idx) else extra + (idx - nbase) in
      let states =
        Array.of_list
          (List.map
             (fun pair ->
               {
                 pair;
                 granted = nbase;
                 queued = 0;
                 slots = Array.make nbase None;
                 first_race = max_int;
                 first_error = max_int;
                 settled = false;
               })
             pairs)
      in
      let pool = ref 0 in
      let continue_ = ref (Array.length states > 0 && nbase > 0) in
      while !continue_ do
        let tasks = ref [] in
        Array.iteri
          (fun p ps ->
            for idx = ps.queued to ps.granted - 1 do
              tasks := (idx, p) :: !tasks
            done;
            ps.queued <- ps.granted)
          states;
        List.iter
          (fun (idx, p) ->
            let ps = states.(p) in
            match resolution ps with
            | Some b when idx > b -> ()
            | _ ->
                let tr = trial program ps.pair (seed_of idx) in
                ps.slots.(idx) <- Some tr;
                let race = Algo.race_created tr.Fuzzer.t_report in
                if race && idx < ps.first_race then ps.first_race <- idx;
                if race && Outcome.has_exception tr.Fuzzer.t_outcome && idx < ps.first_error then
                  ps.first_error <- idx)
          (List.sort compare !tasks);
        Array.iter
          (fun ps ->
            match resolution ps with
            | Some b when not ps.settled ->
                ps.settled <- true;
                pool := !pool + max 0 (ps.granted - (b + 1))
            | _ -> ())
          states;
        let unresolved = List.filter (fun ps -> not ps.settled) (Array.to_list states) in
        if !pool <= 0 || unresolved = [] then continue_ := false
        else begin
          let granted_now = Array.make (List.length unresolved) 0 in
          let progress = ref true in
          while !pool > 0 && !progress do
            progress := false;
            List.iteri
              (fun i ps ->
                if !pool > 0 && granted_now.(i) < nbase then begin
                  if ps.granted + 1 > Array.length ps.slots then begin
                    let a = Array.make (max (ps.granted + 1) (2 * Array.length ps.slots)) None in
                    Array.blit ps.slots 0 a 0 (Array.length ps.slots);
                    ps.slots <- a
                  end;
                  ps.granted <- ps.granted + 1;
                  granted_now.(i) <- granted_now.(i) + 1;
                  decr pool;
                  progress := true
                end)
              unresolved
          done;
          continue_ := List.exists (fun ps -> ps.queued < ps.granted) unresolved
        end
      done;
      Array.to_list
        (Array.map
           (fun ps ->
             let upto = match resolution ps with Some k -> min (k + 1) ps.granted | None -> ps.granted in
             let kept = ref [] in
             for idx = ps.granted - 1 downto 0 do
               match ps.slots.(idx) with Some tr when idx < upto -> kept := tr :: !kept | _ -> ()
             done;
             let wall =
               List.fold_left (fun acc (t : Fuzzer.trial) -> acc +. t.Fuzzer.t_outcome.Outcome.wall_time) 0.0 !kept
             in
             Fuzzer.aggregate_trials ~pair:ps.pair ~wall !kept)
           states))

let analysis_of p1 results =
  let collect p =
    List.fold_left
      (fun acc (r : Fuzzer.pair_result) -> if p r then Site.Pair.Set.add r.Fuzzer.pr_pair acc else acc)
      Site.Pair.Set.empty results
  in
  {
    Fuzzer.a_phase1 = p1;
    results;
    real_pairs = collect Fuzzer.is_real;
    error_pairs = collect Fuzzer.is_harmful;
    deadlock_pairs = collect (fun r -> r.Fuzzer.deadlock_trials > 0);
    a_filtered = [];
  }

let traced_campaign ~seed ~repro_dir (t : W.target) =
  with_span "campaign.run" (fun () ->
      let p1 = phase1 ~seeds:(W.phase1_seeds seed) t.W.program in
      let pairs = Site.Pair.Set.elements (Fuzzer.potential_pairs p1) in
      let pairs = match t.W.static with Some st -> Fuzzer.order_pairs ~static:st pairs | None -> pairs in
      let results = phase2 ~seeds:(W.trial_seeds seed) t.W.program pairs in
      let a = analysis_of p1 results in
      let repro = repro_pass ~dir:repro_dir ~target:t.W.name ~program:t.W.program results in
      (a, repro))

(* ------------------------------------------------------------------ *)
(* Result of a traced run                                                *)

let layers = [ "campaign"; "runtime"; "strategy"; "detect"; "btrace"; "replay"; "procpool"; "service"; "corpus" ]

type totals = {
  verdict_traced : float;
  verdict_untraced : float;
  phase1_s : float;
  phase2_s : float;
  busy : float;  (** busy domain-seconds *)
  capacity : float;  (** phase-2 wall x domains *)
  waves : int;
  trials_run : int;
  discarded : int;
  journal : W.journal;
  journal_s : float;
  parse_s : float;
  attempted : int;
  errors : string list;
}

let metrics tot =
  let self = layer_self () in
  let uncovered = List.fold_left (fun acc s -> if s.parent = -1 then acc +. self_time s else acc) 0.0 !spans in
  (* fleet start-up happens inside Campaign.run: move it from the
     campaign layer to procpool *)
  let get l = Option.value ~default:0.0 (Hashtbl.find_opt self l) in
  Hashtbl.replace self "campaign" (get "campaign" -. tot.journal.W.j_spawn_s);
  Hashtbl.replace self "procpool" (get "procpool" +. tot.journal.W.j_spawn_s);
  let v = tot.verdict_traced in
  let share x = if v > 0.0 then x /. v else 0.0 in
  let per n x = if n > 0 then x /. float_of_int n else 0.0 in
  let mean xs = per (List.length xs) (sum xs) in
  let walls = tot.journal.W.j_trial_walls in
  let j = tot.journal in
  let failed = j.W.j_faults + List.length tot.errors in
  let steps = c.steps in
  let layer_rows =
    List.concat_map
      (fun l -> [ (l ^ ".self_s", get l, "s"); (l ^ ".share", share (get l), "frac") ])
      layers
  in
  ( [
      ("campaign.phase1_s", tot.phase1_s, "s");
      ("campaign.phase2_s", tot.phase2_s, "s");
      ("campaign.busy_frac", (if tot.capacity > 0.0 then tot.busy /. tot.capacity else 0.0), "frac");
      ("campaign.waves", float_of_int tot.waves, "count");
      ( "campaign.useful_frac",
        (if tot.trials_run > 0 then 1.0 -. (float_of_int tot.discarded /. float_of_int tot.trials_run) else 1.0),
        "frac" );
      ("runtime.steps", float_of_int steps, "count");
      ("runtime.step_ns", per steps (get "runtime") *. 1e9, "ns");
      ("runtime.trial_p50_ms", quantile 0.5 walls *. 1e3, "ms");
      ("runtime.trial_p99_ms", quantile 0.99 walls *. 1e3, "ms");
      ("runtime.alloc_words_per_step", per c.trial_steps c.runtime_words, "words");
      ("strategy.switches", float_of_int j.W.j_switches, "count");
      ("strategy.choose_ns", per !choose_n !choose_s *. 1e9, "ns");
      ("detect.events", float_of_int c.det_events, "count");
      ("detect.entries", float_of_int c.det_entries, "count");
      ("detect.feed_ns", per !feed_n !feed_s *. 1e9, "ns");
      ("detect.peak_heap_mw", float_of_int c.peak_heap_w /. 1e6, "Mwords");
      ("detect.offline_s", c.offline_s, "s");
      ("btrace.bytes", float_of_int c.bt_bytes, "bytes");
      ("btrace.decode_s", c.bt_decode_s, "s");
      ("replay.oracle_runs", float_of_int c.oracle_runs, "count");
      ("replay.shrink_s", c.shrink_s, "s");
      ("replay.reval_ms", mean c.reval_s *. 1e3, "ms");
      ("journal.lines", float_of_int j.W.j_lines, "count");
      ("journal.write_s", tot.journal_s, "s");
      ("procpool.spawns", float_of_int j.W.j_spawns, "count");
      ("procpool.spawn_s", j.W.j_spawn_s, "s");
      ("service.ledger_saves", float_of_int (List.length c.ledger_s), "count");
      ("service.ledger_save_ms", mean c.ledger_s *. 1e3, "ms");
      ("corpus.update_ms", mean c.corpus_s *. 1e3, "ms");
      ("lang.parse_ms", tot.parse_s *. 1e3, "ms");
    ]
    @ layer_rows
    @ [
        ("trace.uncovered_s", uncovered, "s");
        ("trace.verdict_s", v, "s");
        ("trace.untraced_verdict_s", tot.verdict_untraced, "s");
        ("trace.overhead_s", v -. tot.verdict_untraced, "s");
        ("failed_frac", per (max 1 tot.attempted) (float_of_int failed), "frac");
      ],
    failed )

(* ------------------------------------------------------------------ *)
(* table1 / fork-wide                                                    *)

let campaign_workload ~workload ~seed ~work =
  let targets = if workload = "table1" then W.table1_targets () else [ W.fork_wide_target () ] in
  let ctx = W.campaign_ctx ~workload ~seed ~work targets in
  let dir sub name =
    let d = Filename.concat (Filename.concat work sub) name in
    mkdir_p d;
    d
  in
  let repro_dir (t : W.target) = dir "repros" t.W.name in
  (* Untraced references.  Per target: the campaign as the loop runs it
     (file journal, two domains), for the verdicts and counters; then its
     phase 2 alone (phase 1 handed in, no repro pass) with a file journal
     and with the journal dropped, back to back three times: the journal
     cost is the median of the paired differences.  The traced pass is
     compared with the same work run untraced on one domain without a
     journal, just before and just after it. *)
  let refs =
    List.map
      (fun (t : W.target) ->
        let filed, _ = W.run_campaign ~seed ~work ~repro_dir:(repro_dir t) t in
        let j = W.read_journal (W.journal_path ctx t.W.name) in
        let phase1 = filed.Campaign.analysis.Fuzzer.a_phase1 in
        let diffs =
          List.init 3 (fun _ ->
              let _, with_file = W.run_campaign ~phase1 ~seed ~work t in
              let _, dropped = W.run_campaign ~phase1 ~journal:false ~seed ~work t in
              with_file -. dropped)
        in
        (t, filed, median diffs, j))
      targets
  in
  let untraced () =
    sum
      (List.map
         (fun t -> snd (W.run_campaign ~domains:1 ~journal:false ~seed ~work ~repro_dir:(repro_dir t) t))
         targets)
  in
  let before = untraced () in
  let gc_major0 = (Gc.quick_stat ()).Gc.major_collections in
  let traced, verdict_traced =
    time (fun () ->
        with_span "pass" (fun () ->
            List.map (fun (t : W.target) -> traced_campaign ~seed ~repro_dir:(dir "traced-repros" t.W.name) t) targets))
  in
  let gc_major = (Gc.quick_stat ()).Gc.major_collections - gc_major0 in
  let after = untraced () in
  let errors =
    List.concat
      (List.map2
         (fun (t, (filed : Campaign.result), _, _) ((a : Fuzzer.analysis), (repro : Repro.summary)) ->
           let v_ref = W.verdict_of filed.Campaign.analysis and v = W.verdict_of a in
           let fps (s : Repro.summary) = List.sort compare (List.map (fun e -> e.Repro.r_fingerprint) s.Repro.written) in
           W.check_verdict ctx t.W.name v_ref
           @ (if v.W.confirmed <> v_ref.W.confirmed then
                [ Printf.sprintf "%s: traced confirmed %s, Campaign.run %s" t.W.name v.W.confirmed v_ref.W.confirmed ]
              else [])
           @
           if fps repro <> fps filed.Campaign.repro then [ t.W.name ^ ": traced repro fingerprints differ" ] else [])
         refs traced)
  in
  let stats = List.map (fun (_, (r : Campaign.result), _, _) -> r.Campaign.stats) refs in
  let fsum f = sum (List.map f stats) and isum f = sumi (List.map f stats) in
  let tot =
    {
      verdict_traced;
      verdict_untraced = (before +. after) /. 2.0;
      phase1_s = fsum (fun s -> s.Campaign.s_phase1_wall);
      phase2_s = fsum (fun s -> s.Campaign.s_wall);
      busy = fsum (fun s -> Array.fold_left ( +. ) 0.0 s.Campaign.s_domain_busy);
      capacity = fsum (fun s -> s.Campaign.s_wall *. float_of_int s.Campaign.s_domains);
      waves = isum (fun s -> s.Campaign.s_waves);
      trials_run = isum (fun s -> s.Campaign.s_trials);
      discarded = isum (fun s -> s.Campaign.s_discarded);
      journal = W.sum_journals (List.map (fun (_, _, _, j) -> j) refs);
      journal_s = sum (List.map (fun (_, _, js, _) -> js) refs);
      parse_s = 0.0;
      attempted = isum (fun s -> s.Campaign.s_trials) + (2 * List.length targets);
      errors;
    }
  in
  (tot, gc_major)

(* ------------------------------------------------------------------ *)
(* serve-warm                                                            *)

exception Check_failed of string

let replay_once path =
  let sched = try Rf_replay.Schedule.load path with Rf_replay.Schedule.Format_error m | Sys_error m -> raise (Check_failed m) in
  let meta = sched.Rf_replay.Schedule.meta in
  match W.resolve meta.Rf_replay.Schedule.m_target with
  | Error m -> raise (Check_failed m)
  | Ok program -> (
      let o, status = Fuzzer.replay_schedule ~program sched in
      c.steps <- c.steps + o.Outcome.steps;
      match status.Rf_replay.Replayer.divergence with
      | Some _ -> raise (Check_failed "replay diverged")
      | None -> Rf_replay.Schedule.error_fingerprint o = meta.Rf_replay.Schedule.m_error)

let intact_once ~dir (e : Corpus.entry) =
  e.Corpus.e_file = ""
  ||
  let f = Filename.concat dir e.Corpus.e_file in
  let content = In_channel.with_open_bin f In_channel.input_all in
  e.Corpus.e_crc = "" || Rf_util.Fnv.hex63 content = e.Corpus.e_crc

(* One warm cycle of Service.serve, as its public calls. *)
let traced_cycle ~dir ~log =
  let config = W.serve_config ~cycles:0 in
  let ledger, _ = with_span "service.ledger_load" (fun () -> Ledger.load dir) in
  let cycle = ledger.Ledger.l_cycle in
  (match with_span "corpus.verify" (fun () -> Corpus.verify ~dir) with
  | Ok _ -> ()
  | Error _ -> ignore (with_span "corpus.update" (fun () -> Corpus.update ~dir [])));
  ledger_save ~dir ledger;
  let entries = with_span "corpus.load" (fun () -> Corpus.load dir) in
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (e : Corpus.entry) ->
      let key = (e.Corpus.e_kind, e.Corpus.e_key) in
      let prior = Hashtbl.find_opt ledger.Ledger.l_items key in
      let settled = match prior with Some i -> i.Ledger.li_cycle >= cycle | None -> false in
      let quarantined = match prior with Some i -> i.Ledger.li_quarantine <> "" | None -> false in
      if not (settled || quarantined) then begin
        let check () =
          if e.Corpus.e_kind = "error" then
            timed_span (fun dt -> c.reval_s <- dt :: c.reval_s) "replay.reval" (fun () ->
                replay_once (Filename.concat dir e.Corpus.e_file))
          else with_span "corpus.intact" (fun () -> intact_once ~dir e)
        in
        let strikes = match prior with Some i -> i.Ledger.li_strikes | None -> 0 in
        let verdict, strikes =
          match check () with
          | true when e.Corpus.e_kind = "error" ->
              ( (match prior with
                | Some { Ledger.li_verdict = Ledger.Fixed; _ } -> Ledger.Regressed
                | _ -> Ledger.Still_racy),
                strikes )
          | true -> (Ledger.Intact, strikes)
          | false -> (Ledger.Fixed, strikes)
          | exception Check_failed _ -> (Ledger.Failed, strikes + 1)
        in
        Hashtbl.replace ledger.Ledger.l_items key
          {
            Ledger.li_kind = e.Corpus.e_kind;
            li_key = e.Corpus.e_key;
            li_verdict = verdict;
            li_cycle = cycle;
            li_attempts = 1;
            li_strikes = strikes;
            li_quarantine = "";
          };
        ledger_save ~dir ledger;
        Hashtbl.replace tally verdict (1 + Option.value ~default:0 (Hashtbl.find_opt tally verdict))
      end)
    entries;
  let settled =
    Hashtbl.fold (fun _ i acc -> i :: acc) ledger.Ledger.l_items []
    |> List.filter (fun i -> i.Ledger.li_cycle = cycle)
    |> List.sort (fun a b -> compare (a.Ledger.li_kind, a.Ledger.li_key) (b.Ledger.li_kind, b.Ledger.li_key))
  in
  let fingerprint =
    let module F = Rf_util.Fnv in
    let h =
      List.fold_left
        (fun h (i : Ledger.item) ->
          let h = F.fold_string63 h i.Ledger.li_kind in
          let h = F.fold_string63 h i.Ledger.li_key in
          F.fold_string63 h (Ledger.verdict_to_string i.Ledger.li_verdict))
        F.basis63 settled
    in
    Printf.sprintf "%016x" (F.mask63 h)
  in
  let targets =
    List.sort_uniq compare
      (List.filter_map (fun (e : Corpus.entry) -> if e.Corpus.e_target = "" then None else Some e.Corpus.e_target) entries)
  in
  let confirmed =
    List.map
      (fun name ->
        let tg = Hashtbl.find ledger.Ledger.l_targets name in
        let tokens = Float.min config.Service.v_burst (tg.Ledger.lt_tokens +. config.Service.v_rate) -. 1.0 in
        let program = match W.resolve name with Ok p -> p | Error m -> failwith m in
        let cdir = Filename.concat (Filename.concat dir "p1cache") (Rf_util.Fnv.hex63 name) in
        let files =
          List.init config.Service.v_phase1_seeds (fun s -> Filename.concat cdir (Printf.sprintf "trace-seed%d.rfbt" s))
        in
        let recordings, dt =
          time (fun () -> with_span "btrace.load" (fun () -> List.map Rf_events.Btrace.load files))
        in
        c.bt_decode_s <- c.bt_decode_s +. dt;
        c.bt_bytes <- c.bt_bytes + sumi (List.map Rf_events.Btrace.byte_size recordings);
        let p1, dt = time (fun () -> with_span "detect.offline" (fun () -> Fuzzer.phase1_of_recordings recordings)) in
        c.offline_s <- c.offline_s +. dt;
        c.det_events <- c.det_events + p1.Fuzzer.p1_stats.Detector.st_mem_events;
        c.det_entries <- c.det_entries + p1.Fuzzer.p1_stats.Detector.st_entries;
        let proc = Option.map (fun sp -> { sp with Rf_campaign.Proc_pool.sp_target = name }) config.Service.v_proc in
        let r =
          with_span "campaign.wave" (fun () ->
              Campaign.run ~domains:config.Service.v_domains ~cutoff:true
                ~seeds_per_pair:(List.init config.Service.v_seeds_per_pair Fun.id)
                ~log ?proc ~target:name ~phase1:p1 program)
        in
        let results = r.Campaign.analysis.Fuzzer.results in
        let repro = repro_pass ~dir:(Filename.concat dir "repros") ~target:name ~program results in
        ignore
          (timed_span (fun dt -> c.corpus_s <- dt :: c.corpus_s) "corpus.update" (fun () ->
               Corpus.update ~dir
                 (List.map
                    (fun (e : Repro.entry) ->
                      Corpus.ingest_file ~dir ~kind:"error" ~key:e.Repro.r_fingerprint ~target:name
                        ~pair:(Site.Pair.to_string e.Repro.r_pair) ~seed:e.Repro.r_seed ~src:e.Repro.r_file ())
                    repro.Repro.written))
            : Corpus.summary);
        let fp = Campaign.confirmed_fingerprint r.Campaign.analysis in
        Hashtbl.replace ledger.Ledger.l_targets name
          { tg with Ledger.lt_tokens = tokens; lt_campaigns = tg.Ledger.lt_campaigns + 1; lt_confirmed = fp };
        ledger_save ~dir ledger;
        (name, fp, r.Campaign.stats))
      targets
  in
  let count v = Option.value ~default:0 (Hashtbl.find_opt tally v) in
  let wreq = match config.Service.v_proc with Some sp -> sp.Rf_campaign.Proc_pool.sp_workers | None -> 0 in
  let wact = List.fold_left (fun m (_, _, s) -> min m s.Campaign.s_proc_active) wreq confirmed in
  ledger.Ledger.l_cycles <-
    ledger.Ledger.l_cycles
    @ [
        {
          Ledger.lc_cycle = cycle;
          lc_fingerprint = fingerprint;
          lc_checked = List.length settled;
          lc_still = count Ledger.Still_racy;
          lc_fixed = count Ledger.Fixed;
          lc_regressed = count Ledger.Regressed;
          lc_intact = count Ledger.Intact;
          lc_failed = count Ledger.Failed;
          lc_campaigns = List.length targets;
          lc_wreq = wreq;
          lc_wact = wact;
        };
      ];
  ledger.Ledger.l_cycle <- cycle + 1;
  ledger_save ~dir ledger;
  (fingerprint, confirmed)

let serve_workload ~seed ~work =
  let ctx = W.serve_setup ~seed ~work:(Filename.concat work "setup") () in
  (* Untraced references: warm cycles as the loop runs them (file
     journal), each followed by one on a dropped journal, three times; the
     journal cost is the median of the paired differences. *)
  let refs = List.init 3 (fun _ -> (W.serve_cycle ctx, W.serve_cycle ~journal:false ctx)) in
  let filed = List.map fst refs and nulled = List.map snd refs in
  let wall ((p : W.pass), _) = p.W.p_wall in
  let reference_ledger, _ = Ledger.load ctx.W.s_dir in
  let _, j_ref = List.hd filed in
  let log = Event_log.open_file (Filename.concat work "traced.jsonl") in
  let gc_major0 = (Gc.quick_stat ()).Gc.major_collections in
  let (fingerprint, confirmed), verdict_traced =
    time (fun () -> with_span "pass" (fun () -> traced_cycle ~dir:ctx.W.s_dir ~log))
  in
  let gc_major = (Gc.quick_stat ()).Gc.major_collections - gc_major0 in
  Event_log.close log;
  let j_traced = W.read_journal (Filename.concat work "traced.jsonl") in
  let after = W.serve_cycle ctx in
  let ref_fp = Option.get ctx.W.s_fp in
  let errors =
    List.concat_map (fun (p, _) -> p.W.p_errors) (filed @ nulled @ [ after ])
    @ (if fingerprint <> ref_fp then [ Printf.sprintf "traced cycle fingerprint %s, Service.serve %s" fingerprint ref_fp ]
       else [])
    @ List.concat_map
        (fun (name, fp, _) ->
          let tg = Hashtbl.find reference_ledger.Ledger.l_targets name in
          if tg.Ledger.lt_confirmed <> fp then
            [ Printf.sprintf "%s: traced confirmed %s, Service.serve %s" name fp tg.Ledger.lt_confirmed ]
          else [])
        confirmed
    @ W.verify_corpus ctx
  in
  let stats = List.map (fun (_, _, s) -> s) confirmed in
  let fsum f = sum (List.map f stats) and isum f = sumi (List.map f stats) in

  let tot =
    {
      verdict_traced;
      verdict_untraced = median (List.map wall (filed @ [ after ]));
      phase1_s = c.offline_s;
      phase2_s = fsum (fun s -> s.Campaign.s_wall);
      busy = fsum (fun s -> Array.fold_left ( +. ) 0.0 s.Campaign.s_domain_busy);
      capacity = fsum (fun s -> s.Campaign.s_wall *. float_of_int s.Campaign.s_domains);
      waves = isum (fun s -> s.Campaign.s_waves);
      trials_run = isum (fun s -> s.Campaign.s_trials);
      discarded = isum (fun s -> s.Campaign.s_discarded);
      (* what the program journals (lines, trial walls) from an untraced
         cycle; the fleet and trial counts of the traced cycle itself *)
      journal = { j_traced with W.j_lines = j_ref.W.j_lines; j_trial_walls = j_ref.W.j_trial_walls };
      journal_s = median (List.map (fun (f, n) -> wall f -. wall n) refs);
      parse_s = ctx.W.s_parse_s;
      attempted = isum (fun s -> s.Campaign.s_trials) + List.length c.reval_s + List.length filed + List.length nulled + 2;
      errors;
    }
  in
  (tot, gc_major)

(* ------------------------------------------------------------------ *)

let print_table ~workload tot metrics =
  let get n = match List.find_opt (fun (m, _, _) -> m = n) metrics with Some (_, v, _) -> v | None -> 0.0 in
  log "traced pass of %s: %.3f s traced, %.3f s untraced, overhead %.3f s" workload tot.verdict_traced
    tot.verdict_untraced (tot.verdict_traced -. tot.verdict_untraced);
  log "%-10s %10s %8s" "layer" "self_s" "share";
  List.iter (fun l -> log "%-10s %10.3f %7.1f%%" l (get (l ^ ".self_s")) (100.0 *. get (l ^ ".share"))) layers;
  log "%-10s %10.3f %7.1f%%" "(none)" (get "trace.uncovered_s")
    (100.0 *. get "trace.uncovered_s" /. Float.max 1e-9 tot.verdict_traced);
  log "%-10s %10.3f %8s  (file sink minus dropped sink, untraced)" "journal" tot.journal_s ""

let run ~workload ~seed ~work ~spans_out =
  let tot, gc_major =
    if workload = "serve-warm" then serve_workload ~seed ~work
    else campaign_workload ~workload ~seed ~work
  in
  let metrics, failed = metrics tot in
  let metrics = metrics @ [ ("gc.major_collections", float_of_int gc_major, "count") ] in
  List.iter (fun e -> log "MISMATCH %s" e) tot.errors;
  print_table ~workload tot metrics;
  if spans_out <> "" then write_spans spans_out;
  { correct = failed = 0; attempted = max 1 tot.attempted; failed; metrics }
