(* The three benchmark workloads and their untraced closed loops.

   table1     : one campaign per Table-1 program (14 analogues plus
                figure1 and figure2[k=50]) with the CLI defaults.
   fork-wide  : one campaign over a wide fork/join program whose cost is
                phase-1 hybrid detection.
   serve-warm : warm cycles of the campaign service over a seeded corpus.

   Every pass checks its verdicts against the golden inventory
   (perfbench/golden) or, for serve-warm, against the first warm cycle. *)

open Bench_util
module Fuzzer = Racefuzzer.Fuzzer
module Campaign = Rf_campaign.Campaign
module Event_log = Rf_campaign.Event_log
module Corpus = Rf_campaign.Corpus
module Service = Rf_campaign.Service
module Proc_pool = Rf_campaign.Proc_pool
module Workload = Rf_workloads.Workload

(* ------------------------------------------------------------------ *)
(* Protocol: the CLI 'campaign' defaults, seed-shifted.                *)

let domains = 2
let phase1_count = 5
let trials_per_pair = 100
let repro_fuel = 400

(* The seed moves the phase-1 and trial seed lists, never the program. *)
let phase1_seeds seed = List.init phase1_count (fun i -> (phase1_count * seed) + i)
let trial_seeds seed = List.init trials_per_pair (fun i -> (trials_per_pair * seed) + i)

type target = {
  name : string;
  program : Fuzzer.program;
  static : Rf_static.Static.t option;
}

let of_workload (w : Workload.t) =
  { name = w.Workload.name; program = w.Workload.program; static = w.Workload.static }

let table1_targets () =
  List.map of_workload (Rf_workloads.Registry.all @ Rf_workloads.Registry.litmus)

(* engine_bench's fork-heavy shape at a size one campaign finishes in a
   few seconds: main forks [children] threads, each writes one shared
   cell [iters] times from a single site, then main joins them all. *)
let fork_wide_children = 200
let fork_wide_iters = 8

let fork_wide_target () =
  let site = Rf_util.Site.make "fw-write" in
  let program () =
    let c = Rf_runtime.Api.Cell.make ~name:"sink" 0 in
    let hs =
      List.init fork_wide_children (fun i ->
          Rf_runtime.Api.fork ~name:(Printf.sprintf "f%d" i) (fun () ->
              for _ = 1 to fork_wide_iters do
                Rf_runtime.Api.Cell.write ~site c i
              done))
    in
    List.iter Rf_runtime.Api.join hs
  in
  { name = "fork-wide"; program; static = None }

(* ------------------------------------------------------------------ *)
(* Golden verdict inventory                                             *)

type verdict = {
  potential : int;
  real : int;
  harmful : int;
  pairs : (string * string) list;  (** pair label, classification *)
  confirmed : string;  (** Campaign.confirmed_fingerprint *)
}

let classify (a : Fuzzer.analysis) pair =
  if Rf_util.Site.Pair.Set.mem pair a.Fuzzer.error_pairs then "harmful"
  else if Rf_util.Site.Pair.Set.mem pair a.Fuzzer.real_pairs then "real"
  else "unconfirmed"

let verdict_of (a : Fuzzer.analysis) =
  let card = Rf_util.Site.Pair.Set.cardinal in
  let potential = Fuzzer.potential_pairs a.Fuzzer.a_phase1 in
  {
    potential = card potential;
    real = card a.Fuzzer.real_pairs;
    harmful = card a.Fuzzer.error_pairs;
    pairs =
      List.map
        (fun p -> (Rf_util.Site.Pair.to_string p, classify a p))
        (Rf_util.Site.Pair.Set.elements potential);
    confirmed = Campaign.confirmed_fingerprint a;
  }

(* perfbench/golden/<workload>.txt, one record per line:
     pair <target> <class> <label>        found and classified on every seed
     pair? <target> <class> <label>       classified so whenever phase 1
                                          finds it (seed-dependent finding)
     confirmed <seed> <target> <digest>   pinned Campaign.confirmed_fingerprint
   A confirmed fingerprint covers the trial records, so it moves with the
   seed lists and is pinned only for the seeds listed. *)
type golden = {
  g_pairs : (string * string, string * bool) Hashtbl.t;  (** (target, label) -> class, required *)
  g_pinned : (int * string, string) Hashtbl.t;
}

let load_golden path =
  let g = { g_pairs = Hashtbl.create 64; g_pinned = Hashtbl.create 64 } in
  let split n line =
    (* the first [n] space-separated words, then the rest of the line *)
    let rec go k i acc =
      if k = n then List.rev (String.sub line i (String.length line - i) :: acc)
      else
        let j = String.index_from line i ' ' in
        go (k + 1) (j + 1) (String.sub line i (j - i) :: acc)
    in
    go 0 0 []
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match split 3 line with
           | [ ("pair" | "pair?") as kind; t; cls; label ] ->
               Hashtbl.replace g.g_pairs (t, label) (cls, kind = "pair")
           | [ "confirmed"; s; t; fp ] -> Hashtbl.replace g.g_pinned (int_of_string s, t) fp
           | _ -> failwith ("bad golden line: " ^ line)
           | exception Not_found -> failwith ("bad golden line: " ^ line));
  g

(* Mismatch messages against the golden inventory ([] = agrees). *)
let check_golden g ~seed name v =
  let found =
    List.concat_map
      (fun (label, cls) ->
        match Hashtbl.find_opt g.g_pairs (name, label) with
        | None -> [ Printf.sprintf "%s: pair %s (%s) not in the golden inventory" name label cls ]
        | Some (gcls, _) when gcls <> cls ->
            [ Printf.sprintf "%s: pair %s is %s, golden %s" name label cls gcls ]
        | Some _ -> [])
      v.pairs
  in
  let missing =
    Hashtbl.fold
      (fun (t, label) (cls, required) acc ->
        if t = name && required && not (List.mem_assoc label v.pairs) then
          Printf.sprintf "%s: golden %s pair %s not found" name cls label :: acc
        else acc)
      g.g_pairs []
  in
  let fp =
    match Hashtbl.find_opt g.g_pinned (seed, name) with
    | Some fp when fp <> v.confirmed ->
        [ Printf.sprintf "%s: confirmed %s, golden %s (seed %d)" name v.confirmed fp seed ]
    | _ -> []
  in
  found @ List.sort compare missing @ fp

(* ------------------------------------------------------------------ *)
(* What a pass returns                                                  *)

type pass = {
  p_wall : float;
  p_trials : int;  (** phase-2 trials executed *)
  p_steps : int;  (** phase-1 + phase-2 engine steps *)
  p_attempted : int;
  p_failed : int;
  p_errors : string list;
}

(* Journal totals of one campaign or cycle. *)
type journal = {
  j_lines : int;
  j_trials : int;
  j_steps : int;
  j_switches : int;
  j_trial_walls : float list;
  j_spawns : int;
  j_spawn_s : float;  (** fleet start-up: phase-1 end to campaign start *)
  j_oracle_runs : int;
  j_faults : int;  (** harness crashes, watchdog cancellations, worker deaths *)
}

let no_journal =
  {
    j_lines = 0;
    j_trials = 0;
    j_steps = 0;
    j_switches = 0;
    j_trial_walls = [];
    j_spawns = 0;
    j_spawn_s = 0.0;
    j_oracle_runs = 0;
    j_faults = 0;
  }

let sum_journals js =
  List.fold_left
    (fun a j ->
      {
        j_lines = a.j_lines + j.j_lines;
        j_trials = a.j_trials + j.j_trials;
        j_steps = a.j_steps + j.j_steps;
        j_switches = a.j_switches + j.j_switches;
        j_trial_walls = j.j_trial_walls @ a.j_trial_walls;
        j_spawns = a.j_spawns + j.j_spawns;
        j_spawn_s = a.j_spawn_s +. j.j_spawn_s;
        j_oracle_runs = a.j_oracle_runs + j.j_oracle_runs;
        j_faults = a.j_faults + j.j_faults;
      })
    no_journal js

let read_journal path =
  let lines = journal_lines path in
  fst
    (List.fold_left
       (fun (j, prev_t) f ->
         let t = field_f "t" f in
         let j =
           match field_s "ev" f with
           | "trial_finished" ->
               {
                 j with
                 j_trials = j.j_trials + 1;
                 j_steps = j.j_steps + field_i "steps" f;
                 j_switches = j.j_switches + field_i "switches" f;
                 j_trial_walls = field_f "wall" f :: j.j_trial_walls;
               }
           | "worker_spawned" -> { j with j_spawns = j.j_spawns + 1 }
           | "campaign_started" ->
               (* the fleet is created and handshaken just before this
                  record; with no fleet the gap is bookkeeping only *)
               { j with j_spawn_s = j.j_spawn_s +. (t -. prev_t) }
           | "repro_written" -> { j with j_oracle_runs = j.j_oracle_runs + field_i "oracle_runs" f }
           | "trial_crashed" | "trial_exhausted" | "worker_crashed" | "pair_quarantined" ->
               { j with j_faults = j.j_faults + 1 }
           | _ -> j
         in
         (j, t))
       ({ no_journal with j_lines = List.length lines }, 0.0)
       lines)

(* ------------------------------------------------------------------ *)
(* table1 / fork-wide: closed loop of campaign passes                   *)

type campaign_ctx = {
  c_targets : target list;
  c_golden : golden;
  c_seed : int;
  c_work : string;
  c_first : (string, verdict) Hashtbl.t;  (** first pass, per target *)
}

let campaign_ctx ~workload ~seed ~work targets =
  {
    c_targets = targets;
    c_golden = load_golden (Filename.concat "perfbench/golden" (workload ^ ".txt"));
    c_seed = seed;
    c_work = work;
    c_first = Hashtbl.create 16;
  }

let journal_file ~work name = Filename.concat work (name ^ ".jsonl")
let journal_path ctx name = journal_file ~work:ctx.c_work name
let repro_path ctx name = Filename.concat (Filename.concat ctx.c_work "repros") name

let run_campaign ?(domains = domains) ?(journal = true) ?repro_dir ?phase1 ~seed ~work t =
  let log =
    if journal then Event_log.open_file (journal_file ~work t.name)
    else Event_log.null ()
  in
  time (fun () ->
      let r =
        Campaign.run ~domains ~cutoff:true ~phase1_seeds:(phase1_seeds seed)
          ~seeds_per_pair:(trial_seeds seed) ~log ?repro_dir ~target:t.name ~repro_fuel
          ?static:t.static ?phase1 t.program
      in
      Event_log.close log;
      r)

let p1_steps (a : Fuzzer.analysis) =
  sumi (List.map (fun o -> o.Rf_runtime.Outcome.steps) a.Fuzzer.a_phase1.Fuzzer.p1_outcomes)

(* Verdict checks shared by the untraced and traced runs: golden counts
   and pinned fingerprints, plus agreement with this run's first pass. *)
let check_verdict ctx name v =
  let golden = check_golden ctx.c_golden ~seed:ctx.c_seed name v in
  let drift =
    match Hashtbl.find_opt ctx.c_first name with
    | None ->
        Hashtbl.replace ctx.c_first name v;
        []
    | Some v0 when v0.confirmed <> v.confirmed ->
        [ Printf.sprintf "%s: confirmed %s differs from first pass %s" name v.confirmed v0.confirmed ]
    | Some _ -> []
  in
  golden @ drift

let campaign_pass ctx =
  let results =
    List.map
      (fun t ->
        mkdir_p (repro_path ctx t.name);
        let r, wall =
          run_campaign ~seed:ctx.c_seed ~work:ctx.c_work ~repro_dir:(repro_path ctx t.name) t
        in
        (t, r, wall))
      ctx.c_targets
  in
  let wall = sum (List.map (fun (_, _, w) -> w) results) in
  List.fold_left
    (fun p (t, (r : Campaign.result), _) ->
      let a = r.Campaign.analysis and s = r.Campaign.stats in
      let j = read_journal (journal_path ctx t.name) in
      let errors = check_verdict ctx t.name (verdict_of a) in
      let faults =
        s.Campaign.s_crashes + s.Campaign.s_exhausted + s.Campaign.s_worker_crashes
        + s.Campaign.s_quarantined
      in
      {
        p with
        p_trials = p.p_trials + s.Campaign.s_trials;
        p_steps = p.p_steps + p1_steps a + j.j_steps;
        p_attempted = p.p_attempted + s.Campaign.s_trials + 1;
        p_failed = p.p_failed + faults + List.length errors;
        p_errors = p.p_errors @ errors;
      })
    { p_wall = wall; p_trials = 0; p_steps = 0; p_attempted = 0; p_failed = 0; p_errors = [] }
    results

(* Set-up of a campaign workload: build the programs and observe each
   once under the phase-1 detector (first phase-1 seed), so code, heap
   and detector state reach their working size before the first timed
   pass. *)
let campaign_setup ~seed make_targets () =
  let targets = make_targets () in
  List.iter
    (fun t ->
      let d = Rf_detect.Detector.hybrid () in
      ignore
        (Rf_runtime.Engine.run
           ~config:{ Rf_runtime.Engine.default_config with seed = List.hd (phase1_seeds seed) }
           ~listeners:[ Rf_detect.Detector.feed d ]
           ~strategy:(Rf_runtime.Strategy.random ()) t.program
          : Rf_runtime.Outcome.t))
    targets;
  targets

(* ------------------------------------------------------------------ *)
(* serve-warm                                                           *)

(* The RFL file target of the served corpus, generated at set-up: a
   figure-1 style check-then-act race on [z] behind [width] threads of
   lock-protected bookkeeping. *)
let rfl_width = 4

let rfl_source () =
  let b = Buffer.create 1024 in
  let p fmt = Printf.bprintf b (fmt ^^ "\n") in
  p "// Generated by the benchmark: a harmful race on z among locked work.";
  p "shared int x;";
  p "shared int y;";
  p "shared int z;";
  p "lock L;";
  p "";
  p "def work(int n) {";
  p "  for (let j = 0; j < n; j = j + 1) {";
  p "    sync (L) { y = y + 1; }";
  p "  }";
  p "  return;";
  p "}";
  p "";
  p "thread checker {";
  p "  x = 1;";
  p "  work(3);";
  p "  if (z == 1) {";
  p "    error \"stale read of z\";";
  p "  }";
  p "}";
  p "";
  p "thread setter {";
  p "  z = 1;";
  p "  work(3);";
  p "}";
  for i = 0 to rfl_width - 1 do
    p "";
    p "thread worker%d {" i;
    p "  work(%d);" (2 + i);
    p "}"
  done;
  Buffer.contents b

let resolve name =
  match Rf_workloads.Registry.find name with
  | Some w -> Ok w.Workload.program
  | None -> (
      match Rf_lang.Lang.load_file name with
      | prog -> Ok (Rf_lang.Lang.program ~print:ignore prog)
      | exception Rf_lang.Lang.Error m -> Error m
      | exception Sys_error m -> Error m)

let serve_registry_targets = [ "cache4j"; "hedc"; "weblech"; "figure1"; "stress-serve-small" ]

let serve_workers = 2

let serve_config ~cycles =
  {
    Service.default_config with
    Service.v_cycles = cycles;
    v_period = 0.0;
    v_proc =
      Some
        {
          Proc_pool.sp_cmd = [| Sys.executable_name; "campaign-worker" |];
          sp_workers = serve_workers;
          sp_heartbeat = Proc_pool.default_heartbeat;
          sp_rlimit_as_mb = None;
          sp_rlimit_cpu_s = None;
          sp_policy = Rf_campaign.Supervisor.default_policy;
          sp_target = "";
        };
  }

type serve_ctx = {
  s_dir : string;  (** the served corpus *)
  s_work : string;
  s_parse_s : float;
  mutable s_fp : string option;  (** first warm cycle's fingerprint *)
}

(* Set-up: write and parse the RFL target, seed the corpus with one
   campaign per target, then run the cold cycle that records the
   phase-1 cache. *)
let serve_setup ~seed ~work () =
  fresh_dir work;
  let dir = Filename.concat work "corpus" in
  mkdir_p dir;
  let rfl = Filename.concat work "target.rfl" in
  let oc = open_out rfl in
  output_string oc (rfl_source ());
  close_out oc;
  let prog, parse_s = time (fun () -> Rf_lang.Lang.load_file rfl) in
  let targets =
    List.map (fun n -> of_workload (Option.get (Rf_workloads.Registry.find n))) serve_registry_targets
    @ [
        {
          name = rfl;
          program = Rf_lang.Lang.program ~print:ignore prog;
          static = Some (Rf_static.Static.of_program prog);
        };
      ]
  in
  List.iter
    (fun t ->
      ignore
        (Campaign.run ~domains ~cutoff:true ~phase1_seeds:(phase1_seeds seed)
           ~seeds_per_pair:(trial_seeds seed) ~target:t.name ~repro_fuel ~corpus:dir
           ?static:t.static t.program
          : Campaign.result))
    targets;
  let code = Service.serve (serve_config ~cycles:1) ~resolve ~dir in
  if code <> 0 then failwith (Printf.sprintf "cold serve cycle exited %d" code);
  { s_dir = dir; s_work = work; s_parse_s = parse_s; s_fp = None }

let serve_journal ctx = Filename.concat ctx.s_work "serve.jsonl"

let last_cycle dir =
  let ledger, _ = Service.Ledger.load dir in
  let quarantined =
    Hashtbl.fold
      (fun _ (i : Service.Ledger.item) n -> if i.Service.Ledger.li_quarantine <> "" then n + 1 else n)
      ledger.Service.Ledger.l_items 0
  in
  (List.nth ledger.Service.Ledger.l_cycles (List.length ledger.Service.Ledger.l_cycles - 1),
   List.length ledger.Service.Ledger.l_cycles,
   quarantined)

(* Checks of one warm cycle: same verdict fingerprint as the first warm
   cycle, nothing fixed, failed or quarantined. *)
let check_cycle ctx (c : Service.Ledger.cycle) quarantined =
  let fp = c.Service.Ledger.lc_fingerprint in
  let drift =
    match ctx.s_fp with
    | None ->
        ctx.s_fp <- Some fp;
        []
    | Some fp0 when fp0 <> fp ->
        [ Printf.sprintf "cycle %d: fingerprint %s differs from first warm cycle %s" c.Service.Ledger.lc_cycle fp fp0 ]
    | Some _ -> []
  in
  let bad what n = if n = 0 then [] else [ Printf.sprintf "cycle %d: %d %s item(s)" c.Service.Ledger.lc_cycle n what ] in
  drift
  @ bad "fixed" c.Service.Ledger.lc_fixed
  @ bad "failed" c.Service.Ledger.lc_failed
  @ bad "quarantined" quarantined
  @ bad "degraded-fleet" (c.Service.Ledger.lc_wreq - c.Service.Ledger.lc_wact)

(* One warm cycle: [Service.serve] asked for one more completed cycle. *)
let serve_cycle ?(journal = true) ctx =
  let _, completed, _ = last_cycle ctx.s_dir in
  let log = if journal then Event_log.open_file (serve_journal ctx) else Event_log.null () in
  let code, wall =
    time (fun () ->
        let code = Service.serve ~log (serve_config ~cycles:(completed + 1)) ~resolve ~dir:ctx.s_dir in
        Event_log.close log;
        code)
  in
  let c, _, quarantined = last_cycle ctx.s_dir in
  let j = if journal then read_journal (serve_journal ctx) else no_journal in
  let errors =
    (if code <> 0 then [ Printf.sprintf "serve exited %d" code ] else [])
    @ check_cycle ctx c quarantined
  in
  ( {
      p_wall = wall;
      p_trials = j.j_trials;
      p_steps = j.j_steps;
      p_attempted = j.j_trials + c.Service.Ledger.lc_checked + 1;
      p_failed = j.j_faults + List.length errors;
      p_errors = errors;
    },
    j )

let verify_corpus ctx =
  match Corpus.verify ~dir:ctx.s_dir with
  | Ok _ -> []
  | Error problems -> List.map (fun p -> "corpus verify: " ^ p) problems
