(* Scheduler micro-benchmark: raw engine throughput (steps/sec) on three
   synthetic workloads that isolate the per-step hot paths —

     access-heavy : unsynchronized shared reads/writes (Mem fast path,
                    lockset snapshots, emit)
     lock-heavy   : one contended monitor (acquire/release bookkeeping,
                    enabled-set transitions)
     fork-heavy   : a wide burst of forks + joins (thread-table growth,
                    join wake-ups, death bookkeeping)

   Each workload is measured four ways:

     sequential          : Engine.run under the simple random scheduler
     sequential-recorded : same run emitting a binary trace (Btrace) —
                           the recording tax in isolation
     campaign            : the whole production pipeline (Campaign.run:
                           inline phase-1 detection + phase-2 trials)
     campaign-offline    : the same pipeline with --offline-detect
                           (record-then-detect phase 1)

   so the detection tax — sequential vs campaign throughput — is tracked
   PR-over-PR in both detection modes, and printed as the Markdown
   detection-tax table EXPERIMENTS.md carries.  Thread-count scaling rows
   (fork-heavy[c=50|200|800]: sequential, and algo-campaign = phase-2
   Algo trials on the racing pair) are printed as a second table: with
   scheduler consultations independent of the thread count, their steps/s
   stay flat as the width grows.  [--max-tax [W=]R] turns
   workload W's ratio into a CI gate (repeatable; a bare R gates
   access-heavy): the bench fails if sequential/campaign-offline exceeds
   R.

   Results are written as JSON (default BENCH_engine.json) so the perf
   trajectory is tracked PR-over-PR.  The same executable owns the
   fingerprint drift check used by CI: [--write-golden FILE] records the
   trace fingerprints of every registry workload (plus the bench
   workloads) and the decision fingerprints of every scheduling strategy
   at fixed seeds, and [--check FILE] recomputes and fails on any drift —
   pinning engine and scheduler behaviour, not just their speed.

   Usage:
     dune exec bench/engine_bench.exe                      # full bench
     dune exec bench/engine_bench.exe -- --smoke           # tiny budget (CI)
     dune exec bench/engine_bench.exe -- --out FILE        # JSON destination
     dune exec bench/engine_bench.exe -- --max-tax R       # gate access-heavy
     dune exec bench/engine_bench.exe -- --max-tax fork-heavy=R
     dune exec bench/engine_bench.exe -- --check FILE      # fingerprint drift
     dune exec bench/engine_bench.exe -- --write-golden FILE
     dune exec bench/engine_bench.exe -- --fingerprints    # print, no bench *)

open Rf_util
open Rf_runtime
module W = Rf_workloads

let s = Site.make

(* ------------------------------------------------------------------ *)
(* Workloads.  Campaign rows run the whole pipeline — phase 1 discovers
   the racing pairs itself, exactly as production does.                  *)

type bench_workload = { bname : string; program : unit -> unit }

let access_heavy ~threads ~iters =
  let r = s "ah-read" and w = s "ah-write" in
  {
    bname = "access-heavy";
    program =
      (fun () ->
        let c = Api.Cell.make ~name:"hot" 0 in
        let hs =
          List.init threads (fun i ->
              Api.fork ~name:(Printf.sprintf "a%d" i) (fun () ->
                  for _ = 1 to iters do
                    let v = Api.Cell.read ~site:r c in
                    Api.Cell.write ~site:w c (v + 1)
                  done))
        in
        List.iter Api.join hs);
  }

let lock_heavy ~threads ~iters =
  let r = s "lh-read" and w = s "lh-write" in
  {
    bname = "lock-heavy";
    program =
      (fun () ->
        let c = Api.Cell.make ~name:"counter" 0 in
        let l = Lock.create ~name:"hotlock" () in
        let hs =
          List.init threads (fun i ->
              Api.fork ~name:(Printf.sprintf "l%d" i) (fun () ->
                  for _ = 1 to iters do
                    Api.sync ~site:(s "lh-sync") l (fun () ->
                        let v = Api.Cell.read ~site:r c in
                        Api.Cell.write ~site:w c (v + 1))
                  done))
        in
        List.iter Api.join hs);
  }

let fork_heavy_write = s "fh-write"

let fork_heavy ?(bname = "fork-heavy") ~children ~iters () =
  let w = fork_heavy_write in
  {
    bname;
    program =
      (fun () ->
        let c = Api.Cell.make ~name:"sink" 0 in
        let hs =
          List.init children (fun i ->
              Api.fork ~name:(Printf.sprintf "f%d" i) (fun () ->
                  for _ = 1 to iters do
                    Api.Cell.write ~site:w c i
                  done))
        in
        List.iter Api.join hs);
  }

(* The serve family's test-sized instance rides along at both budgets:
   its campaign rows put a server-shaped (many-location, fork/join-wide)
   detector load on the memory column, and the fingerprint golden pins
   its schedule. *)
let serve_small =
  let w = List.hd W.Serve.small in
  { bname = w.W.Workload.name; program = w.W.Workload.program }

let workloads ~smoke =
  if smoke then
    [
      access_heavy ~threads:4 ~iters:200;
      lock_heavy ~threads:4 ~iters:60;
      fork_heavy ~children:60 ~iters:4 ();
      serve_small;
    ]
  else
    [
      access_heavy ~threads:8 ~iters:20_000;
      lock_heavy ~threads:8 ~iters:4_000;
      fork_heavy ~children:2_000 ~iters:8 ();
      serve_small;
    ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

type row = {
  r_workload : string;
  r_harness : string;
      (* "sequential" | "sequential-recorded" | "campaign" | "campaign-offline" *)
  r_domains : int;
  r_runs : int;
  r_steps : int;  (* total executed scheduler steps, deterministic *)
  r_wall : float;
  r_steps_per_sec : float;
  r_peak_heap_words : int;  (* max major-heap words observed during the row *)
}

(* Peak major-heap footprint of one measured region: compact first so
   earlier rows' garbage cannot be charged to this one, then sample
   [heap_words] at every major-collection end (Gc alarm) and once more at
   the finish.  Words, not bytes, so the number is word-size neutral. *)
let with_peak_heap f =
  Gc.compact ();
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let sample () =
    let hw = (Gc.quick_stat ()).Gc.heap_words in
    if hw > !peak then peak := hw
  in
  let alarm = Gc.create_alarm sample in
  let finish () =
    Gc.delete_alarm alarm;
    sample ()
  in
  (match f () with
  | r ->
      finish ();
      (r, !peak)
  | exception e ->
      finish ();
      raise e)

(* The one throughput division of the whole bench: guarded so a
   sub-resolution wall clock can never leak inf/nan into the JSON. *)
let per_sec steps wall = if wall > 0.0 then float_of_int steps /. wall else 0.0

let run_once ?btrace ~seed (wl : bench_workload) =
  Engine.run
    ~config:{ Engine.default_config with seed; max_steps = 50_000_000 }
    ?btrace ~strategy:(Strategy.random ()) wl.program

let measure_sequential ?(recorded = false) ~min_wall (wl : bench_workload) =
  ignore (run_once ~seed:0 wl) (* warmup *);
  let steps = ref 0 and runs = ref 0 in
  let (wall, _), peak =
    with_peak_heap (fun () ->
        let t0 = Unix.gettimeofday () in
        let elapsed () = Unix.gettimeofday () -. t0 in
        while elapsed () < min_wall do
          let o =
            if recorded then begin
              let bw = Rf_events.Btrace.writer () in
              let o = run_once ~btrace:bw ~seed:(1 + !runs) wl in
              ignore (Rf_events.Btrace.seal bw);
              o
            end
            else run_once ~seed:(1 + !runs) wl
          in
          steps := !steps + o.Outcome.steps;
          incr runs
        done;
        (elapsed (), ()))
  in
  {
    r_workload = wl.bname;
    r_harness = (if recorded then "sequential-recorded" else "sequential");
    r_domains = 1;
    r_runs = !runs;
    r_steps = !steps;
    r_wall = wall;
    r_steps_per_sec = per_sec !steps wall;
    r_peak_heap_words = peak;
  }

(* The whole pipeline as production runs it — phase 1 (inline or
   record-then-detect) plus every phase-2 trial over the potential pairs
   phase 1 found.  Steps and wall cover both phases, so the row's
   steps/sec is the end-to-end campaign throughput the detection-tax gate
   compares against [sequential]. *)
let measure_campaign ?offline_detect ~domains ~trials (wl : bench_workload) =
  let r, peak =
    with_peak_heap (fun () ->
        Rf_campaign.Campaign.run ~domains ~phase1_seeds:[ 0; 1; 2 ]
          ~seeds_per_pair:(List.init trials Fun.id)
          ?offline_detect wl.program)
  in
  let a = r.Rf_campaign.Campaign.analysis in
  let p1_steps =
    List.fold_left
      (fun acc (o : Outcome.t) -> acc + o.Outcome.steps)
      0 a.Racefuzzer.Fuzzer.a_phase1.Racefuzzer.Fuzzer.p1_outcomes
  in
  let steps =
    List.fold_left
      (fun acc (pr : Racefuzzer.Fuzzer.pair_result) ->
        List.fold_left
          (fun acc (t : Racefuzzer.Fuzzer.trial) ->
            acc + t.Racefuzzer.Fuzzer.t_outcome.Outcome.steps)
          acc pr.Racefuzzer.Fuzzer.trials)
      p1_steps a.Racefuzzer.Fuzzer.results
  in
  let stats = r.Rf_campaign.Campaign.stats in
  let wall =
    stats.Rf_campaign.Campaign.s_wall
    +. stats.Rf_campaign.Campaign.s_phase1_wall
  in
  {
    r_workload = wl.bname;
    r_harness =
      (if offline_detect = None then "campaign" else "campaign-offline");
    r_domains = domains;
    r_runs = stats.Rf_campaign.Campaign.s_trials;
    r_steps = steps;
    r_wall = wall;
    r_steps_per_sec = per_sec steps wall;
    r_peak_heap_words = peak;
  }

(* Thread-count scaling: the fork-heavy shape at growing widths, run
   sequentially under [Strategy.random] and as a phase-2 campaign of
   [Algo] trials on its racing pair (phase 1 is left out: detector cost
   grows with the clock width, scheduler cost must not).  Per-step cost
   that is independent of the thread count shows as flat steps/s down the
   rows. *)
let scaling_widths = [ 50; 200; 800 ]

let scaling_workload children =
  fork_heavy ~bname:(Printf.sprintf "fork-heavy[c=%d]" children) ~children
    ~iters:8 ()

let measure_algo_campaign ~trials (wl : bench_workload) =
  let pair = Site.Pair.make fork_heavy_write fork_heavy_write in
  let (steps, wall), peak =
    with_peak_heap (fun () ->
        let t0 = Unix.gettimeofday () in
        let r =
          Racefuzzer.Fuzzer.fuzz_pair ~seeds:(List.init trials Fun.id)
            ~max_steps:50_000_000 ~program:wl.program pair
        in
        let steps =
          List.fold_left
            (fun acc (t : Racefuzzer.Fuzzer.trial) ->
              acc + t.Racefuzzer.Fuzzer.t_outcome.Outcome.steps)
            0 r.Racefuzzer.Fuzzer.trials
        in
        (steps, Unix.gettimeofday () -. t0))
  in
  {
    r_workload = wl.bname;
    r_harness = "algo-campaign";
    r_domains = 1;
    r_runs = trials;
    r_steps = steps;
    r_wall = wall;
    r_steps_per_sec = per_sec steps wall;
    r_peak_heap_words = peak;
  }

(* ------------------------------------------------------------------ *)
(* JSON output (strings escaped by the shared Json codec)             *)

(* Schema 2: the domain count moved from the file header into each result
   row — sequential rows are always single-domain while campaign rows run
   wherever --domains puts them, and trajectories must compare like with
   like.
   Schema 3: each row gains [peak_heap_words], the maximum major-heap
   footprint observed while the row ran (compacted baseline, Gc-alarm
   sampled), so detector-memory trajectories are tracked alongside
   throughput. *)
let write_json ~path ~mode rows =
  let oc = open_out path in
  let pf fmt = Printf.fprintf oc fmt in
  let str s = Rf_util.Json.to_string (S s) in
  pf "{\n";
  pf "  \"schema\": \"rf-bench-engine/3\",\n";
  pf "  \"mode\": %s,\n" (str mode);
  pf "  \"results\": [\n";
  List.iteri
    (fun i r ->
      pf
        "    {\"workload\": %s, \"harness\": %s, \"domains\": %d, \"runs\": %d, \
         \"steps\": %d, \"wall_s\": %.6f, \"steps_per_sec\": %.1f, \
         \"peak_heap_words\": %d}%s\n"
        (str r.r_workload) (str r.r_harness) r.r_domains r.r_runs r.r_steps r.r_wall
        r.r_steps_per_sec r.r_peak_heap_words
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pf "  ]\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Trace fingerprints: the drift check.

   Every registry workload plus the three bench workloads, run with a
   recorded trace at two fixed seeds under the simple random scheduler.
   Fingerprints are structural (Event.hash_fold) and stable across
   processes, so they can live in a checked-in golden file.             *)

let fingerprint_seeds = [ 1; 7 ]

let fingerprint_subjects () =
  List.map
    (fun (w : W.Workload.t) -> (w.W.Workload.name, w.W.Workload.program))
    W.Registry.all
  @ List.map (fun wl -> (wl.bname, wl.program)) (workloads ~smoke:true)

let compute_fingerprints () =
  List.concat_map
    (fun (name, program) ->
      List.map
        (fun seed ->
          let o =
            Engine.run
              ~config:
                { Engine.default_config with seed; record_trace = true }
              ~strategy:(Strategy.random ()) program
          in
          let fp =
            match o.Outcome.trace with
            | Some tr -> Rf_events.Trace.fingerprint tr
            | None -> 0
          in
          (name, seed, fp))
        fingerprint_seeds)
    (fingerprint_subjects ())

(* Decision fingerprints: the schedule a strategy produced, as the
   [Recorder] sees it — per decision the chosen tid, the stability key of
   its pending operation and the PRNG state after the draw — folded with
   FNV-1a.  Trace fingerprints only pin [Strategy.random]; these pin every
   scheduler's choices, so a change to how strategies see the enabled set
   cannot silently move a decision.  Subjects are named
   <strategy>/<target>, e.g. [algo/moldyn] or [rapos/figure1]. *)

let decision_fingerprint (sched : Rf_replay.Schedule.t) =
  Array.fold_left
    (fun h (st : Rf_replay.Schedule.step) ->
      let h = Fnv.fold_int63 h st.Rf_replay.Schedule.st_tid in
      let h =
        Fnv.fold_string63 h
          (Fmt.str "%a" Rf_replay.Schedule.pp_key st.Rf_replay.Schedule.st_key)
      in
      let rng = st.Rf_replay.Schedule.st_rng in
      let h = Fnv.fold_int63 h (Int64.to_int (Int64.shift_right_logical rng 32)) in
      Fnv.fold_int63 h (Int64.to_int (Int64.logand rng 0xFFFF_FFFFL)))
    Fnv.basis63 sched.Rf_replay.Schedule.steps
  |> Fnv.mask63

(* One recorded run of an arbitrary strategy. *)
let record_decisions ?(policy = Engine.Every_op) ~seed strategy program =
  let strategy, recorder = Rf_replay.Recorder.wrap strategy in
  let outcome =
    Engine.run
      ~config:{ Engine.default_config with seed; policy }
      ~strategy program
  in
  decision_fingerprint (Rf_replay.Recorder.schedule ~seed ~outcome recorder)

(* The first phase-1 candidate pair in textual order (site ids depend on
   interning order, so [Site.Pair.compare] is not stable across builds). *)
let first_candidate program =
  let key p =
    List.sort compare
      [ Site.to_string (Site.Pair.fst p); Site.to_string (Site.Pair.snd p) ]
  in
  Racefuzzer.Fuzzer.phase1 ~seeds:[ 0; 1; 2 ] program
  |> Racefuzzer.Fuzzer.potential_pairs |> Site.Pair.Set.elements
  |> List.map (fun p -> (key p, p))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> function
  | [] -> None
  | (_, p) :: _ -> Some p

let load_rfl path =
  match Rf_lang.Lang.load_file path with
  | prog -> Rf_lang.Lang.program ~print:ignore prog
  | exception Sys_error m ->
      Fmt.epr "decision fingerprints need %s (run from the repo root): %s@."
        path m;
      exit 2

let compute_decision_fingerprints () =
  let per_seed name f =
    List.map (fun seed -> (name, seed, f seed)) fingerprint_seeds
  in
  let algo =
    List.map
      (fun (w : W.Workload.t) -> (w.W.Workload.name, w.W.Workload.program))
      W.Registry.all
    @ [ (let wl = fork_heavy ~children:60 ~iters:4 () in (wl.bname, wl.program)) ]
    |> List.concat_map (fun (name, program) ->
           match first_candidate program with
           | None -> []
           | Some pair ->
               per_seed ("algo/" ^ name) (fun seed ->
                   let _, sched =
                     Racefuzzer.Fuzzer.record_trial ~program pair seed
                   in
                   decision_fingerprint sched))
  in
  let baselines =
    List.concat_map
      (fun (w : W.Workload.t) ->
        List.concat_map
          (fun (sname, mk) ->
            per_seed
              (sname ^ "/" ^ w.W.Workload.name)
              (fun seed -> record_decisions ~seed (mk ()) w.W.Workload.program))
          [
            ("rapos", Racefuzzer.Rapos.strategy);
            ("round-robin", Strategy.round_robin);
            ("timesliced", fun () -> Strategy.timesliced ());
            ("run-until-block", Strategy.run_until_block);
          ])
      W.Registry.litmus
  in
  let atom =
    let program = load_rfl "examples/programs/bank.rfl" in
    Racefuzzer.Atom_fuzzer.phase1 ~seeds:(List.init 5 Fun.id) program
    |> List.mapi (fun i (c : Rf_detect.Atomicity.candidate) ->
           let policy =
             Engine.Sync_and
               (Site.Set.of_list
                  [
                    c.Rf_detect.Atomicity.second_acquire;
                    c.Rf_detect.Atomicity.interferer_site;
                  ])
           in
           per_seed (Printf.sprintf "atomfuzzer/bank.rfl#%d" i) (fun seed ->
               let report = Racefuzzer.Atom_fuzzer.fresh_report () in
               record_decisions ~policy ~seed
                 (Racefuzzer.Atom_fuzzer.strategy ~candidate:c ~report ())
                 program))
    |> List.concat
  in
  let deadlock =
    let program = load_rfl "examples/programs/deadlock.rfl" in
    Racefuzzer.Deadlock_fuzzer.phase1 ~seeds:(List.init 5 Fun.id) program
    |> List.mapi (fun i (c : Rf_detect.Goodlock.candidate) ->
           let sites = Site.Set.of_list c.Rf_detect.Goodlock.sites in
           per_seed (Printf.sprintf "deadlockfuzzer/deadlock.rfl#%d" i)
             (fun seed ->
               let report = Racefuzzer.Deadlock_fuzzer.fresh_report () in
               record_decisions ~policy:(Engine.Sync_and sites) ~seed
                 (Racefuzzer.Deadlock_fuzzer.strategy ~sites ~report ())
                 program))
    |> List.concat
  in
  algo @ baselines @ atom @ deadlock

let all_fingerprints () = compute_fingerprints () @ compute_decision_fingerprints ()

let write_golden path entries =
  let oc = open_out path in
  Printf.fprintf oc
    "# Golden trace and decision fingerprints: <subject> <seed> <fingerprint>\n";
  Printf.fprintf oc
    "# Regenerate with: dune exec bench/engine_bench.exe -- --write-golden %s\n"
    path;
  List.iter
    (fun (name, seed, fp) -> Printf.fprintf oc "%s %d %d\n" name seed fp)
    entries;
  close_out oc

let read_golden path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%s %d %d" (fun name seed fp ->
             entries := (name, seed, fp) :: !entries)
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

let check_golden path =
  let golden = read_golden path in
  let current = all_fingerprints () in
  let lookup name seed =
    List.find_opt (fun (n, sd, _) -> n = name && sd = seed) current
  in
  let drift = ref 0 in
  List.iter
    (fun (name, seed, fp) ->
      match lookup name seed with
      | Some (_, _, fp') when fp' = fp -> ()
      | Some (_, _, fp') ->
          incr drift;
          Fmt.epr "DRIFT %s seed %d: golden %d, got %d@." name seed fp fp'
      | None ->
          incr drift;
          Fmt.epr "DRIFT %s seed %d: missing from current build@." name seed)
    golden;
  if golden = [] then begin
    Fmt.epr "golden file %s is empty@." path;
    exit 2
  end;
  if !drift > 0 then begin
    Fmt.epr "%d fingerprint(s) drifted against %s@." !drift path;
    exit 1
  end;
  Fmt.pr "fingerprints: %d entries match %s@." (List.length golden) path

(* ------------------------------------------------------------------ *)
(* Detection tax: sequential ÷ campaign-offline steps/s per workload    *)

let find_row rows workload harness =
  List.find_opt (fun r -> r.r_workload = workload && r.r_harness = harness) rows

let detection_tax rows workload =
  match (find_row rows workload "sequential", find_row rows workload "campaign-offline") with
  | Some seq, Some off when off.r_steps_per_sec > 0.0 ->
      Some (seq.r_steps_per_sec /. off.r_steps_per_sec)
  | _ -> None

(* The EXPERIMENTS.md table, printed from the rows of this run so the
   document is regenerated rather than edited. *)
let print_tax_table rows =
  let rate v =
    if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
    else Printf.sprintf "%.0fk" (v /. 1e3)
  in
  let cell workload harness =
    match find_row rows workload harness with
    | Some r -> rate r.r_steps_per_sec
    | None -> "—"
  in
  Fmt.pr
    "| workload | sequential | sequential-recorded | campaign (inline) | \
     campaign-offline | tax |@.|---|---|---|---|---|---|@.";
  List.iter
    (fun w ->
      Fmt.pr "| %s | %s | %s | %s | %s | %s |@." w (cell w "sequential")
        (cell w "sequential-recorded") (cell w "campaign")
        (cell w "campaign-offline")
        (match detection_tax rows w with
        | Some t -> Printf.sprintf "%.1f×" t
        | None -> "—"))
    (List.fold_left
       (fun acc r ->
         if List.mem r.r_workload acc then acc else acc @ [ r.r_workload ])
       [] rows)

(* The scaling rows as their own table: one line per width. *)
let print_scaling_table rows =
  let cell workload harness =
    match find_row rows workload harness with
    | Some r -> Printf.sprintf "%.2fM" (r.r_steps_per_sec /. 1e6)
    | None -> "—"
  in
  Fmt.pr "| children | sequential | algo-campaign |@.|---|---|---|@.";
  List.iter
    (fun c ->
      let w = (scaling_workload c).bname in
      Fmt.pr "| %d | %s | %s |@." c (cell w "sequential") (cell w "algo-campaign"))
    scaling_widths

(* [--max-tax [W=]R]: a bare ceiling gates access-heavy, the hottest Mem
   path, where the tax historically peaked at ~18x. *)
let parse_max_tax arg =
  match String.index_opt arg '=' with
  | Some i ->
      ( String.sub arg 0 i,
        float_of_string (String.sub arg (i + 1) (String.length arg - i - 1)) )
  | None -> ("access-heavy", float_of_string arg)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let () =
  let smoke = ref false in
  let out = ref "BENCH_engine.json" in
  let check = ref None in
  let write_golden_to = ref None in
  let fingerprints_only = ref false in
  let domains = ref (min 4 (Domain.recommended_domain_count ())) in
  let max_tax = ref [] in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--check" :: f :: rest ->
        check := Some f;
        parse rest
    | "--write-golden" :: f :: rest ->
        write_golden_to := Some f;
        parse rest
    | "--fingerprints" :: rest ->
        fingerprints_only := true;
        parse rest
    | "--domains" :: n :: rest ->
        domains := int_of_string n;
        parse rest
    | "--max-tax" :: r :: rest ->
        max_tax := !max_tax @ [ parse_max_tax r ];
        parse rest
    | a :: _ ->
        Fmt.epr
          "usage: engine_bench [--smoke] [--out FILE] [--check FILE] \
           [--write-golden FILE] [--fingerprints] [--domains N] \
           [--max-tax [WORKLOAD=]R]... \
           (got %s)@."
          a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !write_golden_to with
  | Some path ->
      write_golden path (all_fingerprints ());
      Fmt.pr "wrote golden fingerprints to %s@." path
  | None -> ());
  if !fingerprints_only then
    List.iter
      (fun (name, seed, fp) -> Fmt.pr "%s %d %d@." name seed fp)
      (all_fingerprints ())
  else begin
    let wls = workloads ~smoke:!smoke in
    let min_wall = if !smoke then 0.05 else 0.5 in
    let trials = if !smoke then 6 else 40 in
    let rows =
      List.concat_map
        (fun wl ->
          [
            measure_sequential ~min_wall wl;
            measure_sequential ~recorded:true ~min_wall wl;
            measure_campaign ~domains:!domains ~trials wl;
            measure_campaign ~offline_detect:1 ~domains:!domains ~trials wl;
          ])
        wls
      @ List.concat_map
          (fun c ->
            let wl = scaling_workload c in
            [ measure_sequential ~min_wall wl; measure_algo_campaign ~trials wl ])
          scaling_widths
    in
    Fmt.pr "%-18s %-19s %3s %8s %12s %10s %14s %13s@." "workload" "harness"
      "dom" "runs" "steps" "wall(s)" "steps/sec" "peak-heap-w";
    List.iter
      (fun r ->
        Fmt.pr "%-18s %-19s %3d %8d %12d %10.3f %14.0f %13d@." r.r_workload
          r.r_harness r.r_domains r.r_runs r.r_steps r.r_wall r.r_steps_per_sec
          r.r_peak_heap_words)
      rows;
    write_json ~path:!out ~mode:(if !smoke then "smoke" else "full") rows;
    Fmt.pr "wrote %s@." !out;
    Fmt.pr "@.detection-tax table:@.";
    print_tax_table
      (List.filter (fun r -> List.mem r.r_workload (List.map (fun w -> w.bname) wls)) rows);
    Fmt.pr "@.thread-count scaling (steps/s):@.";
    print_scaling_table rows;
    List.iter
      (fun (w, ceiling) ->
        match detection_tax rows w with
        | Some tax ->
            Fmt.pr "detection tax (%s, offline): %.2fx (ceiling %.2fx)@." w tax
              ceiling;
            if tax > ceiling then begin
              Fmt.epr "FAIL: %s detection tax %.2fx exceeds --max-tax %.2fx@." w
                tax ceiling;
              exit 1
            end
        | None ->
            Fmt.epr "FAIL: --max-tax given but %s rows are missing@." w;
            exit 1)
      !max_tax
  end;
  match !check with Some path -> check_golden path | None -> ()
