(* Fault-tolerance properties of the campaign layer:

   1. Work_queue close/drain semantics, plus a concurrent property: no
      task is lost or duplicated under concurrent pop/requeue/close.
   2. Event_log is domain-safe (no torn or interleaved lines under
      concurrent writers), journals round-trip through [load], and a torn
      trailing line — a crashed writer's signature — is tolerated.
   3. Fuzzer.run_trial sandboxes harness crashes and enforces watchdog
      deadlines.
   4. Supervisor respawns crashed workers with a budget and gives up past
      it; a campaign survives even permanently dying workers.
   5. Chaos campaigns complete with a report: crashes are quarantined,
      worker deaths never change results, and chaos itself is
      deterministic in its seed.
   6. Checkpoint/resume: a campaign killed mid-run and resumed from its
      journal fingerprints identically to an uninterrupted run. *)

open Rf_util
module Fuzzer = Racefuzzer.Fuzzer
module Engine = Rf_runtime.Engine
module Outcome = Rf_runtime.Outcome
module Campaign = Rf_campaign.Campaign
module Event_log = Rf_campaign.Event_log
module Work_queue = Rf_campaign.Work_queue
module Chaos = Rf_campaign.Chaos
module Supervisor = Rf_campaign.Supervisor
module W = Rf_workloads

let fp = Campaign.fingerprint
let seeds n = List.init n Fun.id

(* ------------------------------------------------------------------ *)
(* Work queue                                                          *)

let test_queue_close_stops_pops () =
  let q = Work_queue.create [ 1; 2; 3; 4 ] in
  Alcotest.(check (option int)) "first pop" (Some 1) (Work_queue.pop q);
  Work_queue.close q;
  Alcotest.(check bool) "closed" true (Work_queue.is_closed q);
  Alcotest.(check (option int)) "pop after close" None (Work_queue.pop q);
  Alcotest.(check (list int)) "drain returns the rest in pop order" [ 2; 3; 4 ]
    (Work_queue.drain q)

let test_queue_requeue_order_and_retention () =
  let q = Work_queue.create [ 10; 20; 30 ] in
  let a = Work_queue.pop q in
  Alcotest.(check (option int)) "base order" (Some 10) a;
  Work_queue.requeue q 10;
  Alcotest.(check (option int)) "requeued item re-issued first" (Some 10)
    (Work_queue.pop q);
  Work_queue.close q;
  (* a worker that died after close still returns its task *)
  Work_queue.requeue q 99;
  Alcotest.(check (list int)) "requeue after close retained" [ 99; 20; 30 ]
    (Work_queue.drain q)

(* No task lost or duplicated under concurrent pop/requeue/close: for
   every item, (times processed) + (1 if drained) = 1. *)
let prop_queue_accounting =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 60 in
      let* workers = int_range 1 4 in
      let* close_midway = bool in
      return (n, workers, close_midway))
  in
  let arb =
    QCheck.make
      ~print:(fun (n, w, c) -> Printf.sprintf "items=%d workers=%d close=%b" n w c)
      gen
  in
  QCheck.Test.make ~name:"queue: no task lost or duplicated" ~count:20 arb
    (fun (n, workers, close_midway) ->
      let q = Work_queue.create (List.init n Fun.id) in
      let requeued = Array.init n (fun _ -> Atomic.make false) in
      let processed = Array.init n (fun _ -> Atomic.make 0) in
      let worker () =
        let rec loop () =
          match Work_queue.pop q with
          | None -> ()
          | Some i ->
              (* every 7th task simulates a crash: it is requeued once and
                 must still be processed (or drained) exactly once *)
              if i mod 7 = 3 && not (Atomic.exchange requeued.(i) true) then
                Work_queue.requeue q i
              else Atomic.incr processed.(i);
              loop ()
        in
        loop ()
      in
      let closer =
        Domain.spawn (fun () -> if close_midway then Work_queue.close q)
      in
      let doms = List.init workers (fun _ -> Domain.spawn worker) in
      List.iter Domain.join doms;
      Domain.join closer;
      let drained = Work_queue.drain q in
      List.for_all
        (fun i ->
          let p = Atomic.get processed.(i) in
          let d = if List.mem i drained then 1 else 0 in
          p + d = 1)
        (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)

let sample_events =
  Event_log.
    [
      Campaign_started { domains = 2; base_trials = 10; budget = Some 40; cutoff = true };
      Phase1_finished
        {
          potential = 3;
          wall = 0.25;
          degraded = false;
          level = "full";
          detector = "hybrid";
          miss_bound = None;
        };
      Wave_started { wave = 0; tasks = 20 };
      Trial_started { pair = "(a, b)"; seed = 7; domain = 1 };
      Trial_finished
        {
          pair = "(a, b)";
          seed = 7;
          domain = 1;
          race = true;
          error = false;
          deadlock = false;
          steps = 42;
          switches = 9;
          exns = 0;
          wall = 0.5;
          degraded = false;
          level = "full";
          trigger = "";
          evicted = 0;
        };
      Trial_finished
        {
          pair = "(a, b)";
          seed = 11;
          domain = 0;
          race = true;
          error = true;
          deadlock = false;
          steps = 77;
          switches = 14;
          exns = 1;
          wall = 0.75;
          degraded = true;
          level = "sampled";
          trigger = "entry-budget";
          evicted = 512;
        };
      Trial_crashed
        { pair = "(a, b)"; seed = 8; domain = 0; exn_ = "Failure(\"boom\")"; backtrace = "" };
      Trial_exhausted
        { pair = "(a, b)"; seed = 9; domain = 0; reason = "wall deadline"; steps = 5; wall = 2.0 };
      Pair_resolved { pair = "(a, b)"; at_trial = 3 };
      Pair_quarantined { pair = "(a, b)"; crashes = 3; at_trial = 6 };
      Trials_cancelled { pair = "(a, b)"; count = 12 };
      Budget_granted { pair = "(c, d)"; extra = 5 };
      Worker_crashed { domain = 1; attempt = 0; exn_ = "Chaos.Injected_death" };
      Worker_respawned { domain = 1; attempt = 1; backoff = 0.015625 };
      Worker_gave_up { domain = 1 };
      Campaign_interrupted { executed = 17; remaining = 23 };
      Campaign_finished { wall = 1.5; trials = 17; cancelled = 12; throughput = 11.333333 };
    ]

let test_journal_round_trip () =
  let path = Filename.temp_file "journal" ".jsonl" in
  let log = Event_log.open_file path in
  List.iter (Event_log.emit log) sample_events;
  Event_log.close log;
  let loaded = Event_log.load path in
  Sys.remove path;
  Alcotest.(check int) "all events load (incl. header)"
    (1 + List.length sample_events)
    (List.length loaded);
  Alcotest.(check bool) "header first" true
    (match loaded with
    | Event_log.Journal_opened { schema } :: _ -> schema = Event_log.schema_version
    | _ -> false);
  Alcotest.(check bool) "events round-trip structurally" true
    (List.tl loaded = sample_events)

let test_journal_tolerates_torn_line () =
  let path = Filename.temp_file "journal" ".jsonl" in
  let log = Event_log.open_file path in
  List.iter (Event_log.emit log) sample_events;
  Event_log.close log;
  let before = Event_log.load path in
  (* simulate a writer killed mid-line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"seq\":999,\"t\":9.9,\"ev\":\"trial_fini";
  close_out oc;
  let after = Event_log.load path in
  Sys.remove path;
  Alcotest.(check bool) "torn trailing line ignored" true (before = after)

let test_log_concurrent_writers () =
  let path = Filename.temp_file "journal" ".jsonl" in
  let log = Event_log.open_file path in
  let per_domain = 100 and writers = 4 in
  let doms =
    List.init writers (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Event_log.emit log
                (Event_log.Trial_started { pair = "(a, b)"; seed = i; domain = d })
            done))
  in
  List.iter Domain.join doms;
  Event_log.close log;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Sys.remove path;
  Alcotest.(check int) "no line lost or torn"
    (1 + (writers * per_domain))
    (List.length lines);
  Alcotest.(check bool) "every line parses" true
    (List.for_all (fun l -> Event_log.event_of_json l <> None) lines);
  (* seq numbers must be the exact sequence 1..n: proof the mutex kept
     rendering and writing atomic per event *)
  let seq_of l = Scanf.sscanf l "{\"seq\":%d" Fun.id in
  Alcotest.(check bool) "seq contiguous" true
    (List.mapi (fun i _ -> i + 1) lines = List.map seq_of lines)

(* ------------------------------------------------------------------ *)
(* Trial sandbox                                                       *)

let figure1_pair () =
  let p1 = Fuzzer.phase1 ~seeds:(seeds 5) W.Figure1.program in
  match Site.Pair.Set.elements (Fuzzer.potential_pairs p1) with
  | p :: _ -> p
  | [] -> Alcotest.fail "figure1 produced no potential pairs"

let max_steps = Engine.default_config.Engine.max_steps

let test_sandbox_completes () =
  let pair = figure1_pair () in
  match Fuzzer.run_trial ~max_steps ~program:W.Figure1.program pair 0 with
  | Fuzzer.Completed t -> Alcotest.(check int) "seed recorded" 0 t.Fuzzer.t_seed
  | _ -> Alcotest.fail "expected Completed"

let test_sandbox_catches_crash () =
  let pair = figure1_pair () in
  match
    Fuzzer.run_trial
      ~inject:(fun () -> failwith "boom")
      ~max_steps ~program:W.Figure1.program pair 0
  with
  | Fuzzer.Harness_crash (Failure m, _) -> Alcotest.(check string) "exn" "boom" m
  | _ -> Alcotest.fail "expected Harness_crash"

let test_sandbox_step_deadline () =
  let pair = figure1_pair () in
  match
    Fuzzer.run_trial
      ~deadline:(Engine.deadline ~steps:3 ())
      ~max_steps ~program:W.Figure1.program pair 0
  with
  | Fuzzer.Budget_exhausted { bx_reason = Outcome.Step_deadline; bx_steps; _ } ->
      Alcotest.(check bool) "cancelled at the step cap" true (bx_steps <= 3)
  | _ -> Alcotest.fail "expected Budget_exhausted (step)"

let test_sandbox_wall_deadline () =
  let pair = figure1_pair () in
  (* an already-expired deadline: the engine's first poll fires before
     step 0, so the trial is cancelled without executing at all — the
     fate of a trial whose harness stalled past its budget *)
  match
    Fuzzer.run_trial
      ~deadline:(Engine.deadline ~wall:(-1.0) ())
      ~max_steps ~program:W.Figure1.program pair 0
  with
  | Fuzzer.Budget_exhausted { bx_reason = Outcome.Wall_deadline; bx_steps; _ } ->
      (* the watchdog polls before step 0: a stalled trial is cancelled
         without executing at all *)
      Alcotest.(check int) "cancelled before executing" 0 bx_steps
  | _ -> Alcotest.fail "expected Budget_exhausted (wall)"

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

let fast_policy =
  { Supervisor.default_policy with backoff_base = 0.001; backoff_max = 0.002 }

let test_supervisor_respawns_flaky_worker () =
  let attempts = Array.init 2 (fun _ -> Atomic.make 0) in
  let body ~domain =
    if Atomic.fetch_and_add attempts.(domain) 1 < 2 then failwith "flaky"
  in
  let o = Supervisor.supervise ~policy:fast_policy ~domains:2 body in
  Alcotest.(check int) "two crashes per slot" 4 o.Supervisor.crashes;
  Alcotest.(check int) "nobody gave up" 0 o.Supervisor.gave_up;
  Array.iter
    (fun a -> Alcotest.(check int) "third attempt succeeded" 3 (Atomic.get a))
    attempts

let test_supervisor_gives_up_past_budget () =
  let policy = { fast_policy with Supervisor.max_respawns = 1 } in
  let gave_up = Atomic.make 0 in
  let o =
    Supervisor.supervise ~policy
      ~on_give_up:(fun ~domain:_ -> Atomic.incr gave_up)
      ~domains:2
      (fun ~domain:_ -> failwith "always")
  in
  Alcotest.(check int) "initial + one respawn per slot" 4 o.Supervisor.crashes;
  Alcotest.(check int) "both slots gave up" 2 o.Supervisor.gave_up;
  Alcotest.(check int) "hook fired per slot" 2 (Atomic.get gave_up)

(* ------------------------------------------------------------------ *)
(* Chaos campaigns                                                     *)

let run_fig1 ?(cutoff = true) ?chaos ?supervision ?log ?resume () =
  Campaign.run ~domains:2 ~cutoff ~phase1_seeds:(seeds 5)
    ~seeds_per_pair:(seeds 20) ?chaos ?supervision ?log ?resume
    W.Figure1.program

let test_chaos_crashes_are_quarantined () =
  (* every trial crashes: every pair must be quarantined and the campaign
     must still complete with a (empty-trials) report *)
  let chaos = Chaos.plan ~crash_rate:1.0 0 in
  let r = run_fig1 ~chaos () in
  let s = r.Campaign.stats in
  Alcotest.(check int) "every pair quarantined" s.Campaign.s_pairs
    s.Campaign.s_quarantined;
  Alcotest.(check bool) "crashes recorded" true (s.Campaign.s_crashes > 0);
  Alcotest.(check bool) "quarantine skipped trials" true (s.Campaign.s_q_skipped > 0);
  List.iter
    (fun (pr : Fuzzer.pair_result) ->
      Alcotest.(check int) "no trials survive" 0 (List.length pr.Fuzzer.trials))
    r.Campaign.analysis.Fuzzer.results

let test_chaos_is_deterministic () =
  let chaos () = Chaos.plan ~crash_rate:0.3 ~stall_rate:0.2 ~stall_seconds:0.001 42 in
  let a = run_fig1 ~chaos:(chaos ()) () and b = run_fig1 ~chaos:(chaos ()) () in
  Alcotest.(check string) "same chaos seed, same fingerprint"
    (fp a.Campaign.analysis) (fp b.Campaign.analysis);
  Alcotest.(check int) "same crash count" a.Campaign.stats.Campaign.s_crashes
    b.Campaign.stats.Campaign.s_crashes

let test_worker_deaths_do_not_change_results () =
  let clean = run_fig1 () in
  let chaos = Chaos.plan ~death_every:5 ~max_deaths:3 7 in
  let noisy = run_fig1 ~chaos () in
  Alcotest.(check bool) "workers actually died" true
    (noisy.Campaign.stats.Campaign.s_worker_crashes > 0);
  Alcotest.(check string) "fingerprint unchanged by worker deaths"
    (fp clean.Campaign.analysis) (fp noisy.Campaign.analysis)

let test_campaign_survives_permanent_worker_loss () =
  (* workers die on their first pop and may not respawn: the inline drain
     fallback must still finish every trial, with identical results *)
  let clean = run_fig1 () in
  let chaos = Chaos.plan ~death_every:1 ~max_deaths:1000 1 in
  let supervision = { fast_policy with Supervisor.max_respawns = 0 } in
  let r = run_fig1 ~chaos ~supervision () in
  Alcotest.(check bool) "slots gave up" true
    (r.Campaign.stats.Campaign.s_worker_gave_up > 0);
  Alcotest.(check string) "results identical" (fp clean.Campaign.analysis)
    (fp r.Campaign.analysis)

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)

let test_kill_resume_matches_uninterrupted () =
  let journal = Filename.temp_file "journal" ".jsonl" in
  let chaos_base () = Chaos.plan ~crash_rate:0.15 ~death_every:9 ~max_deaths:2 5 in
  (* run 1: killed deterministically after 12 executed trials *)
  let log = Event_log.open_file journal in
  let killed =
    run_fig1 ~chaos:(Chaos.plan ~crash_rate:0.15 ~death_every:9 ~max_deaths:2 ~stop_after:12 5) ~log ()
  in
  Event_log.close log;
  Alcotest.(check bool) "run 1 was interrupted" true
    killed.Campaign.stats.Campaign.s_interrupted;
  (* run 2: resumed from run 1's journal, same chaos minus the kill *)
  let resumed = run_fig1 ~chaos:(chaos_base ()) ~resume:journal () in
  Sys.remove journal;
  Alcotest.(check bool) "run 2 completed" false
    resumed.Campaign.stats.Campaign.s_interrupted;
  Alcotest.(check bool) "run 2 replayed journalled trials" true
    (resumed.Campaign.stats.Campaign.s_replayed > 0);
  (* reference: the same chaotic campaign, never interrupted *)
  let full = run_fig1 ~chaos:(chaos_base ()) () in
  Alcotest.(check string) "kill + resume = uninterrupted"
    (fp full.Campaign.analysis) (fp resumed.Campaign.analysis)

let test_resume_from_complete_journal_runs_nothing () =
  let journal = Filename.temp_file "journal" ".jsonl" in
  let log = Event_log.open_file journal in
  let first = run_fig1 ~log () in
  Event_log.close log;
  let resumed = run_fig1 ~resume:journal () in
  Sys.remove journal;
  Alcotest.(check int) "no trial re-executed" 0
    resumed.Campaign.stats.Campaign.s_trials;
  Alcotest.(check int) "everything replayed" first.Campaign.stats.Campaign.s_trials
    resumed.Campaign.stats.Campaign.s_replayed;
  Alcotest.(check string) "identical analysis" (fp first.Campaign.analysis)
    (fp resumed.Campaign.analysis)

let test_resume_replays_trials_past_a_bound () =
  (* A journal written without cutoff holds every trial, most of them
     past the resolution a cutoff campaign reaches: resuming under cutoff
     must replay all of them (a speculative trial the interrupted run
     already paid for) rather than skip them, and still truncate the
     analysis at the bound. *)
  let journal = Filename.temp_file "journal" ".jsonl" in
  let log = Event_log.open_file journal in
  let first = run_fig1 ~cutoff:false ~log () in
  Event_log.close log;
  let resumed = run_fig1 ~resume:journal () in
  Sys.remove journal;
  Alcotest.(check int) "every journaled trial replayed"
    first.Campaign.stats.Campaign.s_trials
    resumed.Campaign.stats.Campaign.s_replayed;
  Alcotest.(check bool) "trials past a bound discarded" true
    (resumed.Campaign.stats.Campaign.s_discarded > 0);
  Alcotest.(check string) "same analysis as a fresh cutoff campaign"
    (fp (run_fig1 ()).Campaign.analysis) (fp resumed.Campaign.analysis)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "campaign_supervision"
    [
      ( "work_queue",
        [
          Alcotest.test_case "close stops pops" `Quick test_queue_close_stops_pops;
          Alcotest.test_case "requeue order and retention" `Quick
            test_queue_requeue_order_and_retention;
          QCheck_alcotest.to_alcotest prop_queue_accounting;
        ] );
      ( "event_log",
        [
          Alcotest.test_case "journal round-trips" `Quick test_journal_round_trip;
          Alcotest.test_case "torn trailing line tolerated" `Quick
            test_journal_tolerates_torn_line;
          Alcotest.test_case "concurrent writers, no torn lines" `Quick
            test_log_concurrent_writers;
        ] );
      ( "sandbox",
        [
          Alcotest.test_case "completes normally" `Quick test_sandbox_completes;
          Alcotest.test_case "catches harness crash" `Quick test_sandbox_catches_crash;
          Alcotest.test_case "step deadline" `Quick test_sandbox_step_deadline;
          Alcotest.test_case "wall deadline" `Quick test_sandbox_wall_deadline;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "respawns flaky worker" `Quick
            test_supervisor_respawns_flaky_worker;
          Alcotest.test_case "gives up past budget" `Quick
            test_supervisor_gives_up_past_budget;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crashes quarantined, campaign completes" `Quick
            test_chaos_crashes_are_quarantined;
          Alcotest.test_case "chaos is deterministic" `Quick test_chaos_is_deterministic;
          Alcotest.test_case "worker deaths don't change results" `Quick
            test_worker_deaths_do_not_change_results;
          Alcotest.test_case "survives permanent worker loss" `Quick
            test_campaign_survives_permanent_worker_loss;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill + resume = uninterrupted" `Quick
            test_kill_resume_matches_uninterrupted;
          Alcotest.test_case "complete journal replays everything" `Quick
            test_resume_from_complete_journal_runs_nothing;
          Alcotest.test_case "journaled trials past a bound replay" `Quick
            test_resume_replays_trials_past_a_bound;
        ] );
    ]
