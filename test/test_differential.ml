(* Differential testing of the phase-1 detectors against each other on
   randomly generated RFL programs.  The detectors sit on a precision
   lattice, and the lattice order is checkable per-trace:

   - FastTrack is precise happens-before: every race it reports on a
     trace is also flagged by the hybrid detector, whose weak
     happens-before relation is a subset of the real one (fewer HB edges
     => more reports).  So pairs(fasttrack) ⊆ pairs(hybrid) when both
     observe the same execution.
   - On lockset-only programs (no notify_all / sleep, so lock discipline
     is the only synchronization), Eraser's state machine must flag the
     location of every FastTrack race whose second access is a write:
     the two accesses share no lock (a common lock would order them by
     its release→acquire edge), so the candidate lockset is empty when
     the write arrives and the cell is in a Shared* state.  Read-second
     races are legitimately missed by Eraser (its Shared state never
     reports), which is why the property is restricted to writes.

   A third property pins the epoch test the hybrid, precise-HB and
   sampling detectors use in place of full clock comparison: on every
   trace it must agree with [Vclock.concurrent] exactly. *)

open Rf_util
module A = Rf_lang.Ast
module D = Rf_detect.Detector

let run ?(seed = 0) ~listeners main =
  ignore
    (Rf_runtime.Engine.run
       ~config:
         { Rf_runtime.Engine.default_config with seed; max_steps = 100_000 }
       ~listeners
       ~strategy:(Rf_runtime.Strategy.random ())
       main)

let main_of prog = Rf_lang.Lang.program ~print:ignore prog

(* Rewrite a program so lock discipline is its only synchronization:
   wait/notify/notify_all/sleep become no-ops.  The result is still
   well-formed (skip is legal everywhere). *)
let rec lockset_only_stmt (st : A.stmt) =
  let k =
    match st.A.s with
    | A.Swait _ | A.Snotify _ | A.Snotify_all _ | A.Ssleep -> A.Sskip
    | A.Sif (e, b1, b2) ->
        A.Sif (e, lockset_only_block b1, Option.map lockset_only_block b2)
    | A.Swhile (e, b) -> A.Swhile (e, lockset_only_block b)
    | A.Sfor (init, cond, step, b) ->
        A.Sfor
          (lockset_only_stmt init, cond, lockset_only_stmt step, lockset_only_block b)
    | A.Ssync (l, b) -> A.Ssync (l, lockset_only_block b)
    | k -> k
  in
  { st with A.s = k }

and lockset_only_block b = List.map lockset_only_stmt b

let lockset_only (p : A.program) =
  {
    p with
    A.funcs =
      List.map (fun f -> { f with A.fbody = lockset_only_block f.A.fbody }) p.A.funcs;
    A.threads =
      List.map
        (fun t -> { t with A.tbody = lockset_only_block t.A.tbody })
        p.A.threads;
  }

(* 1. FastTrack never reports a pair the hybrid detector misses. *)
let prop_fasttrack_subset_hybrid =
  QCheck.Test.make ~name:"fasttrack pairs ⊆ hybrid pairs (same trace)" ~count:60
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let ft = D.fasttrack () and hy = D.hybrid ~cap:4096 () in
      run ~seed ~listeners:[ D.feed ft; D.feed hy ] (main_of prog);
      Site.Pair.Set.subset (D.pairs ft) (D.pairs hy))

(* Same containment for the unoptimized precise-HB baseline: FastTrack's
   epoch compression only forgets *older* accesses, so each of its
   reports must also appear in the full-history precise detector.  (The
   converse does not hold — epochs can't attribute races against
   forgotten accesses — so this is ⊆, not equality.) *)
let prop_fasttrack_subset_hb =
  QCheck.Test.make ~name:"fasttrack pairs ⊆ hb_precise pairs (same trace)"
    ~count:60
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let ft = D.fasttrack () and hb = D.hb_precise ~cap:4096 () in
      run ~seed ~listeners:[ D.feed ft; D.feed hb ] (main_of prog);
      Site.Pair.Set.subset (D.pairs ft) (D.pairs hb))

(* 2. On lockset-only programs, Eraser covers every FastTrack
   write-second race location. *)
let prop_eraser_covers_fasttrack_writes =
  QCheck.Test.make
    ~name:"eraser flags every fasttrack write-race location (lockset-only)"
    ~count:60
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let prog = lockset_only prog in
      let ft = D.fasttrack () in
      let er = Rf_detect.Eraser.create ~site_cap:4096 () in
      run ~seed ~listeners:[ D.feed ft; Rf_detect.Eraser.feed er ] (main_of prog);
      let racy = Rf_detect.Eraser.racy_locations er in
      List.for_all
        (fun (r : Rf_detect.Race.t) ->
          match snd r.Rf_detect.Race.accesses with
          | Rf_events.Event.Read -> true (* out of Eraser's scope *)
          | Rf_events.Event.Write ->
              List.exists (Loc.equal r.Rf_detect.Race.loc) racy)
        (D.races ft))

(* 3. The epoch test equals full clock comparison.  For every ordered
   pair of memory events from different threads, fed in trace order to
   one [Hbclock], [Hbclock.epoch_concurrent] on the older event's epoch
   agrees with [Vclock.concurrent] on the two clocks (the reference).
   Checked with and without lock edges, ungoverned and under a governor
   tripped to Sampled halfway through the trace (which evicts message
   clocks, so some receives add no edge), and per shard of the Offline
   location split at 1 and 3 shards (each shard's clocks see every sync
   event but only its own memory events). *)
let epoch_matches_full_clocks ~lock_edges ~governed ~shards events =
  let n = List.length events in
  List.for_all
    (fun shard ->
      let governor =
        if governed then Some (Rf_resource.Governor.create ()) else None
      in
      let hb = Rf_detect.Hbclock.create ?governor ~lock_edges () in
      let mems = ref [] in
      List.iteri
        (fun i ev ->
          (match governor with
          | Some g when i = n / 2 ->
              Rf_resource.Governor.trip g Rf_resource.Governor.Injected
          | _ -> ());
          match ev with
          | Rf_events.Event.Mem { tid; loc; _ } ->
              if Rf_detect.Offline.shard_of_loc ~shards loc = shard then
                mems := (tid, Rf_detect.Hbclock.feed hb ev) :: !mems
          | _ -> ignore (Rf_detect.Hbclock.feed hb ev))
        events;
      let rec check = function
        | [] -> true
        | (tj, cj) :: older ->
            List.for_all
              (fun (ti, ci) ->
                ti = tj
                || Rf_detect.Hbclock.epoch_concurrent ~tid:ti
                     ~clk:(Rf_vclock.Vclock.get ci ti) cj
                   = Rf_vclock.Vclock.concurrent ci cj)
              older
            && check older
      in
      check !mems)
    (List.init shards Fun.id)

let prop_epoch_equals_vclock =
  QCheck.Test.make
    ~name:"epoch test = Vclock.concurrent (lock edges, Sampled, shards)"
    ~count:60
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let events = ref [] in
      run ~seed ~listeners:[ (fun ev -> events := ev :: !events) ] (main_of prog);
      (* keep the pair count bounded on long traces *)
      let events = List.filteri (fun i _ -> i < 1500) (List.rev !events) in
      List.for_all
        (fun (lock_edges, governed, shards) ->
          epoch_matches_full_clocks ~lock_edges ~governed ~shards events)
        [
          (false, false, 1); (true, false, 1); (false, true, 1); (true, true, 1);
          (false, false, 3); (true, false, 3); (false, true, 3); (true, true, 3);
        ])

(* ------------------------------------------------------------------ *)
(* Deterministic cases: figure 1, plus a hand-fed trace that pins down
   exactly where Eraser's blind spot is.                               *)

let test_figure1_lattice () =
  let ft = D.fasttrack () and hy = D.hybrid ~cap:4096 () in
  run ~seed:7 ~listeners:[ D.feed ft; D.feed hy ] Rf_workloads.Figure1.program;
  Alcotest.(check bool) "ft ⊆ hybrid on figure1" true
    (Site.Pair.Set.subset (D.pairs ft) (D.pairs hy))

let mem ~tid ~site ~access ?(lockset = Rf_events.Lockset.empty) loc =
  Rf_events.Event.Mem { tid; site; loc; access; lockset }

let sa = Site.make ~file:"diff.rfl" ~line:1 "wa"
let sb = Site.make ~file:"diff.rfl" ~line:2 "wb"

let test_eraser_write_write () =
  (* two unprotected writes by different threads: Eraser must fire *)
  let er = D.eraser ~site_cap:4096 () in
  let x = Loc.global "diff_x" in
  D.feed er (mem ~tid:0 ~site:sa ~access:Rf_events.Event.Write x);
  D.feed er (mem ~tid:1 ~site:sb ~access:Rf_events.Event.Write x);
  Alcotest.(check int) "one pair reported" 1 (D.race_count er)

let test_eraser_misses_read_second () =
  (* unprotected write then read: a real race, but the cell only reaches
     the Shared state, which never reports — the documented blind spot
     that restricts the QCheck property above to write-second races *)
  let er = D.eraser ~site_cap:4096 () in
  let y = Loc.global "diff_y" in
  D.feed er (mem ~tid:0 ~site:sa ~access:Rf_events.Event.Write y);
  D.feed er (mem ~tid:1 ~site:sb ~access:Rf_events.Event.Read y);
  Alcotest.(check int) "nothing reported" 0 (D.race_count er)

let () =
  Alcotest.run "differential_detectors"
    [
      ( "lattice",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fasttrack_subset_hybrid;
            prop_fasttrack_subset_hb;
            prop_eraser_covers_fasttrack_writes;
            prop_epoch_equals_vclock;
          ] );
      ( "deterministic",
        [
          Alcotest.test_case "ft subset hybrid on figure1" `Quick
            test_figure1_lattice;
          Alcotest.test_case "eraser write-write fires" `Quick
            test_eraser_write_write;
          Alcotest.test_case "eraser read-second blind spot" `Quick
            test_eraser_misses_read_second;
        ] );
    ]
