(* Scheduler-view tier.  The engine keeps the enabled set incrementally
   and strategies read it through an allocation-free view; these tests
   pin both halves.  (a) The sorted enabled set equals an [Int.Set] model
   under random fork / enable / disable sequences.  (b) The RaceFuzzer
   strategy, which picks by rank over that view, records exactly the
   schedule — and fills exactly the report — of a list-based reference
   copy of the strategy as it was written over an [enabled] list. *)

open Rf_util
open Rf_runtime
module Algo = Racefuzzer.Algo
module Fuzzer = Racefuzzer.Fuzzer
module Recorder = Rf_replay.Recorder
module Schedule = Rf_replay.Schedule
module Int_set = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* (a) the sorted enabled set                                          *)

let enabled_tids v =
  List.init (Strategy.count v) (fun i -> (Strategy.nth v i).Strategy.tid)

(* The set is mutated through [Enabled_set], as the engine does, and read
   through the strategy view of it.  Ops: 0 forks a new, highest tid that
   starts enabled; 1 / 2 enable / disable one registered tid; 3 is a
   batch ([set_enabled_each]) over several registered tids, duplicates
   included, each set to the parity of the first number that named it.
   Any of them may be a no-op. *)
let prop_enabled_set_model =
  QCheck.Test.make ~name:"sorted enabled set = Int.Set model" ~count:500
    QCheck.(
      list_of_size Gen.(0 -- 300) (pair (int_bound 3) (small_list small_nat)))
    (fun ops ->
      let set = Enabled_set.create (Prng.create 0) in
      let v = Strategy.of_enabled_set set in
      let model = ref Int_set.empty and registered = ref 0 in
      let model_set tid on =
        model := (if on then Int_set.add else Int_set.remove) tid !model
      in
      List.for_all
        (fun (op, xs) ->
          (match (op, xs) with
          | 0, _ ->
              let tid = Enabled_set.add_thread set ~name:"t" in
              incr registered;
              Enabled_set.set_enabled set tid true;
              model_set tid true
          | (1 | 2), x :: _ when !registered > 0 ->
              let tid = x mod !registered and on = op = 1 in
              Enabled_set.set_enabled set tid on;
              model_set tid on
          | 3, _ when !registered > 0 ->
              let named = List.map (fun x -> (x mod !registered, x)) xs in
              let f tid = List.assoc tid named mod 2 = 1 in
              Enabled_set.set_enabled_each set (List.map fst named) f;
              List.iter (fun (tid, _) -> model_set tid (f tid)) named
          | _ -> ());
          enabled_tids v = Int_set.elements !model
          && List.for_all
               (fun t ->
                 Strategy.is_enabled v t = Int_set.mem t !model
                 && Option.map (fun e -> e.Strategy.tid) (Strategy.find v t)
                    = (if Int_set.mem t !model then Some t else None))
               (List.init (!registered + 3) (fun i -> i - 1)))
        ops)

(* ------------------------------------------------------------------ *)
(* (b) the list-based reference RaceFuzzer strategy                    *)

(* The RaceFuzzer strategy as it read before the enabled set became an
   array view: [enabled] is rebuilt as a list at every consultation, the
   available threads are filtered out of it, [Prng.pick] draws from the
   filtered list, [Racing] filters the whole list, and the timeout sweep
   walks a tid-indexed array on every consultation. *)
let reference_strategy ?(postpone_timeout = Some Algo.default_postpone_timeout)
    ~pair ~(report : Algo.report) () : Strategy.t =
  let racing (m : Op.mem) is_postponed (enabled : Strategy.entry list) =
    List.filter
      (fun (e : Strategy.entry) ->
        is_postponed e.Strategy.tid
        &&
        match Op.pend_mem e.Strategy.pend with
        | Some m' ->
            Loc.equal m.Op.loc m'.Op.loc
            && (m.Op.access = Rf_events.Event.Write
               || m'.Op.access = Rf_events.Event.Write)
        | None -> false)
      enabled
  in
  let p_since = ref (Array.make 16 (-1)) in
  let p_count = ref 0 in
  let ensure tid =
    let n = Array.length !p_since in
    if tid >= n then begin
      let a = Array.make (max (tid + 1) (2 * n)) (-1) in
      Array.blit !p_since 0 a 0 n;
      p_since := a
    end
  in
  let is_postponed tid = tid < Array.length !p_since && !p_since.(tid) >= 0 in
  let postpone tid step =
    ensure tid;
    if !p_since.(tid) < 0 then incr p_count;
    !p_since.(tid) <- step
  in
  let release tid =
    if is_postponed tid then begin
      !p_since.(tid) <- -1;
      decr p_count
    end
  in
  let recorded : (int * int, Loc.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let queue : int list ref = ref [] in
  let choose (view : Strategy.view) =
    let enabled = List.init (Strategy.count view) (Strategy.nth view) in
    let step = Strategy.step view and prng = Strategy.prng view in
    (match postpone_timeout with
    | None -> ()
    | Some bound ->
        if !p_count > 0 then
          Array.iteri
            (fun tid since ->
              if since >= 0 && step - since > bound then begin
                release tid;
                report.Algo.timeout_releases <- report.Algo.timeout_releases + 1
              end)
            !p_since);
    let rec from_queue () =
      match !queue with
      | [] -> None
      | tid :: rest ->
          queue := rest;
          if List.exists (fun (e : Strategy.entry) -> e.tid = tid) enabled then
            Some tid
          else from_queue ()
    in
    match from_queue () with
    | Some tid -> tid
    | None ->
        let rec pick_loop () =
          let avail =
            if !p_count = 0 then enabled
            else List.filter (fun (e : Strategy.entry) -> not (is_postponed e.tid)) enabled
          in
          match avail with
          | [] ->
              let victims =
                List.filter (fun (e : Strategy.entry) -> is_postponed e.tid) enabled
              in
              let v = Prng.pick prng victims in
              release v.Strategy.tid;
              report.Algo.evictions <- report.Algo.evictions + 1;
              v.Strategy.tid
          | _ -> (
              let e = Prng.pick prng avail in
              match Op.pend_mem e.Strategy.pend with
              | Some m when Site.Pair.mem m.Op.site pair -> (
                  match racing m is_postponed enabled with
                  | [] ->
                      postpone e.Strategy.tid step;
                      report.Algo.postponements <- report.Algo.postponements + 1;
                      pick_loop ()
                  | r ->
                      let first = List.hd r in
                      let postponed_site =
                        match Op.pend_mem first.Strategy.pend with
                        | Some m' -> m'.Op.site
                        | None -> m.Op.site
                      in
                      let toward_arriving = Prng.bool prng in
                      report.Algo.hit_events <- report.Algo.hit_events + 1;
                      let key = (Site.id postponed_site, Site.id m.Op.site) in
                      let locs =
                        match Hashtbl.find_opt recorded key with
                        | Some l -> l
                        | None ->
                            let l = ref [] in
                            Hashtbl.add recorded key l;
                            l
                      in
                      if not (List.exists (Loc.equal m.Op.loc) !locs) then begin
                        locs := m.Op.loc :: !locs;
                        report.Algo.hits <-
                          {
                            Algo.hit_pair = pair;
                            hit_sites = (postponed_site, m.Op.site);
                            hit_loc = m.Op.loc;
                            hit_arriving = e.Strategy.tid;
                            hit_postponed =
                              List.map (fun (x : Strategy.entry) -> x.tid) r;
                            hit_step = step;
                            resolved_arriving = toward_arriving;
                          }
                          :: report.Algo.hits
                      end;
                      if toward_arriving then e.Strategy.tid
                      else begin
                        postpone e.Strategy.tid step;
                        report.Algo.postponements <- report.Algo.postponements + 1;
                        List.iter (fun (x : Strategy.entry) -> release x.tid) r;
                        let tids = List.map (fun (x : Strategy.entry) -> x.tid) r in
                        queue := List.tl tids;
                        List.hd tids
                      end)
              | _ -> e.Strategy.tid)
        in
        pick_loop ()
  in
  Strategy.make ~name:"racefuzzer-reference" choose

(* ------------------------------------------------------------------ *)
(* Comparing the two strategies                                        *)

let same_hit (a : Algo.hit) (b : Algo.hit) =
  Site.Pair.equal a.Algo.hit_pair b.Algo.hit_pair
  && Site.equal (fst a.Algo.hit_sites) (fst b.Algo.hit_sites)
  && Site.equal (snd a.Algo.hit_sites) (snd b.Algo.hit_sites)
  && Loc.equal a.Algo.hit_loc b.Algo.hit_loc
  && a.Algo.hit_arriving = b.Algo.hit_arriving
  && a.Algo.hit_postponed = b.Algo.hit_postponed
  && a.Algo.hit_step = b.Algo.hit_step
  && a.Algo.resolved_arriving = b.Algo.resolved_arriving

let same_report (a : Algo.report) (b : Algo.report) =
  List.length a.Algo.hits = List.length b.Algo.hits
  && List.for_all2 same_hit a.Algo.hits b.Algo.hits
  && a.Algo.hit_events = b.Algo.hit_events
  && a.Algo.evictions = b.Algo.evictions
  && a.Algo.timeout_releases = b.Algo.timeout_releases
  && a.Algo.postponements = b.Algo.postponements

(* One recorded phase-2 trial under [make]'s strategy. *)
let record ~make ~postpone_timeout ~max_steps ~program pair seed =
  let report = Algo.fresh_report () in
  let strategy, recorder =
    Recorder.wrap (make ?postpone_timeout:(Some postpone_timeout) ~pair ~report ())
  in
  let policy =
    Engine.Sync_and (Site.Set.of_list [ Site.Pair.fst pair; Site.Pair.snd pair ])
  in
  let outcome =
    Engine.run
      ~config:{ Engine.default_config with seed; policy; max_steps }
      ~strategy program
  in
  (Recorder.schedule ~seed ~max_steps ~outcome recorder, outcome, report)

let agree ~postpone_timeout ~max_steps ~program pair seed =
  let s1, o1, r1 =
    record ~make:Algo.strategy ~postpone_timeout ~max_steps ~program pair seed
  in
  let s2, o2, r2 =
    record ~make:reference_strategy ~postpone_timeout ~max_steps ~program pair seed
  in
  Schedule.equal s1 s2 && o1.Outcome.steps = o2.Outcome.steps && same_report r1 r2

(* A tiny timeout makes postponements expire between consultations, so
   timeout releases and all-postponed evictions are exercised alongside
   race creation. *)
let timeouts = [ Some Algo.default_postpone_timeout; Some 2 ]

let prop_algo_matches_reference =
  QCheck.Test.make ~name:"Algo schedule = list-based reference (generated programs)"
    ~count:60
    QCheck.(pair Rfl_gen.arbitrary_program small_int)
    (fun (prog, seed) ->
      let program = Rf_lang.Lang.program ~print:ignore prog in
      let pairs =
        Site.Pair.Set.elements
          (Fuzzer.potential_pairs
             (Fuzzer.phase1 ~seeds:[ 0; 1 ] ~max_steps:100_000 program))
      in
      List.for_all
        (fun pair ->
          List.for_all
            (fun postpone_timeout ->
              List.for_all
                (agree ~postpone_timeout ~max_steps:100_000 ~program pair)
                [ seed; seed + 1 ])
            timeouts)
        pairs)

(* A wide program: [n] writers over three shared cells through one
   statement, so many threads stand postponed at once (on different
   locations, forcing evictions) and ranks deep in the enabled set are
   skipped on every pick. *)
let wide_site = Site.make ~file:"wide" ~line:1 "cells[i mod 3] = i"
let wide_read = Site.make ~file:"wide" ~line:2 "read cells[i mod 3]"

let wide_program ~n () =
  let cells = Array.init 3 (fun i -> Api.Cell.make ~name:(Printf.sprintf "c%d" i) 0) in
  let hs =
    List.init n (fun i ->
        Api.fork ~name:(Printf.sprintf "w%d" i) (fun () ->
            for _ = 1 to 3 do
              let c = cells.(i mod 3) in
              Api.Cell.write ~site:wide_site c (Api.Cell.read ~site:wide_read c + i)
            done))
  in
  List.iter Api.join hs

let test_wide_program_matches_reference () =
  let pair = Site.Pair.make wide_site wide_read in
  let relieved = ref 0 and evicted = ref 0 in
  List.iter
    (fun postpone_timeout ->
      List.iter
        (fun seed ->
          let program = wide_program ~n:40 in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d agrees" seed)
            true
            (agree ~postpone_timeout ~max_steps:200_000 ~program pair seed);
          let _, _, r =
            record ~make:Algo.strategy ~postpone_timeout ~max_steps:200_000 ~program
              pair seed
          in
          relieved := !relieved + r.Algo.timeout_releases;
          evicted := !evicted + r.Algo.evictions)
        [ 0; 1; 2; 3 ])
    (timeouts @ [ None ]);
  Alcotest.(check bool) "timeout releases exercised" true (!relieved > 0);
  Alcotest.(check bool) "evictions exercised" true (!evicted > 0)

let () =
  Alcotest.run "strategy"
    [
      ( "enabled-set",
        [ QCheck_alcotest.to_alcotest prop_enabled_set_model ] );
      ( "algo-reference",
        [
          Alcotest.test_case "wide program matches reference" `Quick
            test_wide_program_matches_reference;
          QCheck_alcotest.to_alcotest prop_algo_matches_reference;
        ] );
    ]
