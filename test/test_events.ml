(* Tests for the event model and trace recording. *)

open Rf_util
open Rf_events

let s1 = Site.make ~file:"ev.rfl" ~line:1 "w"
let s2 = Site.make ~file:"ev.rfl" ~line:2 "r"

let mem ?(tid = 0) ?(site = s1) ?(loc = Loc.global "x") ?(access = Event.Write)
    ?(lockset = Lockset.empty) () =
  Event.Mem { tid; site; loc; access; lockset }

let test_lockset_basics () =
  let l = Lockset.of_list [ 1; 2; 3 ] in
  Alcotest.(check bool) "mem" true (Lockset.mem 2 l);
  Alcotest.(check int) "cardinal" 3 (Lockset.cardinal l);
  let m = Lockset.of_list [ 3; 4 ] in
  Alcotest.(check bool) "not disjoint" false (Lockset.disjoint l m);
  Alcotest.(check bool) "disjoint" true (Lockset.disjoint l (Lockset.of_list [ 9 ]));
  Alcotest.(check (list int)) "inter" [ 3 ] (Lockset.to_list (Lockset.inter l m));
  Alcotest.(check bool) "empty is empty" true (Lockset.is_empty Lockset.empty)

let test_event_equality () =
  Alcotest.(check bool) "mem self equal" true (Event.equal (mem ()) (mem ()));
  Alcotest.(check bool) "different access" false
    (Event.equal (mem ()) (mem ~access:Event.Read ()));
  Alcotest.(check bool) "different loc" false
    (Event.equal (mem ()) (mem ~loc:(Loc.global "y") ()));
  Alcotest.(check bool) "different kind" false
    (Event.equal (mem ()) (Event.Exit { tid = 0 }));
  Alcotest.(check bool) "snd equal" true
    (Event.equal
       (Event.Snd { tid = 1; msg = 7; reason = Event.Fork })
       (Event.Snd { tid = 1; msg = 7; reason = Event.Fork }));
  Alcotest.(check bool) "snd reason differs" false
    (Event.equal
       (Event.Snd { tid = 1; msg = 7; reason = Event.Fork })
       (Event.Snd { tid = 1; msg = 7; reason = Event.Join }))

let test_event_accessors () =
  Alcotest.(check int) "tid" 3 (Event.tid (mem ~tid:3 ()));
  Alcotest.(check bool) "site of mem" true (Event.site (mem ()) <> None);
  Alcotest.(check bool) "site of exit" true (Event.site (Event.Exit { tid = 0 }) = None);
  Alcotest.(check bool) "is_mem" true (Event.is_mem (mem ()));
  Alcotest.(check bool) "is_sync exit" true (Event.is_sync (Event.Exit { tid = 0 }))

let test_trace_grow_and_get () =
  let tr = Trace.create ~capacity:2 () in
  for i = 0 to 99 do
    Trace.add tr (Event.Exit { tid = i })
  done;
  Alcotest.(check int) "length" 100 (Trace.length tr);
  Alcotest.(check int) "get 57" 57 (Event.tid (Trace.get tr 57));
  Alcotest.check_raises "oob" (Invalid_argument "Trace.get: out of bounds") (fun () ->
      ignore (Trace.get tr 100))

let test_trace_equal_and_fingerprint () =
  let mk () =
    let tr = Trace.create () in
    Trace.add tr (mem ());
    Trace.add tr (Event.Acquire { tid = 0; lock = 1; site = s2 });
    Trace.add tr (Event.Exit { tid = 0 });
    tr
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "equal traces" true (Trace.equal a b);
  Alcotest.(check int) "equal fingerprints" (Trace.fingerprint a) (Trace.fingerprint b);
  Trace.add b (Event.Exit { tid = 1 });
  Alcotest.(check bool) "not equal after add" false (Trace.equal a b)

let test_fingerprint_structural () =
  (* Single-field sensitivity: the streaming hash must separate traces that
     differ in any one event field, including fields the old
     string+Hashtbl.hash digest was prone to colliding on. *)
  let fp evs =
    let tr = Trace.create () in
    List.iter (Trace.add tr) evs;
    Trace.fingerprint tr
  in
  let base = [ mem (); Event.Acquire { tid = 0; lock = 1; site = s2 } ] in
  let variants =
    [
      [ mem ~access:Event.Read (); Event.Acquire { tid = 0; lock = 1; site = s2 } ];
      [ mem ~loc:(Loc.elem 0 1) (); Event.Acquire { tid = 0; lock = 1; site = s2 } ];
      [ mem ~loc:(Loc.elem 1 0) (); Event.Acquire { tid = 0; lock = 1; site = s2 } ];
      [ mem ~lockset:(Lockset.of_list [ 2 ]) ();
        Event.Acquire { tid = 0; lock = 1; site = s2 } ];
      [ mem ~tid:1 (); Event.Acquire { tid = 0; lock = 1; site = s2 } ];
      [ mem (); Event.Acquire { tid = 0; lock = 2; site = s2 } ];
      [ mem (); Event.Release { tid = 0; lock = 1; site = s2 } ];
      [ Event.Acquire { tid = 0; lock = 1; site = s2 }; mem () ] (* order *);
    ]
  in
  let fps = List.map fp (base :: variants) in
  List.iter
    (fun f -> Alcotest.(check bool) "non-negative" true (f >= 0))
    fps;
  Alcotest.(check int) "all variants distinct" (List.length fps)
    (List.length (List.sort_uniq compare fps));
  (* Pinned value: the digest is part of the golden-file contract (CI
     compares recomputed fingerprints against checked-in ones), so an
     accidental change to the hash must fail loudly here first. *)
  Alcotest.(check int) "pinned digest" 2392111145469299187 (fp base)

let test_trace_sentinel_invisible () =
  (* [Trace.create] pads the backing array with an [Exit { tid = -1 }]
     sentinel; growth in [add] seeds the bigger array with the incoming
     event.  Neither filler is a recorded event, so no consumer may ever
     observe one on a partially filled trace — every accessor must be
     bounded by [length], not capacity. *)
  let sentinel = Event.Exit { tid = -1 } in
  let check_clean label tr =
    Trace.iter
      (fun ev ->
        if Event.equal ev sentinel then
          Alcotest.failf "%s: iter leaked the sentinel" label)
      tr;
    Alcotest.(check bool)
      (label ^ ": to_list has no sentinel")
      false
      (List.exists (Event.equal sentinel) (Trace.to_list tr));
    let visited = Trace.fold (fun n _ -> n + 1) 0 tr in
    Alcotest.(check int) (label ^ ": fold is length-bounded") (Trace.length tr)
      visited
  in
  (* fresh trace with excess capacity: all slots are sentinels, none visible *)
  let tr = Trace.create ~capacity:64 () in
  check_clean "empty" tr;
  Alcotest.(check int) "empty sync count" 0 (Trace.count_sync tr);
  Trace.add tr (mem ());
  Trace.add tr (mem ~access:Event.Read ());
  check_clean "partial" tr;
  (* capacity (hence sentinel population) must not affect the digest *)
  let small = Trace.create ~capacity:1 () in
  Trace.add small (mem ());
  Trace.add small (mem ~access:Event.Read ());
  Alcotest.(check int) "fingerprint is capacity-independent"
    (Trace.fingerprint small) (Trace.fingerprint tr);
  Alcotest.(check bool) "equal across capacities" true (Trace.equal small tr);
  (* a *recorded* Exit{tid=-1} is data, not padding: it must survive *)
  let tr' = Trace.create ~capacity:8 () in
  Trace.add tr' sentinel;
  Alcotest.(check int) "recorded sentinel-shaped event kept" 1
    (Trace.length tr');
  Alcotest.(check bool) "and visible" true
    (List.exists (Event.equal sentinel) (Trace.to_list tr'))

let test_trace_counts () =
  let tr = Trace.create () in
  Trace.add tr (mem ());
  Trace.add tr (mem ~access:Event.Read ());
  Trace.add tr (Event.Exit { tid = 0 });
  Alcotest.(check int) "mem count" 2 (Trace.count_mem tr);
  Alcotest.(check int) "sync count" 1 (Trace.count_sync tr)

let test_trace_fold_iter () =
  let tr = Trace.create () in
  for i = 1 to 10 do
    Trace.add tr (Event.Exit { tid = i })
  done;
  let sum = Trace.fold (fun acc ev -> acc + Event.tid ev) 0 tr in
  Alcotest.(check int) "fold sums tids" 55 sum;
  let n = ref 0 in
  Trace.iter (fun _ -> incr n) tr;
  Alcotest.(check int) "iter visits all" 10 !n;
  Alcotest.(check int) "to_list length" 10 (List.length (Trace.to_list tr))

let prop_lockset_disjoint_iff_empty_inter =
  QCheck.Test.make ~name:"disjoint iff empty intersection" ~count:300
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (a, b) ->
      let la = Lockset.of_list a and lb = Lockset.of_list b in
      Lockset.disjoint la lb = Lockset.is_empty (Lockset.inter la lb))

let () =
  Alcotest.run "rf_events"
    [
      ( "lockset",
        [
          Alcotest.test_case "basics" `Quick test_lockset_basics;
          QCheck_alcotest.to_alcotest prop_lockset_disjoint_iff_empty_inter;
        ] );
      ( "event",
        [
          Alcotest.test_case "equality" `Quick test_event_equality;
          Alcotest.test_case "accessors" `Quick test_event_accessors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "grow and get" `Quick test_trace_grow_and_get;
          Alcotest.test_case "equal/fingerprint" `Quick test_trace_equal_and_fingerprint;
          Alcotest.test_case "fingerprint structural" `Quick
            test_fingerprint_structural;
          Alcotest.test_case "sentinel invisible" `Quick
            test_trace_sentinel_invisible;
          Alcotest.test_case "counts" `Quick test_trace_counts;
          Alcotest.test_case "fold/iter" `Quick test_trace_fold_iter;
        ] );
    ]
