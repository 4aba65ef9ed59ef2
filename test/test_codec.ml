(* Golden codec fixtures: every on-disk artifact format, checked against
   files written by an earlier build of this program (test/fixtures/codec:
   a short figure1 campaign with --repro-dir, --corpus and --save-traces,
   then one serve cycle over its corpus).

   Each fixture must (1) load to the values it was written with,
   (2) re-render byte for byte through today's writer, and (3) keep its
   crash tolerance: a torn last line or a flipped byte is skipped or
   rejected exactly as before. *)

open Rf_util
open Rf_events
module Event_log = Rf_campaign.Event_log
module Corpus = Rf_campaign.Corpus
module Ledger = Rf_campaign.Service.Ledger
module Schedule = Rf_replay.Schedule

let fixture name = Filename.concat "fixtures/codec" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let find ~sub s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let contains ~sub s = find ~sub s <> None

let replace_first ~sub ~by s =
  match find ~sub s with
  | None -> Alcotest.failf "%S not found" sub
  | Some i ->
      let j = i + String.length sub in
      String.sub s 0 i ^ by ^ String.sub s j (String.length s - j)

let lines s = String.split_on_char '\n' s |> List.filter (( <> ) "")

let temp_dir () =
  let d = Filename.temp_file "rf_codec" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* A directory holding [contents] under [name], for the loaders that
   take a corpus directory. *)
let with_dir name contents f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      write_file (Filename.concat dir name) contents;
      f dir)

(* Flip one byte inside the [n]th line (0-based), away from its seal. *)
let flip_in_line n s =
  let ls = String.split_on_char '\n' s in
  String.concat "\n"
    (List.mapi
       (fun i l ->
         if i <> n then l
         else
           String.mapi
             (fun j c -> if j = 3 then Char.chr (Char.code c lxor 0x01) else c)
             l)
       ls)

let fingerprint_of_error =
  {|exn:Rf_runtime.Op.Model_error("ERROR1")@figure1:5:0:if(z==1)|}

(* ------------------------------------------------------------------ *)
(* The JSON codec itself                                               *)

let test_json_dialect () =
  let ok s = match Json.of_string s with _ -> true | exception Json.Error _ -> false in
  Alcotest.(check bool) "newline and CR are whitespace" true (ok "{\n\"a\" :\r\n 1 }\n");
  Alcotest.(check bool) "literals are strict" false (ok {|{"a":trux}|});
  Alcotest.(check bool) "literal prefix rejected" false (ok {|{"a":nul|});
  Alcotest.(check bool) "trailing garbage rejected" false (ok {|{"a":1}x|});
  Alcotest.(check bool) "torn string rejected" false (ok {|{"a":"b|});
  let v =
    Json.of_string
      {|{"i":-3,"f":2.5,"e":1e3,"s":"q\"\\\n\t\r\u0001\u00e9é","l":[true,null]}|}
  in
  Alcotest.(check bool) "values" true
    (v
    = Json.O
        [
          ("i", I (-3));
          ("f", F 2.5);
          ("e", F 1000.);
          ("s", S "q\"\\\n\t\r\001\\u00e9é");
          ("l", L [ B true; Null ]);
        ]);
  Alcotest.(check string) "writer"
    {|{"i":-3,"f":2.500000,"s":"q\"\\\n\t\r\u0001é","l":[true,null]}|}
    (Json.to_string
       (O
          [
            ("i", I (-3));
            ("f", F 2.5);
            ("s", S "q\"\\\n\t\r\001é");
            ("l", L [ B true; Null ]);
          ]));
  let dup = {|{"crc":"a","seen":1,"crc":"b"}|} in
  Alcotest.(check string) "duplicate keys kept, in order" dup
    (Json.to_string (Json.of_string dup));
  Alcotest.(check (option string)) "accessor reads the first" (Some "a")
    (Json.str (Option.get (Json.object_of_string dup)) "crc");
  Alcotest.(check (option (float 0.))) "int widens to float" (Some 1.)
    (Json.float (Option.get (Json.object_of_string dup)) "seen")

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let expected_events =
  [ "journal_opened"; "traces_saved"; "phase1_recorded"; "phase1_finished";
    "static_classified"; "campaign_started"; "wave_started" ]
  @ List.concat (List.init 2 (fun _ -> [ "trial_started"; "trial_finished" ]))
  @ [ "pair_resolved" ]
  @ List.concat (List.init 5 (fun _ -> [ "trial_started"; "trial_finished" ]))
  @ [ "budget_granted"; "wave_started" ]
  @ List.concat (List.init 5 (fun _ -> [ "trial_started"; "trial_finished" ]))
  @ [ "trials_cancelled"; "campaign_finished"; "repro_written"; "corpus_updated" ]

let check_journal_events name evs =
  Alcotest.(check (list string)) (name ^ ": event sequence") expected_events
    (List.map Event_log.event_name evs);
  List.iter
    (function
      | Event_log.Repro_written r ->
          Alcotest.(check string) (name ^ ": repro fingerprint") fingerprint_of_error
            r.fingerprint;
          Alcotest.(check (pair int int)) (name ^ ": shrunk steps") (12, 4)
            (r.steps_before, r.steps_after)
      | Event_log.Corpus_updated c ->
          Alcotest.(check (list int)) (name ^ ": corpus counts") [ 6; 0; 6 ]
            [ c.added; c.deduped; c.total ]
      | Event_log.Campaign_started c ->
          Alcotest.(check bool) (name ^ ": budget null") true (c.budget = None)
      | _ -> ())
    evs

(* The line an event renders to, given the seq and timestamp it was
   written with. *)
let rerender line =
  let fields = Option.get (Json.object_of_string line) in
  let ev = Option.get (Event_log.event_of_json line) in
  Event_log.to_json
    ~seq:(Option.get (Json.int fields "seq"))
    ~elapsed:(Option.get (Json.float fields "t"))
    ev

let test_journal_loads () =
  let evs, skipped = Event_log.load_result (fixture "journal.jsonl") in
  Alcotest.(check int) "no line skipped" 0 skipped;
  check_journal_events "sealed" evs;
  let evs', skipped' = Event_log.load_result (fixture "journal.unsealed.jsonl") in
  Alcotest.(check int) "unsealed: no line skipped" 0 skipped';
  Alcotest.(check bool) "unsealed journal loads the same events" true (evs = evs')

let test_journal_rerenders () =
  List.iter
    (fun line ->
      Alcotest.(check string) "sealed line" line (Json.seal (rerender line));
      Alcotest.(check bool) "flat" true (Event_log.parse_flat line <> None))
    (lines (read_file (fixture "journal.jsonl")));
  List.iter
    (fun line ->
      Alcotest.(check string) "unsealed line" line (rerender line);
      Alcotest.(check string) "generic codec" line
        (Json.to_string (Json.of_string line)))
    (lines (read_file (fixture "journal.unsealed.jsonl")))

let test_journal_tolerance () =
  let text = read_file (fixture "journal.jsonl") in
  let path = Filename.temp_file "rf_codec" ".jsonl" in
  let load s =
    write_file path s;
    Event_log.load_result path
  in
  let evs, skipped = load (text ^ {|{"seq":39,"t":0.1,"ev":"tri|}) in
  Alcotest.(check (pair int int)) "torn tail ends the journal" (38, 0)
    (List.length evs, skipped);
  let evs, skipped = load (flip_in_line 9 text) in
  Alcotest.(check (pair int int)) "flipped byte: line skipped and counted" (37, 1)
    (List.length evs, skipped);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Corpus index                                                        *)

let corpus_keys =
  fingerprint_of_error :: List.init 5 (Printf.sprintf "figure1#seed%d")

let test_corpus_loads () =
  with_dir "index.json" (read_file (fixture "index.json")) (fun dir ->
      let es = Corpus.load dir in
      Alcotest.(check (list string)) "keys" corpus_keys
        (List.map (fun e -> e.Corpus.e_key) es);
      let e = List.hd es in
      Alcotest.(check (list string)) "error entry"
        [ "error"; "figure1"; "(figure1:1(x=1), figure1:10(if(x!=1)))";
          "repro-f43181dcbebe.sched.json"; "3e7779af9a6a8d9a" ]
        [ e.e_kind; e.e_target; e.e_pair; e.e_file; e.e_crc ];
      Alcotest.(check (list int)) "seeds" [ 0; 0; 1; 2; 3; 4 ]
        (List.map (fun e -> e.Corpus.e_seed) es))

let test_corpus_rerenders () =
  let text = read_file (fixture "index.json") in
  (match lines text with
  | _header :: entries ->
      with_dir "index.json" text (fun dir ->
          List.iter2
            (fun line e ->
              Alcotest.(check string) "entry line" line
                (Json.seal (Json.to_string (O (Corpus.fields e)))))
            entries (Corpus.load dir))
  | [] -> Alcotest.fail "empty fixture");
  (* an update that adds nothing rewrites the index unchanged *)
  with_dir "index.json" text (fun dir ->
      ignore (Corpus.update ~dir []);
      Alcotest.(check string) "rewritten index" text
        (read_file (Filename.concat dir "index.json")))

let test_corpus_tolerance () =
  let text = read_file (fixture "index.json") in
  with_dir "index.json" (text ^ {|{"kind":"trace","key":"figu|}) (fun dir ->
      Alcotest.(check int) "torn tail skipped" 6 (List.length (Corpus.load dir)));
  with_dir "index.json" (flip_in_line 2 text) (fun dir ->
      Alcotest.(check (list string)) "flipped entry dropped"
        (List.filteri (fun i _ -> i <> 1) corpus_keys)
        (List.map (fun e -> e.Corpus.e_key) (Corpus.load dir)))

(* ------------------------------------------------------------------ *)
(* Serve ledger                                                        *)

let ledger_file = "serve.ledger.jsonl"

let test_ledger_loads () =
  with_dir ledger_file (read_file (fixture ledger_file)) (fun dir ->
      let t, skipped = Ledger.load dir in
      Alcotest.(check int) "no line skipped" 0 skipped;
      Alcotest.(check int) "in-progress cycle" 2 t.l_cycle;
      Alcotest.(check int) "items" 6 (Hashtbl.length t.l_items);
      let i = Hashtbl.find t.l_items ("error", fingerprint_of_error) in
      Alcotest.(check string) "error verdict" "still-racy"
        (Ledger.verdict_to_string i.li_verdict);
      let tg = Hashtbl.find t.l_targets "figure1" in
      Alcotest.(check (float 0.)) "tokens" 1.0 tg.lt_tokens;
      Alcotest.(check string) "confirmed" "6f7e53ed011d97643ad9b65fb5ffe1ed"
        tg.lt_confirmed;
      match t.l_cycles with
      | [ c ] ->
          Alcotest.(check string) "cycle fingerprint" "20bb5f1e6e814ad4"
            c.lc_fingerprint;
          Alcotest.(check (list int)) "cycle counts" [ 6; 1; 5; 1 ]
            [ c.lc_checked; c.lc_still; c.lc_intact; c.lc_campaigns ]
      | _ -> Alcotest.fail "expected one completed cycle")

let test_ledger_rerenders () =
  let text = read_file (fixture ledger_file) in
  with_dir ledger_file text (fun dir ->
      let t, _ = Ledger.load dir in
      Ledger.save ~dir t;
      Alcotest.(check string) "saved ledger" text
        (read_file (Filename.concat dir ledger_file)))

let test_ledger_tolerance () =
  let text = read_file (fixture ledger_file) in
  with_dir ledger_file (text ^ {|{"torn":tru|}) (fun dir ->
      let t, skipped = Ledger.load dir in
      Alcotest.(check (pair int int)) "torn tail skipped and counted" (6, 1)
        (Hashtbl.length t.l_items, skipped));
  with_dir ledger_file (flip_in_line 3 text) (fun dir ->
      let t, skipped = Ledger.load dir in
      Alcotest.(check (pair int int)) "flipped item skipped and counted" (5, 1)
        (Hashtbl.length t.l_items, skipped))

(* ------------------------------------------------------------------ *)
(* Reproduction schedule                                               *)

let test_schedule_loads () =
  let s = Schedule.load (fixture "repro.sched.json") in
  let m = s.Schedule.meta in
  Alcotest.(check string) "target" "figure1" m.m_target;
  Alcotest.(check (list int)) "seed, budget, steps" [ 0; 2000000; 17 ]
    [ m.m_seed; m.m_max_steps; m.m_steps ];
  Alcotest.(check (option string)) "error" (Some fingerprint_of_error) m.m_error;
  Alcotest.(check (list string)) "pair"
    [ "figure1:1:0:x=1"; "figure1:10:0:if(x!=1)" ]
    (match m.m_pair with
    | Some (a, b) ->
        List.map
          (fun k ->
            Printf.sprintf "%s:%d:%d:%s" k.Schedule.sk_file k.sk_line k.sk_col
              k.sk_label)
          [ a; b ]
    | None -> []);
  Alcotest.(check (pair int int)) "length, switches" (4, 1)
    (Schedule.length s, Schedule.switches s);
  Alcotest.(check (list int)) "tids" [ 0; 0; 0; 2 ]
    (Array.to_list (Array.map (fun st -> st.Schedule.st_tid) s.steps));
  Alcotest.(check int64) "first rng state" (-7046029254386353131L)
    s.steps.(0).st_rng

let test_schedule_rerenders () =
  let path = fixture "repro.sched.json" in
  Alcotest.(check string) "to_json" (read_file path)
    (Schedule.to_json (Schedule.load path))

let test_schedule_tolerance () =
  let text = read_file (fixture "repro.sched.json") in
  let rejects name s =
    Alcotest.(check bool) name true
      (match Schedule.of_json s with
      | _ -> false
      | exception Schedule.Format_error _ -> true)
  in
  rejects "truncated" (String.sub text 0 (String.length text - 4));
  rejects "flipped byte" (replace_first ~sub:{|"seed":0|} ~by:{|"seed";0|} text);
  rejects "version drift" (replace_first ~sub:"rf-schedule/1" ~by:"rf-schedule/2" text)

(* ------------------------------------------------------------------ *)
(* Binary recording                                                    *)

let rfbt = "trace-seed0.rfbt"

let test_rfbt_loads () =
  let bt = Btrace.load (fixture rfbt) in
  let tr = Btrace.to_trace bt in
  Alcotest.(check int) "events" 25 (Trace.length tr);
  Alcotest.(check int) "trace fingerprint" 713681540888371729 (Trace.fingerprint tr);
  Alcotest.(check int) "bytes" 660 (Btrace.byte_size bt)

(* The recording's wire ids for sites are the recording process's live
   [Site.id]s, so a fresh process re-encodes the decoded trace with its
   own ids.  What must hold byte for byte: every frame re-seals to the
   same bytes, and re-encoding is a fixed point. *)
let test_rfbt_rerenders () =
  let raw = read_file (fixture rfbt) in
  let buf = Buffer.create (String.length raw) in
  Buffer.add_string buf (String.sub raw 0 6);
  let rec frames pos =
    match Sealed.check raw pos with
    | 0 -> Buffer.add_string buf (String.sub raw pos (String.length raw - pos))
    | len ->
        Sealed.add buf (String.sub raw (pos + 4) len);
        frames (pos + len + Sealed.overhead)
  in
  frames 6;
  Alcotest.(check string) "frames re-seal identically" raw (Buffer.contents buf);
  let bt = Btrace.load (fixture rfbt) in
  let once = Btrace.of_trace (Btrace.to_trace bt) in
  let twice = Btrace.of_trace (Btrace.to_trace once) in
  Alcotest.(check string) "re-encoding is a fixed point" (Btrace.to_string once)
    (Btrace.to_string twice);
  Alcotest.(check bool) "same trace" true
    (Trace.equal (Btrace.to_trace bt) (Btrace.to_trace once))

let test_rfbt_tolerance () =
  let raw = read_file (fixture rfbt) in
  let rejects name ~frag s =
    match Btrace.of_string s with
    | _ -> Alcotest.failf "%s decoded" name
    | exception Btrace.Corrupt m ->
        Alcotest.(check bool) (name ^ ": " ^ m) true
          (contains ~sub:frag m)
  in
  rejects "truncated" ~frag:"truncated" (String.sub raw 0 (String.length raw - 5));
  let b = Bytes.of_string raw in
  Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 0x01));
  rejects "flipped byte" ~frag:"checksum mismatch at byte 6" (Bytes.to_string b)

let () =
  Alcotest.run "rf_codec"
    [
      ("json", [ Alcotest.test_case "dialect" `Quick test_json_dialect ]);
      ( "journal",
        [
          Alcotest.test_case "loads" `Quick test_journal_loads;
          Alcotest.test_case "re-renders" `Quick test_journal_rerenders;
          Alcotest.test_case "tolerance" `Quick test_journal_tolerance;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "loads" `Quick test_corpus_loads;
          Alcotest.test_case "re-renders" `Quick test_corpus_rerenders;
          Alcotest.test_case "tolerance" `Quick test_corpus_tolerance;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "loads" `Quick test_ledger_loads;
          Alcotest.test_case "re-renders" `Quick test_ledger_rerenders;
          Alcotest.test_case "tolerance" `Quick test_ledger_tolerance;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "loads" `Quick test_schedule_loads;
          Alcotest.test_case "re-renders" `Quick test_schedule_rerenders;
          Alcotest.test_case "tolerance" `Quick test_schedule_tolerance;
        ] );
      ( "rfbt",
        [
          Alcotest.test_case "loads" `Quick test_rfbt_loads;
          Alcotest.test_case "re-renders" `Quick test_rfbt_rerenders;
          Alcotest.test_case "tolerance" `Quick test_rfbt_tolerance;
        ] );
    ]
