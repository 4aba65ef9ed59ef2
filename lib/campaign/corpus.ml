(* Persistent cross-campaign corpus.

   Durability discipline is the journal's, reused wholesale: flat JSON
   lines through the one hand-rolled codec ({!Event_log.render_flat}),
   each line CRC-sealed ({!Event_log.seal}), the whole index rewritten
   through {!Atomic_file} so there is never a moment when the on-disk
   index is half-new.  A crash mid-update costs the update, never the
   corpus. *)

open Rf_util

type entry = {
  e_kind : string;
  e_key : string;
  e_target : string;
  e_pair : string;
  e_seed : int;
  e_file : string;
  e_crc : string;
  e_seen : int;
}

type summary = { cs_added : int; cs_deduped : int; cs_total : int }

let index_file dir = Filename.concat dir "index.json"
let header_line = Event_log.seal {|{"corpus":1}|}

let entry ~kind ~key ?(target = "") ?(pair = "") ?(seed = -1) () =
  {
    e_kind = kind;
    e_key = key;
    e_target = target;
    e_pair = pair;
    e_seed = seed;
    e_file = "";
    e_crc = "";
    e_seen = 1;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_crc path = Fnv.hex63 (read_file path)

let ingest_file ~dir ~kind ~key ?(target = "") ?(pair = "") ?(seed = -1) ~src ()
    =
  Atomic_file.mkdir_p dir;
  let base = Filename.basename src in
  let dst = Filename.concat dir base in
  let already_inside =
    Sys.file_exists dst
    &&
    try (Unix.stat dst).Unix.st_ino = (Unix.stat src).Unix.st_ino
    with Unix.Unix_error _ -> false
  in
  if not already_inside then Atomic_file.write_string dst (read_file src);
  {
    e_kind = kind;
    e_key = key;
    e_target = target;
    e_pair = pair;
    e_seed = seed;
    e_file = base;
    e_crc = file_crc dst;
    e_seen = 1;
  }

(* ------------------------------------------------------------------ *)
(* Index codec: one sealed flat object per entry. *)

let render_entry e =
  Event_log.seal
    (Event_log.render_flat
       [
         ("kind", Event_log.S e.e_kind);
         ("key", Event_log.S e.e_key);
         ("target", Event_log.S e.e_target);
         ("pair", Event_log.S e.e_pair);
         ("seed", Event_log.I e.e_seed);
         ("file", Event_log.S e.e_file);
         ("crc", Event_log.S e.e_crc);
         ("seen", Event_log.I e.e_seen);
       ])

let entry_of_fields fields =
  let str k =
    match List.assoc_opt k fields with Some (Event_log.S s) -> Some s | _ -> None
  in
  let int k =
    match List.assoc_opt k fields with Some (Event_log.I i) -> Some i | _ -> None
  in
  match (str "kind", str "key", int "seed", int "seen") with
  | Some e_kind, Some e_key, Some e_seed, Some e_seen ->
      Some
        {
          e_kind;
          e_key;
          e_target = Option.value ~default:"" (str "target");
          e_pair = Option.value ~default:"" (str "pair");
          e_seed;
          e_file = Option.value ~default:"" (str "file");
          e_crc = Option.value ~default:"" (str "crc");
          e_seen;
        }
  | _ -> None

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Tolerant read: the crash-recovery path.  Bad seals and torn lines are
   skipped — the next [update] rewrites a clean index. *)
let load dir =
  let path = index_file dir in
  if not (Sys.file_exists path) then []
  else
    read_lines path
    |> List.filter_map (fun line ->
           if String.trim line = "" then None
           else
             match Event_log.check_seal line with
             | Event_log.Sealed_ok -> (
                 match Event_log.parse_flat line with
                 | Some fields when List.mem_assoc "corpus" fields ->
                     None  (* header *)
                 | Some fields -> entry_of_fields fields
                 | None -> None)
             | Event_log.Sealed_bad | Event_log.Unsealed -> None)

let save dir entries =
  Atomic_file.mkdir_p dir;
  Atomic_file.write (index_file dir) (fun oc ->
      output_string oc header_line;
      output_char oc '\n';
      List.iter
        (fun e ->
          output_string oc (render_entry e);
          output_char oc '\n')
        entries)

let update ~dir fresh =
  let existing = load dir in
  let by_key = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace by_key (e.e_kind, e.e_key) e) existing;
  let added = ref 0 and deduped = ref 0 in
  let merged =
    List.fold_left
      (fun acc e ->
        match Hashtbl.find_opt by_key (e.e_kind, e.e_key) with
        | Some _ ->
            incr deduped;
            acc
        | None ->
            incr added;
            Hashtbl.replace by_key (e.e_kind, e.e_key) e;
            e :: acc)
      [] fresh
    |> List.rev
  in
  let bump =
    (* A fresh duplicate has already been ingested: when its artifact
       shares the existing entry's basename, the file on disk now holds
       the fresh bytes (a re-minimized repro of the same error), so the
       index must take the fresh file/crc or strict verify would flag a
       mismatch forever.  Distinct basenames keep the original artifact. *)
    let dup_fresh = Hashtbl.create 16 in
    List.iter
      (fun e ->
        if
          List.exists
            (fun x -> x.e_kind = e.e_kind && x.e_key = e.e_key)
            existing
        then Hashtbl.replace dup_fresh (e.e_kind, e.e_key) e)
      fresh;
    fun e ->
      match Hashtbl.find_opt dup_fresh (e.e_kind, e.e_key) with
      | Some f when f.e_file = e.e_file ->
          { e with e_crc = f.e_crc; e_seen = e.e_seen + 1 }
      | Some _ -> { e with e_seen = e.e_seen + 1 }
      | None -> e
  in
  let all = List.map bump existing @ merged in
  save dir all;
  { cs_added = !added; cs_deduped = !deduped; cs_total = List.length all }

let verify ~dir =
  let path = index_file dir in
  if not (Sys.file_exists path) then Error [ "missing index.json" ]
  else begin
    let problems = ref [] in
    let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
    let lines = read_lines path in
    (match lines with
    | [] -> problem "empty index"
    | first :: _ ->
        (match Event_log.check_seal first with
        | Event_log.Sealed_ok -> ()
        | Event_log.Sealed_bad -> problem "header line: bad checksum"
        | Event_log.Unsealed -> problem "header line: unsealed");
        (match Event_log.parse_flat first with
        | Some fields when List.assoc_opt "corpus" fields = Some (Event_log.I 1)
          ->
            ()
        | _ -> problem "header line: not a corpus-v1 header"));
    let seen_keys = Hashtbl.create 64 in
    List.iteri
      (fun i line ->
        if i > 0 && String.trim line <> "" then begin
          let lineno = i + 1 in
          match Event_log.check_seal line with
          | Event_log.Sealed_bad ->
              problem "line %d: bad checksum (corrupted in place)" lineno
          | Event_log.Unsealed -> problem "line %d: unsealed" lineno
          | Event_log.Sealed_ok -> (
              match
                Option.bind (Event_log.parse_flat line) entry_of_fields
              with
              | None -> problem "line %d: not a corpus entry" lineno
              | Some e ->
                  if Hashtbl.mem seen_keys (e.e_kind, e.e_key) then
                    problem "line %d: duplicate (%s, %s)" lineno e.e_kind
                      e.e_key
                  else Hashtbl.replace seen_keys (e.e_kind, e.e_key) ();
                  if e.e_file <> "" then begin
                    let f = Filename.concat dir e.e_file in
                    if not (Sys.file_exists f) then
                      problem "line %d: missing artifact %s" lineno e.e_file
                    else
                      let crc = file_crc f in
                      if not (String.equal crc e.e_crc) then
                        problem
                          "line %d: artifact %s content mismatch (crc %s, index says %s)"
                          lineno e.e_file crc e.e_crc
                  end)
        end)
      lines;
    match !problems with
    | [] -> Ok (Hashtbl.length seen_keys)
    | ps -> Error (List.rev ps)
  end
