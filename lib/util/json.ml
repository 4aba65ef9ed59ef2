(* The one JSON codec.  The dialect (see the interface) is fixed by the
   files already on disk: the reader accepts everything earlier writers
   wrote, and the writer reproduces their bytes exactly, which
   test/test_codec.ml pins against golden fixtures. *)

type t =
  | Null
  | B of bool
  | I of int
  | F of float
  | S of string
  | L of t list
  | O of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | B b -> Buffer.add_string buf (if b then "true" else "false")
  | I n -> Buffer.add_string buf (string_of_int n)
  | F x -> Printf.bprintf buf "%.6f" x
  | S s -> add_string buf s
  | L items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add buf v)
        items;
      Buffer.add_char buf ']'
  | O fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_member buf k v)
        fields;
      Buffer.add_char buf '}'

and add_member buf k v =
  add_string buf k;
  Buffer.add_char buf ':';
  add buf v

let to_string v =
  let buf = Buffer.create 128 in
  add buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader: recursive descent over the whole document.                  *)

exception Error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt in
  let peek () = if !pos >= n then fail "unexpected end of input" else s.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then fail "expected %C at offset %d" c !pos else advance ()
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape at offset %d" !pos;
              let code =
                match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                | Some c -> c
                | None -> fail "bad \\u escape at offset %d" !pos
              in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Printf.bprintf buf "\\u%04x" code
          | c -> fail "bad escape \\%C at offset %d" c !pos);
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
          is_float := true;
          true
      | _ -> false
    do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let v =
      if !is_float then Option.map (fun x -> F x) (float_of_string_opt tok)
      else Option.map (fun i -> I i) (int_of_string_opt tok)
    in
    match v with Some v -> v | None -> fail "bad number %S at offset %d" tok start
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> S (parse_string ())
    | '{' ->
        advance ();
        O
          (items '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | '[' ->
        advance ();
        L (items ']' value)
    | 't' -> literal "true" (B true)
    | 'f' -> literal "false" (B false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip_ws ();
    if peek () = close then (advance (); [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' -> advance (); go acc
        | c when c = close -> advance (); List.rev acc
        | c -> fail "expected ',' or %C at offset %d, got %C" close !pos c
      in
      go []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

let object_of_string s =
  match of_string s with O fields -> Some fields | _ -> None | exception Error _ -> None

(* ------------------------------------------------------------------ *)
(* Field accessors                                                     *)

let str fields k = match List.assoc_opt k fields with Some (S s) -> Some s | _ -> None
let int fields k = match List.assoc_opt k fields with Some (I n) -> Some n | _ -> None
let bool fields k = match List.assoc_opt k fields with Some (B b) -> Some b | _ -> None

let float fields k =
  match List.assoc_opt k fields with
  | Some (F x) -> Some x
  | Some (I n) -> Some (float_of_int n)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Line seal: the per-line checksum of every JSONL artifact.  Unsealed
   lines verify as absent, not bad, so files from writers that predate
   the seal still load. *)

let crc_marker = ",\"crc\":\""

(* marker + 16 hex digits + closing quote and brace *)
let crc_suffix_len = String.length crc_marker + 16 + 2

let seal line =
  let n = String.length line in
  if n = 0 || line.[n - 1] <> '}' then line
  else String.sub line 0 (n - 1) ^ crc_marker ^ Fnv.hex63 line ^ "\"}"

type seal_status = Sealed_ok | Sealed_bad | Unsealed

let check_seal line =
  let n = String.length line in
  if n < crc_suffix_len + 2 then Unsealed
  else if
    String.sub line (n - crc_suffix_len) (String.length crc_marker) <> crc_marker
    || line.[n - 1] <> '}'
    || line.[n - 2] <> '"'
  then Unsealed
  else
    let crc = String.sub line (n - 18) 16 in
    let original = String.sub line 0 (n - crc_suffix_len) ^ "}" in
    if Fnv.hex63 original = crc then Sealed_ok else Sealed_bad

(* ------------------------------------------------------------------ *)
(* JSONL files                                                         *)

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

(* The crash-recovery read of the corpus index and the ledger: whatever
   is bad is skipped and counted, and the next atomic rewrite leaves a
   clean file. *)
let load_sealed path =
  if not (Sys.file_exists path) then ([], 0)
  else
    let objects, skipped =
      List.fold_left
        (fun ((objects, skipped) as acc) line ->
          if String.trim line = "" then acc
          else
            match check_seal line with
            | Sealed_bad | Unsealed -> (objects, skipped + 1)
            | Sealed_ok -> (
                match object_of_string line with
                | Some fields -> (fields :: objects, skipped)
                | None -> (objects, skipped + 1)))
        ([], 0) (read_lines path)
    in
    (List.rev objects, skipped)
