(** Recorded schedules: versioned, serializable scheduling-decision logs.
    See the interface for the model; the file format goes through the
    shared {!Rf_util.Json} codec, laid out one step per line. *)

open Rf_util
open Rf_runtime

let version = "rf-schedule/1"

(* ------------------------------------------------------------------ *)
(* Stability keys                                                      *)

type site_key = { sk_file : string; sk_line : int; sk_col : int; sk_label : string }

let site_key s =
  {
    sk_file = Site.file s;
    sk_line = Site.line s;
    sk_col = Site.col s;
    sk_label = Site.label s;
  }

let intern_site k =
  Site.make ~file:k.sk_file ~line:k.sk_line ~col:k.sk_col k.sk_label

let pp_site_key ppf k =
  Fmt.pf ppf "%s:%d:%d:%s" k.sk_file k.sk_line k.sk_col k.sk_label

type kind =
  | Start
  | Pause
  | Read
  | Write
  | Acquire
  | Release
  | Wait
  | Reacquire
  | Notify
  | Notify_all
  | Fork
  | Join
  | Interrupt
  | Sleep

let kind_to_string = function
  | Start -> "start"
  | Pause -> "pause"
  | Read -> "read"
  | Write -> "write"
  | Acquire -> "acquire"
  | Release -> "release"
  | Wait -> "wait"
  | Reacquire -> "reacquire"
  | Notify -> "notify"
  | Notify_all -> "notifyAll"
  | Fork -> "fork"
  | Join -> "join"
  | Interrupt -> "interrupt"
  | Sleep -> "sleep"

let kind_of_string = function
  | "start" -> Some Start
  | "pause" -> Some Pause
  | "read" -> Some Read
  | "write" -> Some Write
  | "acquire" -> Some Acquire
  | "release" -> Some Release
  | "wait" -> Some Wait
  | "reacquire" -> Some Reacquire
  | "notify" -> Some Notify
  | "notifyAll" -> Some Notify_all
  | "fork" -> Some Fork
  | "join" -> Some Join
  | "interrupt" -> Some Interrupt
  | "sleep" -> Some Sleep
  | _ -> None

type key = { k_kind : kind; k_site : site_key option }

let key_of_pend (p : Op.pend) : key =
  let kind =
    match p with
    | Op.P_start -> Start
    | Op.P_pause -> Pause
    | Op.P_mem { access = Rf_events.Event.Read; _ } -> Read
    | Op.P_mem { access = Rf_events.Event.Write; _ } -> Write
    | Op.P_acquire _ -> Acquire
    | Op.P_release _ -> Release
    | Op.P_wait _ -> Wait
    | Op.P_reacquire _ -> Reacquire
    | Op.P_notify { all = false; _ } -> Notify
    | Op.P_notify { all = true; _ } -> Notify_all
    | Op.P_fork _ -> Fork
    | Op.P_join _ -> Join
    | Op.P_interrupt _ -> Interrupt
    | Op.P_sleep _ -> Sleep
  in
  { k_kind = kind; k_site = Option.map site_key (Op.pend_site p) }

let equal_key a b =
  a.k_kind = b.k_kind
  &&
  match (a.k_site, b.k_site) with
  | None, None -> true
  | Some x, Some y -> x = y
  | _ -> false

let pp_key ppf k =
  match k.k_site with
  | None -> Fmt.string ppf (kind_to_string k.k_kind)
  | Some s -> Fmt.pf ppf "%s @@ %a" (kind_to_string k.k_kind) pp_site_key s

(* ------------------------------------------------------------------ *)
(* Steps and schedules                                                 *)

type step = { st_tid : int; st_key : key; st_rng : int64 }

type meta = {
  m_target : string;
  m_seed : int;
  m_pair : (site_key * site_key) option;
  m_max_steps : int;
  m_steps : int;
  m_error : string option;
}

type t = { meta : meta; steps : step array }

let length t = Array.length t.steps

let switches t =
  let n = Array.length t.steps in
  let c = ref 0 in
  for i = 1 to n - 1 do
    if t.steps.(i).st_tid <> t.steps.(i - 1).st_tid then incr c
  done;
  !c

let with_steps t steps = { t with steps }

let pair t =
  Option.map
    (fun (a, b) -> Site.Pair.make (intern_site a) (intern_site b))
    t.meta.m_pair

let equal a b = a.meta = b.meta && a.steps = b.steps

(* ------------------------------------------------------------------ *)
(* Error fingerprints                                                  *)

let error_fingerprint (o : Outcome.t) : string option =
  match o.Outcome.exceptions with
  | x :: _ ->
      let where =
        match x.Outcome.raised_at with
        | Some s -> Fmt.str "%a" pp_site_key (site_key s)
        | None -> "?"
      in
      Some (Fmt.str "exn:%s@%s" (Printexc.to_string x.Outcome.exn_) where)
  | [] ->
      if o.Outcome.deadlocked <> [] then
        let sites =
          o.Outcome.blocked_at
          |> List.filter_map (fun (_, s) -> s)
          |> List.map (fun s -> Fmt.str "%a" pp_site_key (site_key s))
          |> List.sort compare
        in
        Some (Fmt.str "deadlock:%s" (String.concat ";" sites))
      else None

(* ------------------------------------------------------------------ *)
(* JSON codec.  The writer emits one step object per line so schedules
   diff and grep cleanly: the codec renders each value, this layout
   places the separators. *)

exception Format_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Format_error s)) fmt

let json_site_key k =
  Json.O
    [
      ("file", S k.sk_file);
      ("line", I k.sk_line);
      ("col", I k.sk_col);
      ("label", S k.sk_label);
    ]

let json_step st =
  Json.O
    [
      ("tid", I st.st_tid);
      ("op", S (kind_to_string st.st_key.k_kind));
      ("site", match st.st_key.k_site with None -> Null | Some k -> json_site_key k);
      ("rng", S (Int64.to_string st.st_rng));
    ]

let to_json t =
  let m = t.meta in
  let some f = function Some x -> f x | None -> Json.Null in
  let header =
    Json.
      [
        ("version", S version);
        ("target", S m.m_target);
        ("seed", I m.m_seed);
        ("pair", some (fun (a, b) -> L [ json_site_key a; json_site_key b ]) m.m_pair);
        ("max_steps", I m.m_max_steps);
        ("steps", I m.m_steps);
        ("error", some (fun e -> S e) m.m_error);
        ("length", I (Array.length t.steps));
        ("switches", I (switches t));
      ]
  in
  let buf = Buffer.create (256 + (Array.length t.steps * 64)) in
  Buffer.add_char buf '{';
  List.iter
    (fun (k, v) ->
      Json.add_member buf k v;
      Buffer.add_string buf ",\n ")
    header;
  Buffer.add_string buf "\"schedule\":[";
  Array.iteri
    (fun i st ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n  ";
      Json.add buf (json_step st))
    t.steps;
  Buffer.add_string buf "\n ]}\n";
  Buffer.contents buf

let obj_field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> fail "missing field %S" k

let j_int = function Json.I i -> i | _ -> fail "expected int"
let j_string = function Json.S s -> s | _ -> fail "expected string"

let j_site_key = function
  | Json.O fields ->
      {
        sk_file = j_string (obj_field fields "file");
        sk_line = j_int (obj_field fields "line");
        sk_col = j_int (obj_field fields "col");
        sk_label = j_string (obj_field fields "label");
      }
  | _ -> fail "expected site object"

let of_json text =
  match Json.of_string text with
  | exception Json.Error msg -> fail "%s" msg
  | O fields ->
      let v = j_string (obj_field fields "version") in
      if v <> version then
        fail "schedule version %S, this reader speaks %S" v version;
      let meta =
        {
          m_target = j_string (obj_field fields "target");
          m_seed = j_int (obj_field fields "seed");
          m_pair =
            (match obj_field fields "pair" with
            | Null -> None
            | L [ a; b ] -> Some (j_site_key a, j_site_key b)
            | _ -> fail "expected pair as null or a 2-element array");
          m_max_steps = j_int (obj_field fields "max_steps");
          m_steps = j_int (obj_field fields "steps");
          m_error =
            (match obj_field fields "error" with
            | Null -> None
            | S e -> Some e
            | _ -> fail "expected error as string or null");
        }
      in
      let steps =
        match obj_field fields "schedule" with
        | L items ->
            List.map
              (function
                | Json.O f ->
                    let op = j_string (obj_field f "op") in
                    let kind =
                      match kind_of_string op with
                      | Some k -> k
                      | None -> fail "unknown op kind %S" op
                    in
                    {
                      st_tid = j_int (obj_field f "tid");
                      st_key =
                        {
                          k_kind = kind;
                          k_site =
                            (match obj_field f "site" with
                            | Null -> None
                            | site -> Some (j_site_key site));
                        };
                      st_rng =
                        (let raw = j_string (obj_field f "rng") in
                         try Int64.of_string raw
                         with _ -> fail "bad rng state %S" raw);
                    }
                | _ -> fail "expected step object")
              items
        | _ -> fail "expected schedule array"
      in
      { meta; steps = Array.of_list steps }
  | _ -> fail "expected top-level object"

(* Atomic save: a kill mid-write must leave either the previous artifact
   or the complete new one, never a torn file a later [load] chokes on. *)
let save path t = Atomic_file.write_string path (to_json t)

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try really_input_string ic (in_channel_length ic)
        with End_of_file -> fail "%s: truncated schedule file" path)
  in
  try of_json text
  with Format_error msg -> fail "%s: %s" path msg

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp ppf t =
  Fmt.pf ppf "schedule[%s seed=%d len=%d switches=%d%a]"
    (if t.meta.m_target = "" then "?" else t.meta.m_target)
    t.meta.m_seed (length t) (switches t)
    (fun ppf -> function
      | Some e -> Fmt.pf ppf " error=%s" e
      | None -> ())
    t.meta.m_error

let pp_narrative ppf t =
  let m = t.meta in
  Fmt.pf ppf "# Reproduction schedule (%s)@." version;
  Fmt.pf ppf "target:    %s@." (if m.m_target = "" then "<unknown>" else m.m_target);
  Fmt.pf ppf "seed:      %d@." m.m_seed;
  (match m.m_pair with
  | Some (a, b) -> Fmt.pf ppf "race set:  (%a, %a)@." pp_site_key a pp_site_key b
  | None -> Fmt.pf ppf "race set:  <none — every op is a switch point>@.");
  (match m.m_error with
  | Some e -> Fmt.pf ppf "error:     %s@." e
  | None -> Fmt.pf ppf "error:     <none recorded>@.");
  Fmt.pf ppf "decisions: %d (%d context switches)@.@." (length t) (switches t);
  Array.iteri
    (fun i st ->
      let switch = i > 0 && st.st_tid <> t.steps.(i - 1).st_tid in
      Fmt.pf ppf "%4d %s t%d: %a@." i
        (if switch then ">>" else "  ")
        st.st_tid pp_key st.st_key)
    t.steps
