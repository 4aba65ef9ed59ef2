(** The one JSON codec: a value type, one reader, one writer, the ["crc"]
    line seal and a tolerant sealed-JSONL loader.

    Every text artifact goes through it: campaign journals, the corpus
    index, the [serve] ledger, [*.sched.json] schedules and bench output.
    It is hand-rolled (the toolchain has no JSON dependency) and covers
    exactly what those artifacts need. *)

type t =
  | Null
  | B of bool
  | I of int
  | F of float
  | S of string
  | L of t list
  | O of (string * t) list
      (** fields in document order; duplicate keys are kept *)

(** {1 Writer} *)

val add : Buffer.t -> t -> unit
(** Compact rendering: no whitespace, ints plain, floats as [%.6f].
    Strings escape the double quote, the backslash, newline, tab, carriage
    return and the other control bytes (as [\u00XX]); every other byte is
    copied as is. *)

val add_member : Buffer.t -> string -> t -> unit
(** ["key":value], for layouts that place their own separators. *)

val to_string : t -> string

(** {1 Reader} *)

exception Error of string
(** Malformed input; the message names the defect and its offset. *)

val of_string : string -> t
(** Parse one whole document.  Whitespace is space, tab, [\n] and [\r];
    literals must be spelled out in full; a number is a float when it
    has a [.], [e] or [E], an int otherwise.  A [\u] escape below 0x80
    decodes to its byte; higher code points are kept as the six-character
    escape text.  Raises {!Error}, also on trailing garbage. *)

val object_of_string : string -> (string * t) list option
(** The fields of a document that is one object; [None] otherwise. *)

(** {1 Field accessors}

    Look up the first field with the given key; [None] when it is absent
    or of another type. *)

val str : (string * t) list -> string -> string option
val int : (string * t) list -> string -> int option
val bool : (string * t) list -> string -> bool option

val float : (string * t) list -> string -> float option
(** Also widens an int field, as older writers rendered whole floats so. *)

(** {1 Line seal}

    A sealed line is one JSON object whose last field is ["crc"]: the
    {!Fnv.hex63} digest of the line as rendered without that field.  It
    catches what a torn-tail check cannot: a partially overwritten middle
    line, bit rot, a hand edit. *)

val seal : string -> string
(** Append the ["crc"] field before the closing brace; a line that does
    not end in [}] is returned unchanged. *)

type seal_status =
  | Sealed_ok  (** checksum present and matching *)
  | Sealed_bad  (** checksum present but wrong: corrupted in place *)
  | Unsealed  (** no checksum (a line from an older writer) *)

val check_seal : string -> seal_status

(** {1 JSONL files} *)

val read_lines : string -> string list
(** Every line of a file.  Raises [Sys_error]. *)

val load_sealed : string -> (string * t) list list * int
(** The tolerant read of a sealed JSONL file: the objects of its sealed,
    well-formed lines in file order, and the number of other non-blank
    lines (bad seal, no seal, torn or not an object), which are skipped.
    A missing file loads as [([], 0)]. *)
