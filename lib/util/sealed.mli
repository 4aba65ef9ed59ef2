(** Length-prefixed, checksummed binary frames:

    {v
    frame := u32:len payload[len] u64:fnv1a64(payload)    (len > 0)
    v}

    little-endian, sealed with the full 64-bit {!Fnv.hash64}.  Binary
    recordings ({!Rf_events.Btrace}) and worker IPC
    ({!Rf_campaign.Proc_pool}) share this one frame; text artifacts use
    the JSONL line seal ({!Json.seal}) instead.  A payload is never empty,
    so a zero length prefix is free for a stream's own end marker. *)

exception Corrupt of string
(** A truncated frame, a negative length or a checksum mismatch; the
    message carries the byte offset of the frame. *)

val overhead : int
(** Bytes a frame adds to its payload: 12. *)

val add : Buffer.t -> string -> unit
(** Append one frame.  Raises [Invalid_argument] on an empty payload. *)

val encode : string -> string
(** One frame as a string. *)

val check : string -> int -> int
(** [check s pos] verifies the frame whose length prefix starts at byte
    [pos] of [s], in place, and returns its payload length; the payload
    is [String.sub s (pos + 4) len].  A zero length prefix is returned
    as [0] without further checks.  Raises {!Corrupt}. *)
