(** The engine's enabled set: a sorted array of the enabled tids plus one
    row per thread, together with the run's step counter and PRNG.

    The engine owns it and is its only writer: the record is [private],
    so only the mutators below change it.  Strategies never see this
    type: they get {!Strategy.view}, an abstract read-only face of the
    same value with no way back to [t].  The fields are exposed (read
    only) so that the engine's per-step checks and {!Strategy}'s
    accessors read them directly instead of calling into this module. *)

open Rf_util

type entry = private {
  tid : int;
  tname : string;
  mutable pend : Op.pend;  (** the operation the thread is parked at *)
}
(** One thread's row, and the only copy of its pending-operation summary;
    [pend] changes through {!set_pend} only. *)

type t = private {
  mutable vstep : int;  (** operations executed so far *)
  vprng : Prng.t;
  mutable rows : entry array;  (** index = tid; first [n_rows] slots *)
  mutable n_rows : int;  (** registered threads *)
  mutable on : Bytes.t;  (** index = tid; ['\001'] iff enabled *)
  mutable sorted : int array;  (** enabled tids, ascending; first [n_on] *)
  mutable n_on : int;  (** enabled threads *)
  mutable adds : int array;  (** scratch for {!set_enabled_each} *)
}

val create : Prng.t -> t
(** An empty enabled set over no threads. *)

val add_thread : t -> name:string -> int
(** Registers the next tid (0, 1, 2, ...) with a [P_start] row, not yet
    enabled, and returns it. *)

val set_pend : t -> int -> Op.pend -> unit

val set_enabled : t -> int -> bool -> unit
(** Inserts or removes the tid in the sorted enabled set; a no-op when
    the tid is already in the requested state. *)

val set_enabled_each : t -> int list -> (int -> bool) -> unit
(** [set_enabled_each s tids f] sets every tid of [tids] to [f tid]: the
    same result as [set_enabled] on each in turn, for the batches in which
    the engine re-evaluates all the waiters of a lock or of a thread's
    death.  The sorted array is fixed up once for the whole batch — one
    compaction pass, one merge — instead of by one insertion-sort pass
    per flipped tid. *)

val set_step : t -> int -> unit
