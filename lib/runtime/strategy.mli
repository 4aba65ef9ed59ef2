(** Scheduling strategies.

    At every switch point the engine shows the strategy the *enabled*
    threads with their pending operations and the run's PRNG; the strategy
    answers with the tid to execute.  Implementations carry state in their
    closures (RaceFuzzer keeps its postponed set this way).  All randomness
    must come from the view's PRNG to preserve seed-replayability.

    {2 The view contract}

    A {!view} is the engine's own enabled set ({!Enabled_set}), shown
    read-only — the type is abstract, and nothing here writes to it: it is
    {e valid only during the [choose] call} it is passed to.  The engine
    mutates it as soon as the chosen thread executes, so a strategy must
    not keep the view, or a row read from it, across consultations (keep
    tids instead).

    Rows come in ascending tid order: [nth v 0] is the lowest enabled tid
    and [nth v (count v - 1)] the highest.  [Prng.int (prng v) (count v)]
    followed by [nth] is therefore exactly the draw [Prng.pick] makes on
    the ascending list of enabled rows, so a strategy ported from lists to
    this view consumes the same PRNG stream and makes the same decisions.

    Every accessor is O(1) except {!rank} (O(log count)): none walks the
    thread population, and none allocates except {!find}'s option. *)

open Rf_util

type entry = Enabled_set.entry = private {
  tid : int;
  tname : string;
  mutable pend : Op.pend;  (** the operation the thread is parked at *)
}
(** One thread's row.  The engine owns it and updates [pend] in place
    whenever the thread parks. *)

type view
(** Read-only: nothing here mutates a view, and a strategy cannot reach
    the {!Enabled_set.t} behind it. *)

val of_enabled_set : Enabled_set.t -> view
(** Engine side: the view of the engine's enabled set — the same value,
    not a copy. *)

val count : view -> int
(** Enabled threads; never 0 inside [choose]. *)

val nth : view -> int -> entry
(** [nth v i] is the row of the [i]-th lowest enabled tid,
    [0 <= i < count v]. *)

val is_enabled : view -> int -> bool
(** Any int is accepted; out-of-range tids are not enabled. *)

val find : view -> int -> entry option
(** The row of an enabled tid. *)

val rank : view -> int -> int
(** [rank v tid] is the number of enabled tids below [tid]: the index at
    which [nth] returns [tid]'s row when [tid] is enabled. *)

val step : view -> int
(** Operations executed so far. *)

val prng : view -> Prng.t

type t = { sname : string; choose : view -> int }

val name : t -> string

val make : name:string -> (view -> int) -> t
(** [choose] must return an enabled tid. *)

val random : unit -> t
(** Uniform choice among enabled threads — the paper's "simple random
    scheduler" baseline (Table 1, column "Simple"). *)

val round_robin : unit -> t
(** Fair deterministic rotation. *)

val run_until_block : unit -> t
(** Keep the current thread running until it blocks: a fully
    non-preemptive scheduler. *)

val timesliced : ?quantum:int -> unit -> t
(** Preemptive fair scheduling with a fixed quantum — our model of a JVM's
    default scheduler on a lightly loaded machine, under which the paper's
    Figure 2 window virtually never lines up. *)
