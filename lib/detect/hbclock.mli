(** Happens-before clock builder: assigns every event of a stream a vector
    clock under a configurable edge policy.

    [lock_edges = false] gives the *weak* relation of hybrid detection
    (program order + fork/join/notify messages only — deliberately blind to
    lock ordering, which is what makes hybrid predictive and imprecise);
    [lock_edges = true] adds release→acquire edges, giving the classical
    precise happens-before relation. *)

open Rf_events
open Rf_vclock

type t

val create : ?governor:Rf_resource.Governor.t -> lock_edges:bool -> unit -> t
(** [governor] meters the clock tables (one logical entry per thread,
    per pending SND message, and per lock-release clock) against the
    shared trial budget.  On degradation the oldest (lowest-id) half of
    the pending message clocks is evicted; a matching RCV then simply
    contributes no edge, which can only weaken the happens-before
    relation — degraded runs over-approximate concurrency, never
    invent false orderings. *)

val feed : t -> Event.t -> Vclock.t
(** Process one event (in trace order) and return its clock: for events
    [e1] fed before [e2], [Vclock.leq (feed e1) (feed e2)] iff [e1]
    happens-before-or-equals [e2] under the policy. *)

val epoch_concurrent : tid:int -> clk:int -> Vclock.t -> bool
(** The epoch test.  Let [c1] be the clock of an event of thread [tid]
    and [c2] the clock of an event of a {e different} thread fed after
    it to the same builder.  Then
    [epoch_concurrent ~tid ~clk:(Vclock.get c1 tid) c2] equals
    [Vclock.concurrent c1 c2], at O(log n) cost instead of two full clock
    walks: every fed event ticks its thread's own component, so [c2]
    carries [tid]'s component up to [clk] exactly when it joined a
    snapshot of [tid]'s clock taken at or after the first event (the
    FastTrack epoch lemma; DESIGN.md sketches the proof). *)

val thread_clock : t -> int -> Vclock.t
(** Current clock of a thread (bottom if unseen). *)

val msg_evictions : t -> int
(** Pending message clocks dropped by governor compaction. *)
