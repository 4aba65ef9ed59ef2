(** The RaceFuzzer scheduling strategy — Algorithms 1 and 2 of the paper.

    Given one candidate racing pair [RaceSet = {s1, s2}], the strategy
    drives a random scheduler that *postpones* any thread about to execute
    a statement of the pair until another thread arrives at the pair with a
    conflicting pending access to the same dynamic location ([Racing],
    Algorithm 2).  At that moment a real race has been created; it is
    recorded as a {!hit} and resolved by a fair coin (Algorithm 1, lines
    11–18), which is how order-dependent errors behind the race surface.

    Liveness devices from §2.2/§4: when every enabled thread is postponed,
    a random one is released and executed; and threads postponed longer
    than the timeout are released (the paper's monitor thread). *)

open Rf_util
open Rf_runtime

(** One created real race. *)
type hit = {
  hit_pair : Site.Pair.t;  (** the RaceSet *)
  hit_sites : Site.t * Site.t;  (** (postponed, arriving) statements *)
  hit_loc : Loc.t;  (** the shared dynamic location *)
  hit_arriving : int;  (** tid that arrived second *)
  hit_postponed : int list;  (** racing postponed tids (several iff all reads) *)
  hit_step : int;
  resolved_arriving : bool;  (** coin flip: arriving thread ran first *)
}

val pp_hit : Format.formatter -> hit -> unit

(** Mutable per-run report the strategy fills in.  [hits] holds one
    record per {e distinct} created race — keyed by (postponed site,
    arriving site, location) — not one per creation: a tight racing loop
    recreates the same race millions of times, and the per-creation cons
    was the dominant allocation of phase 2.  [hit_events] counts every
    creation.  Scheduling never reads [hits], so the deduplication is
    invisible to the schedule and the PRNG stream. *)
type report = {
  mutable hits : hit list;  (** distinct created races, newest first *)
  mutable hit_events : int;  (** every race creation, duplicates included *)
  mutable evictions : int;  (** all-postponed deadlock breaks *)
  mutable timeout_releases : int;  (** livelock-relief releases *)
  mutable postponements : int;
}

val fresh_report : unit -> report
val race_created : report -> bool
val hits : report -> hit list
(** Distinct hits, oldest first. *)

val default_postpone_timeout : int

(** {2 Postponement tables}

    [Atom_fuzzer] and [Deadlock_fuzzer] keep their postponed threads in a
    table [tid -> step postponed at] and park them at an [Acquire], which
    another thread can take meanwhile: unlike in {!strategy}, a postponed
    thread may be disabled.  These two calls are their shared scheduling
    step. *)

val expire_postponed :
  postpone_timeout:int option -> (int, int) Hashtbl.t -> int -> unit
(** [expire_postponed ~postpone_timeout table step] releases, in tid
    order, every thread postponed for more than the timeout. *)

type table_pick =
  | Available of Strategy.entry
      (** a uniform draw among the enabled threads not in the table *)
  | Evicted of Strategy.entry
      (** every enabled thread is postponed: a uniform draw among them,
          already removed from the table *)

val pick_unpostponed : Strategy.view -> (int, int) Hashtbl.t -> table_pick
(** One [Prng.int] from the view's PRNG either way — the draw
    [Prng.pick] makes on the list of available (or, when there is none,
    of postponed) enabled threads in tid order. *)

val strategy :
  ?postpone_timeout:int option ->
  pair:Site.Pair.t ->
  report:report ->
  unit ->
  Strategy.t
(** Build the phase-2 strategy for one run.  [postpone_timeout] is in
    scheduler steps; [None] disables livelock relief (ablation). *)
