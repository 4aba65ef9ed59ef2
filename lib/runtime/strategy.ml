(** Scheduling strategies.

    At every switch point the engine presents the strategy with the set of
    *enabled* threads and their pending operations; the strategy answers
    with the tid to execute next.  A strategy is a record of closures so
    implementations can carry arbitrary mutable state (the RaceFuzzer
    strategy keeps its postponed set this way; see {!Racefuzzer}).

    All randomness must be drawn from the view's PRNG, which the engine
    seeds — this is what makes whole runs replayable from a seed.

    The view is the engine's {!Enabled_set} itself, behind an abstract
    type that only reads it, so presenting it costs nothing per
    consultation. *)

open Rf_util

type entry = Enabled_set.entry = private {
  tid : int;
  tname : string;
  mutable pend : Op.pend;
}

type view = Enabled_set.t

let of_enabled_set (s : Enabled_set.t) : view = s
let count (v : view) = v.n_on
let nth (v : view) i = v.rows.(v.sorted.(i))
let step (v : view) = v.vstep
let prng (v : view) = v.vprng

let is_enabled (v : view) tid =
  tid >= 0 && tid < v.n_rows && Bytes.get v.on tid = '\001'

let find v tid = if is_enabled v tid then Some v.rows.(tid) else None

(* Binary search over the sorted enabled tids. *)
let rank (v : view) tid =
  let lo = ref 0 and hi = ref v.n_on in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if v.sorted.(mid) < tid then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)

type t = { sname : string; choose : view -> int }

let name t = t.sname
let make ~name choose = { sname = name; choose }

(* The lowest enabled tid above [tid], wrapping to the lowest overall. *)
let next_after v tid =
  let i = rank v (tid + 1) in
  (nth v (if i < count v then i else 0)).tid

(** Uniform random choice among enabled threads — the paper's "simple
    random scheduler" baseline (Table 1, column "Simple"). *)
let random () =
  make ~name:"random" (fun v -> (nth v (Prng.int (prng v) (count v))).tid)

(** Round-robin over tids: a fair, deterministic scheduler. *)
let round_robin () =
  let last = ref (-1) in
  make ~name:"round-robin" (fun v ->
      let next = next_after v !last in
      last := next;
      next)

(** Keep running the same thread for as long as it stays enabled, then fall
    over to the lowest enabled tid.  This approximates a default
    non-preemptive scheduler on a lightly loaded machine — the regime in
    which, as the paper observes (§1, §5.2 column 10), insidious
    interleavings almost never show up. *)
let run_until_block () =
  let current = ref (-1) in
  make ~name:"run-until-block" (fun v ->
      if is_enabled v !current then !current
      else begin
        current := (nth v 0).tid;
        !current
      end)

(** Preemptive fair scheduler: run the current thread for up to [quantum]
    decisions, then rotate round-robin.  This is our model of the "default
    scheduler" of a JVM on a lightly loaded machine (paper Table 1,
    column 10): threads interleave fairly, so a one-statement window like
    Figure 2's almost never lines up with the racing read. *)
let timesliced ?(quantum = 10) () =
  let current = ref (-1) in
  let used = ref 0 in
  make ~name:"default" (fun v ->
      if is_enabled v !current && !used < quantum then begin
        incr used;
        !current
      end
      else begin
        let next = next_after v !current in
        current := next;
        used := 1;
        next
      end)
