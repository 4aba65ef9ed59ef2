(** Deadlock-directed random testing — the paper's §1 generalization of
    RaceFuzzer: "we can bias the random scheduler by other potential
    concurrency problems such as ... potential deadlocks.  The only thing
    that the random scheduler needs to know is a set of statements whose
    simultaneous execution could lead to a concurrency problem."

    Phase 1 ({!Rf_detect.Goodlock}) yields a pair of inner lock-acquire
    statements forming a lock-order cycle.  Phase 2 postpones any thread
    about to execute one of those statements (it already holds the outer
    lock); once the partner thread has grabbed the other lock, both block
    on each other and the engine's deadlock detector (Algorithm 1, lines
    30–32: "print ERROR: actual deadlock found") confirms a *real*
    deadlock — false Goodlock cycles (e.g. gate-lock protected ones) never
    materialize and are rejected exactly like false races. *)

open Rf_util
open Rf_runtime

type report = { mutable postponed_total : int; mutable evictions : int }

let fresh_report () = { postponed_total = 0; evictions = 0 }

(** The postponement strategy for one candidate cycle. *)
let strategy ?(postpone_timeout = Some Algo.default_postpone_timeout) ~sites
    ~(report : report) () : Strategy.t =
  let postponed : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let target_site = function
    | Op.P_acquire { site; _ } -> Site.Set.mem site sites
    | _ -> false
  in
  let choose (view : Strategy.view) =
    let step = Strategy.step view in
    Algo.expire_postponed ~postpone_timeout postponed step;
    let rec pick_loop () =
      (* A thread postponed at its inner acquire can lose that lock's race
         and become disabled: [pick_unpostponed] counts only the enabled
         postponed threads against the enabled set. *)
      match Algo.pick_unpostponed view postponed with
      | Algo.Evicted v ->
          report.evictions <- report.evictions + 1;
          v.Strategy.tid
      | Algo.Available e ->
          if target_site e.Strategy.pend then begin
            (* Hold this thread at the inner acquire; if a partner thread
               then takes the other lock of the cycle, both end up blocked
               and the engine reports the real deadlock. *)
            Hashtbl.replace postponed e.Strategy.tid step;
            report.postponed_total <- report.postponed_total + 1;
            pick_loop ()
          end
          else e.Strategy.tid
    in
    pick_loop ()
  in
  Strategy.make ~name:"deadlockfuzzer" choose

(* ------------------------------------------------------------------ *)
(* Two-phase driver                                                    *)

type candidate_result = {
  dc_candidate : Rf_detect.Goodlock.candidate;
  dc_trials : int;
  dc_deadlock_trials : int;
  dc_probability : float;
  dc_seed : int option;  (** a seed reproducing the deadlock *)
}

let is_real r = r.dc_deadlock_trials > 0

(** Phase 1: observe executions, collect lock-order cycles. *)
let phase1 ?(seeds = [ 0 ]) (program : unit -> unit) =
  let d = Rf_detect.Goodlock.create () in
  List.iter
    (fun seed ->
      ignore
        (Engine.run
           ~config:{ Engine.default_config with seed }
           ~listeners:[ Rf_detect.Goodlock.feed d ]
           ~strategy:(Strategy.random ()) program))
    seeds;
  Rf_detect.Goodlock.candidates d

(** Phase 2: try to realize one candidate cycle. *)
let fuzz_candidate ?(seeds = List.init 100 Fun.id) ~(program : unit -> unit)
    (c : Rf_detect.Goodlock.candidate) : candidate_result =
  let watch =
    List.fold_left
      (fun acc s -> Site.Set.add s acc)
      Site.Set.empty c.Rf_detect.Goodlock.sites
  in
  let outcomes =
    List.map
      (fun seed ->
        let report = fresh_report () in
        let strategy = strategy ~sites:watch ~report () in
        ( seed,
          Engine.run
            ~config:
              { Engine.default_config with seed; policy = Engine.Sync_and watch }
            ~strategy program ))
      seeds
  in
  (* Attribute a deadlock to this candidate only if *every* inner-acquire
     statement of the cycle has a thread blocked at it: a genuinely
     realized cycle blocks each participant at its own inner acquire,
     whereas a thread merely caught downstream of an unrelated deadlock
     blocks at one candidate site at most. *)
  let realizes (o : Outcome.t) =
    Outcome.deadlocked o
    &&
    let blocked =
      List.fold_left
        (fun acc (_, site) ->
          match site with Some s -> Site.Set.add s acc | None -> acc)
        Site.Set.empty o.Outcome.blocked_at
    in
    Site.Set.subset watch blocked
  in
  let deadlocked = List.filter (fun (_, o) -> realizes o) outcomes in
  {
    dc_candidate = c;
    dc_trials = List.length outcomes;
    dc_deadlock_trials = List.length deadlocked;
    dc_probability =
      float_of_int (List.length deadlocked) /. float_of_int (max 1 (List.length outcomes));
    dc_seed = (match deadlocked with [] -> None | (s, _) :: _ -> Some s);
  }

let analyze ?(phase1_seeds = [ 0; 1; 2 ]) ?(seeds_per_candidate = List.init 50 Fun.id)
    (program : unit -> unit) : candidate_result list =
  phase1 ~seeds:phase1_seeds program
  |> List.map (fuzz_candidate ~seeds:seeds_per_candidate ~program)
