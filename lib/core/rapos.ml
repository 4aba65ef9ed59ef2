(** RAPOS-style partial-order sampling (Sen, ASE 2007 [45]).

    The paper's §6 compares RaceFuzzer against the author's earlier RAPOS
    algorithm, which samples partial orders of a concurrent execution
    nearly uniformly instead of sampling interleavings — and observes that
    it "cannot often discover error-prone schedules with high probability
    because the number of partial orders ... can be astronomically large".
    We include a faithful-in-spirit approximation as an extra baseline for
    the ablation benches.

    The sampler works in rounds.  Each round selects a random subset of the
    enabled threads whose pending operations are pairwise *independent*
    (they do not touch the same location with a write, and do not contend
    for the same lock), executes the whole subset in random order, and only
    then starts a new round.  Dependent operations thus get linearized in a
    random order once per round, which is precisely sampling an extension
    of the partial order rather than an interleaving. *)

open Rf_util
open Rf_runtime

let conflict (a : Op.pend) (b : Op.pend) =
  match (Op.pend_mem a, Op.pend_mem b) with
  | Some ma, Some mb ->
      Loc.equal ma.Op.loc mb.Op.loc
      && (ma.Op.access = Rf_events.Event.Write || mb.Op.access = Rf_events.Event.Write)
  | _ -> (
      (* lock contention: both pending ops address the same lock *)
      let lock_of = function
        | Op.P_acquire { lock; _ }
        | Op.P_release { lock; _ }
        | Op.P_wait { lock; _ }
        | Op.P_reacquire { lock; _ }
        | Op.P_notify { lock; _ } ->
            Some lock
        | _ -> None
      in
      match (lock_of a, lock_of b) with
      | Some la, Some lb -> la = lb
      | _ -> false)

let strategy () : Strategy.t =
  (* tids selected for the current round, still to execute *)
  let round : int list ref = ref [] in
  let choose (view : Strategy.view) =
    let rec from_round () =
      match !round with
      | [] -> None
      | tid :: rest ->
          round := rest;
          if Strategy.is_enabled view tid then Some tid else from_round ()
    in
    match from_round () with
    | Some tid -> tid
    | None ->
        (* Start a new round: sample a maximal pairwise-independent subset. *)
        let entries = Array.init (Strategy.count view) (Strategy.nth view) in
        Prng.shuffle (Strategy.prng view) entries;
        let chosen =
          Array.fold_left
            (fun acc (e : Strategy.entry) ->
              if List.for_all (fun (c : Strategy.entry) -> not (conflict e.pend c.pend)) acc
              then e :: acc
              else acc)
            [] entries
        in
        let tids = List.map (fun (e : Strategy.entry) -> e.tid) chosen in
        (match tids with
        | [] ->
            (* all enabled conflict with each other; degenerate to random *)
            let prng = Strategy.prng view in
            (Strategy.nth view (Prng.int prng (Strategy.count view))).Strategy.tid
        | t :: rest ->
            round := rest;
            t)
  in
  Strategy.make ~name:"rapos" choose
