open Rf_util
open Rf_runtime

type t = { mutable rev_steps : Schedule.step list; mutable count : int }

let wrap (inner : Strategy.t) : Strategy.t * t =
  let rec_ = { rev_steps = []; count = 0 } in
  let choose (view : Strategy.view) =
    let tid = inner.Strategy.choose view in
    let entry =
      match Strategy.find view tid with
      | Some e -> e
      | None ->
          Fmt.invalid_arg "Recorder: strategy %S chose tid %d, not enabled"
            inner.Strategy.sname tid
    in
    (* The state *after* the decision: replay restores it so engine-internal
       draws (notify target selection) see the recorded stream. *)
    let step =
      {
        Schedule.st_tid = tid;
        st_key = Schedule.key_of_pend entry.Strategy.pend;
        st_rng = Prng.state (Strategy.prng view);
      }
    in
    rec_.rev_steps <- step :: rec_.rev_steps;
    rec_.count <- rec_.count + 1;
    tid
  in
  (Strategy.make ~name:(inner.Strategy.sname ^ "+record") choose, rec_)

let length t = t.count

let schedule ?(target = "") ?pair ~seed
    ?(max_steps = Engine.default_config.max_steps) ~(outcome : Outcome.t) t :
    Schedule.t =
  let meta =
    {
      Schedule.m_target = target;
      m_seed = seed;
      m_pair =
        Option.map
          (fun p ->
            ( Schedule.site_key (Site.Pair.fst p),
              Schedule.site_key (Site.Pair.snd p) ))
          pair;
      m_max_steps = max_steps;
      m_steps = outcome.Outcome.steps;
      m_error = Schedule.error_fingerprint outcome;
    }
  in
  { Schedule.meta; steps = Array.of_list (List.rev t.rev_steps) }
