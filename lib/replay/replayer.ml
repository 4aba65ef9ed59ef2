open Rf_util
open Rf_runtime

type mode = Strict | Exact | Lenient

type divergence = {
  d_step : int;
  d_expected_tid : int;
  d_expected : Schedule.key;
  d_got : string;
}

let pp_divergence ppf d =
  Fmt.pf ppf "step %d: expected t%d doing %a, got %s" d.d_step d.d_expected_tid
    Schedule.pp_key d.d_expected d.d_got

type status = {
  mutable taken : int;
  mutable skipped : int;
  mutable mismatched : int;
  mutable divergence : divergence option;
  mutable fell_back : bool;
}

exception Diverged of divergence

let describe_enabled (view : Strategy.view) =
  List.init (Strategy.count view) (fun i ->
      let e = Strategy.nth view i in
      Fmt.str "t%d:%a" e.Strategy.tid Schedule.pp_key
        (Schedule.key_of_pend e.Strategy.pend))
  |> String.concat " "

let strategy ?(mode = Exact) (sched : Schedule.t) ~(fallback : Strategy.t) :
    Strategy.t * status =
  let steps = sched.Schedule.steps in
  let n = Array.length steps in
  let pos = ref 0 in
  let status =
    { taken = 0; skipped = 0; mismatched = 0; divergence = None; fell_back = false }
  in
  let diverge d =
    match mode with
    | Strict -> raise (Diverged d)
    | Exact | Lenient ->
        if status.divergence = None then status.divergence <- Some d;
        status.fell_back <- true
  in
  let take (view : Strategy.view) (st : Schedule.step) =
    status.taken <- status.taken + 1;
    incr pos;
    Prng.set_state (Strategy.prng view) st.Schedule.st_rng;
    st.Schedule.st_tid
  in
  let rec choose (view : Strategy.view) =
    if status.fell_back || !pos >= n then begin
      status.fell_back <- true;
      fallback.Strategy.choose view
    end
    else begin
      let st = steps.(!pos) in
      let tid = st.Schedule.st_tid in
      match Strategy.find view tid with
      | Some entry ->
          let live_key = Schedule.key_of_pend entry.Strategy.pend in
          if Schedule.equal_key live_key st.Schedule.st_key then take view st
          else begin
            match mode with
            | Lenient ->
                (* Edits shift keys without invalidating the interleaving
                   recipe; the tid is what steers the run. *)
                status.mismatched <- status.mismatched + 1;
                take view st
            | Strict | Exact ->
                diverge
                  {
                    d_step = !pos;
                    d_expected_tid = tid;
                    d_expected = st.Schedule.st_key;
                    d_got = Fmt.str "t%d doing %a" tid Schedule.pp_key live_key;
                  };
                fallback.Strategy.choose view
          end
      | None -> (
          match mode with
          | Lenient ->
              (* The step's thread is blocked or gone; drop the step and
                 try the next recorded decision at this same switch
                 point. *)
              status.skipped <- status.skipped + 1;
              incr pos;
              choose view
          | Strict | Exact ->
              diverge
                {
                  d_step = !pos;
                  d_expected_tid = tid;
                  d_expected = st.Schedule.st_key;
                  d_got =
                    Fmt.str "t%d not enabled (enabled: %s)" tid
                      (describe_enabled view);
                };
              fallback.Strategy.choose view)
    end
  in
  (Strategy.make ~name:("replay+" ^ fallback.Strategy.sname) choose, status)
