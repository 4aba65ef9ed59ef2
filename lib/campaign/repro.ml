(** Reproduction artifacts: one minimized schedule per distinct error.

    After a campaign classifies its pairs, this pass walks the harmful
    ones, records a schedule for a few erroring witness seeds per pair,
    groups by error fingerprint (so ten pairs surfacing the same
    exception yield one artifact, not ten), minimizes against the
    {!Racefuzzer.Fuzzer.schedule_oracle}, and writes the shortest
    confirmed schedule per fingerprint as [repro-<digest>.sched.json]
    with a human-readable [repro-<digest>.txt] narrative beside it.

    Minimizing over several witnesses matters: erroring runs cluster
    into shapes, and the shortest reproducing prefix can differ a lot
    between shapes (cache4j's clusters minimize to 50 vs 84 decisions).
    Everything is sequential and deterministic — witness seeds come from
    trial lists in seed order, minimization is fuel-bounded and
    randomness-free — so a campaign emits identical artifacts on every
    run. *)

open Rf_util
module Fuzzer = Racefuzzer.Fuzzer
module Schedule = Rf_replay.Schedule
module Shrinker = Rf_replay.Shrinker
module Replayer = Rf_replay.Replayer

type entry = {
  r_pair : Site.Pair.t;
  r_fingerprint : string;
  r_seed : int;
  r_file : string;
  r_narrative : string;
  r_stats : Shrinker.stats;
  r_replay_ok : bool;
}

type summary = {
  written : entry list;  (** one per distinct fingerprint, discovery order *)
  duplicates : int;  (** witnesses folded into an already-covered fingerprint *)
  failed : int;  (** fingerprints whose minimization could not reproduce *)
  oracle_runs : int;  (** total minimization executions across all artifacts *)
}

let no_summary = { written = []; duplicates = 0; failed = 0; oracle_runs = 0 }

(* Filesystem-safe artifact basename: a short stable digest of the error
   fingerprint (the fingerprint itself contains sites and exception
   text). *)
let digest fp = String.sub (Digest.to_hex (Digest.string fp)) 0 12

let error_witnesses ~witnesses (r : Fuzzer.pair_result) =
  r.Fuzzer.trials
  |> List.filter (fun (t : Fuzzer.trial) ->
         Schedule.error_fingerprint t.Fuzzer.t_outcome <> None)
  |> List.filteri (fun i _ -> i < witnesses)
  |> List.map (fun (t : Fuzzer.trial) -> t.Fuzzer.t_seed)

let write_narrative path ~(sched : Schedule.t) ~(stats : Shrinker.stats) =
  Atomic_file.write path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "shrink: %a@.@." Shrinker.pp_stats stats;
      Format.fprintf ppf "%a" Schedule.pp_narrative sched;
      Format.pp_print_flush ppf ())

let write_all ?(fuel = 400) ?(witnesses = 3) ?(witness_scan = 32) ~dir ~target
    ?(max_steps = Rf_runtime.Engine.default_config.max_steps)
    ~(program : Fuzzer.program) (results : Fuzzer.pair_result list) : summary =
  Atomic_file.mkdir_p dir;
  let oracle_total = ref 0 in
  let duplicates = ref 0 in
  let failed = ref 0 in
  (* fingerprint -> best (pair, seed, minimized, stats) by the shrink
     measure, first-discovered wins ties *)
  let best : (string, Site.Pair.t * int * Schedule.t * Shrinker.stats) Hashtbl.t =
    Hashtbl.create 8
  in
  let order = ref [] in
  List.iter
    (fun (r : Fuzzer.pair_result) ->
      (* Witnesses come from the pair's trial list first; early cutoff can
         truncate that list to a single erroring trial, so top the pool up
         with a deterministic seed scan — recording is one engine run,
         cheap next to minimization, and more witness shapes means shorter
         minima (see the module comment). *)
      let minimized_here = ref 0 in
      let tried = Hashtbl.create 8 in
      let try_seed seed =
        if !minimized_here < witnesses && not (Hashtbl.mem tried seed) then begin
          Hashtbl.replace tried seed ();
          let _trial, sched =
            Fuzzer.record_trial ~target ~max_steps ~program r.Fuzzer.pr_pair seed
          in
          match sched.Schedule.meta.Schedule.m_error with
          | None -> () (* this seed doesn't error; nothing to reproduce *)
          | Some fp -> (
              match Fuzzer.minimize_schedule ~fuel ~program sched with
              | None -> incr failed
              | Some (minimized, stats) ->
                  incr minimized_here;
                  oracle_total := !oracle_total + stats.Shrinker.sh_oracle_runs;
                  let better (st : Shrinker.stats) (old : Shrinker.stats) =
                    (st.Shrinker.sh_steps_after, st.Shrinker.sh_switches_after)
                    < (old.Shrinker.sh_steps_after, old.Shrinker.sh_switches_after)
                  in
                  (match Hashtbl.find_opt best fp with
                  | None ->
                      order := fp :: !order;
                      Hashtbl.replace best fp
                        (r.Fuzzer.pr_pair, seed, minimized, stats)
                  | Some (_, _, _, old_stats) ->
                      incr duplicates;
                      if better stats old_stats then
                        Hashtbl.replace best fp
                          (r.Fuzzer.pr_pair, seed, minimized, stats)))
        end
      in
      List.iter try_seed (error_witnesses ~witnesses r);
      if !minimized_here > 0 || Fuzzer.is_harmful r then
        for seed = 0 to witness_scan - 1 do
          try_seed seed
        done)
    results;
  let written =
    List.rev_map
      (fun fp ->
        let pair, seed, minimized, stats = Hashtbl.find best fp in
        let d = digest fp in
        let file = Filename.concat dir (Printf.sprintf "repro-%s.sched.json" d) in
        let narrative = Filename.concat dir (Printf.sprintf "repro-%s.txt" d) in
        Schedule.save file minimized;
        write_narrative narrative ~sched:minimized ~stats;
        (* Final paranoia: the artifact on disk replays, exactly, to the
           fingerprint it claims. *)
        let replay_ok =
          let reloaded = Schedule.load file in
          let outcome, status = Fuzzer.replay_schedule ~program reloaded in
          status.Replayer.divergence = None
          && Schedule.error_fingerprint outcome = Some fp
        in
        {
          r_pair = pair;
          r_fingerprint = fp;
          r_seed = seed;
          r_file = file;
          r_narrative = narrative;
          r_stats = stats;
          r_replay_ok = replay_ok;
        })
      !order
  in
  {
    written;
    duplicates = !duplicates;
    failed = !failed;
    oracle_runs = !oracle_total;
  }
