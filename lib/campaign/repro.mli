(** Reproduction artifacts: one minimized, confirmed schedule per
    distinct error fingerprint of a campaign ([--repro-dir]).

    For each harmful pair, the first few erroring witness seeds are
    re-recorded, grouped by error fingerprint across {e all} pairs,
    minimized ({!Rf_replay.Shrinker} against the
    {!Racefuzzer.Fuzzer.schedule_oracle}), and the shortest confirmed
    schedule per fingerprint is written as [repro-<digest>.sched.json]
    plus a human-readable [repro-<digest>.txt] narrative.  Sequential,
    deterministic, fuel-bounded. *)

open Rf_util
module Fuzzer = Racefuzzer.Fuzzer

type entry = {
  r_pair : Site.Pair.t;  (** the pair whose witness won *)
  r_fingerprint : string;
  r_seed : int;  (** witness seed of the emitted schedule *)
  r_file : string;  (** the [*.sched.json] path *)
  r_narrative : string;  (** the [*.txt] path *)
  r_stats : Rf_replay.Shrinker.stats;
  r_replay_ok : bool;
      (** the on-disk artifact was reloaded and exactly replayed to its
          claimed fingerprint *)
}

type summary = {
  written : entry list;  (** one per distinct fingerprint, discovery order *)
  duplicates : int;  (** witnesses folded into an already-covered fingerprint *)
  failed : int;  (** witnesses whose minimization could not reproduce *)
  oracle_runs : int;  (** total minimization executions across all artifacts *)
}

val no_summary : summary
(** The empty summary (campaign ran without [--repro-dir]). *)

val write_all :
  ?fuel:int ->
  ?witnesses:int ->
  ?witness_scan:int ->
  dir:string ->
  target:string ->
  ?max_steps:int ->
  program:Fuzzer.program ->
  Fuzzer.pair_result list ->
  summary
(** Walk the harmful results and emit artifacts into [dir] (created
    with any missing parents).  [fuel] (default 400) bounds oracle
    executions per minimization — repro work is budgeted like trial
    work, a few hundred extra engine runs per artifact.  [witnesses] (default 3) caps
    erroring seeds minimized per pair; when the pair's trial list yields
    fewer (early cutoff truncates it), seeds [0..witness_scan-1]
    (default 32) are scanned deterministically to fill the quota —
    erroring runs cluster into shapes with very different minimal
    prefixes, so more witness shapes means shorter artifacts. *)
