(* Worker supervision: run a fixed fleet of worker bodies on domains,
   detect crashes, respawn with exponential backoff, give up after a
   budget.

   Slot 0 runs on the calling domain and every other slot on one freshly
   spawned domain; respawns run on freshly spawned child domains (see
   the note on attempts below).  A crash is an exception escaping the
   worker body (in OCaml a domain cannot die any other way short of
   taking the whole process with it). *)

type policy = {
  max_respawns : int;
  backoff_base : float;
  backoff_factor : float;
  backoff_max : float;
  quarantine_crashes : int;
}

let default_policy =
  {
    max_respawns = 3;
    backoff_base = 0.01;
    backoff_factor = 2.0;
    backoff_max = 0.5;
    quarantine_crashes = 3;
  }

let backoff_delay policy attempt =
  min policy.backoff_max
    (policy.backoff_base *. (policy.backoff_factor ** float_of_int attempt))

type outcome = { crashes : int; gave_up : int }

let nothing1 ~domain:_ = ()
let nothing_crash ~domain:_ ~attempt:_ _ = ()
let nothing_respawn ~domain:_ ~attempt:_ ~backoff:_ = ()

(* One attempt, on a fresh child domain (clean domain-local state) or
   inline on the slot's own domain.  A slot's first attempt always runs
   inline: slot 0 on the calling domain, which would otherwise sit idle
   in [Domain.join], and every other slot on the domain just spawned for
   it.  Only respawns get a child domain, and in a single-worker fleet
   not even those: with one slot there is no parallelism to win, and on
   a single core an idle joining domain is pure overhead — every minor
   collection becomes a cross-domain stop-the-world synchronization,
   taxing allocation-heavy workers by double-digit percentages.  Fewer
   spawns also keep memory flat: on OCaml 5.1 process RSS creeps with
   every domain spawn, and a campaign runs one fleet per wave.
   Crash/respawn semantics are identical either way; the engine resets
   all per-run domain-local state itself, so where an attempt runs can
   never affect what it computes. *)
let spawned_attempt body ~domain =
  Domain.join
    (Domain.spawn (fun () ->
         match body ~domain with () -> Ok () | exception e -> Error e))

let inline_attempt body ~domain =
  match body ~domain with () -> Ok () | exception e -> Error e

let run_slot ~respawn_attempt ~policy ~on_crash ~on_respawn ~on_give_up ~domain
    body =
  let rec go attempt crashes =
    let run_attempt = if attempt = 0 then inline_attempt else respawn_attempt in
    match (run_attempt body ~domain : (unit, exn) result) with
    | Ok () -> (crashes, false)
    | Error e ->
        on_crash ~domain ~attempt e;
        if attempt >= policy.max_respawns then begin
          on_give_up ~domain;
          (crashes + 1, true)
        end
        else begin
          let backoff = backoff_delay policy attempt in
          if backoff > 0.0 then Unix.sleepf backoff;
          on_respawn ~domain ~attempt:(attempt + 1) ~backoff;
          go (attempt + 1) (crashes + 1)
        end
  in
  go 0 0

let supervise ?(policy = default_policy) ?(on_crash = nothing_crash)
    ?(on_respawn = nothing_respawn) ?(on_give_up = nothing1) ~domains body =
  let respawn_attempt = if domains = 1 then inline_attempt else spawned_attempt in
  let slot domain () =
    run_slot ~respawn_attempt ~policy ~on_crash ~on_respawn ~on_give_up ~domain
      body
  in
  let others = List.init (domains - 1) (fun d -> Domain.spawn (slot (d + 1))) in
  (* Join every spawned slot before re-raising a failure of slot 0. *)
  let first = match slot 0 () with r -> Ok r | exception e -> Error e in
  let others = List.map Domain.join others in
  let results = (match first with Ok r -> r | Error e -> raise e) :: others in
  {
    crashes = List.fold_left (fun acc (c, _) -> acc + c) 0 results;
    gave_up =
      List.fold_left (fun acc (_, g) -> acc + if g then 1 else 0) 0 results;
  }
