(** The RaceFuzzer scheduling strategy — Algorithms 1 and 2 of the paper.

    Given a candidate racing pair [RaceSet = {s1, s2}] from phase 1, the
    strategy drives a random scheduler with one twist: a thread about to
    execute a statement of the pair is *postponed* — parked with its
    operation pending — until some other thread arrives at a statement of
    the pair whose pending access touches the same dynamic memory location
    with at least one write ([Racing], Algorithm 2).  At that moment a
    *real race* has been created: the two accesses are temporally adjacent
    and unordered.  The strategy records the hit and resolves the race by a
    coin flip (Algorithm 1, lines 11–18): either the arriving thread runs
    first, or every postponed racing thread runs first — which is how
    order-dependent errors hiding behind the race get exposed.

    Two liveness devices from the paper's §2.2 and §4:

    - when every enabled thread is postponed, a random postponed thread is
      released and executed ("if we manage to postpone all the threads,
      then we pick a random thread from the set to break the deadlock");
    - a postpone timeout models the monitor thread that "periodically
      removes those threads from the postponed set that are waiting for a
      long time", preventing livelock when one thread spins without
      synchronizing. *)

open Rf_util
open Rf_runtime

(** One created real race. *)
type hit = {
  hit_pair : Site.Pair.t;  (** the RaceSet *)
  hit_sites : Site.t * Site.t;  (** postponed site, arriving site *)
  hit_loc : Loc.t;  (** the shared dynamic location *)
  hit_arriving : int;  (** tid that arrived second *)
  hit_postponed : int list;  (** racing postponed tids (>1 when all reads... ) *)
  hit_step : int;
  resolved_arriving : bool;  (** coin flip: arriving thread executed first *)
}

let pp_hit ppf h =
  Fmt.pf ppf "REAL RACE %a on %a at step %d (t%d vs %a), resolved toward %s"
    Site.Pair.pp h.hit_pair Loc.pp h.hit_loc h.hit_step h.hit_arriving
    (Fmt.list ~sep:Fmt.comma (fun ppf t -> Fmt.pf ppf "t%d" t))
    h.hit_postponed
    (if h.resolved_arriving then "arriving" else "postponed")

(** Mutable per-run report the strategy writes into.

    [hits] is deduplicated by (sites, location): a tight racing loop
    creates the same race millions of times per run, and consing a hit
    record for each was the dominant allocation of the whole phase-2
    path (hundreds of thousands of retained records per trial on the
    access-heavy benchmark).  Scheduling decisions never read [hits], so
    deduplication cannot perturb the schedule; [hit_events] keeps the
    raw creation count for reporting. *)
type report = {
  mutable hits : hit list;  (** distinct created races, newest first *)
  mutable hit_events : int;  (** every race creation, duplicates included *)
  mutable evictions : int;  (** all-postponed deadlock breaks *)
  mutable timeout_releases : int;  (** livelock-relief releases *)
  mutable postponements : int;
}

let fresh_report () =
  {
    hits = [];
    hit_events = 0;
    evictions = 0;
    timeout_releases = 0;
    postponements = 0;
  }

let race_created r = r.hits <> []
let hits r = List.rev r.hits

(** Default bound (in scheduler steps) a thread may stay postponed. *)
let default_postpone_timeout = 2_000

(* ------------------------------------------------------------------ *)
(* Postponement tables (Atom_fuzzer, Deadlock_fuzzer)                  *)

let expire_postponed ~postpone_timeout postponed step =
  match postpone_timeout with
  | None -> ()
  | Some bound ->
      (* sorted so release order never depends on hash-table internals *)
      Hashtbl.fold
        (fun tid since acc -> if step - since > bound then tid :: acc else acc)
        postponed []
      |> List.sort compare
      |> List.iter (Hashtbl.remove postponed)

type table_pick = Available of Strategy.entry | Evicted of Strategy.entry

let pick_unpostponed view postponed =
  let prng = Strategy.prng view and n = Strategy.count view in
  (* only the enabled postponed threads count against the enabled set *)
  let held =
    Hashtbl.fold
      (fun tid _ acc -> if Strategy.is_enabled view tid then acc + 1 else acc)
      postponed 0
  in
  if held = n then begin
    let v = Strategy.nth view (Prng.int prng n) in
    Hashtbl.remove postponed v.Strategy.tid;
    Evicted v
  end
  else begin
    (* the k-th enabled thread, in tid order, that is not postponed *)
    let rec kth i k =
      let e = Strategy.nth view i in
      if Hashtbl.mem postponed e.Strategy.tid then kth (i + 1) k
      else if k = 0 then e
      else kth (i + 1) (k - 1)
    in
    Available (kth 0 (Prng.int prng (n - held)))
  end

(** [conflicts m m'] — the per-thread test of [Racing] (Algorithm 2):
    same dynamic location, at least one write.  Postponed threads are
    always parked at a [RaceSet] memory operation, so no site check is
    needed, mirroring the paper. *)
let conflicts (m : Op.mem) (m' : Op.mem) =
  Loc.equal m.Op.loc m'.Op.loc
  && (m.Op.access = Rf_events.Event.Write || m'.Op.access = Rf_events.Event.Write)

(** Build the strategy for one run.

    [pair] is the RaceSet; [report] collects hits; [postpone_timeout]
    bounds how long (in engine steps, the [view.step] clock — not strategy
    consultations, which advance more slowly under [`Sync_and] fast paths)
    a thread may stay postponed, [None] disabling relief (ablation).

    Consultation cost.  A postponed thread is parked at a RaceSet memory
    access, which keeps it enabled, and it runs only after being released;
    so the postponed set is a subset of the enabled set.  The strategy
    keeps it as a small tid-sorted array and never looks at the other
    enabled threads one by one: the available count is [count - p], the
    k-th available thread is found by skipping the postponed threads'
    ranks, and [Racing] scans the postponed threads only.  A consultation
    costs O(p log n) for p postponed of n enabled threads, and allocates
    nothing unless a race is created. *)
let strategy ?(postpone_timeout = Some default_postpone_timeout) ~pair ~report () :
    Strategy.t =
  (* the postponed set, ascending by tid: [p_tid.(j)] was postponed at
     step [p_since.(j)], for [j < p_count] *)
  let p_tid = ref (Array.make 8 0) in
  let p_since = ref (Array.make 8 0) in
  let p_count = ref 0 in
  (* index of [tid] in [p_tid], or [-1 - insertion point] *)
  let p_index tid =
    let lo = ref 0 and hi = ref !p_count in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if !p_tid.(mid) < tid then lo := mid + 1 else hi := mid
    done;
    if !lo < !p_count && !p_tid.(!lo) = tid then !lo else -1 - !lo
  in
  let postpone tid step =
    let j = p_index tid in
    if j >= 0 then !p_since.(j) <- step
    else begin
      let i = -1 - j in
      if !p_count = Array.length !p_tid then begin
        let grow a =
          let b = Array.make (2 * Array.length a) 0 in
          Array.blit a 0 b 0 !p_count;
          b
        in
        p_tid := grow !p_tid;
        p_since := grow !p_since
      end;
      Array.blit !p_tid i !p_tid (i + 1) (!p_count - i);
      Array.blit !p_since i !p_since (i + 1) (!p_count - i);
      !p_tid.(i) <- tid;
      !p_since.(i) <- step;
      incr p_count
    end
  in
  let release tid =
    let j = p_index tid in
    if j >= 0 then begin
      Array.blit !p_tid (j + 1) !p_tid j (!p_count - j - 1);
      Array.blit !p_since (j + 1) !p_since j (!p_count - j - 1);
      decr p_count
    end
  in
  (* Livelock relief: free the threads postponed for too long, in tid
     order. *)
  let sweep bound step =
    let kept = ref 0 in
    for j = 0 to !p_count - 1 do
      let since = !p_since.(j) in
      if step - since > bound then
        report.timeout_releases <- report.timeout_releases + 1
      else begin
        !p_tid.(!kept) <- !p_tid.(j);
        !p_since.(!kept) <- since;
        incr kept
      end
    done;
    p_count := !kept
  in
  (* The enabled row of a postponed thread. *)
  let postponed_row view tid =
    let i = Strategy.rank view tid in
    if i < Strategy.count view && (Strategy.nth view i).Strategy.tid = tid then
      Strategy.nth view i
    else Fmt.invalid_arg "Algo: postponed thread t%d is not enabled" tid
  in
  (* The [k]-th enabled thread, in tid order, that is not postponed: start
     at rank [k] and step over every postponed rank at or below it. *)
  let nth_available view k =
    let c = ref k and j = ref 0 in
    while
      !j < !p_count
      &&
      let r = Strategy.rank view !p_tid.(!j) in
      r <= !c
    do
      incr c;
      incr j
    done;
    Strategy.nth view !c
  in
  (* [Racing (s, t, postponed)] — Algorithm 2: the postponed threads whose
     pending access conflicts with [m], in ascending tid order. *)
  let racing view (m : Op.mem) =
    let acc = ref [] in
    for j = !p_count - 1 downto 0 do
      let e = postponed_row view !p_tid.(j) in
      match Op.pend_mem e.Strategy.pend with
      | Some m' when conflicts m m' -> acc := e :: !acc
      | _ -> ()
    done;
    !acc
  in
  (* (postponed site id, arriving site id) -> locations already recorded:
     only the first creation of a distinct race conses a hit.  The
     location list is scanned with [Loc.equal] so the per-creation check
     never polymorphic-hashes a location. *)
  let recorded : (int * int, Loc.t list ref) Hashtbl.t = Hashtbl.create 8 in
  (* threads that must execute next (race resolved toward them, or evicted
     to break an all-postponed deadlock) *)
  let queue : int list ref = ref [] in
  let choose (view : Strategy.view) =
    let step = Strategy.step view and prng = Strategy.prng view in
    (match postpone_timeout with
    | Some bound when !p_count > 0 -> sweep bound step
    | _ -> ());
    (* Serve the must-run queue first (Algorithm 1 line 16: execute all
       threads of R). *)
    let rec from_queue () =
      match !queue with
      | [] -> None
      | tid :: rest ->
          queue := rest;
          if Strategy.is_enabled view tid then Some tid else from_queue ()
    in
    match from_queue () with
    | Some tid -> tid
    | None ->
        let rec pick_loop () =
          let n = Strategy.count view in
          if !p_count = n then begin
            (* Everyone enabled is postponed: break the scheduler deadlock
               by releasing and *executing* a random postponed thread. *)
            let v = Strategy.nth view (Prng.int prng n) in
            release v.Strategy.tid;
            report.evictions <- report.evictions + 1;
            v.Strategy.tid
          end
          else begin
            let k = Prng.int prng (n - !p_count) in
            let e =
              if !p_count = 0 then Strategy.nth view k else nth_available view k
            in
            match Op.pend_mem e.Strategy.pend with
            | Some m when Site.Pair.mem m.Op.site pair -> (
                match racing view m with
                | [] ->
                    (* No racing partner parked yet: wait for one. *)
                    postpone e.Strategy.tid step;
                    report.postponements <- report.postponements + 1;
                    pick_loop ()
                | r ->
                    (* Real race created. Record and resolve randomly. *)
                    let first = List.hd r in
                    let postponed_site =
                      match Op.pend_mem first.Strategy.pend with
                      | Some m' -> m'.Op.site
                      | None -> m.Op.site
                    in
                    let toward_arriving = Prng.bool prng in
                    report.hit_events <- report.hit_events + 1;
                    let key = (Site.id postponed_site, Site.id m.Op.site) in
                    let locs =
                      match Hashtbl.find_opt recorded key with
                      | Some l -> l
                      | None ->
                          let l = ref [] in
                          Hashtbl.add recorded key l;
                          l
                    in
                    let tids = List.map (fun (x : Strategy.entry) -> x.tid) r in
                    if not (List.exists (Loc.equal m.Op.loc) !locs) then begin
                      locs := m.Op.loc :: !locs;
                      report.hits <-
                        {
                          hit_pair = pair;
                          hit_sites = (postponed_site, m.Op.site);
                          hit_loc = m.Op.loc;
                          hit_arriving = e.Strategy.tid;
                          hit_postponed = tids;
                          hit_step = step;
                          resolved_arriving = toward_arriving;
                        }
                        :: report.hits
                    end;
                    if toward_arriving then
                      (* arriving thread executes; R stays postponed *)
                      e.Strategy.tid
                    else begin
                      (* postponed side executes (all of R); arriving
                         thread is postponed in its place *)
                      postpone e.Strategy.tid step;
                      report.postponements <- report.postponements + 1;
                      List.iter release tids;
                      queue := List.tl tids;
                      List.hd tids
                    end)
            | _ -> e.Strategy.tid
          end
        in
        pick_loop ()
  in
  Strategy.make ~name:"racefuzzer" choose
