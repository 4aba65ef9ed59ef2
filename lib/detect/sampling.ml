(** O(1)-sample hybrid race detection with a computable miss bound.

    Full hybrid detection keeps up to [cap] access summaries per dynamic
    location; on hot locations (server caches, session tables) the
    detector's state dwarfs the program's.  This detector keeps a
    {e constant} [k] samples per location instead, chosen by
    deterministic reservoir sampling (algorithm R): the [m]-th access to
    a location replaces a uniformly chosen retained sample with
    probability [k/m], so after [n] accesses
    every past access is still retained with probability [k/n] — and the
    probability that a given racing pair went unobserved is at most
    [1 - k/n].  That per-location quantity, maximized over locations, is
    the run's {e miss bound}, reported alongside the pairs (see
    "Dynamic Race Detection with O(1) Samples", PAPERS.md).

    {2 Determinism across shards, domains and modes}

    Each reservoir decision is a pure function of
    [(sample seed, location hash, per-location access index)] — an
    FNV-1a fold of the three seeds one SplitMix64 draw.  No shared
    stream: in the sharded {!Offline} pipeline every location's memory
    events land wholly in one shard and its access indices are the same
    as inline, so sample sets, reported pairs and miss bounds are
    byte-identical across inline/offline modes, shard counts and domain
    counts.

    {2 Soundness}

    A reported pair is always a pair the full hybrid detector (ample
    cap) would report: the conflict predicate is the hybrid one, and if
    a retained sample conflicts with a fresh access then the hybrid
    bucket's corresponding summary (the latest same-thread/site/lockset
    access, which supersedes the sampled one) conflicts too.  Sampling
    only {e misses} pairs, and the miss bound quantifies exactly that.

    {2 Resource governance}

    One logical entry is charged per retained sample — worst case
    [k * locations], typically orders of magnitude below full tracking.
    Under a {!Rf_resource.Governor} the detector joins the ladder as the
    rung above Lockset-only: at {b Sampled} the reservoir shrinks
    ([k/2], min 1); at {b Lockset-only} clocks freeze and the predicate
    falls back to lockset disjointness.  Budget trips compact by
    evicting whole buckets (counters included), oldest last-touch epoch
    first; an evicted bucket's misses can no longer be bounded, so the
    run's miss bound saturates to [1.0]. *)

open Rf_util
open Rf_events
open Rf_vclock
open Rf_resource

type sample = {
  s_tid : int;
  s_site : Site.t;
  s_access : Event.access;
  s_lockset : Lockset.t;
  s_clk : int;  (* epoch: the access's own component of its clock *)
}

type bucket = {
  mutable n_seen : int;  (* accesses to this location, ever *)
  mutable slots : sample list;  (* index = reservoir slot, |slots| <= k *)
  mutable b_epoch : int;  (* last-touch: value of [mem_events] *)
  b_id : int;  (* creation index; compaction tie-break *)
}

type t = {
  k : int;
  seed : int;
  clocks : Hbclock.t;
  governor : Governor.t option;
  buckets : bucket Loc.Tbl.t;
  mutable races : Race.t list;  (* newest first *)
  mutable reported : Site.Pair.Set.t;
  mutable mem_events : int;
  mutable truncations : int;  (* samples not retained / displaced *)
  mutable evicted_buckets : int;  (* whole buckets shed by compaction *)
  mutable next_bucket_id : int;
  mutable entries_charged : int;
}

let charge t n =
  t.entries_charged <- t.entries_charged + n;
  match t.governor with Some g -> Governor.charge g n | None -> ()

let evict t n =
  t.entries_charged <- max 0 (t.entries_charged - n);
  match t.governor with Some g -> Governor.evict g n | None -> ()

let level t =
  match t.governor with Some g -> Governor.level g | None -> Governor.Full

(* Effective reservoir size at each rung. *)
let k_at t = function
  | Governor.Full -> t.k
  | Governor.Sampled -> max 1 (t.k / 2)
  | Governor.Lockset_only -> 1

(* Evict whole buckets — samples and [n_seen] counter alike — oldest
   last-touch first, until the charged entries fit in half the budget.
   Collect-and-sort, never raw hashtable order (see Access_detector). *)
let compact t =
  match t.governor with
  | None -> ()
  | Some g ->
      let target =
        match Governor.budget g with
        | Some budget -> max 1 (budget / 2)
        | None -> max 1 (t.entries_charged / 2)
      in
      if t.entries_charged > target then begin
        let buckets =
          Loc.Tbl.fold (fun loc b acc -> (loc, b) :: acc) t.buckets []
        in
        let buckets =
          List.sort
            (fun (_, a) (_, b) ->
              match compare a.b_epoch b.b_epoch with
              | 0 -> compare a.b_id b.b_id
              | c -> c)
            buckets
        in
        List.iter
          (fun (loc, b) ->
            if t.entries_charged > target then begin
              let n = List.length b.slots in
              Loc.Tbl.remove t.buckets loc;
              evict t n;
              t.truncations <- t.truncations + n;
              t.evicted_buckets <- t.evicted_buckets + 1
            end)
          buckets
      end

let create ?(k = 4) ?(seed = 0) ?governor () =
  let t =
    {
      k = max 1 k;
      seed;
      clocks = Hbclock.create ?governor ~lock_edges:false ();
      governor;
      buckets = Loc.Tbl.create 256;
      races = [];
      reported = Site.Pair.Set.empty;
      mem_events = 0;
      truncations = 0;
      evicted_buckets = 0;
      next_bucket_id = 0;
      entries_charged = 0;
    }
  in
  (match governor with
  | Some g -> Governor.subscribe g (fun _level -> compact t)
  | None -> ());
  t

(* Hybrid predicate (O'Callahan–Choi): different threads, a write,
   disjoint locksets, concurrent under weak happens-before — decided by
   the older sample's epoch against the fresh access's clock [vc]
   ({!Hbclock.epoch_concurrent}).  At the bottom rung clocks are frozen
   and only lock discipline remains. *)
let conflicting lv (old : sample) (fresh : sample) vc =
  old.s_tid <> fresh.s_tid
  && (Event.access_equal old.s_access Event.Write
     || Event.access_equal fresh.s_access Event.Write)
  && Lockset.disjoint old.s_lockset fresh.s_lockset
  &&
  match lv with
  | Governor.Lockset_only -> true
  | Governor.Full | Governor.Sampled ->
      Hbclock.epoch_concurrent ~tid:old.s_tid ~clk:old.s_clk vc

(* The reservoir draw for the [m]-th access to [loc]: a pure function of
   (sample seed, location hash, m), so the decision is identical no
   matter which shard, domain or mode replays the access. *)
let slot_draw t ~loc ~m =
  let key =
    Fnv.(
      mask63
        (fold_int63 (fold_int63 (fold_int63 basis63 t.seed) (Loc.hash loc)) m))
  in
  Prng.int (Prng.create key) m

let feed t ev =
  let lv = level t in
  let vc =
    match lv with
    | Governor.Lockset_only -> Vclock.bottom
    | Governor.Full | Governor.Sampled -> Hbclock.feed t.clocks ev
  in
  match ev with
  | Event.Mem { tid; site; loc; access; lockset } ->
      t.mem_events <- t.mem_events + 1;
      let fresh =
        {
          s_tid = tid;
          s_site = site;
          s_access = access;
          s_lockset = lockset;
          s_clk = Vclock.get vc tid;
        }
      in
      let bucket =
        match Loc.Tbl.find_opt t.buckets loc with
        | Some b -> b
        | None ->
            let b =
              { n_seen = 0; slots = []; b_epoch = t.mem_events; b_id = t.next_bucket_id }
            in
            t.next_bucket_id <- t.next_bucket_id + 1;
            Loc.Tbl.add t.buckets loc b;
            b
      in
      bucket.b_epoch <- t.mem_events;
      bucket.n_seen <- bucket.n_seen + 1;
      let live = ref 0 in
      List.iter
        (fun old ->
          incr live;
          if conflicting lv old fresh vc then begin
            let pair = Site.Pair.make old.s_site fresh.s_site in
            if not (Site.Pair.Set.mem pair t.reported) then begin
              t.reported <- Site.Pair.Set.add pair t.reported;
              t.races <-
                Race.make ~pair ~loc
                  ~tids:(old.s_tid, fresh.s_tid)
                  ~accesses:(old.s_access, fresh.s_access)
                :: t.races
            end
          end)
        bucket.slots;
      let k = k_at t lv in
      (* A degradation step can shrink [k] under a fuller reservoir;
         keeping a fixed prefix of the slots preserves uniformity (any
         fixed subset of reservoir positions is itself a uniform
         subsample), so the miss bound below stays valid. *)
      let slots = bucket.slots and live = !live in
      let slots =
        if live > k then begin
          t.truncations <- t.truncations + (live - k);
          evict t (live - k);
          List.filteri (fun i _ -> i < k) slots
        end
        else slots
      in
      if live < k then begin
        charge t 1;
        bucket.slots <- slots @ [ fresh ]
      end
      else begin
        t.truncations <- t.truncations + 1;
        let r = slot_draw t ~loc ~m:bucket.n_seen in
        bucket.slots <-
          (if r < k then List.mapi (fun i old -> if i = r then fresh else old) slots
           else slots)
      end
  | _ -> ()

let races t = List.rev t.races
let pairs t = t.reported
let race_count t = Site.Pair.Set.cardinal t.reported
let mem_events t = t.mem_events
let truncations t = t.truncations
let locations t = Loc.Tbl.length t.buckets
let state_entries t = t.entries_charged

(* Max over live buckets of 1 - retained/seen; saturated to 1 when a
   compaction shed a bucket wholesale (its misses are unbounded).  Max
   is order-independent, so the raw hashtable fold is safe here. *)
let miss_bound t =
  if t.evicted_buckets > 0 then 1.0
  else
    Loc.Tbl.fold
      (fun _ b acc ->
        let live = List.length b.slots in
        if b.n_seen <= live then acc
        else max acc (1.0 -. (float_of_int live /. float_of_int b.n_seen)))
      t.buckets 0.0
