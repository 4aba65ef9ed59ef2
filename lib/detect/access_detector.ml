(** Generic access-history race detector.

    Both the hybrid detector [37] and the precise happens-before detector
    [44] follow the same scheme: maintain, per dynamic memory location, a
    bounded history of past access summaries (thread, site, access kind,
    lockset, clock epoch) and flag a race whenever a new access *conflicts*
    with a stored one under the detector's predicate.  They differ only in
    the happens-before edge policy and in whether disjoint locksets are
    required — see {!Hybrid} and {!Hb_precise} for the two instantiations.

    The per-location history is capped: locations in tight loops would
    otherwise accumulate unbounded summaries.  An entry made by the same
    thread at the same site with the same lockset as a new access is
    superseded by it (the older clock is smaller, but any race it would
    reveal involves the same statement pair, which we have either already
    reported or will report through another witness).  A summary keeps
    only its {e epoch} — the access's own component of its clock — not
    the whole clock: the stored access always precedes the fresh one in
    the trace, so the epoch decides concurrency exactly
    ({!Hbclock.epoch_concurrent}).  [truncations]
    counts cap evictions so experiments can report potential missed pairs.

    {2 Resource governance}

    Histories are the detector's dominant state: one summary per retained
    access, one bucket per distinct dynamic location.  With a
    {!Rf_resource.Governor} attached, every retained summary is charged
    one logical entry against the shared trial budget, and the detector
    participates in the degradation ladder:

    - {b Full}: behaviour identical to the ungoverned detector.
    - {b Sampled}: the per-bucket cap shrinks (to min 8) and eviction
      switches from drop-oldest to deterministic reservoir replacement —
      the victim slot is an FNV-1a hash of the global access counter, so
      long-lived summaries survive with uniform probability instead of
      being structurally evicted.  This keeps witness diversity when a
      bucket sees many more accesses than it can store.
    - {b Lockset-only}: the happens-before machinery is switched off
      entirely (no clock feeding, no new vector clocks) and the conflict
      predicate falls back to Eraser-style lockset discipline: different
      threads, at least one write, disjoint locksets.  This rung
      over-approximates (more candidate pairs, zero clock state growth),
      which is the right direction for phase 1 — phase 2 confirms or
      refutes each candidate by directed scheduling.

    On each trip the detector also {e compacts}: buckets are evicted
    whole, oldest last-touch epoch first (ties by creation order), until
    the charged entries fit in half the budget.  Epochs are logical
    (the running access count), so compaction points — and therefore
    everything the detector reports — are a pure function of the event
    stream, independent of heap layout, GC timing, or domain count. *)

open Rf_util
open Rf_events
open Rf_vclock
open Rf_resource

type entry = {
  e_tid : int;
  e_site : Site.t;
  e_access : Event.access;
  e_lockset : Lockset.t;
  e_clk : int;  (* epoch: the access's own component of its clock *)
}

type bucket = {
  mutable b_entries : entry list;  (* newest first *)
  mutable b_epoch : int;  (* last-touch: value of [mem_events] *)
  b_id : int;  (* creation index; compaction tie-break *)
}

type t = {
  dname : string;
  clocks : Hbclock.t;
  governor : Governor.t option;
  require_disjoint_locksets : bool;
  history : bucket Loc.Tbl.t;
  cap : int;
  mutable races : Race.t list;  (* newest first *)
  mutable reported : Site.Pair.Set.t;
  mutable truncations : int;
  mutable mem_events : int;
  mutable next_bucket_id : int;
  mutable entries_charged : int;
}

(* FNV-1a over the 8 little-endian bytes of [n]: a cheap, seedless,
   platform-independent hash used to pick reservoir victims.  Must stay
   in sync with nothing — it only needs to be deterministic. *)
let fnv1a64 n = Fnv.(mask63 (fold_int63 basis63 n))

let charge t n =
  t.entries_charged <- t.entries_charged + n;
  match t.governor with Some g -> Governor.charge g n | None -> ()

let credit t n =
  t.entries_charged <- max 0 (t.entries_charged - n);
  match t.governor with Some g -> Governor.credit g n | None -> ()

let evict t n =
  t.entries_charged <- max 0 (t.entries_charged - n);
  match t.governor with Some g -> Governor.evict g n | None -> ()

let level t =
  match t.governor with Some g -> Governor.level g | None -> Governor.Full

(* Effective per-bucket cap at each rung. *)
let cap_at t = function
  | Governor.Full -> t.cap
  | Governor.Sampled -> min t.cap 8
  | Governor.Lockset_only -> 2

(* Evict whole buckets, oldest last-touch first, until the charged
   entries fit in half the budget.  Collect-and-sort: never iterate a
   hashtable in raw order when the result affects what gets reported. *)
let compact t =
  match t.governor with
  | None -> ()
  | Some g ->
      (* Entry budget: shed to half the budget.  Heap-watermark-only
         governor (no entry budget): halve whatever is charged, so a
         physical trip actually releases memory too. *)
      let target =
        match Governor.budget g with
        | Some budget -> max 1 (budget / 2)
        | None -> max 1 (t.entries_charged / 2)
      in
      if t.entries_charged > target then begin
            let buckets =
              Loc.Tbl.fold (fun loc b acc -> (loc, b) :: acc) t.history []
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
                  let n = List.length b.b_entries in
                  Loc.Tbl.remove t.history loc;
                  evict t n;
                  t.truncations <- t.truncations + n
                end)
              buckets
          end

let create ?(cap = 128) ?governor ~name ~lock_edges ~require_disjoint_locksets
    () =
  let t =
    {
      dname = name;
      clocks = Hbclock.create ?governor ~lock_edges ();
      governor;
      require_disjoint_locksets;
      history = Loc.Tbl.create 256;
      cap;
      races = [];
      reported = Site.Pair.Set.empty;
      truncations = 0;
      mem_events = 0;
      next_bucket_id = 0;
      entries_charged = 0;
    }
  in
  (match governor with
  | Some g -> Governor.subscribe g (fun _level -> compact t)
  | None -> ());
  t

let name t = t.dname

(* [vc] is the fresh access's full clock.  The stored access came
   first in the trace, so its epoch alone decides concurrency
   ({!Hbclock.epoch_concurrent}). *)
let conflicting t lv (old : entry) (fresh : entry) vc =
  old.e_tid <> fresh.e_tid
  && (Event.access_equal old.e_access Event.Write
     || Event.access_equal fresh.e_access Event.Write)
  &&
  match lv with
  | Governor.Lockset_only ->
      (* Eraser-style fallback: clocks are frozen, so the only evidence
         left is lock discipline. *)
      Lockset.disjoint old.e_lockset fresh.e_lockset
  | Governor.Full | Governor.Sampled ->
      ((not t.require_disjoint_locksets)
      || Lockset.disjoint old.e_lockset fresh.e_lockset)
      && Hbclock.epoch_concurrent ~tid:old.e_tid ~clk:old.e_clk vc

let same_summary (old : entry) (fresh : entry) =
  old.e_tid = fresh.e_tid
  && Site.equal old.e_site fresh.e_site
  && Event.access_equal old.e_access fresh.e_access
  && Lockset.equal old.e_lockset fresh.e_lockset

let report t ~loc (old : entry) (fresh : entry) =
  let pair = Site.Pair.make old.e_site fresh.e_site in
  if not (Site.Pair.Set.mem pair t.reported) then begin
    t.reported <- Site.Pair.Set.add pair t.reported;
    t.races <-
      Race.make ~pair ~loc
        ~tids:(old.e_tid, fresh.e_tid)
        ~accesses:(old.e_access, fresh.e_access)
      :: t.races
  end

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let feed t ev =
  let lv = level t in
  (* At the bottom rung the clock machinery is frozen: no feeding, no
     new clocks.  Entries recorded before the freeze keep their epochs,
     but the predicate no longer consults them. *)
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
          e_tid = tid;
          e_site = site;
          e_access = access;
          e_lockset = lockset;
          e_clk = Vclock.get vc tid;
        }
      in
      let bucket =
        match Loc.Tbl.find_opt t.history loc with
        | Some b -> b
        | None ->
            let b =
              { b_entries = []; b_epoch = t.mem_events; b_id = t.next_bucket_id }
            in
            t.next_bucket_id <- t.next_bucket_id + 1;
            Loc.Tbl.add t.history loc b;
            b
      in
      bucket.b_epoch <- t.mem_events;
      (* One pass: report conflicts newest first, and collect the
         summaries that the fresh one does not supersede (same
         thread/site/access/lockset), oldest first. *)
      let kept = ref [] and n = ref 0 and superseded = ref 0 in
      List.iter
        (fun old ->
          if conflicting t lv old fresh vc then report t ~loc old fresh;
          if same_summary old fresh then incr superseded
          else begin
            kept := old :: !kept;
            incr n
          end)
        bucket.b_entries;
      if !superseded > 0 then credit t !superseded;
      let n = !n and cap = cap_at t lv in
      (* A degradation step can shrink [cap] under a bucket filled at a
         higher rung; trim the oldest excess before the insert below. *)
      if n > cap then begin
        t.truncations <- t.truncations + (n - cap);
        evict t (n - cap)
      end;
      let live = min n cap in
      (* the [live] newest survivors, oldest first *)
      let kept = drop (n - live) !kept in
      let updated =
        if live >= cap then begin
          t.truncations <- t.truncations + 1;
          evict t 1;
          match lv with
          | Governor.Full ->
              (* drop the oldest entry *)
              fresh :: List.rev (drop 1 kept)
          | Governor.Sampled | Governor.Lockset_only ->
              (* Deterministic reservoir: a hash of the access counter
                 picks which retained summary the newcomer displaces, so
                 survivors are spread over the bucket's lifetime instead
                 of always being the most recent [cap]. *)
              let victim = fnv1a64 t.mem_events mod cap in
              List.mapi
                (fun i old -> if i = victim then fresh else old)
                (List.rev kept)
        end
        else fresh :: List.rev kept
      in
      charge t 1;
      bucket.b_entries <- updated
  | _ -> ()

let races t = List.rev t.races
let pairs t = t.reported
let race_count t = Site.Pair.Set.cardinal t.reported
let truncations t = t.truncations
let mem_events t = t.mem_events
let state_entries t = t.entries_charged
