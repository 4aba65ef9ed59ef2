(** Happens-before clock builder.

    Consumes the event stream of a run and assigns every event a vector
    clock such that [Vclock.leq (clock e1) (clock e2)] iff e1 happens-before
    (or equals) e2 under the chosen edge policy.

    Two policies are needed (paper §2.1 vs related work [44]):

    - [lock_edges = false]: edges are program order plus the SND/RCV
      messages generated at thread start, join, and notify→wait.  This is
      the *weak* relation used by hybrid race detection — deliberately
      ignoring lock release→acquire ordering so that accesses merely
      serialized by a lock still count as concurrent (that is what makes
      the technique predictive, and imprecise).

    - [lock_edges = true]: additionally order each lock release before every
      later acquire of the same lock.  This yields the classical precise
      happens-before relation of Schonberg-style detectors.

    State growth is dominated by [msgs] (one clock per SND, never
    reclaimed: any future RCV may still match it).  Under a resource
    governor each table entry is charged against the shared budget, and
    on degradation the {e lowest} message ids are evicted — they are the
    oldest messages, hence the least likely to still have an unmatched
    receive.  An evicted message's RCV simply contributes no edge, which
    weakens (never strengthens) the happens-before relation: degraded
    runs can only over-report concurrency, preserving the hybrid
    detector's predictive direction. *)

open Rf_events
open Rf_vclock
open Rf_resource

type t = {
  lock_edges : bool;
  governor : Governor.t option;
  threads : (int, Vclock.t) Hashtbl.t;
  msgs : (int, Vclock.t) Hashtbl.t;
  lock_release : (int, Vclock.t) Hashtbl.t;
  mutable msg_evictions : int;
}

(* Shed the lowest-id half of the message clocks.  Deterministic: the
   surviving set depends only on the key set, never on hash order. *)
let compact_msgs t =
  let n = Hashtbl.length t.msgs in
  if n > 1 then begin
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.msgs [] in
    let keys = List.sort compare keys in
    let drop = n / 2 in
    List.iteri (fun i k -> if i < drop then Hashtbl.remove t.msgs k) keys;
    t.msg_evictions <- t.msg_evictions + drop;
    match t.governor with Some g -> Governor.evict g drop | None -> ()
  end

let create ?governor ~lock_edges () =
  let t =
    {
      lock_edges;
      governor;
      threads = Hashtbl.create 16;
      msgs = Hashtbl.create 64;
      lock_release = Hashtbl.create 16;
      msg_evictions = 0;
    }
  in
  (match governor with
  | Some g -> Governor.subscribe g (fun _level -> compact_msgs t)
  | None -> ());
  t

let charge_new t tbl key =
  match t.governor with
  | Some g when not (Hashtbl.mem tbl key) -> Governor.charge g 1
  | _ -> ()

let thread_clock t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some c -> c
  | None -> Vclock.bottom

let msg_evictions t = t.msg_evictions

(* An older event of [tid] at epoch [clk] is ordered before a later
   event of another thread iff that thread has seen [tid]'s clock at
   [clk] or beyond; the reverse order is impossible, since the later
   event's own tick is unknown to anything fed before it. *)
let epoch_concurrent ~tid ~clk vc = clk > Vclock.get vc tid

(** Process one event; returns the event's vector clock. *)
let feed t ev =
  let tid = Event.tid ev in
  let c = thread_clock t tid in
  (* Incoming edges join into the thread clock before the event ticks. *)
  let c =
    match ev with
    | Event.Rcv { msg; _ } -> (
        match Hashtbl.find_opt t.msgs msg with
        | Some m -> Vclock.join c m
        | None -> c (* unmatched (or evicted) receive: no edge *))
    | Event.Acquire { lock; _ } when t.lock_edges -> (
        match Hashtbl.find_opt t.lock_release lock with
        | Some r -> Vclock.join c r
        | None -> c)
    | _ -> c
  in
  let c = Vclock.tick c tid in
  charge_new t t.threads tid;
  Hashtbl.replace t.threads tid c;
  (* Outgoing edges snapshot the thread clock after the tick. *)
  (match ev with
  | Event.Snd { msg; _ } ->
      charge_new t t.msgs msg;
      Hashtbl.replace t.msgs msg c
  | Event.Release { lock; _ } when t.lock_edges ->
      charge_new t t.lock_release lock;
      Hashtbl.replace t.lock_release lock c
  | _ -> ());
  c
