(** The engine's enabled set, updated at every enabledness transition so
    that presenting it to a strategy costs nothing per consultation. *)

open Rf_util

type entry = { tid : int; tname : string; mutable pend : Op.pend }

type t = {
  mutable vstep : int;
  vprng : Prng.t;
  mutable rows : entry array;  (* index = tid; first [n_rows] slots *)
  mutable n_rows : int;
  mutable on : Bytes.t;  (* index = tid; '\001' iff enabled *)
  mutable sorted : int array;  (* enabled tids, ascending; first [n_on] *)
  mutable n_on : int;
  mutable adds : int array;  (* scratch for [set_enabled_each] *)
}

let[@inline] is_enabled v tid =
  tid >= 0 && tid < v.n_rows && Bytes.get v.on tid = '\001'

let create prng =
  {
    vstep = 0;
    vprng = prng;
    rows = [||];
    n_rows = 0;
    on = Bytes.empty;
    sorted = [||];
    n_on = 0;
    adds = [||];
  }

let add_thread v ~name =
  let tid = v.n_rows in
  let row = { tid; tname = name; pend = Op.P_start } in
  let cap = Array.length v.rows in
  if tid = cap then begin
    let cap' = max 8 (2 * cap) in
    let rows = Array.make cap' row in
    Array.blit v.rows 0 rows 0 cap;
    v.rows <- rows;
    let on = Bytes.make cap' '\000' in
    Bytes.blit v.on 0 on 0 cap;
    v.on <- on;
    let sorted = Array.make cap' 0 in
    Array.blit v.sorted 0 sorted 0 v.n_on;
    v.sorted <- sorted;
    v.adds <- Array.make cap' 0
  end;
  v.rows.(tid) <- row;
  v.n_rows <- tid + 1;
  tid

let set_pend v tid pend = v.rows.(tid).pend <- pend
let set_step v s = v.vstep <- s

(* Insertion-sort steps over the sorted array: a flip moves only the
   enabled entries above [tid], so the common cases — a fork appending
   the largest tid, a lock contender among a few threads — touch one or a
   few slots, with no search and no C call. *)
let flip v tid b =
  let a = v.sorted in
  if b then begin
    let j = ref v.n_on in
    while !j > 0 && a.(!j - 1) > tid do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- tid;
    v.n_on <- v.n_on + 1;
    Bytes.set v.on tid '\001'
  end
  else begin
    (* shift every entry above [tid] down one slot, from the top *)
    let j = ref (v.n_on - 1) in
    let carry = ref a.(!j) in
    while !carry <> tid do
      let c = a.(!j - 1) in
      a.(!j - 1) <- !carry;
      carry := c;
      decr j
    done;
    v.n_on <- v.n_on - 1;
    Bytes.set v.on tid '\000'
  end

let[@inline] set_enabled v tid b = if is_enabled v tid <> b then flip v tid b

(* A batch: every tid is re-evaluated first, flipping only its byte, and
   the sorted array is then fixed up once — survivors compacted in one
   pass, newcomers sorted among themselves and merged in from the top. *)
let set_enabled_each v tids f =
  let removed = ref false and k = ref 0 in
  List.iter
    (fun tid ->
      let b = f tid in
      if is_enabled v tid <> b then begin
        Bytes.set v.on tid (if b then '\001' else '\000');
        if b then begin
          v.adds.(!k) <- tid;
          incr k
        end
        else removed := true
      end)
    tids;
  let a = v.sorted in
  if !removed then begin
    (* keep the entries still enabled ('\001' counts 1, '\000' counts 0) *)
    let w = ref 0 in
    for i = 0 to v.n_on - 1 do
      let t = a.(i) in
      a.(!w) <- t;
      w := !w + Char.code (Bytes.get v.on t)
    done;
    v.n_on <- !w
  end;
  let k = !k and p = v.adds in
  if k > 0 then begin
    for x = 1 to k - 1 do
      let t = p.(x) in
      let j = ref x in
      while !j > 0 && p.(!j - 1) > t do
        p.(!j) <- p.(!j - 1);
        decr j
      done;
      p.(!j) <- t
    done;
    let i = ref (v.n_on - 1) and j = ref (k - 1) in
    for w = v.n_on + k - 1 downto 0 do
      if !j >= 0 && (!i < 0 || p.(!j) > a.(!i)) then begin
        a.(w) <- p.(!j);
        decr j
      end
      else begin
        a.(w) <- a.(!i);
        decr i
      end
    done;
    v.n_on <- v.n_on + k
  end
