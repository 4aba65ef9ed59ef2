(** Deterministic pseudo-random number generation.

    RaceFuzzer's replay guarantee (paper §2.2: "we can trivially replay a
    concurrent execution by picking the same seed for random number
    generation") requires that every source of nondeterminism in the engine
    draws from a single seeded stream.  We implement SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014), a small, fast, well-distributed
    generator with a trivially serializable 64-bit state. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let of_int64 state = { state }

let copy t = { state = t.state }

let state t = t.state
let set_state t s = t.state <- s

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A fresh generator whose seed is drawn from [t]; streams are
   statistically independent. *)
let split t = { state = next_int64 t }

let bool t = Int64.equal (Int64.logand (next_int64 t) 1L) 1L

(* Uniform int in [0, bound).  Rejection sampling over the low 62 bits keeps
   the distribution exact for any bound representable as a positive int. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = 0x3FFF_FFFF_FFFF_FFFFL in
  (* [r] is in [0, 2^62); avoid modulo bias by rejecting the tail.  A
     loop rather than a local recursive function, so that a draw — one
     per scheduler consultation — allocates no closure. *)
  let limit = max_int - (max_int mod bound) in
  let r = ref (Int64.to_int (Int64.logand (next_int64 t) mask)) in
  while !r >= limit do
    r := Int64.to_int (Int64.logand (next_int64 t) mask)
  done;
  !r mod bound

let float t =
  (* 53 random bits scaled to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let pick_arr t a =
  if Array.length a = 0 then invalid_arg "Prng.pick_arr: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pp ppf t = Fmt.pf ppf "prng<%Ld>" t.state
