(* Deterministic splitmix64 RNG, so tests and benchmarks are reproducible
   without depending on the global [Random] state. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* Uniform float in [0, 1). *)
let float t =
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float r /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L
