(* The gate set: a closed union covering the common OpenQASM / QIR gate
   vocabulary. Parametric gates carry their angles. *)

type t =
  | I
  | H
  | X
  | Y
  | Z
  | S
  | Sdg
  | T
  | Tdg
  | Sx
  | Sxdg
  | Rx of float
  | Ry of float
  | Rz of float
  | P of float (* phase gate, a.k.a. u1 *)
  | U of float * float * float (* generic single-qubit u3(theta, phi, lambda) *)
  | Cx
  | Cy
  | Cz
  | Ch
  | Swap
  | Crx of float
  | Cry of float
  | Crz of float
  | Cp of float
  | Cu of float * float * float
  | Ccx
  | Cswap

let num_qubits = function
  | I | H | X | Y | Z | S | Sdg | T | Tdg | Sx | Sxdg | Rx _ | Ry _ | Rz _
  | P _ | U _ ->
    1
  | Cx | Cy | Cz | Ch | Swap | Crx _ | Cry _ | Crz _ | Cp _ | Cu _ -> 2
  | Ccx | Cswap -> 3

let params = function
  | Rx t | Ry t | Rz t | P t | Crx t | Cry t | Crz t | Cp t -> [ t ]
  | U (a, b, c) | Cu (a, b, c) -> [ a; b; c ]
  | I | H | X | Y | Z | S | Sdg | T | Tdg | Sx | Sxdg | Cx | Cy | Cz | Ch
  | Swap | Ccx | Cswap ->
    []

(* The adjoint gate. *)
let inverse = function
  | I -> I
  | H -> H
  | X -> X
  | Y -> Y
  | Z -> Z
  | S -> Sdg
  | Sdg -> S
  | T -> Tdg
  | Tdg -> T
  | Sx -> Sxdg
  | Sxdg -> Sx
  | Rx t -> Rx (-.t)
  | Ry t -> Ry (-.t)
  | Rz t -> Rz (-.t)
  | P t -> P (-.t)
  | U (a, b, c) -> U (-.a, -.c, -.b)
  | Cx -> Cx
  | Cy -> Cy
  | Cz -> Cz
  | Ch -> Ch
  | Swap -> Swap
  | Crx t -> Crx (-.t)
  | Cry t -> Cry (-.t)
  | Crz t -> Crz (-.t)
  | Cp t -> Cp (-.t)
  | Cu (a, b, c) -> Cu (-.a, -.c, -.b)
  | Ccx -> Ccx
  | Cswap -> Cswap

let is_self_inverse g =
  match g with
  | I | H | X | Y | Z | Cx | Cy | Cz | Ch | Swap | Ccx | Cswap -> true
  | S | Sdg | T | Tdg | Sx | Sxdg | Rx _ | Ry _ | Rz _ | P _ | U _ | Crx _
  | Cry _ | Crz _ | Cp _ | Cu _ ->
    false

(* Clifford-group membership (for routing to the stabilizer backend). *)
let is_clifford = function
  | I | H | X | Y | Z | S | Sdg | Cx | Cy | Cz | Swap -> true
  | Sx | Sxdg -> true
  | T | Tdg | Rx _ | Ry _ | Rz _ | P _ | U _ | Ch | Crx _ | Cry _ | Crz _
  | Cp _ | Cu _ | Ccx | Cswap ->
    false

(* Merging two adjacent rotations about the same axis. *)
let merge a b =
  match a, b with
  | Rx t1, Rx t2 -> Some (Rx (t1 +. t2))
  | Ry t1, Ry t2 -> Some (Ry (t1 +. t2))
  | Rz t1, Rz t2 -> Some (Rz (t1 +. t2))
  | P t1, P t2 -> Some (P (t1 +. t2))
  | Crx t1, Crx t2 -> Some (Crx (t1 +. t2))
  | Cry t1, Cry t2 -> Some (Cry (t1 +. t2))
  | Crz t1, Crz t2 -> Some (Crz (t1 +. t2))
  | Cp t1, Cp t2 -> Some (Cp (t1 +. t2))
  | S, S -> Some Z
  | T, T -> Some S
  | Sdg, Sdg -> Some Z
  | Tdg, Tdg -> Some Sdg
  | _ -> None

let two_pi = 4.0 *. Float.pi

(* A rotation whose angle is an integer multiple of 4*pi (the period of
   Rx/Ry/Rz as unitaries including global phase for our purposes) is the
   identity; P has period 2*pi. *)
let is_identity ?(eps = 1e-12) g =
  let near_multiple x period =
    let r = Float.rem (Float.abs x) period in
    r < eps || period -. r < eps
  in
  match g with
  | I -> true
  | Rx t | Ry t | Rz t | Crx t | Cry t | Crz t -> near_multiple t two_pi
  | P t | Cp t -> near_multiple t (2.0 *. Float.pi)
  | U (a, b, c) ->
    near_multiple a two_pi && near_multiple (b +. c) (2.0 *. Float.pi)
  | H | X | Y | Z | S | Sdg | T | Tdg | Sx | Sxdg | Cx | Cy | Cz | Ch | Swap
  | Cu _ | Ccx | Cswap ->
    false

(* ------------------------------------------------------------------ *)
(* Matrices                                                             *)

let c re im = { Complex.re; im }
let c0 = Complex.zero
let c1 = Complex.one
let ci = c 0.0 1.0
let cneg1 = c (-1.0) 0.0
let cnegi = c 0.0 (-1.0)
let expi t = c (cos t) (sin t)
let inv_sqrt2 = 1.0 /. sqrt 2.0

(* u3(theta, phi, lambda) in the OpenQASM convention. *)
let u3_matrix theta phi lambda =
  let ct = cos (theta /. 2.0) and st = sin (theta /. 2.0) in
  [|
    [| c ct 0.0; Complex.neg (Complex.mul (expi lambda) (c st 0.0)) |];
    [|
      Complex.mul (expi phi) (c st 0.0);
      Complex.mul (expi (phi +. lambda)) (c ct 0.0);
    |];
  |]

let matrix_1q = function
  | I -> [| [| c1; c0 |]; [| c0; c1 |] |]
  | H ->
    [|
      [| c inv_sqrt2 0.0; c inv_sqrt2 0.0 |];
      [| c inv_sqrt2 0.0; c (-.inv_sqrt2) 0.0 |];
    |]
  | X -> [| [| c0; c1 |]; [| c1; c0 |] |]
  | Y -> [| [| c0; cnegi |]; [| ci; c0 |] |]
  | Z -> [| [| c1; c0 |]; [| c0; cneg1 |] |]
  | S -> [| [| c1; c0 |]; [| c0; ci |] |]
  | Sdg -> [| [| c1; c0 |]; [| c0; cnegi |] |]
  | T -> [| [| c1; c0 |]; [| c0; expi (Float.pi /. 4.0) |] |]
  | Tdg -> [| [| c1; c0 |]; [| c0; expi (-.Float.pi /. 4.0) |] |]
  | Sx ->
    let a = c 0.5 0.5 and b = c 0.5 (-0.5) in
    [| [| a; b |]; [| b; a |] |]
  | Sxdg ->
    let a = c 0.5 (-0.5) and b = c 0.5 0.5 in
    [| [| a; b |]; [| b; a |] |]
  | Rx t ->
    let ct = cos (t /. 2.0) and st = sin (t /. 2.0) in
    [| [| c ct 0.0; c 0.0 (-.st) |]; [| c 0.0 (-.st); c ct 0.0 |] |]
  | Ry t ->
    let ct = cos (t /. 2.0) and st = sin (t /. 2.0) in
    [| [| c ct 0.0; c (-.st) 0.0 |]; [| c st 0.0; c ct 0.0 |] |]
  | Rz t ->
    [| [| expi (-.t /. 2.0); c0 |]; [| c0; expi (t /. 2.0) |] |]
  | P t -> [| [| c1; c0 |]; [| c0; expi t |] |]
  | U (a, b, cc) -> u3_matrix a b cc
  | g ->
    invalid_arg
      (Printf.sprintf "Gate.matrix_1q: %d-qubit gate" (num_qubits g))

(* Two-qubit matrices in the convention that qubit operand 0 (the control
   for controlled gates) indexes the *most significant* bit of the 2-bit
   basis state: basis order |q0 q1> = 00, 01, 10, 11. *)
let controlled u =
  [|
    [| c1; c0; c0; c0 |];
    [| c0; c1; c0; c0 |];
    [| c0; c0; u.(0).(0); u.(0).(1) |];
    [| c0; c0; u.(1).(0); u.(1).(1) |];
  |]

let matrix_2q = function
  | Cx -> controlled (matrix_1q X)
  | Cy -> controlled (matrix_1q Y)
  | Cz -> controlled (matrix_1q Z)
  | Ch -> controlled (matrix_1q H)
  | Crx t -> controlled (matrix_1q (Rx t))
  | Cry t -> controlled (matrix_1q (Ry t))
  | Crz t -> controlled (matrix_1q (Rz t))
  | Cp t -> controlled (matrix_1q (P t))
  | Cu (a, b, cc) -> controlled (u3_matrix a b cc)
  | Swap ->
    [|
      [| c1; c0; c0; c0 |];
      [| c0; c0; c1; c0 |];
      [| c0; c1; c0; c0 |];
      [| c0; c0; c0; c1 |];
    |]
  | g ->
    invalid_arg
      (Printf.sprintf "Gate.matrix_2q: %d-qubit gate" (num_qubits g))

(* Three-qubit matrices, operand 0 the most significant bit as in
   [matrix_2q]: basis order |q0 q1 q2>. Both are transpositions: CCX
   exchanges |110> and |111>, CSWAP |101> and |110>. *)
let matrix_3q g =
  let exchange a b =
    Array.init 8 (fun r ->
        let src = if r = a then b else if r = b then a else r in
        Array.init 8 (fun col -> if col = src then c1 else c0))
  in
  match g with
  | Ccx -> exchange 6 7
  | Cswap -> exchange 5 6
  | g ->
    invalid_arg
      (Printf.sprintf "Gate.matrix_3q: %d-qubit gate" (num_qubits g))

let matrix g =
  match num_qubits g with
  | 1 -> matrix_1q g
  | 2 -> matrix_2q g
  | _ -> matrix_3q g

(* ------------------------------------------------------------------ *)
(* Names (OpenQASM spelling)                                            *)

let name = function
  | I -> "id"
  | H -> "h"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | Sx -> "sx"
  | Sxdg -> "sxdg"
  | Rx _ -> "rx"
  | Ry _ -> "ry"
  | Rz _ -> "rz"
  | P _ -> "p"
  | U _ -> "u3"
  | Cx -> "cx"
  | Cy -> "cy"
  | Cz -> "cz"
  | Ch -> "ch"
  | Swap -> "swap"
  | Crx _ -> "crx"
  | Cry _ -> "cry"
  | Crz _ -> "crz"
  | Cp _ -> "cp"
  | Cu _ -> "cu3"
  | Ccx -> "ccx"
  | Cswap -> "cswap"

let equal a b =
  match a, b with
  | Rx x, Rx y | Ry x, Ry y | Rz x, Rz y | P x, P y | Crx x, Crx y
  | Cry x, Cry y | Crz x, Crz y | Cp x, Cp y ->
    Float.equal x y
  | U (a1, b1, c1), U (a2, b2, c2) | Cu (a1, b1, c1), Cu (a2, b2, c2) ->
    Float.equal a1 a2 && Float.equal b1 b2 && Float.equal c1 c2
  | _ -> a = b

let pp ppf g =
  match params g with
  | [] -> Format.pp_print_string ppf (name g)
  | ps ->
    Format.fprintf ppf "%s(%a)" (name g)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf x -> Format.fprintf ppf "%g" x))
      ps

let to_string g = Format.asprintf "%a" pp g
