(** The gate vocabulary: a closed union covering the common OpenQASM and
    QIR gate sets. Parametric gates carry their angles (radians). *)

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
  | P of float  (** phase gate (OpenQASM [u1]/[p]) *)
  | U of float * float * float  (** generic [u3(theta, phi, lambda)] *)
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

val num_qubits : t -> int
(** Number of qubit operands (1, 2 or 3). *)

val params : t -> float list
(** The gate's angle parameters, in OpenQASM order. *)

val inverse : t -> t
(** The adjoint gate. *)

val is_self_inverse : t -> bool
val is_clifford : t -> bool

val merge : t -> t -> t option
(** [merge a b] is the single gate equal to applying [a] then [b] on the
    same qubits, when one exists (rotations about the same axis, S·S=Z,
    T·T=S, ...). *)

val is_identity : ?eps:float -> t -> bool
(** Whether the gate acts as the identity (up to global phase), e.g. a
    rotation by a multiple of 4*pi. *)

val matrix_1q : t -> Complex.t array array
(** 2x2 unitary of a single-qubit gate. Raises [Invalid_argument] on
    multi-qubit gates. *)

val matrix_2q : t -> Complex.t array array
(** 4x4 unitary of a two-qubit gate in the basis |q0 q1> where operand 0
    (the control, for controlled gates) is the most significant bit.
    Raises [Invalid_argument] otherwise. *)

val matrix_3q : t -> Complex.t array array
(** 8x8 unitary of a three-qubit gate in the basis |q0 q1 q2> where
    operand 0 is the most significant bit, as in {!matrix_2q}. Raises
    [Invalid_argument] otherwise. *)

val matrix : t -> Complex.t array array
(** The unitary of any gate: {!matrix_1q}, {!matrix_2q} or {!matrix_3q}
    by arity. *)

val name : t -> string
(** OpenQASM spelling ([h], [cx], [rz], ...). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
