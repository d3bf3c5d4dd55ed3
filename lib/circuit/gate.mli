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

val flat_matrix : t -> float array * float array
(** The unitary of any gate as row-major real and imaginary parts: entry
    (r, c) of the [2^n x 2^n] matrix is [re.(r * 2^n + c)] +
    i [im.(r * 2^n + c)]. The basis index puts operand 0 (the control,
    for controlled gates) on its most significant bit: |q0 q1> for two
    qubits, |q0 q1 q2> for three. Fresh arrays on every call. *)

val matrix : t -> Complex.t array array
(** {!flat_matrix} as rows of complex entries, for the reference
    engines and tests. *)

val name : t -> string
(** OpenQASM spelling ([h], [cx], [rz], ...). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
