(** Dense statevector simulator — the stand-in for PennyLane Lightning in
    the paper's Ex. 5. Exact amplitudes, up to 30 qubits.

    Qubit [q] indexes bit [q] of the basis-state index (qubit 0 is the
    least significant bit). The register can grow one qubit at a time to
    serve dynamic allocation (Sec. IV-A).

    Registers up to {!max_local_bits} qubits live in one flat pair of
    re/im arrays; larger ones are sharded into contiguous slices that
    the {!Dpool} Domain pool can own wholesale. Every gate, lone or
    fused, runs as one prepared {!kernel}: a matrix classified once by
    its structure, swept in one pass over the amplitude groups it acts
    on, split across the pool when the register exceeds the parallel
    threshold. The seed's naive full-scan kernels are kept in
    {!Reference} as the correctness oracle and benchmark baseline. *)

type t

val max_qubits : int
(** Hard register cap (30): a 30-qubit state is 16 GiB of amplitudes. *)

val create : ?seed:int -> int -> t
(** [create n] is |0...0> over [n] qubits. Raises [Invalid_argument]
    unless [0 <= n <= max_qubits]. [seed] drives measurement sampling. *)

val num_qubits : t -> int
val dim : t -> int

val local_bits : t -> int
(** log2 of this state's shard size; [n <= local_bits] means a single
    flat shard. *)

val shard_count : t -> int

val max_local_bits : unit -> int
val set_max_local_bits : int -> unit
(** Shard granularity for subsequently created states: each shard holds
    [2^bits] amplitudes (default 24, or [QIR_SIM_LOCAL_BITS]). Lowering
    it forces sharding at small sizes — used by tests to exercise the
    shard-crossing kernels cheaply. Raises [Invalid_argument] unless
    [1 <= bits <= max_qubits]. *)

val checked_access : unit -> bool
val set_checked_access : bool -> unit
(** When set (or [QIR_SIM_CHECKED=1]), the [Bigarray.Array1.unsafe_get/set]
    kernel sweeps re-assert every derived index against the slice
    bounds, turning the enumeration's in-bounds proof back into runtime
    checks. Off by default. *)

val amplitude : t -> int -> Complex.t
val probability : t -> int -> float
(** Probability of the computational basis state with the given index. *)

val probabilities : t -> float array

val marginal : t -> int array -> float array
(** [marginal st qs] is the distribution of the qubits [qs] over
    [2^(length qs)] outcomes, outcome bit [j] being qubit [qs.(j)]. Each
    outcome's probability is summed in ascending basis-index order, so
    the result is bit-identical for flat and sharded states. *)

val add_qubit : t -> unit
(** Tensors |0> onto the high end of the register. *)

val ensure_qubits : t -> int -> unit
(** Grows the register until it has at least [n] qubits. *)

val copy : t -> t
(** An independent copy (flat or sharded) with the same amplitudes,
    layout and measurement-RNG position. *)

val apply : t -> Qcircuit.Gate.t -> int list -> unit
(** Applies a gate to the given qubit operands (operand 0 first, as in
    {!Qcircuit.Gate.matrix}) as a kernel over its matrix. The
    parameter-free gates are classified once; parametric gates classify
    their matrix per call. Raises [Sim_error] on a wrong operand count
    and on duplicate, negative or out-of-range qubits. *)

type kernel
(** A [2^m x 2^m] matrix prepared for [m] qubits: its structure class
    (a 2x2 block on two sub-states, diagonal, monomial or sparse), the
    index offsets of its sub-states and the class's sweep data — the
    monomial move program, the sparse rows and their pairing — so
    applying it never classifies or compiles anything. *)

val kernel : Complex.t array array -> int array -> kernel
(** [kernel u qs] prepares the [2^m x 2^m] matrix [u] over the [m]
    distinct qubits [qs]. Matrix basis bit [j] corresponds to
    [qs.(j)], least significant first (the reverse of
    {!Qcircuit.Gate.matrix}'s operand order). Raises [Sim_error] on an
    empty or over-8-qubit set, a matrix of the wrong size, and
    duplicate or negative qubits or qubits at or above {!max_qubits}. *)

val apply_kernel : t -> kernel -> unit
(** One pass over the amplitudes. Raises [Sim_error], before touching
    any amplitude, when a kernel qubit is outside the register. *)

val apply_cluster : t -> Complex.t array array -> int array -> unit
(** [apply_cluster st u qs] is [apply_kernel st (kernel u qs)]. *)

val prob_one : t -> int -> float
(** Probability that measuring qubit [q] yields 1 (non-destructive).
    Clamped to [0, 1] against accumulated rounding. *)

val collapse : t -> int -> bool -> float -> unit
(** [collapse st q outcome p] projects qubit [q] onto [outcome] and
    renormalizes by [p], the outcome's probability (guarded against
    denormal values). *)

val measure : t -> int -> bool
(** Samples and collapses qubit [q]. The collapse renormalization is
    guarded against denormal branch probabilities, so long circuits
    cannot produce NaN amplitudes. *)

val reset : t -> int -> unit
val expectation_z : t -> int -> float

val cond_holds : bool array -> Qcircuit.Circuit.cond option -> bool
(** Whether a classical condition holds under the given clbit values. *)

val run_circuit : ?seed:int -> Qcircuit.Circuit.t -> t * bool array
(** Executes a whole circuit (including measurements, resets and
    conditions); returns the final state and the classical bits. *)

val inner_product : t -> t -> Complex.t
val fidelity : t -> t -> float
(** [|<a|b>|^2]; 1 iff the states coincide up to global phase. *)

(** The seed engine's naive kernels, kept verbatim: full 2^n scans with
    a complex matrix multiply for every gate, single-threaded. Tests
    verify every fast path against these; benchmarks measure speedups
    relative to them. *)
module Reference : sig
  val apply_1q : t -> Complex.t array array -> int -> unit
  val apply_2q : t -> Complex.t array array -> int -> int -> unit
  val apply : t -> Qcircuit.Gate.t -> int list -> unit
  val run_circuit : ?seed:int -> Qcircuit.Circuit.t -> t * bool array
end
