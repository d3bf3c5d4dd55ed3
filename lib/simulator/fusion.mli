(** Gate fusion for the statevector engine: a cost-aware clustering
    pass that groups adjacent gates sharing qubits into dense unitaries
    over at most [k] qubits (default 4, [QIR_SIM_CLUSTER_K], clamped to
    2..6) — so the engine sweeps the amplitude arrays far fewer times
    per circuit.

    A merge fires only when the engine-cost model says the merged
    kernel is no more expensive than the kernels it replaces: diagonal
    and monomial (permutation-with-phases) cluster matrices are cheap
    at any width, so Clifford+T runs collapse into wide one-sweep
    clusters, while dense matrices are never grown past what the
    replaced gates would have cost.

    Measurements, resets, barriers and conditioned operations act as
    fusion barriers on the qubits they touch. *)

type step =
  | Mat1 of Statevector.kernel  (** a 1-qubit matrix *)
  | Mat2 of Statevector.kernel  (** a 2-qubit matrix *)
  | Cluster of Statevector.kernel  (** a matrix over 3 or more qubits *)
  | Op of Qcircuit.Circuit.op
      (** pass-through: measurements, resets, barriers, conditioned
          operations, gates wider than the cluster cap and gates with
          malformed operands (which raise when applied) *)
(** Every fusable gate, fused or lone, is a prepared kernel: applying a
    plan step never classifies a matrix. *)

type stats = {
  ops_in : int;
  steps_out : int;
  fused_1q : int;  (** 1q gates merged into a 1-qubit cluster *)
  absorbed_1q : int;  (** 1q gates folded into a wider cluster *)
  fused_2q : int;  (** 2q gates merged into a cluster *)
  fused_3q : int;  (** 3q gates merged into a cluster *)
  clusters_emitted : int;
      (** [Cluster] steps fused from two or more gates (3+ qubits) *)
  clustered_gates : int;  (** source gates inside those [Cluster] steps *)
  identities_dropped : int;
}

val plan : ?k:int -> Qcircuit.Circuit.t -> step list * stats
(** One linear walk over the circuit; the plan preserves per-qubit
    operation order. [k] caps the cluster width (clamped to 2..6). *)

val apply_plan : Statevector.t -> bool array -> step list -> unit
(** Executes a plan against a state, reading/writing classical bits for
    measurements and conditions. *)

val run_circuit :
  ?seed:int -> ?k:int -> Qcircuit.Circuit.t -> Statevector.t * bool array
(** Drop-in replacement for {!Statevector.run_circuit} that fuses
    first. RNG consumption order is identical, so classical outcomes
    match the unfused engine for a fixed seed. *)
