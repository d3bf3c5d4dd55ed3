(** Shot-branching sampling. Terminal measurements (unconditioned, with
    no later operation on their qubit or clbit) are drawn from the final
    distribution; every other measurement and every reset is a branch
    point where the walker splits the shot count with the seeded RNG and
    continues each non-empty branch depth-first, so a run costs at most
    [min(2^k, shots)] fused simulations for [k] branch points and keeps
    at most [min(k, floor(log2 shots)) + 1] states live. Classically
    conditioned operations read the branch's fixed clbits. With no
    branch point the run is one fused simulation and one draw loop. *)

type plan
(** A circuit prepared for sampling: the {!Fusion} plan of the circuit
    without its terminal measurements, and the histogram key layout. *)

type stats = {
  branches : int;  (** leaves reached: fused simulations run *)
  peak_states : int;  (** most statevectors live at once *)
}

exception Stopped
(** Raised by {!run} when its [stop] probe fires at a branch point. *)

val prepare : ?key:int list -> Qcircuit.Circuit.t -> plan
(** [key] lists the clbits a histogram key reads, in key order; by
    default every measured clbit in ascending order. *)

val branch_points : plan -> int
(** [k]: the non-terminal measurements and resets of the circuit. *)

val run :
  ?seed:int -> ?stop:(unit -> bool) -> shots:int -> plan ->
  (string * int) list * stats
(** [run ~shots p] is a sorted histogram keyed by the plan's key clbits
    (the per-shot executor's key format), and the run's stats. [stop] is
    polled at each branch point. Raises {!Sim_error.Error} on a negative
    shot count. *)

val sample :
  ?seed:int -> ?fuse:bool -> shots:int -> Qcircuit.Circuit.t ->
  (string * int) list
(** [sample ~shots c] is [fst (run ~shots (prepare c))]; [fuse = false]
    runs the ops unfused. Accepts every circuit: mid-circuit
    measurements, resets and classical conditions branch. *)

val strip_measurements : Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** The circuit with all measurements removed. *)
