(** Commutation-aware gate cancellation: inverse (or mergeable) gate
    pairs separated by operations they provably commute with are still
    combined — e.g. [x q1; cx q0,q1; x q1] reduces to the CX alone.
    Extends {!Circuit_opt}, which only combines directly adjacent gates.

    The commutation table is conservative: diagonal gates commute with
    each other and through control roles; X-axis gates commute through CX
    targets; nothing commutes across conditions, measurements, resets or
    barriers. *)

val gate_commutes : Gate.t -> int list -> Gate.t -> int list -> bool
(** [gate_commutes g qs g2 qs2]: does [g] on [qs] commute with [g2] on
    [qs2]? The gate-level commutation table, shared with the QIR
    dataflow optimizer. Only meaningful when the two share a qubit. *)

val commutes : Gate.t -> int list -> Circuit.op -> bool
(** [commutes g qs op]: {!gate_commutes} against a gate [op]; false for
    conditioned operations, measurements, resets and barriers. *)

type stats = { cancelled : int; merged : int }

val optimize : Circuit.t -> Circuit.t * stats
val optimize_fixpoint : ?max_rounds:int -> Circuit.t -> Circuit.t * stats
