(** The one commute-or-stop scan and the circuit optimizer built on it.
    Identity gates (e.g. [rz(0)]) are removed, and inverse (or
    mergeable) gate pairs on the same qubits are combined when adjacent
    or separated only by operations they provably commute with — e.g.
    [x q1; cx q0,q1; x q1] reduces to the CX alone. The circuit-level
    counterpart of the classical optimizations QIR inherits from LLVM
    (benchmark E8). The QIR dataflow optimizer ([Qdf_opt]) runs the
    same {!scan} over its per-block wire index.

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

type combined =
  | Cancel  (** the two gates are inverses *)
  | Identity  (** they merge into an identity *)
  | Merged of Gate.t  (** they merge into this gate *)

val combine : Gate.t -> Gate.t -> combined option
(** [combine g g2]: what [g] then [g2] on the same qubits become; [None]
    when they neither cancel nor merge. The one rule, shared with the
    QIR dataflow optimizer. *)

type stats = {
  cancelled : int;  (** inverse pairs removed *)
  merged : int;  (** pairs merged into one gate or an identity *)
  removed_identities : int;  (** lone identities and identity merges *)
}

val scan :
  ?note:(int -> Gate.t -> Gate.t -> combined -> unit) ->
  wires:int ->
  own:int list array ->
  start:(int -> Gate.t option) ->
  commutes:(Gate.t -> int list -> int -> bool) ->
  write:(int -> Gate.t -> bool) ->
  bool array ->
  int list array ->
  stats
(** [scan ~wires ~own ~start ~commutes ~write alive on]: the one
    commute-or-stop loop over ops [0 .. Array.length on - 1]; [own.(j)]
    lists the wires (below [wires]) op [j] names, [on.(j)] every wire it
    may touch. Each op [i] still [alive] that [start] gives an exact
    gate [g] walks in order the later live ops on its wires [qs]. An op
    [j] that [start] accepts on exactly [qs] combines with [i] by
    {!combine}:
    a cancel or an identity kills both, a merge kills [i] once
    [write j m] took the merged gate. Any other op is stepped past when
    [commutes g qs j] and stops the walk when not. [note i g g2 c] hears
    of each combination; [removed_identities] counts identity merges. *)

val optimize : Circuit.t -> Circuit.t * stats
(** One pass over the circuit. *)

val optimize_fixpoint : ?max_rounds:int -> Circuit.t -> Circuit.t * stats
(** Iterates {!optimize} until no further reduction (or [max_rounds],
    default 16). *)
