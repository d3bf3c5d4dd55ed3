(** Deterministic splitmix64 RNG, so tests and benchmarks are reproducible
    without touching the global [Random] state. *)

type t

val create : int -> t
(** [create seed]. Equal seeds give equal streams. *)

val copy : t -> t
(** An independent generator continuing the same stream. *)

val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] when [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool
