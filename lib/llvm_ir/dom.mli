(** Dominator tree and dominance frontiers (Cooper-Harvey-Kennedy
    iterative algorithm) over the reachable blocks, in {!Cfg}'s
    numbering. Used by mem2reg for phi placement, by the verifier and by
    natural-loop detection. *)

type t

val compute : Cfg.t -> t

val idom : t -> string -> string option
(** Immediate dominator; [None] for the entry block. *)

val children : t -> string -> string list
(** Dominator-tree children, by label, descending. *)

val frontier : t -> string -> string list
(** Dominance frontier, latest in reverse postorder first. *)

val dominates : t -> string -> string -> bool
(** [dominates t a b]: does block [a] dominate block [b]? (Reflexive.)
    Constant time. *)

val dominates_index : t -> int -> int -> bool
(** {!dominates} on reachable {!Cfg} indices. *)
