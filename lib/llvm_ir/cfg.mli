(** Control-flow graph of a function, numbered once — the substrate for
    dominators, loops, dataflow and every per-block analysis.

    Each block has an index. Indices [0 .. size - 1] are the blocks
    reachable from the entry, in reverse postorder (the entry is [0]);
    indices [size .. count - 1] are the unreachable blocks, in function
    order. A label names its first block, as in the interpreters; a
    branch to a label no block carries is not an edge. *)

type t

val of_func : Func.t -> t
(** Raises [Invalid_argument] on declarations. *)

val size : t -> int
(** The number of reachable blocks. *)

val count : t -> int
(** The number of numbered blocks, reachable or not. *)

val index : t -> string -> int option
val label : t -> int -> string
val block_at : t -> int -> Block.t

val succ : t -> int -> int array
(** Successor indices in terminator order, one per edge. *)

val pred : t -> int -> int array
(** Predecessor indices, reachable or not, one per edge, ordered by
    label, descending. *)

val numbered : t -> Block.t list -> (Block.t * int option) list
(** [numbered cfg f.blocks]: each block with its index; [None] for a
    block whose label an earlier block carries. *)

val entry : t -> string
(** The entry block's label. *)

val target : t -> int -> string -> int option
(** [target cfg i l]: {!index} of [l], a branch target of block [i]. *)

val block : t -> string -> Block.t
(** Raises [Not_found]. *)

val predecessors : t -> string -> string list
(** The labels of {!pred}. *)

val is_reachable : t -> string -> bool

val straight_chain : t -> Block.t list option
(** The blocks from the entry to a [ret] when the function is one
    straight line of unconditional branches (they are the blocks of
    indices [0, 1, ...]); [None] for any branching, looping or
    [unreachable]-ended control flow. *)
