(** The one constant solver: sparse conditional constant propagation
    (Wegman-Zadeck) on {!Llvm_ir.Dataflow.Forward}. Values move up
    Unknown < Cst c < Varying while edge feasibility grows; a phi meets
    only executable incoming edges, a select under a varying condition
    joins its arms, and a GEP over a constant address folds to the
    address {!Llvm_ir.Bc_exec} computes. The [sccp] pass substitutes the
    solution; {!Qir_analysis.Const_addr} proves addresses from it. *)

open Llvm_ir

type lattice = Unknown | Cst of Constant.t | Varying

val join : lattice -> lattice -> lattice
val equal : lattice -> lattice -> bool

type solution

val solve : ?params:lattice array -> Func.t -> solution
(** [params] seeds the parameters positionally; missing ones, and all of
    them by default, are [Varying] (any caller, any argument). *)

val solves : int Atomic.t
(** Calls of {!solve} so far, in every Domain. *)

val lattice_of : solution -> Operand.t -> lattice
(** [Cst] for a proved constant, [Unknown] for a name that rests on an
    [Unknown] seed, [Varying] for any other name. *)

val const_of : solution -> string -> Constant.t option
val reached : solution -> string -> bool
val run : Ir_module.t -> Func.t -> Func.t * bool
val pass : Pass.func_pass
