(** Full unrolling of counted natural loops with statically known bounds —
    the transformation behind the paper's Ex. 4.

    Recognized shape (what [mem2reg] + [simplify-cfg] produce from typical
    frontend output): a single-latch loop whose header carries the phis
    and an [icmp] exit condition over an affine function of an induction
    phi with constant init and step. The loop body may contain arbitrary
    internal control flow but no exits besides the header's. *)

open Llvm_ir

type limits = { max_trip : int; max_instrs : int }

val default_limits : limits
(** 4096 iterations / 262144 emitted instructions. *)

val trip_count : max_trip:int -> Func.t -> Cfg.t -> Loop.t -> int option
(** The recognizer alone: the trip count of a loop of the shape above,
    if it exits within [max_trip] iterations. The header must be
    reachable in the {!Cfg.t}. *)

val run : ?limits:limits -> Ir_module.t -> Func.t -> Func.t * bool
(** Unrolls every eligible loop (innermost first) to a fixed point. *)

val pass : Pass.func_pass
