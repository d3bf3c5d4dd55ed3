(** Natural-loop detection via back edges in the dominator tree. *)

open Llvm_ir
module SSet : Set.S with type elt = string

type t = {
  header : string;
  latches : string list;  (** sources of back edges into the header *)
  body : SSet.t;
      (** all blocks of the loop, including the header: every block,
          reachable or not, that reaches a latch without passing
          through the header *)
}

val find : Cfg.t -> t list
(** Loops grouped by header (bodies of shared headers merged). *)

val exits : Cfg.t -> t -> (string * string) list
(** Edges leaving the loop body. *)
