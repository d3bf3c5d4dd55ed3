(** A generic dataflow engine over the {!Cfg}: iterative worklist
    solvers for forward and backward problems, parameterized by a join
    semilattice and per-instruction transfer functions.

    The forward solver propagates facts along individual CFG edges and
    only along edges the client declares feasible, so optimistic
    (SCCP-style) analyses fall out naturally: a terminator transfer that
    returns a subset of the successors keeps the others unreached.
    Termination is the client's contract: transfers must be monotone and
    the lattice of finite height (joins only ever move facts upward). *)

module type LATTICE = sig
  type t

  val bottom : t
  (** Identity of {!join}; the "unreached" fact. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Forward (L : LATTICE) : sig
  type transfer = {
    instr : string -> Instr.t -> L.t -> L.t;
        (** [instr block_label i fact] — fact after executing [i]. *)
    term : string -> Instr.term -> L.t -> (string * L.t) list;
        (** [term block_label t fact] — the out-fact pushed along each
            feasible successor edge. Return fewer successors than the
            terminator has to leave the others unreached. *)
  }

  val uniform_term : string -> Instr.term -> L.t -> (string * L.t) list
  (** The default terminator transfer: every successor receives the
      block's final fact unchanged. *)

  type result

  val solve : ?init:L.t -> Cfg.t -> transfer -> result
  (** Iterates to fixpoint from the entry block, whose in-fact is
      [init] (default {!L.bottom}). *)

  val block_in : result -> string -> L.t
  (** Join of the facts on the block's reached incoming edges (the
      [init] fact for the entry block); {!L.bottom} if never reached. *)

  val reached : result -> string -> bool
  (** Was the block reached through feasible edges? *)
end

module Backward (L : LATTICE) : sig
  type transfer = {
    instr : string -> Instr.t -> L.t -> L.t;
        (** Fact before [i], given the fact after it. *)
    term : string -> Instr.term -> L.t -> L.t;
        (** Fact before the terminator, given the join of the successor
            in-facts ([exit] for blocks without successors). *)
  }

  type result

  val solve : ?exit:L.t -> Cfg.t -> transfer -> result
  (** Iterates to fixpoint over the reachable blocks; [exit] (default
      {!L.bottom}) seeds [ret]/[unreachable] blocks. *)

  val block_out : result -> string -> L.t
  (** Join of the successor in-facts (the [exit] fact for blocks with
      no successors). *)
end
