(* The generic dataflow engine. Both solvers are chaotic iteration over
   the CFG in (reverse) postorder with a dirty set standing in for a
   priority worklist: a round visits every dirty block in order and
   re-queues the blocks whose input changed, so a block dirtied by an
   earlier one in the same round is visited in that round (a chain of
   blocks takes one round, not one per block); the loop ends when a
   round leaves nothing dirty. Facts only move up the client's lattice,
   so fixpoints are reached in height * blocks rounds at worst.

   The forward solver joins each fact a terminator pushes straight into
   that successor's in-fact, and only along the edges the client's
   terminator transfer returns: clients that prune infeasible successors
   (constant conditions, proved switch arms) therefore get SCCP-style
   optimism for free — unreached blocks contribute nothing to joins. A
   block's in-fact is the join of every fact pushed into it, the same
   fixpoint as joining per-edge facts over its predecessors, since the
   join is associative, commutative and idempotent. *)

module SMap = Cfg.SMap
module SSet = Cfg.SSet

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Forward (L : LATTICE) = struct
  type transfer = {
    instr : string -> Instr.t -> L.t -> L.t;
    term : string -> Instr.term -> L.t -> (string * L.t) list;
  }

  let uniform_term _label term fact =
    List.map (fun s -> (s, fact)) (Instr.successors term)

  type result = {
    cfg : Cfg.t;
    tf : transfer;
    ins : L.t SMap.t; (* joined in-facts of reached blocks *)
  }

  let solve ?(init = L.bottom) (cfg : Cfg.t) (tf : transfer) : result =
    let ins = ref (SMap.singleton cfg.Cfg.entry init) in
    let dirty = ref (SSet.singleton cfg.Cfg.entry) in
    while not (SSet.is_empty !dirty) do
      List.iter
        (fun label ->
          if SSet.mem label !dirty then begin
            dirty := SSet.remove label !dirty;
            let b = Cfg.block cfg label in
            let fact =
              List.fold_left
                (fun fact i -> tf.instr label i fact)
                (SMap.find label !ins) b.Block.instrs
            in
            List.iter
              (fun (succ, f) ->
                (* the first push reaches [succ], whatever it carries *)
                match SMap.find_opt succ !ins with
                | Some old ->
                  let joined = L.join old f in
                  if not (L.equal old joined) then begin
                    ins := SMap.add succ joined !ins;
                    dirty := SSet.add succ !dirty
                  end
                | None ->
                  ins := SMap.add succ (L.join L.bottom f) !ins;
                  dirty := SSet.add succ !dirty)
              (tf.term label b.Block.term fact)
          end)
        cfg.Cfg.rpo
    done;
    { cfg; tf; ins = !ins }

  let block_in r label =
    Option.value ~default:L.bottom (SMap.find_opt label r.ins)

  let reached r label = SMap.mem label r.ins

  let fold_block r label acc f =
    let b = Cfg.block r.cfg label in
    fst
      (List.fold_left
         (fun (acc, fact) i -> (f acc fact i, r.tf.instr label i fact))
         (acc, block_in r label)
         b.Block.instrs)
end

module Backward (L : LATTICE) = struct
  type transfer = {
    instr : string -> Instr.t -> L.t -> L.t;
    term : string -> Instr.term -> L.t -> L.t;
  }

  type result = { cfg : Cfg.t; exit : L.t; ins : L.t SMap.t }

  let transfer_block (tf : transfer) (b : Block.t) out =
    List.fold_left
      (fun fact i -> tf.instr b.Block.label i fact)
      (tf.term b.Block.label b.Block.term out)
      (List.rev b.Block.instrs)

  let succ_join cfg exit ins label =
    match Cfg.successors cfg label with
    | [] -> exit
    | succs ->
      List.fold_left
        (fun acc s ->
          L.join acc (Option.value ~default:L.bottom (SMap.find_opt s ins)))
        L.bottom succs

  let solve ?(exit = L.bottom) (cfg : Cfg.t) (tf : transfer) : result =
    let order = List.rev cfg.Cfg.rpo in
    let ins = ref SMap.empty in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun label ->
          let out = succ_join cfg exit !ins label in
          let fact = transfer_block tf (Cfg.block cfg label) out in
          let old = Option.value ~default:L.bottom (SMap.find_opt label !ins) in
          let fact = L.join old fact in
          if not (L.equal old fact) then begin
            ins := SMap.add label fact !ins;
            changed := true
          end)
        order
    done;
    { cfg; exit; ins = !ins }

  let block_out r label = succ_join r.cfg r.exit r.ins label

  let block_in r label =
    Option.value ~default:L.bottom (SMap.find_opt label r.ins)
end
