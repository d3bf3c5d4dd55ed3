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
    ins : L.t option array;  (* joined in-facts of reached blocks, by index *)
  }

  let solve ?(init = L.bottom) (cfg : Cfg.t) (tf : transfer) : result =
    let n = Cfg.size cfg in
    let ins = Array.make n None and dirty = Array.make n false in
    ins.(0) <- Some init;
    dirty.(0) <- true;
    let push i (succ, f) =
      match Cfg.target cfg i succ with
      | None -> () (* no such block *)
      | Some j ->
        (* the first push reaches [succ], whatever it carries *)
        let old = Option.value ~default:L.bottom ins.(j) in
        let joined = L.join old f in
        if Option.is_none ins.(j) || not (L.equal old joined) then begin
          ins.(j) <- Some joined;
          dirty.(j) <- true
        end
    in
    while Array.mem true dirty do
      for i = 0 to n - 1 do
        if dirty.(i) then begin
          dirty.(i) <- false;
          let label = Cfg.label cfg i and b = Cfg.block_at cfg i in
          let fact =
            List.fold_left
              (fun fact instr -> tf.instr label instr fact)
              (Option.get ins.(i)) b.Block.instrs
          in
          List.iter (push i) (tf.term label b.Block.term fact)
        end
      done
    done;
    { cfg; ins }

  let block_in_opt r label =
    match Cfg.index r.cfg label with
    | Some i when i < Array.length r.ins -> r.ins.(i)
    | _ -> None

  let block_in r label = Option.value ~default:L.bottom (block_in_opt r label)
  let reached r label = block_in_opt r label <> None
end

module Backward (L : LATTICE) = struct
  type transfer = {
    instr : string -> Instr.t -> L.t -> L.t;
    term : string -> Instr.term -> L.t -> L.t;
  }

  type result = {
    cfg : Cfg.t;
    exit : L.t;
    ins : L.t array;  (* in-facts by index; bottom where never raised *)
  }

  let transfer_block (tf : transfer) (b : Block.t) out =
    List.fold_left
      (fun fact i -> tf.instr b.Block.label i fact)
      (tf.term b.Block.label b.Block.term out)
      (List.rev b.Block.instrs)

  let succ_join cfg exit ins i =
    match Block.successors (Cfg.block_at cfg i) with
    | [] -> exit
    | _ ->
      Array.fold_left (fun acc s -> L.join acc ins.(s)) L.bottom (Cfg.succ cfg i)

  let solve ?(exit = L.bottom) (cfg : Cfg.t) (tf : transfer) : result =
    let ins = Array.make (Cfg.count cfg) L.bottom in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = Cfg.size cfg - 1 downto 0 do
        let out = succ_join cfg exit ins i in
        let fact = transfer_block tf (Cfg.block_at cfg i) out in
        let old = ins.(i) in
        let fact = L.join old fact in
        if not (L.equal old fact) then begin
          ins.(i) <- fact;
          changed := true
        end
      done
    done;
    { cfg; exit; ins }

  let block_out r label =
    match Cfg.index r.cfg label with
    | Some i -> succ_join r.cfg r.exit r.ins i
    | None -> r.exit
end
