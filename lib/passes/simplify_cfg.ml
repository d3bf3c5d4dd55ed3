(* Control-flow graph cleanup:
   - folds conditional branches on constants (and equal-target cond_br),
   - removes blocks unreachable from the entry (fixing phis),
   - merges a block into its unique successor when it is that successor's
     unique predecessor,
   - short-circuits empty forwarding blocks.
   Runs to a local fixed point. *)

open Llvm_ir
module SSet = Set.Make (String)

let fold_terms (f : Func.t) =
  let changed = ref false in
  let blocks =
    List.map
      (fun (b : Block.t) ->
        let term =
          match b.Block.term with
          | Instr.Cond_br (Operand.Const c, t, e) -> (
            match Const_fold.bool_of_const c with
            | Some taken ->
              changed := true;
              Instr.Br (if taken then t else e)
            | None -> b.Block.term)
          | Instr.Cond_br (_, t, e) when String.equal t e ->
            changed := true;
            Instr.Br t
          | Instr.Switch (v, d, cases) -> (
            let ty = v.Operand.ty in
            match v.Operand.v with
            | Operand.Const c -> (
              match Const_fold.value_of_const ty c with
              | Some n ->
                changed := true;
                Instr.Br
                  (Interp.switch_target n d (Interp.switch_cases ty cases))
              | None -> b.Block.term)
            | Operand.Local _ -> b.Block.term)
          | t -> t
        in
        { b with Block.term })
      f.Func.blocks
  in
  (Func.replace_blocks f blocks, !changed)

(* Removes unreachable blocks and prunes phi entries whose predecessor is
   gone. *)
let prune_unreachable (f : Func.t) =
  let cfg = Cfg.of_func f in
  let reachable = SSet.of_list (Cfg.reachable cfg) in
  if SSet.cardinal reachable = List.length f.Func.blocks then (f, false)
  else begin
    let blocks =
      List.filter_map
        (fun (b : Block.t) ->
          if not (SSet.mem b.Block.label reachable) then None
          else begin
            let instrs =
              List.map
                (fun (i : Instr.t) ->
                  match i.Instr.op with
                  | Instr.Phi (ty, incoming) ->
                    let incoming =
                      List.filter (fun (_, l) -> SSet.mem l reachable) incoming
                    in
                    { i with Instr.op = Instr.Phi (ty, incoming) }
                  | _ -> i)
                b.Block.instrs
            in
            Some { b with Block.instrs }
          end)
        f.Func.blocks
    in
    (Func.replace_blocks f blocks, true)
  end

(* Replaces single-incoming phis by their value. *)
let collapse_trivial_phis (f : Func.t) =
  let subst = ref Subst.SMap.empty in
  let blocks =
    List.map
      (fun (b : Block.t) ->
        let instrs =
          List.filter_map
            (fun (i : Instr.t) ->
              match i.Instr.id, i.Instr.op with
              | Some id, Instr.Phi (_, [ (v, _) ]) ->
                subst := Subst.SMap.add id v !subst;
                None
              | _ -> Some i)
            b.Block.instrs
        in
        { b with Block.instrs })
      f.Func.blocks
  in
  if Subst.SMap.is_empty !subst then (f, false)
  else begin
    (* substitutions may chain through each other *)
    let rec resolve (o : Operand.t) =
      match o with
      | Operand.Local name -> (
        match Subst.SMap.find_opt name !subst with
        | Some o' -> resolve o'
        | None -> o)
      | Operand.Const _ -> o
    in
    let blocks =
      List.map
        (fun (b : Block.t) ->
          {
            b with
            Block.instrs =
              List.map
                (fun (i : Instr.t) ->
                  { i with Instr.op = Instr.map_operands resolve i.Instr.op })
                b.Block.instrs;
            Block.term = Instr.map_term_operands resolve b.Block.term;
          })
        blocks
    in
    (Func.replace_blocks f blocks, true)
  end

(* Merges every straight-line chain b1 -> b2 -> ... (each link: [bi]'s
   terminator is an unconditional branch to [bi+1], and [bi+1]'s unique
   predecessor is [bi]) into its head block, in one pass over the
   function. *)
let merge_chains (f : Func.t) =
  let cfg = Cfg.of_func f in
  (* [next.(b)] = the block b absorbs, when the link is mergeable *)
  let absorbable = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      match b.Block.term with
      | Instr.Br s when not (String.equal s b.Block.label) -> (
        match Cfg.predecessors cfg s with
        | [ p ]
          when String.equal p b.Block.label
               && Cfg.is_reachable cfg b.Block.label
               && not (String.equal s cfg.Cfg.entry) ->
          Hashtbl.replace absorbable b.Block.label s
        | _ -> ())
      | _ -> ())
    f.Func.blocks;
  if Hashtbl.length absorbable = 0 then (f, false)
  else begin
    (* chain heads: blocks that absorb but are not themselves absorbed *)
    let absorbed = Hashtbl.create 16 in
    Hashtbl.iter (fun _ s -> Hashtbl.replace absorbed s ()) absorbable;
    let subst = ref Subst.SMap.empty in
    let tail_of = Hashtbl.create 16 in
    (* head label -> label of the final block in its chain *)
    let merged_blocks =
      List.filter_map
        (fun (b : Block.t) ->
          if Hashtbl.mem absorbed b.Block.label then None
          else begin
            (* walk the chain from this head *)
            let rec collect rev_groups label =
              let blk = Cfg.block cfg label in
              let instrs =
                List.filter_map
                  (fun (i : Instr.t) ->
                    match i.Instr.id, i.Instr.op with
                    | Some id, Instr.Phi (_, [ (v, _) ])
                      when not (String.equal label b.Block.label) ->
                      subst := Subst.SMap.add id v !subst;
                      None
                    | _ -> Some i)
                  blk.Block.instrs
              in
              let rev_groups = instrs :: rev_groups in
              match Hashtbl.find_opt absorbable label with
              | Some s -> collect rev_groups s
              | None -> (List.concat (List.rev rev_groups), blk.Block.term, label)
            in
            let instrs, term, tail = collect [] b.Block.label in
            Hashtbl.replace tail_of tail b.Block.label;
            Some (Block.mk b.Block.label instrs term)
          end)
        f.Func.blocks
    in
    (* phi labels naming an absorbed chain tail now come from the head *)
    let rename l =
      match Hashtbl.find_opt tail_of l with
      | Some head -> head
      | None -> l
    in
    let blocks = List.map (Subst.rename_phi_labels rename) merged_blocks in
    let f = Func.replace_blocks f blocks in
    let f = Subst.func !subst f in
    (f, true)
  end

let run (m : Ir_module.t) (f : Func.t) : Func.t * bool =
  ignore m;
  let steps = [ fold_terms; prune_unreachable; collapse_trivial_phis; merge_chains ] in
  let rec fixpoint f changed =
    let f, c =
      List.fold_left
        (fun (f, c) step ->
          let f', c' = step f in
          (f', c || c'))
        (f, false) steps
    in
    if c then fixpoint f true else (f, changed)
  in
  fixpoint f false

let pass = { Pass.name = "simplify-cfg"; run }
