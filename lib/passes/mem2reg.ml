(* Promotes allocas whose address never escapes into SSA values, inserting
   phi nodes at iterated dominance frontiers (the standard SSA-construction
   algorithm). This is the enabling pass for loop unrolling on frontend
   output such as the paper's Ex. 4, where the induction variable lives in
   an alloca slot. *)

open Llvm_ir
module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* Allocas promotable to SSA: every use is a [load] from or a [store] to
   the slot; any other appearance of the address escapes it. *)
let promotable_allocas (f : Func.t) =
  let allocas = Hashtbl.create 16 in
  Func.iter_instrs f (fun i ->
      match i.Instr.id, i.Instr.op with
      | Some id, Instr.Alloca ty ->
        if Ty.size_in_cells ty = 1 then Hashtbl.replace allocas id ty
      | _ -> ());
  let escape name = Hashtbl.remove allocas name in
  let scan_operand ~allowed (o : Operand.t) =
    match o with
    | Operand.Local name when Hashtbl.mem allocas name && not allowed ->
      escape name
    | Operand.Local _ | Operand.Const _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Load (_, _ptr) -> () (* pointer use is allowed *)
          | Instr.Store (v, _ptr) ->
            (* storing the address itself escapes it *)
            scan_operand ~allowed:false v.Operand.v
          | op ->
            List.iter
              (fun (o : Operand.typed) -> scan_operand ~allowed:false o.Operand.v)
              (Instr.operands op))
        b.Block.instrs;
      List.iter
        (fun (o : Operand.typed) -> scan_operand ~allowed:false o.Operand.v)
        (Instr.term_operands b.Block.term))
    f.Func.blocks;
  allocas

(* Substitutions may chain (a load feeding another alloca's store): chase
   until a fixed point. The chain is acyclic because renaming processes
   definitions in dominance order. *)
let rec resolve_final subst (o : Operand.t) =
  match o with
  | Operand.Local name -> (
    match Hashtbl.find_opt subst name with
    | Some o' -> resolve_final subst o'
    | None -> o)
  | Operand.Const _ -> o

let run (_m : Ir_module.t) (f : Func.t) : Func.t * bool =
  let allocas = promotable_allocas f in
  if Hashtbl.length allocas = 0 then (f, false)
  else begin
    let cfg = Cfg.of_func f in
    let dom = Dom.compute cfg in
    let gen = Func.Fresh.of_func f in
    (* 1. blocks containing a store to each alloca *)
    let def_blocks = Hashtbl.create 16 in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Store (_, Operand.Local a) when Hashtbl.mem allocas a ->
              let cur =
                Option.value ~default:SSet.empty
                  (Hashtbl.find_opt def_blocks a)
              in
              Hashtbl.replace def_blocks a (SSet.add b.Block.label cur)
            | _ -> ())
          b.Block.instrs)
      f.Func.blocks;
    (* 2. phi placement at iterated dominance frontiers *)
    (* phis : block label -> (phi id, alloca, ty) list *)
    let phis : (string, (string * string * Ty.t) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let phi_of : (string, string * Ty.t) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun a ty ->
        let defs = Option.value ~default:SSet.empty (Hashtbl.find_opt def_blocks a) in
        let placed = ref SSet.empty in
        let work = ref (SSet.elements defs) in
        let rec go () =
          match !work with
          | [] -> ()
          | b :: rest ->
            work := rest;
            List.iter
              (fun d ->
                if Cfg.is_reachable cfg d && not (SSet.mem d !placed) then begin
                  placed := SSet.add d !placed;
                  let id = Func.Fresh.next gen (a ^ ".phi") in
                  let cell =
                    match Hashtbl.find_opt phis d with
                    | Some cell -> cell
                    | None ->
                      let cell = ref [] in
                      Hashtbl.replace phis d cell;
                      cell
                  in
                  cell := (id, a, ty) :: !cell;
                  Hashtbl.replace phi_of id (a, ty);
                  if not (SSet.mem d defs) then work := d :: !work
                end)
              (Dom.frontier dom b);
            go ()
        in
        go ())
      allocas;
    (* 3. renaming over the dominator tree *)
    let subst : (string, Operand.t) Hashtbl.t = Hashtbl.create 64 in
    let resolve (o : Operand.t) =
      match o with
      | Operand.Local name -> (
        match Hashtbl.find_opt subst name with
        | Some o' -> o'
        | None -> o)
      | Operand.Const _ -> o
    in
    (* collected incoming edges for each inserted phi *)
    let phi_incoming : (string, (Operand.t * string) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let incoming_cell id =
      match Hashtbl.find_opt phi_incoming id with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.replace phi_incoming id c;
        c
    in
    let new_instrs : (string, Instr.t list) Hashtbl.t = Hashtbl.create 16 in
    let new_terms : (string, Instr.term) Hashtbl.t = Hashtbl.create 16 in
    (* a block's renaming starts from the stacks its immediate dominator
       ended with; returns the stacks it ends with *)
    let rename label (stacks : Operand.t SMap.t) =
      let b = Cfg.block cfg label in
      let stacks = ref stacks in
      (* our phis define new values for their allocas on entry *)
      (match Hashtbl.find_opt phis label with
      | Some cell ->
        List.iter
          (fun (id, a, _ty) -> stacks := SMap.add a (Operand.Local id) !stacks)
          !cell
      | None -> ());
      let kept =
        List.filter_map
          (fun (i : Instr.t) ->
            match i.Instr.id, i.Instr.op with
            | Some id, Instr.Alloca _ when Hashtbl.mem allocas id -> None
            | Some id, Instr.Load (_, Operand.Local a) when Hashtbl.mem allocas a
              ->
              let v =
                match SMap.find_opt a !stacks with
                | Some v -> v
                | None -> Operand.Const Constant.Undef
              in
              Hashtbl.replace subst id v;
              None
            | _, Instr.Store (v, Operand.Local a) when Hashtbl.mem allocas a ->
              stacks := SMap.add a (resolve v.Operand.v) !stacks;
              None
            | _, op ->
              Some { i with Instr.op = Instr.map_operands resolve op })
          b.Block.instrs
      in
      let term = Instr.map_term_operands resolve b.Block.term in
      Hashtbl.replace new_instrs label kept;
      Hashtbl.replace new_terms label term;
      (* feed the phis of reachable successors *)
      List.iter
        (fun s ->
          match Hashtbl.find_opt phis s with
          | Some cell ->
            List.iter
              (fun (id, a, _ty) ->
                let v =
                  match SMap.find_opt a !stacks with
                  | Some v -> v
                  | None -> Operand.Const Constant.Undef
                in
                let c = incoming_cell id in
                c := (v, label) :: !c)
              !cell
          | None -> ())
        (Block.successors b);
      !stacks
    in
    (* the dominator tree in preorder, without recursion *)
    let rec walk = function
      | [] -> ()
      | (label, stacks) :: rest ->
        let stacks = rename label stacks in
        walk (List.map (fun c -> (c, stacks)) (Dom.children dom label) @ rest)
    in
    walk [ (Cfg.entry cfg, SMap.empty) ];
    (* 4. rebuild: inserted phis first, then surviving instructions; the
       load-substitution map is applied to phi incoming values too. *)
    let blocks =
      List.filter_map
        (fun (b : Block.t) ->
          if not (Cfg.is_reachable cfg b.Block.label) then
            (* unreachable blocks keep their instructions but still get the
               substitution applied where it is defined *)
            Some (Subst.block (Subst.SMap.of_seq (Hashtbl.to_seq subst)) b)
          else begin
            let inserted =
              match Hashtbl.find_opt phis b.Block.label with
              | Some cell ->
                List.rev_map
                  (fun (id, _a, ty) ->
                    let incoming =
                      match Hashtbl.find_opt phi_incoming id with
                      | Some c -> List.rev !c
                      | None -> []
                    in
                    (* any predecessor that never fed the phi (e.g. one the
                       renaming saw before the value was defined) gets undef *)
                    let preds = Cfg.predecessors cfg b.Block.label in
                    let incoming =
                      List.map
                        (fun p ->
                          match List.assoc_opt p (List.map (fun (v, l) -> (l, v)) incoming) with
                          | Some v -> (resolve_final subst v, p)
                          | None -> (Operand.Const Constant.Undef, p))
                        preds
                    in
                    Instr.mk ~id (Instr.Phi (ty, incoming)))
                  !cell
              | None -> []
            in
            let instrs =
              List.map
                (fun (i : Instr.t) ->
                  { i with Instr.op = Instr.map_operands (resolve_final subst) i.Instr.op })
                (Hashtbl.find new_instrs b.Block.label)
            in
            let term = Hashtbl.find new_terms b.Block.label in
            let term = Instr.map_term_operands (resolve_final subst) term in
            Some (Block.mk b.Block.label (inserted @ instrs) term)
          end)
        f.Func.blocks
    in
    (Func.replace_blocks f blocks, true)
  end

let pass = { Pass.name = "mem2reg"; run }
