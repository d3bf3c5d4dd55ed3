(* Function inlining: call sites whose callee is a defined, non-recursive
   function within the size budget are replaced by a clone of the callee's
   body. Needed to lower multi-function QIR programs into a single entry
   function before profile checking (adaptive -> base, Sec. III-B). *)

open Llvm_ir
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type limits = { max_callee_size : int; max_growth : int }

let default_limits = { max_callee_size = 512; max_growth = 65536 }

(* Functions that (transitively) call themselves are never inlined. *)
let recursive_funcs (m : Ir_module.t) =
  let callees f =
    Func.fold_instrs f SSet.empty (fun acc (i : Instr.t) ->
        match i.Instr.op with
        | Instr.Call (_, callee, _) -> SSet.add callee acc
        | _ -> acc)
  in
  let graph =
    List.fold_left
      (fun acc (f : Func.t) ->
        if Func.is_declaration f then acc
        else SMap.add f.Func.name (callees f) acc)
      SMap.empty m.Ir_module.funcs
  in
  (* a function is recursive if it can reach itself *)
  let reaches_self start =
    let rec dfs visited frontier =
      match frontier with
      | [] -> false
      | x :: rest ->
        if SSet.mem x visited then dfs visited rest
        else
          let next = Option.value ~default:SSet.empty (SMap.find_opt x graph) in
          if SSet.mem start next then true
          else dfs (SSet.add x visited) (SSet.elements next @ rest)
    in
    let first = Option.value ~default:SSet.empty (SMap.find_opt start graph) in
    SSet.mem start first || dfs SSet.empty (SSet.elements first)
  in
  SMap.fold
    (fun name _ acc -> if reaches_self name then SSet.add name acc else acc)
    graph SSet.empty

(* Clones the callee body for one call site. Returns the blocks that
   replace the block containing the call. *)
let splice gen (caller_block : Block.t) ~before ~call_id ~(callee : Func.t)
    ~args ~after =
  let suffix_label = Func.Fresh.next gen (caller_block.Block.label ^ ".ret") in
  (* fresh names for the callee's locals and labels *)
  let lmap = Hashtbl.create 16 in
  let vmap = Hashtbl.create 32 in
  List.iter
    (fun (b : Block.t) ->
      Hashtbl.replace lmap b.Block.label
        (Func.Fresh.next gen ("inl." ^ b.Block.label));
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.id with
          | Some id ->
            Hashtbl.replace vmap id (Func.Fresh.next gen ("inl." ^ id))
          | None -> ())
        b.Block.instrs)
    callee.Func.blocks;
  let arg_value =
    List.fold_left2
      (fun acc (p : Func.param) (a : Operand.typed) ->
        SMap.add p.Func.pname a.Operand.v acc)
      SMap.empty callee.Func.params args
  in
  let rename_value (o : Operand.t) =
    match o with
    | Operand.Local id -> (
      match SMap.find_opt id arg_value with
      | Some v -> v
      | None -> (
        match Hashtbl.find_opt vmap id with
        | Some id' -> Operand.Local id'
        | None -> o))
    | Operand.Const _ -> o
  in
  let rename_label l =
    match Hashtbl.find_opt lmap l with
    | Some l' -> l'
    | None -> l
  in
  (* returns become branches to the suffix block, collecting values *)
  let ret_values = ref [] in
  let cloned =
    List.map
      (fun (b : Block.t) ->
        let label = rename_label b.Block.label in
        let instrs =
          List.map
            (fun (i : Instr.t) ->
              let id =
                Option.map
                  (fun id ->
                    match Hashtbl.find_opt vmap id with
                    | Some id' -> id'
                    | None -> id)
                  i.Instr.id
              in
              let op =
                match i.Instr.op with
                | Instr.Phi (ty, incoming) ->
                  Instr.Phi
                    ( ty,
                      List.map
                        (fun (v, l) -> (rename_value v, rename_label l))
                        incoming )
                | op -> Instr.map_operands rename_value op
              in
              { Instr.id; op })
            b.Block.instrs
        in
        let term =
          match b.Block.term with
          | Instr.Ret v ->
            (match v with
            | Some v ->
              ret_values :=
                ({ v with Operand.v = rename_value v.Operand.v }, label)
                :: !ret_values
            | None -> ());
            Instr.Br suffix_label
          | Instr.Br l -> Instr.Br (rename_label l)
          | Instr.Cond_br (c, t, e) ->
            Instr.Cond_br (rename_value c, rename_label t, rename_label e)
          | Instr.Switch (v, d, cases) ->
            Instr.Switch
              ( { v with Operand.v = rename_value v.Operand.v },
                rename_label d,
                List.map (fun (c, l) -> (c, rename_label l)) cases )
          | Instr.Unreachable -> Instr.Unreachable
        in
        Block.mk label instrs term)
      callee.Func.blocks
  in
  (* the suffix: a phi joining return values when the result is used *)
  let suffix_prefix =
    match call_id, !ret_values with
    | Some id, [ (v, _) ] ->
      (* single return: substitute directly, no phi needed *)
      `Subst (id, v.Operand.v)
    | Some id, ((v0, _) :: _ as vs) ->
      `Phi
        (Instr.mk ~id
           (Instr.Phi
              ( v0.Operand.ty,
                List.map (fun ((v : Operand.typed), l) -> (v.Operand.v, l)) vs )))
    | Some id, [] ->
      (* the callee never returns a value (infinite loop / unreachable) *)
      `Subst (id, Operand.Const Constant.Undef)
    | None, _ -> `Nothing
  in
  let entry_clone = rename_label (Func.entry callee).Block.label in
  let head =
    Block.mk caller_block.Block.label before (Instr.Br entry_clone)
  in
  let suffix_instrs, subst =
    match suffix_prefix with
    | `Phi phi -> ([ phi ], None)
    | `Subst (id, v) -> ([], Some (id, v))
    | `Nothing -> ([], None)
  in
  let suffix = Block.mk suffix_label (suffix_instrs @ after) caller_block.Block.term in
  ((head :: cloned) @ [ suffix ], suffix_label, subst)

let inline_one gen (m : Ir_module.t) recursive (f : Func.t) limits =
  (* find the first inlinable call site *)
  let found = ref None in
  List.iter
    (fun (b : Block.t) ->
      if !found = None then begin
        let rec split before = function
          | [] -> ()
          | (i : Instr.t) :: after -> (
            match i.Instr.op with
            | Instr.Call (_, callee_name, args)
              when !found = None
                   && (not (SSet.mem callee_name recursive))
                   && not (String.equal callee_name f.Func.name) -> (
              match Ir_module.find_func m callee_name with
              | Some callee
                when (not (Func.is_declaration callee))
                     && Func.size callee <= limits.max_callee_size ->
                found :=
                  Some (b, List.rev before, i.Instr.id, callee, args, after)
              | _ -> split (i :: before) after)
            | _ -> split (i :: before) after)
        in
        split [] b.Block.instrs
      end)
    f.Func.blocks;
  match !found with
  | None -> None
  | Some (b, before, call_id, callee, args, after) ->
    let replacement, suffix_label, subst =
      splice gen b ~before ~call_id ~callee ~args ~after
    in
    (* successors' phis that named the split block now receive control
       from the suffix; so do the head's own when the block loops to
       itself *)
    let blocks =
      List.concat_map
        (fun (blk : Block.t) ->
          if String.equal blk.Block.label b.Block.label then replacement
          else [ blk ])
        f.Func.blocks
      |> List.map (fun (blk : Block.t) ->
             Subst.rename_phi_labels
               (fun l ->
                 if
                   String.equal l b.Block.label
                   && List.mem blk.Block.label (Instr.successors b.Block.term)
                 then suffix_label
                 else l)
               blk)
    in
    let f = Func.replace_blocks f blocks in
    let f =
      match subst with
      | Some (id, v) -> Subst.func (Subst.SMap.singleton id v) f
      | None -> f
    in
    Some f

let run ?(limits = default_limits) (m : Ir_module.t) (f : Func.t) :
    Func.t * bool =
  let recursive = recursive_funcs m in
  let budget = Func.size f + limits.max_growth in
  let changed = ref false in
  let rec go f =
    if Func.size f > budget then f
    else begin
      let gen = Func.Fresh.of_func f in
      match inline_one gen m recursive f limits with
      | Some f' ->
        changed := true;
        go f'
      | None -> f
    end
  in
  let f = go f in
  (f, !changed)

let pass = { Pass.name = "inline"; run = (fun m f -> run m f) }
