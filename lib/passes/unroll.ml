(* Full unrolling of counted natural loops with statically known bounds —
   the transformation behind the paper's Ex. 4 ("it is straight forward to
   unroll any loops with statically known bounds in the QIR program").

   Recognized shape (what [mem2reg] + [simplify_cfg] produce from typical
   frontend output):

     preheader:  br %header
     header:     %iv = phi [init, %preheader], [%next, %latch]
                 ... (more loop-carried phis, straight-line code)
                 %c = icmp pred (%iv | %next), const
                 br i1 %c, label %inside, label %exit   ; or swapped
     body*:      arbitrary control flow within the loop,
                 %next = add/sub %iv, const somewhere inside
     latch:      br %header                             ; single latch

   The loop is replaced by [trip] clones of its blocks chained in
   sequence; header phis are substituted by their per-iteration values,
   and uses of header-defined values after the loop are redirected to the
   final clone. *)

open Llvm_ir
module SSet = Loop.SSet
module SMap = Map.Make (String)

type limits = { max_trip : int; max_instrs : int }

let default_limits = { max_trip = 4096; max_instrs = 262144 }

type counted_loop = {
  loop : Loop.t;
  latch : string;
  inside : string; (* header successor that stays in the loop *)
  exit : string; (* header successor that leaves the loop *)
  cond_is_continue : bool; (* true: cond true -> inside *)
  trip : int;
  (* header phis: id, ty, init value, backedge value *)
  header_phis : (string * Ty.t * Operand.t * Operand.t) list;
}

let find_instr_in_loop (f : Func.t) (body : SSet.t) id =
  List.find_map
    (fun (b : Block.t) ->
      if SSet.mem b.Block.label body then
        List.find_map
          (fun (i : Instr.t) ->
            match i.Instr.id with
            | Some id' when String.equal id id' -> Some i.Instr.op
            | _ -> None)
          b.Block.instrs
      else None)
    f.Func.blocks

(* The chain defining [o] (an operand of type [ty]) as a function of the
   induction phi's value, run by the engines' evaluator at each
   instruction's own type: constants, the phi itself, and the loop's
   add/sub and sext/zext/trunc. [None] when the chain holds anything
   else. *)
let rec chain f body phi_id ty (o : Operand.t) =
  match o with
  | Operand.Const c -> Option.map (fun v _ -> v) (Const_fold.value_of_const ty c)
  | Operand.Local id when String.equal id phi_id -> Some Fun.id
  | Operand.Local id -> (
    match find_instr_in_loop f body id with
    | Some (Instr.Binop (((Instr.Add | Instr.Sub) as op), ty, x, y)) -> (
      match chain f body phi_id ty x, chain f body phi_id ty y with
      | Some gx, Some gy -> Some (fun iv -> Interp.eval_binop op ty (gx iv) (gy iv))
      | _ -> None)
    | Some (Instr.Cast (((Instr.Sext | Instr.Zext | Instr.Trunc) as c), src, ty))
      ->
      Option.map
        (fun g iv -> Interp.eval_cast c (g iv) ty)
        (chain f body phi_id src.Operand.ty src.Operand.v)
    | _ -> None)

(* The counted-loop recognizer: the loop's shape and its trip count, if
   the exit condition releases it within [max_trip] iterations. *)
let recognize ~max_trip (f : Func.t) cfg (loop : Loop.t) : counted_loop option =
  match loop.Loop.latches with
  | [ latch ] -> (
    let header = Cfg.block cfg loop.Loop.header in
    (* single exit, from the header *)
    match Loop.exits cfg loop with
    | [ (from, exit) ] when String.equal from loop.Loop.header -> (
      match header.Block.term with
      | Instr.Cond_br (Operand.Local cond_id, t, e) -> (
        let inside, cond_is_continue =
          if String.equal t exit then (e, false) else (t, true)
        in
        (* header phis: exactly one incoming from the latch *)
        let phis_ok = ref true in
        let header_phis =
          List.filter_map
            (fun (i : Instr.t) ->
              match i.Instr.id, i.Instr.op with
              | Some id, Instr.Phi (ty, incoming) -> (
                let from_latch, from_outside =
                  List.partition (fun (_, l) -> String.equal l latch) incoming
                in
                match from_latch, from_outside with
                | [ (next, _) ], [ (init, _) ] -> Some (id, ty, init, next)
                | _ ->
                  phis_ok := false;
                  None)
              | _ -> None)
            header.Block.instrs
        in
        if not !phis_ok then None
        else
          (* the condition: icmp on a chain of some header phi *)
          let cond_op =
            List.find_map
              (fun (i : Instr.t) ->
                match i.Instr.id with
                | Some id when String.equal id cond_id -> Some i.Instr.op
                | _ -> None)
              header.Block.instrs
          in
          match cond_op with
          | Some (Instr.Icmp (pred, ty, lhs, rhs)) ->
            (* try each induction-candidate phi: run the header's
               compare and the step from its constant start *)
            let try_phi (phi_id, phi_ty, init, next) =
              let chain = chain f loop.Loop.body phi_id in
              match
                ( (match init with
                  | Operand.Const c -> Const_fold.value_of_const phi_ty c
                  | Operand.Local _ -> None),
                  chain phi_ty next,
                  chain ty lhs,
                  chain ty rhs )
              with
              | Some init_v, Some step, Some gl, Some gr -> (
                let continue iv =
                  Interp.as_bool (Interp.eval_icmp pred (gl iv) (gr iv))
                  = cond_is_continue
                in
                let rec count iv k =
                  if k > max_trip then None
                  else if continue iv then count (step iv) (k + 1)
                  else Some k
                in
                try count init_v 0 with Ir_error.Exec_error _ -> None)
              | _ -> None
            in
            Option.map
              (fun trip ->
                { loop; latch; inside; exit; cond_is_continue; trip; header_phis })
              (List.find_map try_phi header_phis)
          | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

let trip_count ~max_trip f cfg loop =
  Option.map (fun cl -> cl.trip) (recognize ~max_trip f cfg loop)

(* A recognized loop whose unrolled copy stays within [limits.max_instrs]. *)
let analyze (f : Func.t) cfg (loop : Loop.t) limits : counted_loop option =
  Option.bind (recognize ~max_trip:limits.max_trip f cfg loop) (fun cl ->
      let loop_size =
        List.fold_left
          (fun acc (b : Block.t) ->
            if SSet.mem b.Block.label loop.Loop.body then
              acc + List.length b.Block.instrs + 1
            else acc)
          0 f.Func.blocks
      in
      if cl.trip * loop_size > limits.max_instrs then None else Some cl)

(* Clones the loop [cl.trip] times. Returns the rewritten function. *)
let apply (f : Func.t) (cl : counted_loop) : Func.t =
  let gen = Func.Fresh.of_func f in
  let body_labels = cl.loop.Loop.body in
  let header = cl.loop.Loop.header in
  let loop_blocks =
    List.filter
      (fun (b : Block.t) -> SSet.mem b.Block.label body_labels)
      f.Func.blocks
  in
  (* env: header phi id -> operand for the current iteration *)
  let init_env =
    List.fold_left
      (fun acc (id, _ty, init, _next) -> SMap.add id init acc)
      SMap.empty cl.header_phis
  in
  (* final substitution applied to blocks outside the loop *)
  let outer_subst = ref SMap.empty in
  let all_new_blocks = ref [] in
  let label_of_iter = Hashtbl.create 64 in
  (* pre-assign labels for every (block, iteration) including the final
     header-only iteration *)
  for k = 0 to cl.trip do
    List.iter
      (fun (b : Block.t) ->
        if k < cl.trip || String.equal b.Block.label header then
          Hashtbl.replace label_of_iter (b.Block.label, k)
            (Func.Fresh.next gen (Printf.sprintf "%s.it%d" b.Block.label k)))
      loop_blocks
  done;
  let clone_iteration k env =
    (* value renaming for this iteration: header phis -> env values;
       instruction results -> fresh names *)
    let vmap = ref env in
    let fresh_ids = Hashtbl.create 32 in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            match i.Instr.id with
            | Some id when not (SMap.mem id !vmap) ->
              let id' = Func.Fresh.next gen (Printf.sprintf "%s.it%d" id k) in
              Hashtbl.replace fresh_ids id id'
            | _ -> ())
          b.Block.instrs)
      loop_blocks;
    let rename_value (o : Operand.t) =
      match o with
      | Operand.Local id -> (
        match SMap.find_opt id !vmap with
        | Some v -> v
        | None -> (
          match Hashtbl.find_opt fresh_ids id with
          | Some id' -> Operand.Local id'
          | None -> o (* defined outside the loop *)))
      | Operand.Const _ -> o
    in
    let rename_label l =
      if String.equal l header then
        (* a branch back to the header enters the next iteration *)
        Hashtbl.find label_of_iter (header, k + 1)
      else
        match Hashtbl.find_opt label_of_iter (l, k) with
        | Some l' -> l'
        | None -> l (* the exit block *)
    in
    let clone_block (b : Block.t) ~is_header ~final =
      let label = Hashtbl.find label_of_iter (b.Block.label, k) in
      let instrs =
        List.filter_map
          (fun (i : Instr.t) ->
            match i.Instr.id, i.Instr.op with
            | Some id, Instr.Phi _ when is_header && SMap.mem id !vmap ->
              None (* header phi: substituted away *)
            | id, Instr.Phi (ty, incoming) ->
              (* body phi: rename values and incoming labels; the entry
                 from the header keeps this iteration's header label *)
              let incoming =
                List.map
                  (fun (v, l) ->
                    let l' =
                      match Hashtbl.find_opt label_of_iter (l, k) with
                      | Some l' -> l'
                      | None -> l
                    in
                    (rename_value v, l'))
                  incoming
              in
              let id' = Option.map (fun i -> Hashtbl.find fresh_ids i) id in
              Some { Instr.id = id'; Instr.op = Instr.Phi (ty, incoming) }
            | id, op ->
              let id' = Option.map (fun i ->
                  match Hashtbl.find_opt fresh_ids i with
                  | Some x -> x
                  | None -> i) id
              in
              Some { Instr.id = id'; Instr.op = Instr.map_operands rename_value op })
          b.Block.instrs
      in
      let term =
        if is_header then
          if final then Instr.Br cl.exit
          else Instr.Br (rename_label cl.inside)
        else
          match b.Block.term with
          | Instr.Ret _ as t -> t
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
      Block.mk label instrs term
    in
    List.iter
      (fun (b : Block.t) ->
        let is_header = String.equal b.Block.label header in
        let final = k = cl.trip in
        if (not final) || is_header then
          all_new_blocks := clone_block b ~is_header ~final :: !all_new_blocks)
      loop_blocks;
    (* next iteration's env: evaluate the backedge values in this clone *)
    let next_env =
      List.fold_left
        (fun acc (id, _ty, _init, next) -> SMap.add id (rename_value next) acc)
        SMap.empty cl.header_phis
    in
    (* record the outer substitution from the final header clone *)
    if k = cl.trip then begin
      SMap.iter (fun id v -> outer_subst := SMap.add id v !outer_subst) env;
      List.iter
        (fun (b : Block.t) ->
          if String.equal b.Block.label header then
            List.iter
              (fun (i : Instr.t) ->
                match i.Instr.id with
                | Some id when Hashtbl.mem fresh_ids id ->
                  outer_subst :=
                    SMap.add id
                      (Operand.Local (Hashtbl.find fresh_ids id))
                      !outer_subst
                | _ -> ())
              b.Block.instrs)
        loop_blocks
    end;
    next_env
  in
  let env = ref init_env in
  for k = 0 to cl.trip do
    env := clone_iteration k !env
  done;
  let entry_clone = Hashtbl.find label_of_iter (header, 0) in
  let final_header = Hashtbl.find label_of_iter (header, cl.trip) in
  (* stitch: outside blocks branching to the header now branch to the first
     clone; phi labels in the exit block referring to the header come from
     the final clone; header-defined values used outside are substituted *)
  let rename l = if String.equal l header then entry_clone else l in
  let subst_fn (o : Operand.t) =
    match o with
    | Operand.Local id -> (
      match SMap.find_opt id !outer_subst with
      | Some v -> v
      | None -> o)
    | Operand.Const _ -> o
  in
  let outside =
    List.filter_map
      (fun (b : Block.t) ->
        if SSet.mem b.Block.label body_labels then None
        else begin
          let b =
            Subst.rename_phi_labels
              (fun l -> if String.equal l header then final_header else l)
              b
          in
          let term =
            match b.Block.term with
            | Instr.Ret _ as t -> t
            | Instr.Br l -> Instr.Br (rename l)
            | Instr.Cond_br (c, t, e) -> Instr.Cond_br (c, rename t, rename e)
            | Instr.Switch (v, d, cases) ->
              Instr.Switch
                (v, rename d, List.map (fun (c, l) -> (c, rename l)) cases)
            | Instr.Unreachable -> Instr.Unreachable
          in
          let b = { b with Block.term } in
          let b =
            {
              b with
              Block.instrs =
                List.map
                  (fun (i : Instr.t) ->
                    { i with Instr.op = Instr.map_operands subst_fn i.Instr.op })
                  b.Block.instrs;
              Block.term = Instr.map_term_operands subst_fn b.Block.term;
            }
          in
          Some b
        end)
      f.Func.blocks
  in
  let cloned = List.rev !all_new_blocks in
  let blocks = outside @ cloned in
  (* the entry block must stay first *)
  let entry_label = (Func.entry f).Block.label in
  let entry_blocks, others =
    List.partition (fun (b : Block.t) -> String.equal b.Block.label entry_label) blocks
  in
  Func.replace_blocks f (entry_blocks @ others)

let run ?(limits = default_limits) (_m : Ir_module.t) (f : Func.t) :
    Func.t * bool =
  let changed = ref false in
  let rec go f fuel =
    if fuel = 0 then f
    else begin
      let cfg = Cfg.of_func f in
      let loops = Loop.find f in
      (* innermost first: smaller bodies first *)
      let loops =
        List.sort
          (fun a b -> compare (SSet.cardinal a.Loop.body) (SSet.cardinal b.Loop.body))
          loops
      in
      match List.find_map (fun l -> analyze f cfg l limits) loops with
      | Some cl ->
        changed := true;
        go (apply f cl) (fuel - 1)
      | None -> f
    end
  in
  let f = go f 64 in
  (f, !changed)

let pass = { Pass.name = "loop-unroll"; run = (fun m f -> run m f) }
