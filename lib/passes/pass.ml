(* The pass framework: a pass transforms one function and reports whether
   it changed anything. Module-level passes (e.g. inlining) get the whole
   module. *)

open Llvm_ir

type func_pass = {
  name : string;
  run : Ir_module.t -> Func.t -> Func.t * bool;
}

type module_pass = { mname : string; mrun : Ir_module.t -> Ir_module.t * bool }

let of_func_pass (p : func_pass) =
  {
    mname = p.name;
    mrun =
      (fun m ->
        let changed = ref false in
        let m' =
          Ir_module.map_funcs m (fun f ->
              if Func.is_declaration f then f
              else begin
                let f', c = p.run m f in
                if c then changed := true;
                f'
              end)
        in
        (m', !changed));
  }

(* Drops each instruction [simplify] reduces to an operand and substitutes
   that operand for its uses, round after round until nothing reduces. *)
let simplifier name simplify =
  let run (_m : Ir_module.t) (f : Func.t) : Func.t * bool =
    let changed = ref false in
    let rec fixpoint f =
      let subst = ref Subst.SMap.empty in
      let blocks =
        List.map
          (fun (b : Block.t) ->
            let instrs =
              List.filter_map
                (fun (i : Instr.t) ->
                  match i.Instr.id with
                  | Some id -> (
                    match simplify i.Instr.op with
                    | Some replacement ->
                      subst := Subst.SMap.add id replacement !subst;
                      None
                    | None -> Some i)
                  | None -> Some i)
                b.Block.instrs
            in
            { b with Block.instrs })
          f.Func.blocks
      in
      if Subst.SMap.is_empty !subst then f
      else begin
        changed := true;
        (* replacements may chain (x -> y while y -> z was also simplified
           this round): resolve transitively before substituting *)
        let rec resolve (o : Operand.t) =
          match o with
          | Operand.Local name -> (
            match Subst.SMap.find_opt name !subst with
            | Some o' -> resolve o'
            | None -> o)
          | Operand.Const _ -> o
        in
        let resolved = Subst.SMap.map resolve !subst in
        fixpoint (Subst.func resolved (Func.replace_blocks f blocks))
      end
    in
    let f = fixpoint f in
    (f, !changed)
  in
  { name; run }

(* Applies the passes in order, repeating the whole sequence until a round
   changes nothing (or [max_rounds] is reached). *)
let run_until_fixpoint ?(max_rounds = 8) passes m =
  let rec go round m =
    if round >= max_rounds then m
    else begin
      let m, changed =
        List.fold_left
          (fun (m, changed) p ->
            let m', c = p.mrun m in
            (m', changed || c))
          (m, false) passes
      in
      if changed then go (round + 1) m else m
    end
  in
  go 0 m

let run_once passes m =
  List.fold_left (fun m p -> fst (p.mrun m)) m passes
