(* Dead code elimination: removes instructions whose results are unused
   and which have no side effects, iterating until nothing more dies. *)

open Llvm_ir
module SSet = Set.Make (String)

let run (_m : Ir_module.t) (f : Func.t) : Func.t * bool =
  let changed = ref false in
  let rec fixpoint f =
    let used = ref SSet.empty in
    Func.iter_uses f (fun id -> used := SSet.add id !used);
    let died = ref false in
    let blocks =
      List.map
        (fun (b : Block.t) ->
          let instrs =
            List.filter
              (fun (i : Instr.t) ->
                let keep =
                  Instr.has_side_effect i.Instr.op
                  ||
                  match i.Instr.id with
                  | Some id -> SSet.mem id !used
                  | None -> true
                in
                if not keep then died := true;
                keep)
              b.Block.instrs
          in
          { b with Block.instrs })
        f.Func.blocks
    in
    let f = Func.replace_blocks f blocks in
    if !died then begin
      changed := true;
      fixpoint f
    end
    else f
  in
  let f = fixpoint f in
  (f, !changed)

let pass = { Pass.name = "dce"; run }
