(* Constant addresses on top of {!Passes.Sccp}'s solver: a qubit/result
   operand that is dynamically shaped (inttoptr of a phi-resolved integer,
   a select chain, a GEP over a constant address) but solves to a constant
   is a proved static address. {!analyze_module} adds the interprocedural
   part, seeding parameters from reached call sites. The proofs feed
   {!Qir.Profile_check}, {!Qir.Addressing} and the QA001 lint note. *)

open Llvm_ir
module Sccp = Passes.Sccp

(* ------------------------------------------------------------------ *)
(* Interprocedural propagation: seed every function's parameters with
   the join of the argument lattices at its reached call sites and
   iterate to a fixpoint. Parameters only harden (Unknown -> Cst ->
   Varying) and each round re-solves with harder seeds, so the loop
   terminates; the round bound guards pathological inputs. A function
   whose parameters are still Unknown at the fixpoint has no reached
   call site — it is re-solved with Varying parameters so its facts
   never rest on optimism nobody justified. Each function is solved once
   per seed array it reaches. *)

(* Each function's last seeds and their solution. *)
type module_facts = (string, Sccp.lattice array * Sccp.solution) Hashtbl.t

let func_facts (mf : module_facts) name = snd (Hashtbl.find mf name)

(* [k acc b i callee args] over every call in a reached block of [f]. *)
let fold_calls sol (f : Func.t) init k =
  List.fold_left
    (fun acc (b : Block.t) ->
      if not (Sccp.reached sol b.Block.label) then acc
      else
        List.fold_left
          (fun acc (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Call (_, callee, args) -> k acc b i callee args
            | _ -> acc)
          acc b.Block.instrs)
    init f.Func.blocks

(* Argument lattices at each reached call to a non-quantum callee. *)
let call_args (f : Func.t) sol =
  fold_calls sol f [] (fun acc _ _ callee args ->
      if Names.is_quantum callee then acc
      else
        let lat (a : Operand.typed) = Sccp.lattice_of sol a.Operand.v in
        (callee, List.map lat args) :: acc)

(* [plain f] is [f]'s solve with every parameter Varying: the seeds of a
   root, and of any function whose seeds all went Varying. *)
let analyze_module (plain : Func.t -> Sccp.solution) (m : Ir_module.t) :
    module_facts =
  let defined = Ir_module.defined_funcs m in
  let entry =
    match Ir_module.entry_point m with
    | Some f when not (Func.is_declaration f) -> Some f.Func.name
    | None | Some _ -> None
  in
  let is_root (f : Func.t) =
    match entry with
    | Some e -> String.equal f.Func.name e
    | None -> true (* no entry: every function is a potential root *)
  in
  let param_lats = Hashtbl.create 8 in
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.replace param_lats f.Func.name
        (Array.make (List.length f.Func.params)
           (if is_root f then Sccp.Varying else Sccp.Unknown)))
    defined;
  let per_func = Hashtbl.create 8 in
  let resolve (f : Func.t) =
    let seeds = Hashtbl.find param_lats f.Func.name in
    match Hashtbl.find_opt per_func f.Func.name with
    | Some (solved, sol) when Array.for_all2 Sccp.equal solved seeds -> sol
    | _ ->
      let sol =
        if Array.for_all (Sccp.equal Sccp.Varying) seeds then plain f
        else Sccp.solve ~params:seeds f
      in
      Hashtbl.replace per_func f.Func.name (Array.copy seeds, sol);
      sol
  in
  let changed = ref true and rounds = ref 0 in
  let bound = (3 * List.length defined) + 3 in
  while !changed && !rounds < bound do
    changed := false;
    incr rounds;
    List.iter
      (fun (f : Func.t) ->
        List.iter
          (fun (callee, lats) ->
            match Hashtbl.find_opt param_lats callee with
            | Some target when Array.length target = List.length lats ->
              List.iteri
                (fun i lat ->
                  let joined = Sccp.join target.(i) lat in
                  if not (Sccp.equal joined target.(i)) then begin
                    target.(i) <- joined;
                    changed := true
                  end)
                lats
            | Some _ | None -> ())
          (call_args f (resolve f)))
      defined
  done;
  List.iter
    (fun (f : Func.t) ->
      let ps = Hashtbl.find param_lats f.Func.name in
      if Array.exists (function Sccp.Unknown -> true | _ -> false) ps then begin
        Array.iteri
          (fun i l -> if Sccp.equal l Sccp.Unknown then ps.(i) <- Sccp.Varying)
          ps;
        ignore (resolve f)
      end)
    defined;
  per_func

(* Is this operand, used at a qubit/result position, a proved-constant
   address that is *not* already spelled as one? *)
let proved_address (facts : Sccp.solution) (o : Operand.t) : Constant.t option =
  match o with
  | Operand.Const _ -> None
  | Operand.Local id -> (
    match Sccp.const_of facts id with
    | Some (Constant.Inttoptr n) ->
      Some (if Int64.equal n 0L then Constant.Null else Constant.Inttoptr n)
    | Some Constant.Null -> Some Constant.Null
    | Some _ | None -> None)

(* ------------------------------------------------------------------ *)
(* Module-level summary and rewriting.                                  *)

type summary = {
  total_args : int;  (* qubit/result operands of quantum calls *)
  syntactic_static : int;
  proved_static : int;  (* dynamically shaped but proved constant *)
  dynamic : int;
}

let fold_quantum_args mf (m : Ir_module.t) init k =
  List.fold_left
    (fun acc (f : Func.t) ->
      if Func.is_declaration f then acc
      else
        let facts = func_facts mf f.Func.name in
        fold_calls facts f acc (fun acc b i callee args ->
            match Signatures.arg_kinds callee args with
            | Some kinds ->
              List.fold_left2
                (fun acc kind (a : Operand.typed) ->
                  match kind with
                  | Signatures.Qubit | Signatures.Result -> k acc facts f b i a
                  | _ -> acc)
                acc kinds args
            | None -> acc))
    init m.Ir_module.funcs

let summarize mf (m : Ir_module.t) : summary =
  fold_quantum_args mf m
    { total_args = 0; syntactic_static = 0; proved_static = 0; dynamic = 0 }
    (fun acc facts _f _b _i (a : Operand.typed) ->
      let acc = { acc with total_args = acc.total_args + 1 } in
      match a.Operand.v with
      | Operand.Const (Constant.Null | Constant.Inttoptr _) ->
        { acc with syntactic_static = acc.syntactic_static + 1 }
      | o -> (
        match proved_address facts o with
        | Some _ -> { acc with proved_static = acc.proved_static + 1 }
        | None -> { acc with dynamic = acc.dynamic + 1 }))

(* Rewrites every proved-constant qubit/result operand into its constant
   spelling. Returns the module and the number of upgraded operands; the
   address computations left behind are dead and fall to plain DCE. *)
let rewrite mf (m : Ir_module.t) : Ir_module.t * int =
  let upgraded = ref 0 in
  let upgrade facts (i : Instr.t) =
    match i.Instr.op with
    | Instr.Call (ret, callee, args) -> (
      match Signatures.arg_kinds callee args with
      | Some kinds ->
        let arg kind (a : Operand.typed) =
          match kind with
          | Signatures.Qubit | Signatures.Result -> (
            match proved_address facts a.Operand.v with
            | Some c ->
              incr upgraded;
              { a with Operand.v = Operand.Const c }
            | None -> a)
          | _ -> a
        in
        { i with Instr.op = Instr.Call (ret, callee, List.map2 arg kinds args) }
      | None -> i)
    | _ -> i
  in
  let m' =
    Ir_module.map_funcs m (fun f ->
        if Func.is_declaration f then f
        else
          let facts = func_facts mf f.Func.name in
          let block (b : Block.t) =
            if not (Sccp.reached facts b.Block.label) then b
            else { b with Block.instrs = List.map (upgrade facts) b.Block.instrs }
          in
          Func.replace_blocks f (List.map block f.Func.blocks))
  in
  (m', !upgraded)

(* QA001 notes for the lint driver: addresses that look dynamic but are
   proved static. *)
let notes mf (m : Ir_module.t) : Diagnostic.t list =
  List.rev
    (fold_quantum_args mf m []
       (fun acc facts f b i (a : Operand.typed) ->
         match proved_address facts a.Operand.v with
         | Some c ->
           Diagnostic.make ~rule:"QA001" ~severity:Diagnostic.Note
             ~where:(Printf.sprintf "@%s %%%s" f.Func.name b.Block.label)
             "operand %s of %s is proved static (= %s)"
             (Operand.to_string a.Operand.v)
             (match i.Instr.op with
             | Instr.Call (_, callee, _) -> "@" ^ callee
             | _ -> "call")
             (Constant.to_string c)
           :: acc
         | None -> acc))
