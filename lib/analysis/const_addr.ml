(* Constant-address analysis: conditional constant propagation on the
   {!Llvm_ir.Dataflow} engine, specialized to prove that syntactically
   dynamic qubit/result addresses (inttoptr of a phi-resolved integer,
   select chains, byte-GEP arithmetic) are in fact static.

   The value lattice per SSA name is Unknown < Cst c < Varying — Unknown
   is the engine's bottom (optimistic "no evidence yet"), so facts only
   harden as edges become feasible; the terminator transfer prunes
   branches whose condition folds, giving SCCP-style reachability. The
   proved facts feed three consumers: {!Qir.Profile_check} (a proved
   address is not a base-profile violation), {!Qir.Addressing} (detect
   upgrades, to_static conversion of programs the syntactic scan
   rejects), and the QA001 lint note. *)

open Llvm_ir
module SMap = Map.Make (String)

type clat = Unknown | Cst of Constant.t | Varying

let join_clat a b =
  match a, b with
  | Unknown, x | x, Unknown -> x
  | Varying, _ | _, Varying -> Varying
  | Cst c1, Cst c2 -> if Constant.equal c1 c2 then Cst c1 else Varying

let clat_equal a b =
  match a, b with
  | Unknown, Unknown | Varying, Varying -> true
  | Cst c1, Cst c2 -> Constant.equal c1 c2
  | (Unknown | Cst _ | Varying), _ -> false

module Fact = struct
  type t = clat SMap.t
  (* bindings are only ever Cst or Varying; absent = Unknown *)

  let bottom = SMap.empty
  let equal = SMap.equal clat_equal
  let join a b = SMap.union (fun _ x y -> Some (join_clat x y)) a b
end

module Engine = Dataflow.Forward (Fact)

let value fact id = Option.value ~default:Unknown (SMap.find_opt id fact)

let operand_lattice fact (o : Operand.t) =
  match o with
  | Operand.Const c -> Cst c
  | Operand.Local id -> value fact id

let set fact id lat =
  match id, lat with
  | None, _ | _, Unknown -> fact
  | Some id, lat -> SMap.add id lat fact

(* Evaluate one non-phi instruction over the fact. *)
let eval fact (op : Instr.op) : clat =
  match op with
  | Instr.Call _ | Instr.Load _ | Instr.Alloca _ | Instr.Store _ -> Varying
  | Instr.Phi _ -> assert false
  | Instr.Freeze v -> operand_lattice fact v.Operand.v
  | Instr.Select (c, a, b) -> (
    match operand_lattice fact c with
    | Cst cc -> (
      match Passes.Const_fold.int_of_const cc with
      | Some n ->
        operand_lattice fact
          (if Int64.equal n 0L then b.Operand.v else a.Operand.v)
      | None -> Varying)
    | Unknown -> Unknown
    | Varying ->
      join_clat
        (operand_lattice fact a.Operand.v)
        (operand_lattice fact b.Operand.v))
  | Instr.Gep (src_ty, base, idxs) -> (
    (* byte-addressed GEP chains over constant pointers fold; anything
       typed beyond i8 would need a data layout we don't model *)
    let base_lat = operand_lattice fact base in
    let idx_lats =
      List.map (fun (i : Operand.typed) -> operand_lattice fact i.Operand.v) idxs
    in
    if List.exists (fun l -> l = Unknown) (base_lat :: idx_lats) then Unknown
    else
      match base_lat, idx_lats with
      | Cst (Constant.Inttoptr b | Constant.Int b), [ Cst i ]
        when Ty.equal src_ty Ty.I8 -> (
        match Passes.Const_fold.int_of_const i with
        | Some i -> Cst (Constant.Inttoptr (Int64.add b i))
        | None -> Varying)
      | Cst Constant.Null, [ Cst i ] when Ty.equal src_ty Ty.I8 -> (
        match Passes.Const_fold.int_of_const i with
        | Some i -> Cst (Constant.Inttoptr i)
        | None -> Varying)
      | _ -> Varying)
  | _ ->
    let operands = Instr.operands op in
    let lats =
      List.map
        (fun (o : Operand.typed) -> operand_lattice fact o.Operand.v)
        operands
    in
    if List.exists (fun l -> l = Unknown) lats then Unknown
    else if List.exists (fun l -> l = Varying) lats then Varying
    else begin
      let subst (o : Operand.t) =
        match o with
        | Operand.Local id -> (
          match value fact id with
          | Cst c -> Operand.Const c
          | Unknown | Varying -> o)
        | Operand.Const _ -> o
      in
      match Passes.Const_fold.fold_instr (Instr.map_operands subst op) with
      | Some c -> Cst c
      | None -> Varying
    end

let transfer_instr _label (i : Instr.t) fact =
  match i.Instr.op with
  | Instr.Phi (_, incoming) ->
    let lat =
      List.fold_left
        (fun acc (v, _) -> join_clat acc (operand_lattice fact v))
        Unknown incoming
    in
    set fact i.Instr.id lat
  | op -> set fact i.Instr.id (eval fact op)

(* Prune edges whose branch condition folds to a constant. *)
let transfer_term _label (t : Instr.term) fact =
  match t with
  | Instr.Ret _ | Instr.Unreachable -> []
  | Instr.Br l -> [ (l, fact) ]
  | Instr.Cond_br (c, th, el) -> (
    match operand_lattice fact c with
    | Cst cc -> (
      match Passes.Const_fold.int_of_const cc with
      | Some n -> [ ((if Int64.equal n 0L then el else th), fact) ]
      | None -> [ (th, fact); (el, fact) ])
    | Unknown -> [] (* condition not yet resolved: wait *)
    | Varying -> [ (th, fact); (el, fact) ])
  | Instr.Switch (v, d, cases) -> (
    match operand_lattice fact v.Operand.v with
    | Cst cc -> (
      match Passes.Const_fold.int_of_const cc with
      | Some n ->
        let target =
          List.fold_left
            (fun acc (c, l) ->
              match Passes.Const_fold.int_of_const c with
              | Some m when Int64.equal m n -> Some l
              | _ -> acc)
            None cases
        in
        [ (Option.value ~default:d target, fact) ]
      | None -> (d, fact) :: List.map (fun (_, l) -> (l, fact)) cases)
    | Unknown -> []
    | Varying -> (d, fact) :: List.map (fun (_, l) -> (l, fact)) cases)

(* ------------------------------------------------------------------ *)

type facts = {
  consts : Constant.t SMap.t;  (* SSA id -> proved constant *)
  reached_blocks : Cfg.SSet.t;
  call_args : (string * clat list) list;
      (* per reached call to a non-quantum callee: its argument lattices,
         the raw material of interprocedural propagation *)
}

let no_facts =
  { consts = SMap.empty; reached_blocks = Cfg.SSet.empty; call_args = [] }

(* [params] seeds the lattice value of each parameter positionally; the
   default Varying is the sound intraprocedural assumption (any caller,
   any argument). {!analyze_module} narrows it to the join over the
   actually-reached call sites. *)
let analyze ?params (f : Func.t) : facts =
  if Func.is_declaration f then no_facts
  else begin
    let param_lats =
      match params with
      | Some ls -> ls
      | None -> Array.make (List.length f.Func.params) Varying
    in
    let init =
      List.fold_left
        (fun (i, fact) (p : Func.param) ->
          let fact =
            if i < Array.length param_lats then
              set fact (Some p.Func.pname) param_lats.(i)
            else set fact (Some p.Func.pname) Varying
          in
          (i + 1, fact))
        (0, Fact.bottom) f.Func.params
      |> snd
    in
    let cfg = Cfg.of_func f in
    let tf = { Engine.instr = transfer_instr; Engine.term = transfer_term } in
    let res = Engine.solve ~init cfg tf in
    (* harvest each definition's lattice value by replaying the blocks *)
    let consts = ref SMap.empty
    and reached = ref Cfg.SSet.empty
    and call_args = ref [] in
    List.iter
      (fun label ->
        if Engine.reached res label then begin
          reached := Cfg.SSet.add label !reached;
          let b = Cfg.block cfg label in
          ignore
            (List.fold_left
               (fun fact (i : Instr.t) ->
                 let fact = transfer_instr label i fact in
                 (match i.Instr.id with
                 | Some id -> (
                   match value fact id with
                   | Cst c -> consts := SMap.add id c !consts
                   | Unknown | Varying -> ())
                 | None -> ());
                 (match i.Instr.op with
                 | Instr.Call (_, callee, args)
                   when not (Names.is_quantum callee) ->
                   call_args :=
                     ( callee,
                       List.map
                         (fun (a : Operand.typed) ->
                           operand_lattice fact a.Operand.v)
                         args )
                     :: !call_args
                 | _ -> ());
                 fact)
               (Engine.block_in res label)
               b.Block.instrs)
        end)
      cfg.Cfg.rpo;
    { consts = !consts; reached_blocks = !reached; call_args = !call_args }
  end

let const_of (facts : facts) id = SMap.find_opt id facts.consts
let block_reached (facts : facts) label = Cfg.SSet.mem label facts.reached_blocks

(* ------------------------------------------------------------------ *)
(* Interprocedural propagation: seed every function's parameters with
   the join of the argument lattices at its reached call sites and
   iterate to a fixpoint. Parameters only harden (Unknown -> Cst ->
   Varying) and each round re-analyzes with harder seeds, so the loop
   terminates; the round bound guards pathological inputs. A function
   whose parameters are still Unknown at the fixpoint has no reached
   call site — it is re-analyzed with Varying parameters so its facts
   never rest on optimism nobody justified. *)

type module_facts = {
  per_func : (string, facts) Hashtbl.t;
  param_lats : (string, clat array) Hashtbl.t;
}

let func_facts (mf : module_facts) name =
  Option.value ~default:no_facts (Hashtbl.find_opt mf.per_func name)

let param_lattices (mf : module_facts) name = Hashtbl.find_opt mf.param_lats name

let analyze_module (m : Ir_module.t) : module_facts =
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
           (if is_root f then Varying else Unknown)))
    defined;
  let per_func = Hashtbl.create 8 in
  let reanalyze (f : Func.t) =
    let facts = analyze ~params:(Hashtbl.find param_lats f.Func.name) f in
    Hashtbl.replace per_func f.Func.name facts;
    facts
  in
  let changed = ref true and rounds = ref 0 in
  let bound = (3 * List.length defined) + 3 in
  while !changed && !rounds < bound do
    changed := false;
    incr rounds;
    List.iter
      (fun (f : Func.t) ->
        let facts = reanalyze f in
        List.iter
          (fun (callee, lats) ->
            match Hashtbl.find_opt param_lats callee with
            | Some target when Array.length target = List.length lats ->
              List.iteri
                (fun i lat ->
                  let joined = join_clat target.(i) lat in
                  if not (clat_equal joined target.(i)) then begin
                    target.(i) <- joined;
                    changed := true
                  end)
                lats
            | Some _ | None -> ())
          facts.call_args)
      defined
  done;
  List.iter
    (fun (f : Func.t) ->
      let ps = Hashtbl.find param_lats f.Func.name in
      if Array.exists (fun l -> l = Unknown) ps then begin
        Array.iteri (fun i l -> if l = Unknown then ps.(i) <- Varying) ps;
        ignore (reanalyze f)
      end)
    defined;
  { per_func; param_lats }

(* Is this operand, used at a qubit/result position, a proved-constant
   address that is *not* already spelled as one? *)
let proved_address (facts : facts) (o : Operand.t) : Constant.t option =
  match o with
  | Operand.Const _ -> None
  | Operand.Local id -> (
    match const_of facts id with
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

let fold_quantum_args ?module_facts (m : Ir_module.t) init k =
  let mf =
    match module_facts with Some mf -> mf | None -> analyze_module m
  in
  List.fold_left
    (fun acc (f : Func.t) ->
      if Func.is_declaration f then acc
      else begin
        let facts = func_facts mf f.Func.name in
        List.fold_left
          (fun acc (b : Block.t) ->
            if not (block_reached facts b.Block.label) then acc
            else
              List.fold_left
                (fun acc (i : Instr.t) ->
                  match i.Instr.op with
                  | Instr.Call (_, callee, args) -> (
                    match Signatures.arg_kinds callee args with
                    | Some kinds ->
                      List.fold_left2
                        (fun acc kind (a : Operand.typed) ->
                          match kind with
                          | Signatures.Qubit | Signatures.Result ->
                            k acc facts f b i a
                          | _ -> acc)
                        acc kinds args
                    | None -> acc)
                  | _ -> acc)
                acc b.Block.instrs)
          acc f.Func.blocks
      end)
    init m.Ir_module.funcs

let summarize ?module_facts (m : Ir_module.t) : summary =
  fold_quantum_args ?module_facts m
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
let rewrite (m : Ir_module.t) : Ir_module.t * int =
  let upgraded = ref 0 in
  let mf = analyze_module m in
  let m' =
    Ir_module.map_funcs m (fun f ->
        if Func.is_declaration f then f
        else begin
          let facts = func_facts mf f.Func.name in
          let blocks =
            List.map
              (fun (b : Block.t) ->
                if not (block_reached facts b.Block.label) then b
                else
                  let instrs =
                    List.map
                      (fun (i : Instr.t) ->
                        match i.Instr.op with
                        | Instr.Call (ret, callee, args) -> (
                          match Signatures.arg_kinds callee args with
                          | Some kinds ->
                            let args =
                              List.map2
                                (fun kind (a : Operand.typed) ->
                                  match kind with
                                  | Signatures.Qubit | Signatures.Result -> (
                                    match proved_address facts a.Operand.v with
                                    | Some c ->
                                      incr upgraded;
                                      { a with Operand.v = Operand.Const c }
                                    | None -> a)
                                  | _ -> a)
                                kinds args
                            in
                            { i with Instr.op = Instr.Call (ret, callee, args) }
                          | None -> i)
                        | _ -> i)
                      b.Block.instrs
                  in
                  { b with Block.instrs })
              f.Func.blocks
          in
          Func.replace_blocks f blocks
        end)
  in
  (m', !upgraded)

(* QA001 notes for the lint driver: addresses that look dynamic but are
   proved static. *)
let notes ?module_facts (m : Ir_module.t) : Diagnostic.t list =
  List.rev
    (fold_quantum_args ?module_facts m []
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
