(* Compile-once bytecode for the IR subset: each function is lowered a
   single time into a flat instruction array over slot-indexed virtual
   registers, so the hot loop of {!Bc_exec} touches no string hashtable.

   The lowering is deliberately *semantics-preserving against
   {!Interp}*, bug for bug: operand evaluation order, error message
   strings, fuel accounting (one unit per non-phi instruction and per
   terminator), deadline polling cadence and the memory layout must all
   match, because the differential test suite demands bit-identical
   histograms, stats and errors from both engines.

   What is resolved at compile time:
   - locals -> dense slot indices (per-function register file);
   - branch labels -> block indices, one {!edge} per (block, successor
     occurrence) carrying the target's phi move schedule;
   - constants -> immediate values, including globals (the bump
     allocator's layout is deterministic, so global addresses are known
     before execution starts);
   - callees -> defined-function index or external-table index;
   - GEPs -> a static cell offset, a linear scale plan, or a generic
     fallback for dynamic struct navigation.

   Anything the interpreter only faults on when reached (undefined
   locals, aggregate constants in operand position, missing globals,
   unknown labels, phi edges without an entry for the predecessor) is
   compiled to a poison operand/edge that raises the identical error
   when — and only when — it is evaluated. *)

type operand =
  | Imm of Interp.value
  | Slot of int
  | Raise of string (* evaluating it raises Exec_error with this message *)

type gep_plan =
  | Gep_static of int (* precomputed total offset, in cells *)
  | Gep_linear of int * (int * operand) array
      (* static cells + sum of scale * sign-extended dynamic index *)
  | Gep_general of Ty.t * Operand.typed array * operand option array
      (* dynamic struct navigation: resolve dynamic indices, then defer
         to Interp.gep_offset so error behaviour matches exactly *)

type inst =
  | Bin of Instr.binop * Ty.t * int * operand * operand
  | FBin of Instr.fbinop * int * operand * operand
  | ICmp of Instr.icmp * int * operand * operand
  | FCmp of Instr.fcmp * int * operand * operand
  | Alloca of int * int (* dst slot, cells *)
  | Load of int * operand
  | Store of operand * operand (* value, pointer *)
  | Gep of int * operand * gep_plan
  | Call of int * int * operand array (* dst (-1 = drop), func idx, args *)
  | Call_ext of int * int * operand array (* dst, external idx, args *)
  | Select of int * operand * operand * operand
  | Cast of Instr.cast * int * operand * Ty.t
  | Freeze of int * operand
  | Fail_invalid of string (* re-raises Invalid_argument when executed *)

type term =
  | Ret of operand option
  | Br of int (* edge index *)
  | Cond_br of operand * int * int
  | Switch of operand * int * (int64 * int) array
      (* scrutinee, default edge, cases in source order read by
         [Interp.switch_cases] *)
  | Unreachable

type edge =
  | Edge of { etarget : int; dsts : int array; srcs : operand array }
  | Edge_error of string (* Exec_error raised when traversed *)
  | Edge_invalid of string (* Invalid_argument raised when traversed *)

type block = { boff : int; bcount : int; bterm : term }

type func = {
  fname : string;
  nslots : int;
  nparams : int;
  param_slots : int array;
  code : inst array; (* every block's body, concatenated *)
  blocks : block array;
  edges : edge array;
  max_phi_moves : int;
  entry_phi : bool; (* entry block carries phi nodes (an error to enter) *)
}

type program = {
  src : Ir_module.t; (* identity key for compile-once caches *)
  funcs : func array;
  by_name : (string, int) Hashtbl.t;
  decls : (string, unit) Hashtbl.t; (* names visible only as declarations *)
  ext_names : string array; (* external index -> callee name *)
  global_inits : (int64 * Ty.t * Constant.t) array;
  global_addrs : (string * int64) list;
  brk0 : int64; (* bump allocator start after global layout *)
  entry : string option;
}

(* ------------------------------------------------------------------ *)
(* Compilation context                                                  *)

type ctx = {
  m : Ir_module.t;
  globals : (string, int64) Hashtbl.t;
  func_ids : (string, int) Hashtbl.t; (* defined functions, pre-numbered *)
  ext_ids : (string, int) Hashtbl.t;
  mutable ext_rev : string list; (* reversed extern intern table *)
  mutable ext_count : int;
}

let extern_id ctx name =
  match Hashtbl.find_opt ctx.ext_ids name with
  | Some i -> i
  | None ->
    let i = ctx.ext_count in
    Hashtbl.replace ctx.ext_ids name i;
    ctx.ext_rev <- name :: ctx.ext_rev;
    ctx.ext_count <- i + 1;
    i

let compile_const ctx ty (c : Constant.t) =
  match Interp.eval_const (Hashtbl.find_opt ctx.globals) ty c with
  | v -> Imm v
  | exception Ir_error.Exec_error msg -> Raise msg

let compile_operand ctx slots ty (o : Operand.t) =
  match o with
  | Operand.Const c -> compile_const ctx ty c
  | Operand.Local name -> (
    match Hashtbl.find_opt slots name with
    | Some s -> Slot s
    | None -> Raise (Printf.sprintf "undefined local %%%s" name))

(* GEP lowering. The interpreter resolves dynamic indices to their
   sign-extended value and then walks the type; we precompute as much of
   that walk as the indices allow. Struct navigation with a dynamic (or
   out-of-range, or non-integer) index falls back to the generic plan so
   the error surfaces at execution time exactly as in the interpreter. *)
let compile_gep ctx slots ty (idxs : Operand.typed list) =
  let general () =
    let dynops =
      List.map
        (fun (i : Operand.typed) ->
          match i.Operand.v with
          | Operand.Const _ -> None
          | Operand.Local _ ->
            Some (compile_operand ctx slots i.Operand.ty i.Operand.v))
        idxs
    in
    Gep_general (ty, Array.of_list idxs, Array.of_list dynops)
  in
  let rec go cur_ty idxs static lins =
    match idxs with
    | [] -> Some (static, List.rev lins)
    | (i : Operand.typed) :: rest -> (
      match i.Operand.v with
      | Operand.Const (Constant.Int n) -> (
        let n = Int64.to_int n in
        match cur_ty with
        | Ty.Array (_, elt) ->
          go elt rest (static + (n * Ty.size_in_cells elt)) lins
        | Ty.Struct fields ->
          let rec field_offset k = function
            | [] -> None
            | f :: fs ->
              if k = 0 then Some (0, f)
              else
                Option.map
                  (fun (off, ty) -> (off + Ty.size_in_cells f, ty))
                  (field_offset (k - 1) fs)
          in
          Option.bind (field_offset n fields) (fun (off, fty) ->
              go fty rest (static + off) lins)
        | _ -> go cur_ty rest (static + (n * Ty.size_in_cells cur_ty)) lins)
      | Operand.Const _ -> None (* non-integer constant: generic error path *)
      | Operand.Local _ -> (
        let op = compile_operand ctx slots i.Operand.ty i.Operand.v in
        match cur_ty with
        | Ty.Array (_, elt) ->
          go elt rest static ((Ty.size_in_cells elt, op) :: lins)
        | Ty.Struct _ -> None (* dynamic struct index *)
        | _ -> go cur_ty rest static ((Ty.size_in_cells cur_ty, op) :: lins)))
  in
  match go ty idxs 0 [] with
  | Some (static, []) -> Gep_static static
  | Some (static, lins) -> Gep_linear (static, Array.of_list lins)
  | None -> general ()
  | exception Invalid_argument _ -> general ()

let compile_inst ctx slots (i : Instr.t) : inst option =
  let dst =
    match i.Instr.id with
    | Some id -> ( match Hashtbl.find_opt slots id with Some s -> s | None -> -1)
    | None -> -1
  in
  let op ty o = compile_operand ctx slots ty o in
  match i.Instr.op with
  | Instr.Phi _ -> None (* phis live on edges, not in the body *)
  | Instr.Binop (b, ty, x, y) -> Some (Bin (b, ty, dst, op ty x, op ty y))
  | Instr.Fbinop (b, _, x, y) ->
    Some (FBin (b, dst, op Ty.Double x, op Ty.Double y))
  | Instr.Icmp (p, ty, x, y) -> Some (ICmp (p, dst, op ty x, op ty y))
  | Instr.Fcmp (p, _, x, y) ->
    Some (FCmp (p, dst, op Ty.Double x, op Ty.Double y))
  | Instr.Alloca ty -> (
    match Ty.size_in_cells ty with
    | cells -> Some (Alloca (dst, cells))
    | exception Invalid_argument msg -> Some (Fail_invalid msg))
  | Instr.Load (_, p) -> Some (Load (dst, op Ty.Ptr p))
  | Instr.Store (v, p) ->
    Some (Store (op v.Operand.ty v.Operand.v, op Ty.Ptr p))
  | Instr.Gep (ty, base, idxs) ->
    Some (Gep (dst, op Ty.Ptr base, compile_gep ctx slots ty idxs))
  | Instr.Call (ret_ty, callee, args) -> (
    let args =
      Array.of_list
        (List.map
           (fun (a : Operand.typed) -> op a.Operand.ty a.Operand.v)
           args)
    in
    let dst = if Ty.equal ret_ty Ty.Void then -1 else dst in
    (* Dispatch mirrors the interpreter: the *first* @callee in module
       order decides, a bare declaration routing to the external table. *)
    match Ir_module.find_func ctx.m callee with
    | Some f when not (Func.is_declaration f) ->
      Some (Call (dst, Hashtbl.find ctx.func_ids callee, args))
    | Some _ | None -> Some (Call_ext (dst, extern_id ctx callee, args)))
  | Instr.Select (c, a, b) ->
    Some
      (Select
         ( dst,
           op Ty.I1 c,
           op a.Operand.ty a.Operand.v,
           op b.Operand.ty b.Operand.v ))
  | Instr.Cast (c, src, ty) ->
    Some (Cast (c, dst, op src.Operand.ty src.Operand.v, ty))
  | Instr.Freeze v -> Some (Freeze (dst, op v.Operand.ty v.Operand.v))

(* ------------------------------------------------------------------ *)
(* Function compilation                                                 *)

let block_phis (b : Block.t) =
  List.filter_map
    (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Phi (ty, incoming) -> Some (i.Instr.id, ty, incoming)
      | _ -> None)
    b.Block.instrs

let compile_func ctx (f : Func.t) : func =
  let slots = Hashtbl.create 64 in
  let nslots = ref 0 in
  let slot_of name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None ->
      let s = !nslots in
      Hashtbl.replace slots name s;
      incr nslots;
      s
  in
  let param_slots =
    Array.of_list
      (List.map (fun (p : Func.param) -> slot_of p.Func.pname) f.Func.params)
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.id with
          | Some id -> ignore (slot_of id)
          | None -> ())
        b.Block.instrs)
    f.Func.blocks;
  let blocks = Array.of_list f.Func.blocks in
  let block_idx = Hashtbl.create 16 in
  Array.iteri
    (fun k (b : Block.t) ->
      if not (Hashtbl.mem block_idx b.Block.label) then
        Hashtbl.add block_idx b.Block.label k)
    blocks;
  let code = ref [] and ncode = ref 0 in
  let edges = ref [] and nedges = ref 0 in
  let max_moves = ref 0 in
  (* One edge per (source block, successor occurrence): resolves the
     label and schedules the target's phi moves for this predecessor. *)
  let add_edge ~pred label =
    let e =
      match Hashtbl.find_opt block_idx label with
      | None ->
        Edge_invalid
          (Printf.sprintf "Func.find_block: no block %%%s in @%s" label
             f.Func.name)
      | Some etarget -> (
        let phis = block_phis blocks.(etarget) in
        let rec moves acc = function
          | [] ->
            let dsts, srcs = List.split (List.rev acc) in
            Edge
              {
                etarget;
                dsts = Array.of_list dsts;
                srcs = Array.of_list srcs;
              }
          | (id, ty, incoming) :: rest -> (
            (* first entry for the predecessor wins, like List.assoc *)
            match
              List.find_opt (fun (_, l) -> String.equal l pred) incoming
            with
            | Some (v, _) -> (
              match id with
              | Some id ->
                moves ((slot_of id, compile_operand ctx slots ty v) :: acc)
                  rest
              | None ->
                (* id-less phi: the interpreter's Option.get raises *)
                Edge_invalid "option is None")
            | None ->
              Edge_error
                (Printf.sprintf "phi has no entry for predecessor %%%s" pred))
        in
        moves [] phis)
    in
    (match e with
    | Edge { dsts; _ } ->
      if Array.length dsts > !max_moves then max_moves := Array.length dsts
    | Edge_error _ | Edge_invalid _ -> ());
    let k = !nedges in
    edges := e :: !edges;
    incr nedges;
    k
  in
  let compiled_blocks =
    Array.map
      (fun (b : Block.t) ->
        let boff = !ncode in
        List.iter
          (fun (i : Instr.t) ->
            match compile_inst ctx slots i with
            | Some inst ->
              code := inst :: !code;
              incr ncode
            | None -> ())
          b.Block.instrs;
        let bcount = !ncode - boff in
        let pred = b.Block.label in
        let bterm =
          match b.Block.term with
          | Instr.Ret None -> Ret None
          | Instr.Ret (Some v) ->
            Ret (Some (compile_operand ctx slots v.Operand.ty v.Operand.v))
          | Instr.Br l -> Br (add_edge ~pred l)
          | Instr.Cond_br (c, t, e) ->
            let ct = add_edge ~pred t in
            let ce = add_edge ~pred e in
            Cond_br (compile_operand ctx slots Ty.I1 c, ct, ce)
          | Instr.Switch (v, d, cases) ->
            let de = add_edge ~pred d in
            let cs = List.map (fun (c, l) -> (c, add_edge ~pred l)) cases in
            Switch
              ( compile_operand ctx slots v.Operand.ty v.Operand.v,
                de,
                Interp.switch_cases v.Operand.ty cs )
          | Instr.Unreachable -> Unreachable
        in
        { boff; bcount; bterm })
      blocks
  in
  let entry_phi =
    Array.length blocks > 0 && block_phis blocks.(0) <> []
  in
  {
    fname = f.Func.name;
    nslots = !nslots;
    nparams = List.length f.Func.params;
    param_slots;
    code = Array.of_list (List.rev !code);
    blocks = compiled_blocks;
    edges = Array.of_list (List.rev !edges);
    max_phi_moves = !max_moves;
    entry_phi;
  }

(* ------------------------------------------------------------------ *)
(* Module compilation                                                   *)

let compile (m : Ir_module.t) : program =
  (* Global layout replicates Interp.create exactly: module order, one
     bump allocation of max(cells, 1) cells per global. *)
  let globals = Hashtbl.create 16 in
  let brk = ref Interp.heap_base in
  let global_addrs = ref [] and global_inits = ref [] in
  List.iter
    (fun (g : Ir_module.global) ->
      let cells = Ty.size_in_cells g.Ir_module.gty in
      let addr = !brk in
      brk :=
        Int64.add !brk
          (Int64.mul (Int64.of_int (max cells 1)) Interp.cell_size);
      Hashtbl.replace globals g.Ir_module.gname addr;
      global_addrs := (g.Ir_module.gname, addr) :: !global_addrs;
      match g.Ir_module.ginit with
      | Some c ->
        global_inits := (addr, g.Ir_module.gty, c) :: !global_inits
      | None -> ())
    m.Ir_module.globals;
  (* Number first-occurrence defined functions before compiling any
     body, so call sites resolve to indices directly; later duplicates
     are unreachable through Ir_module.find_func and are not compiled. *)
  let by_name = Hashtbl.create 16 in
  let decls = Hashtbl.create 16 in
  let to_compile = ref [] and nfuncs = ref 0 in
  List.iter
    (fun (f : Func.t) ->
      if not (Hashtbl.mem by_name f.Func.name || Hashtbl.mem decls f.Func.name)
      then
        if Func.is_declaration f then Hashtbl.replace decls f.Func.name ()
        else begin
          Hashtbl.replace by_name f.Func.name !nfuncs;
          to_compile := f :: !to_compile;
          incr nfuncs
        end)
    m.Ir_module.funcs;
  let ctx =
    {
      m;
      globals;
      func_ids = by_name;
      ext_ids = Hashtbl.create 32;
      ext_rev = [];
      ext_count = 0;
    }
  in
  let funcs =
    Array.of_list (List.rev_map (fun f -> compile_func ctx f) !to_compile)
  in
  {
    src = m;
    funcs;
    by_name;
    decls;
    ext_names = Array.of_list (List.rev ctx.ext_rev);
    global_inits = Array.of_list (List.rev !global_inits);
    global_addrs = List.rev !global_addrs;
    brk0 = !brk;
    entry =
      (match Ir_module.entry_point m with
      | Some f -> Some f.Func.name
      | None -> None);
  }
