(* Execution engine for {!Bytecode} programs.

   The dispatch loop reads operands from a per-call value array (no
   string hashtable on the hot path), walks blocks by index, and plays
   each edge's phi move schedule as a parallel move through a scratch
   buffer. Observable behaviour — results, stats, fuel, deadline
   polling, error strings — matches {!Interp} bit for bit; the
   differential suite in test/ holds both engines to that. *)

open Interp

type t = {
  prog : Bytecode.program;
  mem : (int64, value) Hashtbl.t;
  ext_impls : (value list -> value) option array;
  externals_by_name : (string, value list -> value) Hashtbl.t;
  mutable brk : int64; (* bump allocator *)
  mutable fuel : int; (* remaining instruction budget; < 0 = unlimited *)
  deadline : (unit -> bool) option;
  mutable deadline_tick : int;
  stats : Interp.stats;
}

let error fmt = Ir_error.exec_error fmt

let create ?(fuel = -1) ?deadline ?(externals = []) (prog : Bytecode.program) =
  let mem = Hashtbl.create 256 in
  Array.iter
    (fun (addr, ty, c) -> Interp.store_const_into mem addr ty c)
    prog.Bytecode.global_inits;
  let externals_by_name = Hashtbl.create 64 in
  List.iter
    (fun (name, fn) -> Hashtbl.replace externals_by_name name fn)
    externals;
  {
    prog;
    mem;
    ext_impls =
      Array.map
        (fun name -> Hashtbl.find_opt externals_by_name name)
        prog.Bytecode.ext_names;
    externals_by_name;
    brk = prog.Bytecode.brk0;
    fuel;
    deadline;
    deadline_tick = 0;
    stats =
      { instructions = 0; external_calls = 0; internal_calls = 0;
        blocks_entered = 0 };
  }

let stats st = st.stats

let register_external st name fn =
  Hashtbl.replace st.externals_by_name name fn;
  Array.iteri
    (fun i n -> if String.equal n name then st.ext_impls.(i) <- Some fn)
    st.prog.Bytecode.ext_names

(* Identical cadence and messages to Interp.consume_budget. *)
let consume_budget st =
  st.stats.instructions <- st.stats.instructions + 1;
  (* one branch on the unlimited (-1) path *)
  if st.fuel >= 0 then begin
    if st.fuel = 0 then error "instruction budget exhausted";
    st.fuel <- st.fuel - 1
  end;
  match st.deadline with
  | None -> ()
  | Some expired ->
    st.deadline_tick <- st.deadline_tick + 1;
    if st.deadline_tick land 127 = 0 && expired () then
      Ir_error.timeout_error
        "wall-clock deadline exceeded after %d instructions"
        st.stats.instructions

let alloc st cells =
  let addr = st.brk in
  st.brk <-
    Int64.add st.brk (Int64.mul (Int64.of_int (max cells 1)) Interp.cell_size);
  addr

let get frame (o : Bytecode.operand) =
  match o with
  | Bytecode.Slot s -> Array.unsafe_get frame s
  | Bytecode.Imm v -> v
  | Bytecode.Raise msg -> error "%s" msg

let set frame dst v = if dst >= 0 then Array.unsafe_set frame dst v

let call_external st name args =
  match Hashtbl.find_opt st.externals_by_name name with
  | Some fn ->
    st.stats.external_calls <- st.stats.external_calls + 1;
    fn args
  | None -> error "call to external function @%s with no implementation" name

let call_ext_idx st ext args =
  match st.ext_impls.(ext) with
  | Some fn ->
    st.stats.external_calls <- st.stats.external_calls + 1;
    fn args
  | None ->
    error "call to external function @%s with no implementation"
      st.prog.Bytecode.ext_names.(ext)

let rec exec_func st fidx (args : value list) : value =
  let f = st.prog.Bytecode.funcs.(fidx) in
  let nargs = List.length args in
  if nargs <> f.Bytecode.nparams then
    error "@%s called with %d arguments, expected %d" f.Bytecode.fname nargs
      f.Bytecode.nparams;
  let frame = Array.make (max f.Bytecode.nslots 1) VVoid in
  List.iteri (fun k v -> frame.(f.Bytecode.param_slots.(k)) <- v) args;
  let scratch = Array.make (max f.Bytecode.max_phi_moves 1) VVoid in
  let code = f.Bytecode.code in
  (* Edge/block/code indices and slot numbers are produced and bounds-
     checked by the compiler, so the dispatch loop indexes unsafely. *)
  let take_edge e =
    match Array.unsafe_get f.Bytecode.edges e with
    | Bytecode.Edge { etarget; dsts; srcs } ->
      (* parallel move: all sources read before any destination writes *)
      let n = Array.length dsts in
      for k = 0 to n - 1 do
        Array.unsafe_set scratch k (get frame (Array.unsafe_get srcs k))
      done;
      for k = 0 to n - 1 do
        Array.unsafe_set frame (Array.unsafe_get dsts k)
          (Array.unsafe_get scratch k)
      done;
      etarget
    | Bytecode.Edge_error msg -> error "%s" msg
    | Bytecode.Edge_invalid msg -> raise (Invalid_argument msg)
  in
  let rec run_block bidx ~entry =
    st.stats.blocks_entered <- st.stats.blocks_entered + 1;
    if entry && f.Bytecode.entry_phi then error "phi node in the entry block";
    let b = Array.unsafe_get f.Bytecode.blocks bidx in
    let stop = b.Bytecode.boff + b.Bytecode.bcount - 1 in
    for k = b.Bytecode.boff to stop do
      exec_inst st frame (Array.unsafe_get code k)
    done;
    consume_budget st;
    match b.Bytecode.bterm with
    | Bytecode.Ret None -> VVoid
    | Bytecode.Ret (Some o) -> get frame o
    | Bytecode.Br e -> run_block (take_edge e) ~entry:false
    | Bytecode.Cond_br (c, t, e) ->
      let cond = as_bool (get frame c) in
      run_block (take_edge (if cond then t else e)) ~entry:false
    | Bytecode.Switch (o, d, cases) ->
      run_block (take_edge (switch_target (get frame o) d cases)) ~entry:false
    | Bytecode.Unreachable ->
      error "reached 'unreachable' in @%s" f.Bytecode.fname
  in
  if Array.length f.Bytecode.blocks = 0 then
    (* not reachable: declarations are never compiled *)
    error "@%s has no blocks" f.Bytecode.fname
  else run_block 0 ~entry:true

and exec_inst st frame (i : Bytecode.inst) =
  consume_budget st;
  match i with
  | Bytecode.Bin (b, ty, dst, x, y) ->
    set frame dst (eval_binop b ty (get frame x) (get frame y))
  | Bytecode.FBin (b, dst, x, y) ->
    set frame dst (eval_fbinop b (get frame x) (get frame y))
  | Bytecode.ICmp (p, dst, x, y) ->
    set frame dst (eval_icmp p (get frame x) (get frame y))
  | Bytecode.FCmp (p, dst, x, y) ->
    set frame dst (eval_fcmp p (get frame x) (get frame y))
  | Bytecode.Alloca (dst, cells) -> set frame dst (VPtr (alloc st cells))
  | Bytecode.Load (dst, p) -> (
    let addr = as_ptr (get frame p) in
    match Hashtbl.find_opt st.mem addr with
    | Some v -> set frame dst v
    | None -> error "load from uninitialized address 0x%Lx" addr)
  | Bytecode.Store (v, p) ->
    let value = get frame v in
    let addr = as_ptr (get frame p) in
    Hashtbl.replace st.mem addr value
  | Bytecode.Gep (dst, base, plan) -> (
    let base_addr = as_ptr (get frame base) in
    let off =
      match plan with
      | Bytecode.Gep_static off -> off
      | Bytecode.Gep_linear (static, scales) ->
        let off = ref static in
        Array.iter
          (fun (scale, o) ->
            off := !off + (scale * Int64.to_int (as_signed (get frame o))))
          scales;
        !off
      | Bytecode.Gep_general (ty, idxs, dynops) ->
        let idxs =
          List.mapi
            (fun k (i : Operand.typed) ->
              match dynops.(k) with
              | None -> i
              | Some o ->
                Operand.const i.Operand.ty
                  (Constant.Int (as_signed (get frame o))))
            (Array.to_list idxs)
        in
        Interp.gep_offset ty idxs
    in
    set frame dst
      (VPtr (Int64.add base_addr (Int64.mul (Int64.of_int off) Interp.cell_size))))
  | Bytecode.Call (dst, fidx, args) ->
    let argv = eval_args frame args in
    st.stats.internal_calls <- st.stats.internal_calls + 1;
    let r = exec_func st fidx argv in
    set frame dst r
  | Bytecode.Call_ext (dst, ext, args) ->
    let argv = eval_args frame args in
    set frame dst (call_ext_idx st ext argv)
  | Bytecode.Select (dst, c, a, b) ->
    let cond = as_bool (get frame c) in
    set frame dst (if cond then get frame a else get frame b)
  | Bytecode.Cast (c, dst, v, ty) ->
    set frame dst (eval_cast c (get frame v) ty)
  | Bytecode.Freeze (dst, v) -> set frame dst (get frame v)
  | Bytecode.Fail_invalid msg -> raise (Invalid_argument msg)

and eval_args frame args =
  (* left to right, like List.map over the interpreter's operands *)
  List.map (fun o -> get frame o) (Array.to_list args)

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let run_function st name args =
  match Hashtbl.find_opt st.prog.Bytecode.by_name name with
  | Some fidx -> exec_func st fidx args
  | None ->
    if Hashtbl.mem st.prog.Bytecode.decls name then call_external st name args
    else error "no function @%s" name

let run_entry st =
  match st.prog.Bytecode.entry with
  | Some name -> run_function st name []
  | None -> error "module has no entry point"
