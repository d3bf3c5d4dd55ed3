(* The gate-tape fast path: when static analysis proves the entry point
   is a straight-line sequence of quantum operations whose every qubit
   and result operand resolves — no classical control flow, no classical
   feedback — the program *is* its gate sequence. We extract that
   sequence once and replay it per shot directly against the backend,
   skipping instruction dispatch entirely.

   This is the batched sampler's eligibility tier derived from the
   analyses (Sccp constant propagation + Value_track resolution +
   Lifetime discipline + call-graph reachability) instead of syntax, so
   it also covers programs the circuit re-parser refuses: mid-circuit
   resets, measurements feeding later recorded output, proved-but-not-
   spelled static addresses (the phi_addr.ll shape), and dynamically
   addressed entries (Fig. 1's allocate/store/load pattern) as written.
   For those the walk replays the runtime's allocator in program order
   — the only place outside {!Runtime} that does — reading the entry's
   Value_track solution and never rewriting the module.

   Soundness contract: [extract] returns [Some tape] only when replaying
   the tape against a fresh backend instance performs *exactly* the
   backend call sequence (ensure/apply/measure/reset order included)
   that per-shot interpretation would, so histograms are bit-identical
   for the same seeds. Anything the interpreter might fault on — or any
   construct outside the proven core — rejects the tape and falls back
   to interpretation, which then behaves however it always did. *)

open Llvm_ir
open Qcircuit

type op =
  | Gate of Gate.t * int array
  | Measure of int * int64 (* qubit, result address *)
  | Reset of int
  | Record of int64 (* result address, appended to the output key *)
  | Grow of int (* an allocation: the register grows to this size *)

type t = { ops : op array; records : int; qubits : int }

let length tape = Array.length tape.ops

(* Exact register requirement: the register size at the end of a shot,
   allocated qubits no gate touches included. The service tier's
   admission control prefers this over the entry point's declared
   "required_num_qubits" when a cached tape is available — the proof
   beats the attribute. *)
let qubits tape = tape.qubits

(* ------------------------------------------------------------------ *)
(* Extraction                                                           *)

exception Refused

module Vt = Qir_analysis.Value_track

(* One walk over the entry in program order, replaying the runtime's
   allocator (Sec. IV-A's "on the fly" register) without running it:
   [size] is the register as {!Runtime} grows it — static addresses
   ensure their index, a fresh qubit is numbered at the current size —
   and [next_array] the next array handle it would hand out. *)
type state = {
  facts : Passes.Sccp.solution;
  vt : Vt.t option Lazy.t;  (* [None] when the entry allocates nothing *)
  mutable size : int;
  mutable next_array : int64;
  allocs : (int, int64 * int64) Hashtbl.t;
      (* allocation site -> (first simulator qubit, or array handle for
         a result array; element count), once it has run *)
  stored : (string, unit) Hashtbl.t;  (* quantum slots stored so far *)
  measured : (int64, unit) Hashtbl.t;
  mutable ops : op list;
  mutable records : int;
}

let emit st op =
  st.ops <- op :: st.ops;
  match op with Record _ -> st.records <- st.records + 1 | _ -> ()

let resolve_const facts (o : Operand.t) : Constant.t option =
  match o with
  | Operand.Const c -> Some c
  | Operand.Local id -> Passes.Sccp.const_of facts id

let resolve_int facts (o : Operand.t) =
  match resolve_const facts o with Some (Constant.Int n) -> Some n | _ -> None

(* Address of a qubit/result pointer operand. Syntactic constants admit
   only the shapes the interpreter evaluates without trapping at ptr
   type (null / inttoptr); proved locals also admit integer constants,
   whose VInt payload flows into the runtime's address resolution. *)
let addr_of facts (o : Operand.t) : int64 =
  let syntactic = match o with Operand.Const _ -> true | _ -> false in
  match resolve_const facts o with
  | Some Constant.Null -> 0L
  | Some (Constant.Inttoptr n) -> n
  | Some (Constant.Int n) when not syntactic -> n
  | _ -> raise Refused

(* The entry's Value_track resolution, for what constants cannot name:
   allocated qubits, array elements, quantum pointers in stack slots. *)
let tracked st =
  match Lazy.force st.vt with Some vt -> vt | None -> raise Refused

let grow st n =
  if n > Names.max_static_qubit then raise Refused;
  st.size <- max st.size n

(* Static addresses map 1:1 to simulator qubits and grow the register
   (the replay's ensure does the growing); cap absurd indices so the
   tape never commits the backend to an allocation the analysis can't
   justify. *)
let static_qubit st addr =
  if
    Int64.unsigned_compare addr Names.dynamic_base < 0
    && Int64.compare addr (Int64.of_int Names.max_static_qubit) < 0
  then begin
    let q = Int64.to_int addr in
    grow st (q + 1);
    q
  end
  else raise Refused

(* The base of an allocation that has run, when [i] indexes it. *)
let base st site i =
  match Hashtbl.find_opt st.allocs site with
  | Some (base, count) when i >= 0L && i < count -> base
  | _ -> raise Refused

let qubit_of st (o : Operand.t) : int =
  match resolve_const st.facts o with
  | Some _ -> static_qubit st (addr_of st.facts o)
  | None -> (
    match Vt.qubit_of (tracked st) o with
    | Vt.Static a -> static_qubit st a
    | Vt.Alloc s -> Int64.to_int (base st s 0L)
    | Vt.Elem (s, i) -> Int64.to_int (Int64.add (base st s i) i)
    | Vt.QParam _ | Vt.QUnknown -> raise Refused)

(* The runtime's address of a result operand: constants as written,
   array elements where the runtime lays them out — so results sort as
   the runtime's do (static first, then arrays in allocation order). *)
let result_of st (o : Operand.t) : int64 =
  match resolve_const st.facts o with
  | Some _ -> addr_of st.facts o
  | None -> (
    match Vt.result_of (tracked st) o with
    | Vt.RStatic a -> a
    | Vt.RElem (s, i) -> Runtime.array_elem (base st s i) (Int64.to_int i)
    | Vt.RMeas _ | Vt.RParam _ | Vt.RUnknown -> raise Refused)

let double_of facts (o : Operand.t) : float =
  let syntactic = match o with Operand.Const _ -> true | _ -> false in
  match resolve_const facts o with
  | Some (Constant.Float f) -> f
  | Some (Constant.Int n) when not syntactic -> Int64.to_float n
  | _ -> raise Refused

(* An argument the runtime ignores (labels, initialize's context
   pointer) still gets evaluated by the interpreter, so it must be
   provably evaluable: a constant the evaluator reads without trapping,
   or a proved-constant local that is no aggregate and no missing
   global. *)
let evaluable m facts (a : Operand.typed) =
  let global g = Option.map (fun _ -> 0L) (Ir_module.find_global m g) in
  match a.Operand.v with
  | Operand.Const c -> (
    match Interp.eval_const global a.Operand.ty c with
    | _ -> true
    | exception Ir_error.Exec_error _ -> false)
  | Operand.Local _ -> (
    match resolve_const facts a.Operand.v with
    | Some (Constant.Global g) -> global g <> None
    | Some (Constant.Str _ | Constant.Arr _ | Constant.Zeroinit) | None -> false
    | Some _ -> true)

let is_quantum (v : Vt.value option) =
  match v with
  | Some (Vt.VQubit _ | Vt.VResult _ | Vt.VQArray _ | Vt.VRArray _) -> true
  | _ -> false

(* An operand the runtime only passes along (releases, reference
   counts): evaluable, or a tracked qubit, result or array. *)
let passed m st (a : Operand.typed) =
  evaluable m st.facts a
  || is_quantum (Vt.operand_value (tracked st) a.Operand.v)

(* A stack slot [Value_track] proves holds one quantum pointer. *)
let quantum_slot st (p : Operand.t) =
  let vt = tracked st in
  match Vt.operand_value vt p with
  | Some (Vt.VSlot slot) when is_quantum (Hashtbl.find_opt vt.Vt.slots slot) ->
    slot
  | _ -> raise Refused

(* A proved allocation count the tape can commit to. *)
let count_of st (n : Operand.typed) =
  match resolve_int st.facts n.Operand.v with
  | Some c when c >= 0L && c <= Int64.of_int Names.max_static_qubit -> c
  | _ -> raise Refused

(* Record an allocation that ran; an unnamed one is never addressed. *)
let allocated st (i : Instr.t) alloc =
  match i.Instr.id with
  | Some id ->
    (match Hashtbl.find_opt (tracked st).Vt.site_of_def id with
    | Some site -> Hashtbl.replace st.allocs site alloc
    | None -> raise Refused)
  | None -> ()

let new_array st count =
  let handle = st.next_array in
  st.next_array <- Runtime.array_elem handle (Int64.to_int count);
  handle

let extract_call m st (i : Instr.t) (callee : string)
    (args : Operand.typed list) =
  match Names.decode callee with
  | Names.Gate { shape; doubles; qubits } ->
    if List.compare_length_with args (doubles + qubits) <> 0 then
      raise Refused;
    let angles, qargs = Names.split_gate_args doubles args in
    let g =
      Names.instantiate shape
        (List.map
           (fun (d : Operand.typed) -> double_of st.facts d.Operand.v)
           angles)
    in
    let qs =
      Array.of_list
        (List.map (fun (q : Operand.typed) -> qubit_of st q.Operand.v) qargs)
    in
    emit st (Gate (g, qs))
  | Names.Mz -> (
    match args with
    | [ q; r ] ->
      let qubit = qubit_of st q.Operand.v in
      let raddr = result_of st r.Operand.v in
      Hashtbl.replace st.measured raddr ();
      emit st (Measure (qubit, raddr))
    | _ -> raise Refused)
  | Names.Reset -> (
    match args with
    | [ q ] -> emit st (Reset (qubit_of st q.Operand.v))
    | _ -> raise Refused)
  | Names.Result_record_output -> (
    match args with
    | [ r; label ] ->
      let raddr = result_of st r.Operand.v in
      (* record-before-measure faults in the runtime; leave it to the
         interpreter rather than replicating the failure *)
      if not (Hashtbl.mem st.measured raddr) then raise Refused;
      if not (evaluable m st.facts label) then raise Refused;
      emit st (Record raddr)
    | _ -> raise Refused)
  | Names.Array_record_output -> (
    match args with
    | [ n; label ] ->
      if not (evaluable m st.facts n && evaluable m st.facts label) then
        raise Refused
    | _ -> raise Refused)
  | Names.Qubit_allocate ->
    if args <> [] then raise Refused;
    let q = st.size in
    grow st (q + 1);
    emit st (Grow st.size);
    allocated st i (Int64.of_int q, 1L)
  | Names.Qubit_allocate_array -> (
    match args with
    | [ n ] ->
      let count = count_of st n in
      let base = st.size in
      grow st (base + Int64.to_int count);
      emit st (Grow st.size);
      ignore (new_array st count);
      allocated st i (Int64.of_int base, count)
    | _ -> raise Refused)
  | Names.Array_create_1d -> (
    match args with
    | [ size; n ] ->
      if not (evaluable m st.facts size) then raise Refused;
      let count = count_of st n in
      allocated st i (new_array st count, count)
    | _ -> raise Refused)
  | Names.Array_get_element_ptr_1d -> (
    (* the runtime faults on an unknown array or an index out of range *)
    match args with
    | [ arr; idx ] -> (
      match
        Vt.operand_value (tracked st) arr.Operand.v,
        resolve_int st.facts idx.Operand.v
      with
      | Some (Vt.VQArray s | Vt.VRArray s), Some n -> ignore (base st s n)
      | _ -> raise Refused)
    | _ -> raise Refused)
  | Names.Array_update_reference_count | Names.Result_update_reference_count
  | Names.Qubit_release | Names.Qubit_release_array ->
    (* the runtime implements these as exact no-ops: a tape skips them,
       provided each operand is benign *)
    if not (List.for_all (passed m st) args) then raise Refused
  | Names.Initialize | Names.Message ->
    if not (List.for_all (evaluable m st.facts) args) then raise Refused
  | _ -> raise Refused (* incl. m, read_result, result_equal *)

let extract (a : Qir_analysis.Analyses.t) : t option =
  let m = Qir_analysis.Analyses.ir a in
  match Ir_module.entry_point m with
  | None -> None
  | Some entry when Func.is_declaration entry || entry.Func.params <> [] ->
    None
  | Some entry -> (
    try
      (* call-graph reachability: the entry must reach no defined
         function (every callee is an external the runtime implements) *)
      let cg = Qir_analysis.Analyses.call_graph a in
      if Qir_analysis.Call_graph.callees cg entry.Func.name <> [] then
        raise Refused;
      if Qir_analysis.Call_graph.is_recursive cg entry.Func.name then
        raise Refused;
      let blocks =
        match Cfg.straight_chain (Cfg.of_func entry) with
        | Some blocks -> blocks
        | None -> raise Refused
      in
      let st =
        {
          facts = Qir_analysis.Analyses.sccp a entry;
          vt =
            lazy
              (if fst (Vt.collect_sites entry) <> [] then
                 Some (Qir_analysis.Analyses.value_track a entry)
               else None);
          size = Runtime.initial_qubits m;
          next_array = Runtime.array_base;
          allocs = Hashtbl.create 8;
          stored = Hashtbl.create 8;
          measured = Hashtbl.create 16;
          ops = [];
          records = 0;
        }
      in
      (* every operand defined earlier on the chain: a use before its
         definition reads no value the analyses describe *)
      let defined = Hashtbl.create 64 in
      let uses_defined ops =
        List.iter
          (fun (o : Operand.typed) ->
            match o.Operand.v with
            | Operand.Local id when not (Hashtbl.mem defined id) ->
              raise Refused
            | _ -> ())
          ops
      in
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (i : Instr.t) ->
              uses_defined (Instr.operands i.Instr.op);
              Option.iter (fun id -> Hashtbl.replace defined id ()) i.Instr.id;
              match i.Instr.op with
              | Instr.Phi _ -> raise Refused (* no joins on the chain *)
              | Instr.Call (_, callee, args) -> extract_call m st i callee args
              | Instr.Binop (b, _, _, _) when Instr.binop_is_division b ->
                raise Refused (* may trap *)
              | Instr.Store (_, p) ->
                Hashtbl.replace st.stored (quantum_slot st p) ()
              | Instr.Load (_, p) ->
                (* an unstored slot reads what Value_track cannot see *)
                if not (Hashtbl.mem st.stored (quantum_slot st p)) then
                  raise Refused
              | Instr.Gep _ -> raise Refused (* pointer arithmetic *)
              | Instr.Binop _ | Instr.Fbinop _ | Instr.Icmp _
              | Instr.Fcmp _ | Instr.Select _ | Instr.Cast _
              | Instr.Freeze _ | Instr.Alloca _ ->
                () (* pure; consumed values are proved const or unused *))
            b.Block.instrs;
          uses_defined (Instr.term_operands b.Block.term))
        blocks;
      (* lifetime discipline: any definite qubit/result misuse in the
         entry would fault at runtime — not a tape's business to
         reproduce; nothing else in the module runs *)
      if
        List.exists
          (fun (d : Qir_analysis.Diagnostic.t) ->
            d.Qir_analysis.Diagnostic.severity = Qir_analysis.Diagnostic.Error)
          (Qir_analysis.Lifetime.check_entry a)
      then raise Refused;
      Some
        {
          ops = Array.of_list (List.rev st.ops);
          records = st.records;
          qubits = st.size;
        }
    with Refused -> None)

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)

(* Performs exactly the backend call sequence per-shot interpretation
   would: ensure-on-demand before every qubit use (mirroring
   Runtime.qubit_of_address), then the operation, in program order —
   so the backend's RNG draws line up and outcomes are bit-identical. *)
let replay (tape : t) (inst : Qsim.Backend.instance) : string =
  let ensure q = Qsim.Backend.instance_ensure inst (q + 1) in
  let results = Hashtbl.create 16 in
  let output = Buffer.create (max tape.records 8) in
  Array.iter
    (fun op ->
      match op with
      | Gate (g, qs) ->
        Array.iter ensure qs;
        Qsim.Backend.instance_apply inst g (Array.to_list qs)
      | Measure (q, raddr) ->
        ensure q;
        let b = Qsim.Backend.instance_measure inst q in
        Hashtbl.replace results raddr b
      | Reset q ->
        ensure q;
        Qsim.Backend.instance_reset inst q
      | Grow n -> Qsim.Backend.instance_ensure inst n
      | Record raddr ->
        let b = Hashtbl.find results raddr in
        Buffer.add_string output (if b then "1" else "0"))
    tape.ops;
  if tape.records > 0 then Buffer.contents output
  else
    Hashtbl.fold (fun addr b acc -> (addr, b) :: acc) results []
    |> List.sort compare
    |> List.map (fun (_, b) -> if b then "1" else "0")
    |> String.concat ""
