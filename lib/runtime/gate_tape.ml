(* The gate-tape fast path: when static analysis proves the entry point
   is a straight-line sequence of quantum operations on constant
   addresses — no classical control flow, no dynamic allocation, no
   classical feedback — the program *is* its gate sequence. We extract
   that sequence once and replay it per shot directly against the
   backend, skipping instruction dispatch entirely.

   This is the batched sampler's eligibility tier derived from the
   analyses (Sccp constant propagation + Lifetime discipline +
   call-graph reachability) instead of syntax, so it also covers
   programs the circuit re-parser refuses: mid-circuit resets,
   measurements feeding later recorded output, proved-but-not-spelled
   static addresses (the phi_addr.ll shape).

   Soundness contract: [extract] returns [Some tape] only when replaying
   the tape against a fresh backend instance performs *exactly* the
   backend call sequence (ensure/apply/measure/reset order included)
   that per-shot interpretation would, so histograms are bit-identical
   for the same seeds. Anything the interpreter might fault on — or any
   construct outside the proven-static core — rejects the tape and falls
   back to interpretation, which then behaves however it always did. *)

open Llvm_ir
open Qcircuit

type op =
  | Gate of Gate.t * int array
  | Measure of int * int64 (* qubit, result address *)
  | Reset of int
  | Record of int64 (* result address, appended to the output key *)

type t = { ops : op array; records : int }

let length tape = Array.length tape.ops

(* Exact register requirement of a proved-static tape: one past the
   highest qubit index any replayed op touches. The service tier's
   admission control prefers this over the entry point's declared
   "required_num_qubits" when a cached tape is available — the proof
   beats the attribute. *)
let qubits tape =
  Array.fold_left
    (fun acc -> function
      | Gate (_, qs) -> Array.fold_left (fun a q -> max a (q + 1)) acc qs
      | Measure (q, _) | Reset q -> max acc (q + 1)
      | Record _ -> acc)
    0 tape.ops

(* ------------------------------------------------------------------ *)
(* Extraction                                                           *)

exception Not_static

let resolve_const facts (o : Operand.t) : Constant.t option =
  match o with
  | Operand.Const c -> Some c
  | Operand.Local id -> Passes.Sccp.const_of facts id

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
  | _ -> raise Not_static

let qubit_of facts (o : Operand.t) : int =
  let addr = addr_of facts o in
  if
    (* static addresses map 1:1 to simulator qubits; cap absurd indices
       so the tape never commits the backend to an allocation the
       analysis can't justify *)
    Int64.unsigned_compare addr Names.dynamic_base < 0
    && Int64.compare addr (Int64.of_int Names.max_static_qubit) < 0
  then Int64.to_int addr
  else raise Not_static

let double_of facts (o : Operand.t) : float =
  let syntactic = match o with Operand.Const _ -> true | _ -> false in
  match resolve_const facts o with
  | Some (Constant.Float f) -> f
  | Some (Constant.Int n) when not syntactic -> Int64.to_float n
  | _ -> raise Not_static

(* An argument the runtime ignores (labels, initialize's context
   pointer) still gets evaluated by the interpreter, so it must be
   provably evaluable: a non-aggregate constant whose evaluation cannot
   trap, or a proved-constant local. *)
let evaluable m facts (a : Operand.typed) =
  let ok_const (c : Constant.t) ~syntactic =
    match c with
    | Constant.Null | Constant.Inttoptr _ | Constant.Float _
    | Constant.Bool _ | Constant.Undef ->
      true
    | Constant.Int _ -> (
      if not syntactic then true
      else
        match a.Operand.ty with
        | Ty.I1 | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 -> true
        | _ -> false (* truncate_to_width would trap *))
    | Constant.Global g -> Ir_module.find_global m g <> None
    | Constant.Str _ | Constant.Arr _ | Constant.Zeroinit -> false
  in
  match a.Operand.v with
  | Operand.Const c -> ok_const c ~syntactic:true
  | Operand.Local _ -> (
    match resolve_const facts a.Operand.v with
    | Some c -> ok_const c ~syntactic:false
    | None -> false)

let extract_call m facts measured emit (callee : string)
    (args : Operand.typed list) =
  match Names.decode callee with
  | Names.Gate { shape; doubles; qubits } ->
    if List.compare_length_with args (doubles + qubits) <> 0 then
      raise Not_static;
    let angles, qargs = Names.split_gate_args doubles args in
    let g =
      Names.instantiate shape
        (List.map (fun (d : Operand.typed) -> double_of facts d.Operand.v) angles)
    in
    let qs =
      Array.of_list
        (List.map (fun (q : Operand.typed) -> qubit_of facts q.Operand.v) qargs)
    in
    emit (Gate (g, qs))
  | Names.Mz -> (
    match args with
    | [ q; r ] ->
      let qubit = qubit_of facts q.Operand.v in
      let raddr = addr_of facts r.Operand.v in
      Hashtbl.replace measured raddr ();
      emit (Measure (qubit, raddr))
    | _ -> raise Not_static)
  | Names.Reset -> (
    match args with
    | [ q ] -> emit (Reset (qubit_of facts q.Operand.v))
    | _ -> raise Not_static)
  | Names.Result_record_output -> (
    match args with
    | [ r; label ] ->
      let raddr = addr_of facts r.Operand.v in
      (* record-before-measure faults in the runtime; leave it to the
         interpreter rather than replicating the failure *)
      if not (Hashtbl.mem measured raddr) then raise Not_static;
      if not (evaluable m facts label) then raise Not_static;
      emit (Record raddr)
    | _ -> raise Not_static)
  | Names.Array_record_output -> (
    match args with
    | [ n; label ] ->
      if not (evaluable m facts n && evaluable m facts label) then
        raise Not_static
    | _ -> raise Not_static)
  | Names.Initialize | Names.Message | Names.Qubit_release
  | Names.Qubit_release_array ->
    (* the runtime implements the releases as exact no-ops: a tape can
       skip them outright, provided the operand itself is benign *)
    if not (List.for_all (evaluable m facts) args) then raise Not_static
  | _ -> raise Not_static (* incl. m, read_result, result_equal, alloc *)

let extract (m : Ir_module.t) : t option =
  match Ir_module.entry_point m with
  | None -> None
  | Some entry when Func.is_declaration entry || entry.Func.params <> [] ->
    None
  | Some entry -> (
    try
      (* call-graph reachability: the entry must reach no defined
         function (every callee is an external the runtime implements) *)
      let a = Qir_analysis.Analyses.of_module m in
      let cg = Qir_analysis.Analyses.call_graph a in
      if Qir_analysis.Call_graph.callees cg entry.Func.name <> [] then
        raise Not_static;
      if Qir_analysis.Call_graph.is_recursive cg entry.Func.name then
        raise Not_static;
      let facts = Qir_analysis.Analyses.sccp a entry in
      let blocks =
        match Func.straight_chain entry with
        | Some blocks -> blocks
        | None -> raise Not_static
      in
      let ops = ref [] and nrecords = ref 0 in
      let measured = Hashtbl.create 16 in
      let emit op =
        ops := op :: !ops;
        match op with Record _ -> incr nrecords | _ -> ()
      in
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (i : Instr.t) ->
              match i.Instr.op with
              | Instr.Phi _ -> raise Not_static (* no joins on the chain *)
              | Instr.Call (_, callee, args) ->
                extract_call m facts measured emit callee args
              | Instr.Binop (b, _, _, _) when Instr.binop_is_division b ->
                raise Not_static (* may trap *)
              | Instr.Load _ | Instr.Store _ | Instr.Gep _ ->
                raise Not_static (* memory traffic: out of scope *)
              | Instr.Binop _ | Instr.Fbinop _ | Instr.Icmp _
              | Instr.Fcmp _ | Instr.Select _ | Instr.Cast _
              | Instr.Freeze _ | Instr.Alloca _ ->
                () (* pure; consumed values are proved const or unused *))
            b.Block.instrs)
        blocks;
      (* lifetime discipline: any definite qubit/result misuse in the
         entry would fault at runtime — not a tape's business to
         reproduce; nothing else in the module runs *)
      if
        List.exists
          (fun (d : Qir_analysis.Diagnostic.t) ->
            d.Qir_analysis.Diagnostic.severity = Qir_analysis.Diagnostic.Error)
          (Qir_analysis.Lifetime.check_entry a)
      then raise Not_static;
      Some { ops = Array.of_list (List.rev !ops); records = !nrecords }
    with Not_static -> None)

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
