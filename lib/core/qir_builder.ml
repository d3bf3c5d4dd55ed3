(* Circuit -> QIR generation, in the two addressing styles of the paper:

   - [`Static]: qubits and results are constant addresses (Ex. 6), the
     form the base profile requires;
   - [`Dynamic]: qubits live in runtime-allocated arrays accessed through
     [__quantum__rt__*] calls, reproducing Fig. 1 (right).

   Circuits without classical conditions emit a single straight-line
   entry function (base profile); conditioned operations emit
   read_result / icmp / br control flow (adaptive profile). *)

open Llvm_ir
open Qcircuit

type addressing = [ `Static | `Dynamic ]

exception Unsupported of string

let ptr = Ty.Ptr
let void = Ty.Void
let i64 = Ty.I64

(* Per-build mutable state. *)
type st = {
  b : Builder.t;
  addressing : addressing;
  (* static: unused; dynamic: alloca slots holding the array pointers *)
  mutable qubit_slot : Operand.typed option;
  mutable result_slot : Operand.typed option;
  mutable result_count : int;
  (* latest result id measured into each clbit *)
  clbit_result : (int, int) Hashtbl.t;
  mutable block_counter : int;
}

let call st name args = ignore (Builder.call st.b void name args)

let call_ptr st name args =
  match Builder.call st.b ptr name args with
  | Some v -> v
  | None -> assert false

let call_i1 st name args =
  match Builder.call st.b Ty.I1 name args with
  | Some v -> v
  | None -> assert false

(* The operand for qubit [q]. *)
let qubit_arg st q =
  match st.addressing with
  | `Static -> Operand.qubit_ptr (Int64.of_int q)
  | `Dynamic ->
    let slot = Option.get st.qubit_slot in
    let arr = Builder.load st.b ptr slot in
    call_ptr st Names.rt_array_get_element_ptr_1d
      [ arr; Operand.i64 (Int64.of_int q) ]

(* The operand for result [r]. *)
let result_arg st r =
  match st.addressing with
  | `Static -> Operand.qubit_ptr (Int64.of_int r)
  | `Dynamic ->
    let slot = Option.get st.result_slot in
    let arr = Builder.load st.b ptr slot in
    call_ptr st Names.rt_array_get_element_ptr_1d
      [ arr; Operand.i64 (Int64.of_int r) ]

let emit_gate st (g : Gate.t) qs =
  match Names.qis_of_gate g with
  | Some (name, doubles) ->
    let args =
      List.map Operand.double doubles @ List.map (qubit_arg st) qs
    in
    call st name args
  | None ->
    invalid_arg
      (Printf.sprintf "Qir_builder: gate %s is not in the QIR gate set (legalize first)"
         (Gate.name g))

let emit_measure st q c =
  let r = st.result_count in
  st.result_count <- r + 1;
  Hashtbl.replace st.clbit_result c r;
  call st Names.qis_mz [ qubit_arg st q; result_arg st r ]

let emit_reset st q = call st Names.qis_reset [ qubit_arg st q ]

let emit_kind st (kind : Circuit.kind) =
  match kind with
  | Circuit.Gate (g, qs) -> emit_gate st g qs
  | Circuit.Measure (q, c) -> emit_measure st q c
  | Circuit.Reset q -> emit_reset st q
  | Circuit.Barrier _ -> ()

(* Reads the classical register formed by [cbits] (LSB first) into an i64
   SSA value via read_result / zext / shl / or. *)
let emit_register_read st cbits =
  let parts =
    List.mapi
      (fun k c ->
        let r =
          match Hashtbl.find_opt st.clbit_result c with
          | Some r -> r
          | None ->
            raise
              (Unsupported
                 (Printf.sprintf
                    "Qir_builder: condition reads clbit %d before any \
                     measurement"
                    c))
        in
        let bit = call_i1 st Names.rt_read_result [ result_arg st r ] in
        let wide =
          Builder.insert_value st.b (Instr.Cast (Instr.Zext, bit, i64))
        in
        if k = 0 then wide
        else
          Builder.insert_value st.b
            (Instr.Binop
               (Instr.Shl, i64, wide.Operand.v, (Operand.i64 (Int64.of_int k)).Operand.v)))
      cbits
  in
  match parts with
  | [] -> Operand.i64 0L
  | first :: rest ->
    List.fold_left
      (fun acc p -> Builder.binop st.b Instr.Or i64 acc p)
      first rest

let emit_op st (op : Circuit.op) =
  match op.Circuit.cond with
  | None -> emit_kind st op.Circuit.kind
  | Some { Circuit.cbits; value } ->
    let v = emit_register_read st cbits in
    let cmp =
      Builder.icmp st.b Instr.Ieq i64 v (Operand.i64 (Int64.of_int value))
    in
    let n = st.block_counter in
    st.block_counter <- n + 1;
    let then_label = Printf.sprintf "then%d" n in
    let cont_label = Printf.sprintf "continue%d" n in
    Builder.cond_br st.b cmp then_label cont_label;
    Builder.start_block st.b then_label;
    emit_kind st op.Circuit.kind;
    Builder.br st.b cont_label;
    Builder.start_block st.b cont_label

let profile_name (c : Circuit.t) =
  if Circuit.has_conditions c then "adaptive_profile" else "base_profile"

let build ?(addressing : addressing = `Static) ?(record_output = true)
    ?(entry_name = "main") (circuit : Circuit.t) : Ir_module.t =
  let circuit = Qir_gateset.legalize circuit in
  let num_results =
    (* one result per measurement operation *)
    Circuit.measure_count circuit
  in
  let attrs =
    [
      ("entry_point", "");
      ("qir_profiles", profile_name circuit);
      ("required_num_qubits", string_of_int circuit.Circuit.num_qubits);
      ("required_num_results", string_of_int num_results);
    ]
  in
  let b = Builder.create ~attrs ~name:entry_name ~ret_ty:void ~params:[] () in
  let st =
    {
      b;
      addressing;
      qubit_slot = None;
      result_slot = None;
      result_count = 0;
      clbit_result = Hashtbl.create 8;
      block_counter = 0;
    }
  in
  (match addressing with
  | `Static -> ()
  | `Dynamic ->
    (* the Fig. 1 prologue: allocate the qubit array and the result array,
       keeping the pointers in stack slots *)
    let qslot = Builder.alloca b ptr in
    let qarr =
      call_ptr st Names.rt_qubit_allocate_array
        [ Operand.i64 (Int64.of_int circuit.Circuit.num_qubits) ]
    in
    Builder.store b qarr qslot;
    st.qubit_slot <- Some qslot;
    if num_results > 0 then begin
      let cslot = Builder.alloca b ptr in
      let carr =
        call_ptr st Names.rt_array_create_1d
          [ Operand.i32 1L; Operand.i64 (Int64.of_int num_results) ]
      in
      Builder.store b carr cslot;
      st.result_slot <- Some cslot
    end);
  List.iter (emit_op st) circuit.Circuit.ops;
  if record_output then begin
    call st Names.rt_array_record_output
      [ Operand.i64 (Int64.of_int circuit.Circuit.num_clbits); Operand.null ];
    (* record each clbit's final result, in clbit order *)
    for c = 0 to circuit.Circuit.num_clbits - 1 do
      match Hashtbl.find_opt st.clbit_result c with
      | Some r ->
        call st Names.rt_result_record_output
          [ result_arg st r; Operand.null ]
      | None -> ()
    done
  end;
  (match addressing with
  | `Static -> ()
  | `Dynamic ->
    let qslot = Option.get st.qubit_slot in
    let qarr = Builder.load b ptr qslot in
    call st Names.rt_qubit_release_array [ qarr ]);
  Builder.ret b None;
  let f = Builder.finish b in
  let m = Ir_module.mk ~source_name:"qir_builder" [ f ] in
  Signatures.add_missing_declarations m

(* Convenience: textual QIR. *)
let to_string ?addressing ?record_output ?entry_name circuit =
  Printer.module_to_string
    (build ?addressing ?record_output ?entry_name circuit)
