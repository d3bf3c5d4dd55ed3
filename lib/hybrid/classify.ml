(* Instruction classification for hybrid programs (Sec. IV-B): which
   parts of a QIR program are quantum instructions, which are classical,
   and which classical parts feed back into quantum control. *)

open Llvm_ir

type instr_class =
  | Quantum (* qis gate / measure / reset *)
  | Result_read (* read_result / result_equal: the feedback boundary *)
  | Runtime_bookkeeping (* rt allocation, refcounts, output recording *)
  | Classical (* arithmetic, comparisons, casts, selects *)
  | Memory (* alloca / load / store / gep *)
  | Call_classical (* call to a non-quantum function *)

(* With [summaries] (see {!Qir_analysis.Summary}), calls to defined
   functions classify by what the callee actually does instead of the
   blanket [Call_classical]: a callee with quantum effects is Quantum, a
   pure result-reading callee sits on the feedback boundary, and a
   side-effect-free classical callee is plain classical compute. *)
let classify_instr ?(summaries : Qir_analysis.Summary.table option)
    (i : Instr.t) : instr_class =
  match i.Instr.op with
  | Instr.Call (_, callee, _) -> (
    match Names.decode callee with
    | Names.Read_result | Names.Result_equal -> Result_read
    | _ when Names.is_qis callee -> Quantum
    | _ when Names.is_rt callee -> Runtime_bookkeeping
    | _ -> (
      match
        Option.bind summaries (fun t -> Qir_analysis.Summary.find t callee)
      with
      | Some s when not (Qir_analysis.Summary.quantum_free s) -> Quantum
      | Some s
        when s.Qir_analysis.Summary.reads_statics <> []
             || Array.exists
                  (fun fx -> fx.Qir_analysis.Summary.fx_reads)
                  s.Qir_analysis.Summary.arg_fx ->
        Result_read
      | Some s when s.Qir_analysis.Summary.side_effect_free -> Classical
      | Some _ | None -> Call_classical))
  | Instr.Alloca _ | Instr.Load _ | Instr.Store _ | Instr.Gep _ -> Memory
  | Instr.Binop _ | Instr.Fbinop _ | Instr.Icmp _ | Instr.Fcmp _
  | Instr.Select _ | Instr.Cast _ | Instr.Phi _ | Instr.Freeze _ ->
    Classical

let class_name = function
  | Quantum -> "quantum"
  | Result_read -> "result-read"
  | Runtime_bookkeeping -> "runtime"
  | Classical -> "classical"
  | Memory -> "memory"
  | Call_classical -> "classical-call"

type counts = {
  quantum : int;
  result_reads : int;
  runtime : int;
  classical : int;
  memory : int;
  classical_calls : int;
}

let count_function ?summaries (f : Func.t) : counts =
  Func.fold_instrs f
    { quantum = 0; result_reads = 0; runtime = 0; classical = 0; memory = 0;
      classical_calls = 0 }
    (fun acc i ->
      match classify_instr ?summaries i with
      | Quantum -> { acc with quantum = acc.quantum + 1 }
      | Result_read -> { acc with result_reads = acc.result_reads + 1 }
      | Runtime_bookkeeping -> { acc with runtime = acc.runtime + 1 }
      | Classical -> { acc with classical = acc.classical + 1 }
      | Memory -> { acc with memory = acc.memory + 1 }
      | Call_classical -> { acc with classical_calls = acc.classical_calls + 1 })

(* ------------------------------------------------------------------ *)
(* Segmentation: maximal runs of quantum vs. classical instructions     *)

type segment = {
  seg_class : [ `Quantum | `Classical ];
  instrs : Instr.t list;
  (* does a quantum instruction later depend on this classical segment's
     values? (set by Segmenting over the entry function) *)
  feeds_quantum : bool;
  reads_results : bool;
}

let coarse_class ?summaries i =
  match classify_instr ?summaries i with
  | Quantum -> `Quantum
  | Result_read | Runtime_bookkeeping | Classical | Memory | Call_classical ->
    `Classical

(* Splits the straight-lined entry function into alternating segments.
   Operates on the instruction stream in block order; terminators between
   blocks are classical control and glue segments together. *)
let segments_of_func ?summaries (f : Func.t) : segment list =
  let instrs =
    List.concat_map (fun (b : Block.t) -> b.Block.instrs) f.Func.blocks
  in
  (* values consumed by terminators steer control flow; when quantum code
     appears later, such values are feedback into quantum execution *)
  let terminator_uses =
    List.concat_map
      (fun (b : Block.t) ->
        List.filter_map
          (fun (o : Operand.typed) ->
            match o.Operand.v with
            | Operand.Local name -> Some name
            | Operand.Const _ -> None)
          (Instr.term_operands b.Block.term))
      f.Func.blocks
  in
  let defs_of seg =
    List.filter_map (fun (i : Instr.t) -> i.Instr.id) seg
  in
  let rec group acc current current_class = function
    | [] ->
      let acc =
        match current with
        | [] -> acc
        | _ -> (current_class, List.rev current) :: acc
      in
      List.rev acc
    | i :: rest ->
      let c = coarse_class ?summaries i in
      if c = current_class || current = [] then
        group acc (i :: current) c rest
      else group ((current_class, List.rev current) :: acc) [ i ] c rest
  in
  let raw = group [] [] `Classical instrs in
  (* which segment values are used by later quantum segments? *)
  let rec annotate = function
    | [] -> []
    | (cls, seg) :: rest ->
      let rest' = annotate rest in
      let quantum_later =
        List.exists (fun (s : segment) -> s.seg_class = `Quantum) rest'
      in
      let later_quantum_uses =
        List.exists
          (fun (s : segment) ->
            s.seg_class = `Quantum
            && List.exists
                 (fun (i : Instr.t) ->
                   List.exists
                     (fun (o : Operand.typed) ->
                       match o.Operand.v with
                       | Operand.Local name -> List.mem name (defs_of seg)
                       | Operand.Const _ -> false)
                     (Instr.operands i.Instr.op))
                 s.instrs)
          rest'
        || (quantum_later
           && List.exists
                (fun d -> List.mem d terminator_uses)
                (defs_of seg))
      in
      let reads_results =
        List.exists
          (fun i ->
            match classify_instr ?summaries i with
            | Result_read -> true
            | _ -> false)
          seg
      in
      {
        seg_class = cls;
        instrs = seg;
        feeds_quantum = later_quantum_uses;
        reads_results;
      }
      :: rest'
  in
  annotate raw
