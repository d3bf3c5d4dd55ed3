(* Value-semantics view of runtime-call QIR (Ex. 3 of the paper, pushed
   to the QIRO/QDFO tier): reconstruct the explicit qubit dataflow that
   the runtime-call style hides. Each qubit operand is resolved to a
   *wire* — a symbolic identity that is stable across the instructions
   touching the same qubit — using the syntactic address, [Const_addr]
   proofs and [Value_track] allocation-site resolution, in that order.
   Instructions become *events* classified by their effect on the
   quantum state; the per-block event arrays are the def-use chains an
   SSA form would make explicit, and the substrate [Qdf_opt] rewrites.

   Everything here is proof-carrying in the sense of the paper's
   "static by analysis" tier: a wire is only produced when the analysis
   can name the qubit; anything unresolved becomes a barrier event that
   blocks every rewrite across it. *)

open Llvm_ir
module Gate = Qcircuit.Gate

(* ------------------------------------------------------------------ *)
(* Wires                                                               *)

(* The identity of a qubit as far as the analysis can prove it. [WVal]
   is the weakest non-barrier form: two uses of the same SSA id denote
   the same (unknown) qubit within any one execution, so same-id uses
   are provably equal while everything else may alias it. *)
type wire =
  | WStatic of int64  (* inttoptr constant address *)
  | WAlloc of int  (* qubit_allocate site *)
  | WElem of int * int64  (* element of a qubit_allocate_array site *)
  | WParam of int  (* caller-owned qubit parameter *)
  | WVal of string  (* unresolved, keyed by SSA id *)

let wire_equal (a : wire) (b : wire) = a = b

(* May two wires denote the same qubit? Distinct static addresses are
   distinct qubits; distinct allocation sites (and distinct constant
   indices of one array site) are disjoint by construction of the
   runtime allocator. Everything crossing families — a static address
   vs a dynamic allocation, parameters, unresolved values — may alias. *)
let may_alias (a : wire) (b : wire) =
  if wire_equal a b then true
  else
    match a, b with
    | WStatic _, WStatic _ -> false
    | (WAlloc _ | WElem _), (WAlloc _ | WElem _) -> false
    | WStatic n, (WAlloc _ | WElem _) | (WAlloc _ | WElem _), WStatic n ->
      (* a constant address in the runtime's dynamic range may name any
         allocation; below it, static and dynamic qubits are disjoint *)
      n >= Names.dynamic_base
    | _ -> true

let pp_wire ppf = function
  | WStatic n -> Format.fprintf ppf "qubit %Ld" n
  | WAlloc s -> Format.fprintf ppf "qubit of alloc site %d" s
  | WElem (s, i) -> Format.fprintf ppf "qubit %Ld of array site %d" i s
  | WParam i -> Format.fprintf ppf "qubit argument %d" i
  | WVal id -> Format.fprintf ppf "qubit %%%s" id

let wire_to_string w = Format.asprintf "%a" pp_wire w

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

(* What an instruction does to the quantum state. [shape] is the gate
   with dummy angles — enough for commutation, which is angle-blind —
   while [exact] additionally needs every angle proved constant (the
   form cancellation and merging require). *)
type ekind =
  | EGate of {
      callee : string;
      shape : Gate.t;  (* angles replaced by 0.0 when unresolved *)
      exact : Gate.t option;  (* full identity, angles proved *)
      wires : wire list;
    }
  | EMeasure of wire
  | EReset of wire
  | ERelease of wire
  | ERelease_array of int  (* resolved qubit_allocate_array site *)
  | EAlloc  (* qubit register growth: allocate / allocate_array *)
  | EClassical  (* no effect on the qubit register *)
  | EBarrier  (* unresolved or unknown quantum effect *)

type event = { pos : int; instr : Instr.t; kind : ekind }

type t = {
  func : Func.t;
  vt : Value_track.t;
  facts : Passes.Sccp.solution;
  events : (string * event array) list;  (* per block, program order *)
  qubit_alloc_sites : int;  (* qubit allocate/allocate_array sites *)
}

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)

let resolve_qubit vt facts (o : Operand.t) : wire option =
  let of_const = function
    | Constant.Null -> Some (WStatic 0L)
    | Constant.Inttoptr n -> Some (WStatic n)
    | _ -> None
  in
  match o with
  | Operand.Const c -> of_const c
  | Operand.Local id -> (
    match Const_addr.proved_address facts o with
    | Some c -> of_const c
    | None -> (
      match Value_track.qubit_of vt o with
      | Value_track.Static n -> Some (WStatic n)
      | Value_track.Alloc s -> Some (WAlloc s)
      | Value_track.Elem (s, i) -> Some (WElem (s, i))
      | Value_track.QParam i -> Some (WParam i)
      | Value_track.QUnknown -> Some (WVal id)))

(* A double argument's value, when syntactically or provably constant. *)
let resolve_double facts (o : Operand.t) : float option =
  match o with
  | Operand.Const (Constant.Float f) -> Some f
  | Operand.Const (Constant.Int n) -> Some (Int64.to_float n)
  | Operand.Const _ -> None
  | Operand.Local id -> (
    match Passes.Sccp.const_of facts id with
    | Some (Constant.Float f) -> Some f
    | Some (Constant.Int n) -> Some (Int64.to_float n)
    | _ -> None)

(* Calls that observe or retire only classical state (results, arrays'
   bookkeeping, output records): gates flow past them freely. *)
let classically_transparent (call : Names.call) =
  match call with
  | Names.Array_create_1d | Names.Array_get_element_ptr_1d
  | Names.Array_get_size_1d | Names.Array_update_reference_count
  | Names.Result_update_reference_count | Names.Result_get_one
  | Names.Result_get_zero | Names.Result_equal | Names.Read_result
  | Names.Result_record_output | Names.Array_record_output | Names.Initialize
  | Names.Message ->
    true
  | Names.Gate _ | Names.Mz | Names.M | Names.Reset | Names.Qubit_allocate
  | Names.Qubit_allocate_array | Names.Qubit_release
  | Names.Qubit_release_array | Names.Fail | Names.Unknown ->
    false

(* A gate call's identity with every angle proved constant ([None] when
   one is not) and its resolved qubit operands; [None] altogether when
   the call does not pass the gate's arity. *)
let gate_operands vt facts ~shape ~doubles ~qubits (args : Operand.typed list) =
  if List.compare_length_with args (doubles + qubits) <> 0 then None
  else
    let angles, qargs = Names.split_gate_args doubles args in
    let angles =
      List.map (fun (a : Operand.typed) -> resolve_double facts a.Operand.v) angles
    in
    let wires =
      List.map (fun (a : Operand.typed) -> resolve_qubit vt facts a.Operand.v) qargs
    in
    let exact =
      if List.for_all Option.is_some angles then
        Some (Names.instantiate shape (List.map Option.get angles))
      else None
    in
    Some (exact, wires)

let classify_call vt facts (args : Operand.typed list) callee : ekind =
  let one_wire () =
    match args with
    | [ a ] -> resolve_qubit vt facts a.Operand.v
    | _ -> None
  in
  match Names.decode callee with
  | Names.Qubit_allocate | Names.Qubit_allocate_array -> EAlloc
  | Names.Qubit_release -> (
    match one_wire () with Some w -> ERelease w | None -> EBarrier)
  | Names.Qubit_release_array -> (
    match args with
    | [ a ] -> (
      match Value_track.qarray_of vt a.Operand.v with
      | Some s -> ERelease_array s
      | None -> EBarrier)
    | _ -> EBarrier)
  | Names.Mz -> (
    match args with
    | [ q; _r ] -> (
      match resolve_qubit vt facts q.Operand.v with
      | Some w -> EMeasure w
      | None -> EBarrier)
    | _ -> EBarrier)
  | Names.M -> (
    match one_wire () with Some w -> EMeasure w | None -> EBarrier)
  | Names.Reset -> (
    match one_wire () with Some w -> EReset w | None -> EBarrier)
  | Names.Gate { shape; doubles; qubits } -> (
    match gate_operands vt facts ~shape ~doubles ~qubits args with
    | Some (exact, wires) when List.for_all Option.is_some wires ->
      EGate { callee; shape; exact; wires = List.map Option.get wires }
    | _ -> EBarrier)
  | call -> if classically_transparent call then EClassical else EBarrier

let classify vt facts (i : Instr.t) : ekind =
  match i.Instr.op with
  | Instr.Call (_, callee, args) ->
    if Names.is_quantum callee then classify_call vt facts args callee
    else EBarrier (* defined or foreign callee: unknown effect *)
  | Instr.Phi _ -> EClassical
  | _ -> EClassical

(* ------------------------------------------------------------------ *)
(* View construction                                                   *)

let of_func (f : Func.t) : t =
  let vt = Value_track.of_func f in
  let facts = Passes.Sccp.solve f in
  let events =
    List.map
      (fun (b : Block.t) ->
        let evs =
          List.mapi
            (fun pos i -> { pos; instr = i; kind = classify vt facts i })
            b.Block.instrs
        in
        (b.Block.label, Array.of_list evs))
      f.Func.blocks
  in
  let qubit_alloc_sites =
    List.length
      (List.filter
         (fun (s : Value_track.site) ->
           match s.Value_track.site_kind with
           | Value_track.Qubit_site | Value_track.Qubit_array_site -> true
           | Value_track.Result_array_site -> false)
         (Value_track.sites vt))
  in
  { func = f; vt; facts; events; qubit_alloc_sites }

let block_events t label = List.assoc_opt label t.events

(* ------------------------------------------------------------------ *)
(* Wire touch sets and commutation                                     *)

(* The set of qubits an event may touch: named wires plus whole array
   sites (release_array retires every element of its site). [None] means
   "anything" (allocation, barrier). *)
type touch = { t_wires : wire list; t_sites : int list }

let touched (k : ekind) : touch option =
  match k with
  | EGate { wires; _ } -> Some { t_wires = wires; t_sites = [] }
  | EMeasure w | EReset w | ERelease w -> Some { t_wires = [ w ]; t_sites = [] }
  | ERelease_array s -> Some { t_wires = []; t_sites = [ s ] }
  | EClassical -> Some { t_wires = []; t_sites = [] }
  | EAlloc | EBarrier -> None

(* May an element of array site [s] be the qubit [w] names? *)
let site_may_contain s (w : wire) =
  match w with
  | WElem (s', _) -> s = s'
  | WAlloc _ -> false
  | WStatic n -> n >= Names.dynamic_base (* hardcoded dynamic-range address *)
  | WParam _ | WVal _ -> true

let wire_hits_touch (w : wire) (t : touch) =
  List.exists (may_alias w) t.t_wires
  || List.exists (fun s -> site_may_contain s w) t.t_sites

let event_may_touch (k : ekind) (w : wire) =
  match touched k with None -> true | Some t -> wire_hits_touch w t

(* Conservative: may the two events touch a common qubit? *)
let may_interfere (k1 : ekind) (k2 : ekind) =
  match touched k1, touched k2 with
  | None, _ | _, None -> true
  | Some t1, Some t2 ->
    List.exists (fun w -> wire_hits_touch w t2) t1.t_wires
    || List.exists (fun s -> List.mem s t2.t_sites) t1.t_sites
    || List.exists
         (fun s -> List.exists (fun w -> site_may_contain s w) t2.t_wires)
         t1.t_sites

(* Tokenize the wires of two gates into small ints when every cross
   pair is decided (provably equal or provably distinct); [None] when
   any pair is a "maybe", or a gate uses one wire twice. *)
let tokenize (w1 : wire list) (w2 : wire list) :
    (int list * int list) option =
  let all = w1 @ w2 in
  let decided =
    List.for_all
      (fun a ->
        List.for_all (fun b -> wire_equal a b || not (may_alias a b)) all)
      all
  in
  if not decided then None
  else
    let reps = ref [] in
    let token w =
      match
        List.find_opt (fun (w', _) -> wire_equal w w') !reps
      with
      | Some (_, i) -> i
      | None ->
        let i = List.length !reps in
        reps := (w, i) :: !reps;
        i
    in
    let t1 = List.map token w1 and t2 = List.map token w2 in
    let distinct l = List.length (List.sort_uniq compare l) = List.length l in
    if distinct t1 && distinct t2 then Some (t1, t2) else None

(* Does the gate [shape] on [wires] commute past event [k]? *)
let gate_commutes_past (shape : Gate.t) (wires : wire list) (k : ekind) =
  match k with
  | EClassical -> true
  | EAlloc | EBarrier -> false
  | EMeasure w | EReset w | ERelease w ->
    not (List.exists (fun wi -> may_alias wi w) wires)
  | ERelease_array _ -> not (List.exists (event_may_touch k) wires)
  | EGate { shape = shape2; wires = wires2; _ } -> (
    if
      List.for_all
        (fun wi -> List.for_all (fun wj -> not (may_alias wi wj)) wires2)
        wires
    then true (* provably disjoint supports *)
    else
      (* every pair is decided and one may alias, so the tokenized
         supports overlap: the gate-level table applies as is *)
      match tokenize wires wires2 with
      | Some (t1, t2) ->
        Qcircuit.Commute_opt.gate_commutes shape t1 shape2 t2
      | None -> false)
