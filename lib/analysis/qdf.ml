(* Value-semantics view of runtime-call QIR (Ex. 3 of the paper, pushed
   to the QIRO/QDFO tier): reconstruct the explicit qubit dataflow that
   the runtime-call style hides. Each qubit operand is resolved to a
   *wire* — a symbolic identity that is stable across the instructions
   touching the same qubit — using the syntactic address, [Const_addr]
   proofs and [Value_track] allocation-site resolution, in that order.
   Instructions become *events* classified by their effect on the
   quantum state. A block's [index] numbers its distinct wires and
   lists, per event, the wires it names and every wire it may touch;
   the per-wire event lists built from that are the def-use chains an
   SSA form would make explicit. [Qdf_opt] runs the one commute-or-stop
   scan ([Commute_opt.scan]) over them and hoists releases with
   [may_interfere].

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

(* [vt] and [facts] are [f]'s solves, or those of a function [f] was
   rewritten from without changing any SSA value. *)
let of_func vt facts (f : Func.t) : t =
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
  { events; qubit_alloc_sites }

let block_events t label = List.assoc_opt label t.events

(* ------------------------------------------------------------------ *)
(* The per-block wire index                                            *)

(* May an element of array site [s] be the qubit [w] names? *)
let site_may_contain s (w : wire) =
  match w with
  | WElem (s', _) -> s = s'
  | WAlloc _ -> false
  | WStatic n -> n >= Names.dynamic_base (* hardcoded dynamic-range address *)
  | WParam _ | WVal _ -> true

(* A block's distinct wires, numbered in order of first appearance.
   [own.(j)] are the wires event [j] names; [on.(j)] every wire it may
   touch, ascending: all of them for an allocation or a barrier, none
   for a classical event, the site's possible members for a
   release_array. [kinds] starts as the events' kinds and takes the
   rewrites made while scanning. *)
type index = {
  kinds : ekind array;
  wires : wire array;  (* by number *)
  own : int list array;
  on : int list array;
  alias : int list array;  (* per wire: the wires it may alias *)
}

let index (events : event array) : index =
  let kinds = Array.map (fun e -> e.kind) events in
  let number = Hashtbl.create 16 and wires = ref [] in
  let num w =
    match Hashtbl.find_opt number w with
    | Some k -> k
    | None ->
      let k = Hashtbl.length number in
      Hashtbl.add number w k;
      wires := w :: !wires;
      k
  in
  let own =
    Array.map
      (function
        | EGate { wires; _ } -> List.map num wires
        | EMeasure w | EReset w | ERelease w -> [ num w ]
        | ERelease_array _ | EAlloc | EClassical | EBarrier -> [])
      kinds
  in
  let wires = Array.of_list (List.rev !wires) in
  let all = List.init (Array.length wires) Fun.id in
  let alias =
    Array.map (fun a -> List.filter (fun b -> may_alias a wires.(b)) all) wires
  in
  let on =
    Array.mapi
      (fun j k ->
        match k, own.(j) with
        | (EAlloc | EBarrier), _ -> all
        | ERelease_array s, _ ->
          List.filter (fun b -> site_may_contain s wires.(b)) all
        | _, [ a ] -> alias.(a)
        | _, ws ->
          List.sort_uniq Int.compare (List.concat_map (fun a -> alias.(a)) ws))
      kinds
  in
  { kinds; wires; own; on; alias }

(* Conservative: may events [a] and [b] touch a common qubit? *)
let may_interfere ix a b =
  let hits x y = List.exists (fun w -> List.mem w ix.on.(y)) ix.own.(x) in
  match ix.kinds.(a), ix.kinds.(b) with
  | (EAlloc | EBarrier), _ | _, (EAlloc | EBarrier) -> true
  | ERelease_array s, ERelease_array s' when s = s' -> true
  | _ -> hits a b || hits b a

(* Does gate [g] on the wires [qs] commute past event [j], which may
   touch one of them? Only a gate can, and only when every pair of the
   two gates' wires is provably equal or distinct and neither names a
   wire twice: the wire numbers then serve the gate-level table as
   qubits. *)
let commutes ix g qs j =
  match ix.kinds.(j) with
  | EGate { shape; _ } ->
    let qs2 = ix.own.(j) in
    let all = qs @ qs2 in
    let distinct l = List.length (List.sort_uniq Int.compare l) = List.length l in
    List.for_all
      (fun a -> List.for_all (fun b -> a = b || not (List.mem b ix.alias.(a))) all)
      all
    && distinct qs && distinct qs2
    && Qcircuit.Commute_opt.gate_commutes g qs shape qs2
  | _ -> false
