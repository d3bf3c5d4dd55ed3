(* Bottom-up function effect summaries: the interprocedural half of the
   analysis library. For every defined function the engine computes a
   caller-visible abstraction of its quantum effects —

   - per parameter: is it consumed by a gate/measurement, released on
     every path (the caller must not touch it again), released on some
     path, measured into, or read as a result before any measurement;
   - globally: does the function apply gates, measure, allocate; which
     *static* qubits/results it touches (static addresses mean the same
     thing in every frame, so they cross the call boundary verbatim);
   - classical purity: side-effect-freedom and controller
     expressibility (mirroring {!Qhybrid.Partition}'s instruction set);
   - whether every return hands the caller a freshly allocated qubit
     (the call site then becomes an allocation site in the caller).

   {!Analyses} solves functions in the bottom-up SCC order of the call
   graph, so a callee's summary is always ready when its callers are
   summarized. Functions in recursive components, and functions calling
   external classical code we cannot see, get the [opaque] summary:
   every may-effect set to true, every must-effect and every
   report-driving flag set to false — consumers stay silent rather than
   guess. Clients: {!Lifetime} (cross-call QL001/QL002/QL003/QL004),
   {!Quantum_dce} (QD002 dead calls) and {!Qhybrid.Classify}/[Partition].

   Two passes build a summary: pass A folds the order-insensitive flags;
   pass B is the module's qubit-lifetime dataflow. {!solve_func} replays
   pass B once per function, recording the summary and reporting the
   lifetime findings from the same walk, so both share one solve. *)

open Llvm_ir
module TMap = Map.Make (Int)
module ISet = Set.Make (Int)
module I64Set = Set.Make (Int64)

(* Allocation-site tokens: non-negative ids are the function's own
   {!Value_track} sites, negative ids are caller-owned parameters. *)
let param_token i = -(i + 1)
let is_param_token t = t < 0

let qref_token (q : Value_track.qref) =
  match q with
  | Value_track.Alloc s | Value_track.Elem (s, _) -> Some s
  | Value_track.QParam i -> Some (param_token i)
  | Value_track.Static _ | Value_track.QUnknown -> None

type arg_fx = {
  fx_used : bool;  (* consumed by a gate/measurement/reset *)
  fx_released : bool;  (* released on every path to ret *)
  fx_may_release : bool;  (* released on at least one path *)
  fx_measures : bool;  (* measured into, as a Result, on some path *)
  fx_reads : bool;  (* read as a Result with no prior measurement here *)
}

let no_fx =
  {
    fx_used = false;
    fx_released = false;
    fx_may_release = false;
    fx_measures = false;
    fx_reads = false;
  }

(* The opaque per-argument effect: may-effects true, report-driving
   flags (fx_used, fx_reads) and must-effects false. *)
let opaque_fx =
  { no_fx with fx_may_release = true; fx_measures = true }

type t = {
  fname : string;
  nparams : int;
  arg_fx : arg_fx array;
  gates : bool;  (* applies at least one unitary or reset *)
  measures : bool;
  allocates : bool;  (* allocates qubits/arrays somewhere inside *)
  touched_statics : int64 list;  (* static qubits gated/measured/reset *)
  touches_local : bool;  (* quantum ops on its own allocated qubits *)
  touches_unknown : bool;  (* a qubit operand did not resolve *)
  releases_unknown : bool;  (* releases something we cannot attribute *)
  measured_statics : int64 list;  (* static results measured on some path *)
  measures_unknown : bool;  (* measured into an unresolvable result *)
  reads_statics : int64 list;  (* static results read before measurement *)
  returns_fresh_qubit : bool;  (* every ret returns a locally fresh qubit *)
  side_effect_free : bool;
      (* no *classical* side effects: stores, possible traps, output
         recording, refcounting, runtime messages. Quantum effects are
         tracked by the flags above; [quantum_free s &&
         s.side_effect_free] means a call is removable when unused. *)
  controller_ok : bool;  (* expressible in controller operations *)
  recursive : bool;
  opaque : bool;  (* recursive or calls code we cannot summarize *)
}

let opaque_summary ?(recursive = false) fname nparams =
  {
    fname;
    nparams;
    arg_fx = Array.make nparams opaque_fx;
    gates = true;
    measures = true;
    allocates = true;
    touched_statics = [];
    touches_local = true;
    touches_unknown = true;
    releases_unknown = true;
    measured_statics = [];
    measures_unknown = true;
    reads_statics = [];
    returns_fresh_qubit = false;
    side_effect_free = false;
    controller_ok = false;
    recursive;
    opaque = true;
  }

(* No quantum effect whatsoever: removable (when also side-effect-free
   and its result is unused) and ignorable by qubit-state analyses. *)
let quantum_free s =
  (not s.opaque) && (not s.gates) && (not s.measures) && (not s.allocates)
  && (not s.touches_local) && (not s.touches_unknown)
  && (not s.releases_unknown)
  && s.touched_statics = []
  && Array.for_all
       (fun fx -> not (fx.fx_used || fx.fx_may_release || fx.fx_measures))
       s.arg_fx

type table = (string, t) Hashtbl.t

let find (table : table) name = Hashtbl.find_opt table name

let fresh_fns_of (table : table) name =
  match find table name with Some s -> s.returns_fresh_qubit | None -> false

(* ------------------------------------------------------------------ *)
(* Pass A: order-insensitive effect flags, by one syntactic fold that
   composes callee summaries at call instructions.                     *)

type flags = {
  mutable a_gates : bool;
  mutable a_measures : bool;
  mutable a_allocates : bool;
  mutable a_statics : I64Set.t;
  mutable a_local : bool;
  mutable a_unknown : bool;
  mutable a_rel_unknown : bool;
  mutable a_meas_unknown : bool;
  mutable a_opaque : bool;
  mutable a_sef : bool;  (* side-effect-free *)
  mutable a_controller : bool;
  a_used : bool array;
}

(* Can the controller execute this instruction? Integer compute and
   forward branches only — no memory, floats or calls (the paper:
   special purpose hardware is "incapable of executing arbitrary
   classical code"). Result reads happen at the controller by
   construction, and a call to a defined function whose summary is
   controller-expressible is conceptually inlinable into the controller
   program. The one rule: [Qhybrid.Partition] places segments by it. *)
let controller_instr_ok (table : table) (i : Instr.t) =
  match i.Instr.op with
  | Instr.Binop (_, ty, _, _) | Instr.Icmp (_, ty, _, _) -> Ty.is_integer ty
  | Instr.Select _ | Instr.Freeze _ -> true
  | Instr.Cast ((Instr.Zext | Instr.Sext | Instr.Trunc), _, _) -> true
  | Instr.Cast _ -> false
  | Instr.Phi _ -> true
  | Instr.Call (_, callee, _) -> (
    match Names.decode callee with
    | Names.Read_result | Names.Result_equal -> true
    | _ -> (
      match find table callee with
      | Some s -> s.controller_ok
      | None -> false))
  | Instr.Fbinop _ | Instr.Fcmp _ | Instr.Alloca _ | Instr.Load _
  | Instr.Store _ | Instr.Gep _ ->
    false

(* A quantum call's qubit and result operands, resolved; [] for an
   unknown callee or an arity mismatch. *)
let qubit_args_of vt callee (args : Operand.typed list) =
  List.map
    (fun (a : Operand.typed) -> Value_track.qubit_of vt a.Operand.v)
    (Signatures.args_of_kind Signatures.Qubit callee args)

let result_args_of vt callee (args : Operand.typed list) =
  List.map
    (fun (a : Operand.typed) -> Value_track.result_of vt a.Operand.v)
    (Signatures.args_of_kind Signatures.Result callee args)

let record_touch fl (q : Value_track.qref) =
  match q with
  | Value_track.QParam i ->
    if i < Array.length fl.a_used then fl.a_used.(i) <- true
  | Value_track.Static n -> fl.a_statics <- I64Set.add n fl.a_statics
  | Value_track.Alloc _ | Value_track.Elem _ -> fl.a_local <- true
  | Value_track.QUnknown -> fl.a_unknown <- true

let pass_a (table : table) vt (f : Func.t) : flags =
  let fl =
    {
      a_gates = false;
      a_measures = false;
      a_allocates = false;
      a_statics = I64Set.empty;
      a_local = false;
      a_unknown = false;
      a_rel_unknown = false;
      a_meas_unknown = false;
      a_opaque = false;
      a_sef = true;
      a_controller = true;
      a_used = Array.make (List.length f.Func.params) false;
    }
  in
  Func.iter_instrs f (fun (i : Instr.t) ->
      if not (controller_instr_ok table i) then fl.a_controller <- false;
      match i.Instr.op with
      | Instr.Call (_, callee, args) when Names.is_quantum callee -> (
        let quse = qubit_args_of vt callee args in
        match Names.decode callee with
        | Names.Mz | Names.M ->
          fl.a_measures <- true;
          List.iter (record_touch fl) quse
        | Names.Qubit_allocate | Names.Qubit_allocate_array
        | Names.Array_create_1d ->
          fl.a_allocates <- true
        | Names.Qubit_release | Names.Qubit_release_array ->
          let token =
            match args with
            | [ a ] -> (
              match Value_track.qarray_of vt a.Operand.v with
              | Some s -> Some s
              | None -> (
                match quse with [ q ] -> qref_token q | _ -> None))
            | _ -> None
          in
          if token = None then fl.a_rel_unknown <- true
        | Names.Read_result | Names.Result_equal | Names.Result_get_one
        | Names.Result_get_zero | Names.Array_get_size_1d
        | Names.Array_get_element_ptr_1d ->
          () (* no effect on quantum or classical state *)
        | Names.Gate _ | Names.Reset ->
          fl.a_gates <- true;
          List.iter (record_touch fl) quse
        | Names.Array_update_reference_count
        | Names.Result_update_reference_count | Names.Result_record_output
        | Names.Array_record_output | Names.Initialize | Names.Message
        | Names.Fail ->
          fl.a_sef <- false
        | Names.Unknown -> fl.a_opaque <- true (* unknown quantum function *))
      | Instr.Call (_, callee, args) -> (
        match find table callee with
        | None -> fl.a_opaque <- true (* external classical code *)
        | Some sg ->
          if sg.opaque then fl.a_opaque <- true;
          if sg.gates then fl.a_gates <- true;
          if sg.measures then fl.a_measures <- true;
          if sg.allocates then fl.a_allocates <- true;
          if sg.touches_local then fl.a_local <- true;
          if sg.touches_unknown then fl.a_unknown <- true;
          if sg.releases_unknown then fl.a_rel_unknown <- true;
          if sg.measures_unknown then fl.a_meas_unknown <- true;
          if not sg.side_effect_free then fl.a_sef <- false;
          List.iter
            (fun n -> fl.a_statics <- I64Set.add n fl.a_statics)
            sg.touched_statics;
          List.iteri
            (fun j (a : Operand.typed) ->
              if j < Array.length sg.arg_fx then begin
                let fx = sg.arg_fx.(j) in
                if fx.fx_used then
                  record_touch fl (Value_track.qubit_of vt a.Operand.v);
                if fx.fx_may_release then begin
                  match qref_token (Value_track.qubit_of vt a.Operand.v) with
                  | Some _ -> () (* attributed: pass B tracks the state *)
                  | None -> fl.a_rel_unknown <- true
                end;
                if fx.fx_measures then begin
                  match Value_track.result_of vt a.Operand.v with
                  | Value_track.RUnknown -> fl.a_meas_unknown <- true
                  | _ -> ()
                end
              end)
            args)
      | Instr.Store _ -> fl.a_sef <- false
      | Instr.Binop (b, _, _, _) when Instr.binop_is_division b ->
        fl.a_sef <- false
      | _ -> ());
  fl

(* ------------------------------------------------------------------ *)
(* Pass B: the qubit-lifetime dataflow, the one analysis of what is
   live, released and measured where. Facts track, per allocation-site
   token (parameters included), whether it is definitely live,
   definitely released or released on only some paths, plus the
   may-measured set of results. A call to a defined function applies its
   summary; an opaque callee untracks whatever flows in and may measure
   anything, so every report stays definite.

   {!replay} solves a function forward on {!Dataflow.Forward}, then
   walks the fixpoint once, handing each {!event} and the fact at each
   [ret] to {!solve_func}: it records the reads not preceded by a
   measurement and the facts at each [ret], reports QL001/QL002/QL004
   from the events and QL003 at each [ret].                             *)

module RSet = Set.Make (struct
  type t = Value_track.rref

  let compare = compare
end)

type qstate = Live | Released | Maybe_released

let join_qstate a b =
  match a, b with
  | Live, Live -> Live
  | Released, Released -> Released
  | _ -> Maybe_released

module Fact = struct
  type t = { q : qstate TMap.t; measured : RSet.t; all_measured : bool }

  let bottom = { q = TMap.empty; measured = RSet.empty; all_measured = false }

  let equal a b =
    TMap.equal ( = ) a.q b.q
    && RSet.equal a.measured b.measured
    && a.all_measured = b.all_measured

  (* Pointwise join; a token absent on one side keeps the other side's
     state (the site is simply not allocated on that path). *)
  let join a b =
    {
      q = TMap.union (fun _ sa sb -> Some (join_qstate sa sb)) a.q b.q;
      measured = RSet.union a.measured b.measured;
      all_measured = a.all_measured || b.all_measured;
    }
end

module Engine = Dataflow.Forward (Fact)

(* What the replay reports to its handler, with the block label and the
   callee. While solving there is no handler ([None]), and the transfer
   does not resolve the qubits a quantum call consumes at all. *)
type event =
  | Use_released of Value_track.qref  (* released on every path here *)
  | Double_release of int  (* of a token released on every path here *)
  | Unmeasured_read of Value_track.rref  (* measured on no path here *)

let released (fact : Fact.t) token =
  match TMap.find_opt token fact.Fact.q with
  | Some Released -> true
  | Some (Live | Maybe_released) | None -> false

let live_site vt id (fact : Fact.t) =
  match Option.bind id (Hashtbl.find_opt vt.Value_track.site_of_def) with
  | Some s -> { fact with Fact.q = TMap.add s Live fact.Fact.q }
  | None -> fact

let use h label callee fact (q : Value_track.qref) =
  match h, qref_token q with
  | Some h, Some t when released fact t -> h label callee (Use_released q)
  | _ -> ()

let release h label callee (fact : Fact.t) token =
  (match h with
  | Some h when released fact token -> h label callee (Double_release token)
  | _ -> ());
  { fact with Fact.q = TMap.add token Released fact.Fact.q }

let measure (fact : Fact.t) (r : Value_track.rref) =
  match r with
  | Value_track.RUnknown -> { fact with Fact.all_measured = true }
  | r -> { fact with Fact.measured = RSet.add r fact.Fact.measured }

let read h label callee (fact : Fact.t) (r : Value_track.rref) =
  match h with
  | Some h when not (fact.Fact.all_measured || RSet.mem r fact.Fact.measured)
    ->
    h label callee (Unmeasured_read r)
  | _ -> ()

(* A call to a defined function, interpreted through its summary. *)
let transfer_summarized vt h label callee id (sg : t) args (fact : Fact.t) =
  if sg.opaque then
    (* no model of the callee: whatever flows in may be released or
       measured over there — untrack it and satisfy every later read *)
    let fact =
      List.fold_left
        (fun (fact : Fact.t) (a : Operand.typed) ->
          match qref_token (Value_track.qubit_of vt a.Operand.v) with
          | Some t -> { fact with Fact.q = TMap.remove t fact.Fact.q }
          | None -> fact)
        fact args
    in
    { fact with Fact.all_measured = true }
  else begin
    let fact =
      if sg.measures_unknown then { fact with Fact.all_measured = true }
      else fact
    in
    let fact =
      List.fold_left
        (fun fact n -> measure fact (Value_track.RStatic n))
        fact sg.measured_statics
    in
    (* reads the callee performs on whole-program static results *)
    List.iter
      (fun n -> read h label callee fact (Value_track.RStatic n))
      sg.reads_statics;
    let step (fact : Fact.t) j (a : Operand.typed) =
      if j >= Array.length sg.arg_fx then fact
      else begin
        let fx = sg.arg_fx.(j) in
        let q = Value_track.qubit_of vt a.Operand.v in
        let r () = Value_track.result_of vt a.Operand.v in
        (* a consumed argument must not be already released here *)
        if fx.fx_used then use h label callee fact q;
        if fx.fx_reads then read h label callee fact (r ());
        let fact = if fx.fx_measures then measure fact (r ()) else fact in
        match qref_token q with
        | None -> fact
        | Some t ->
          if fx.fx_released then release h label callee fact t
          else if fx.fx_may_release && not (released fact t) then
            { fact with Fact.q = TMap.add t Maybe_released fact.Fact.q }
          else fact
      end
    in
    let _, fact =
      List.fold_left (fun (j, fact) a -> (j + 1, step fact j a)) (0, fact) args
    in
    (* the returned fresh qubit is a new allocation site here *)
    if sg.returns_fresh_qubit then live_site vt id fact else fact
  end

let transfer (table : table) vt h label (i : Instr.t) (fact : Fact.t) :
    Fact.t =
  match i.Instr.op with
  | Instr.Call (_, callee, args) when Names.is_quantum callee -> (
    let call = Names.decode callee in
    (* every qubit a quantum call consumes is a use — except by a
       release, which reports a double release instead *)
    (match h, call with
    | None, _ | _, (Names.Qubit_release | Names.Qubit_release_array) -> ()
    | Some _, _ ->
      List.iter (use h label callee fact) (qubit_args_of vt callee args));
    match call with
    | Names.Qubit_allocate | Names.Qubit_allocate_array ->
      live_site vt i.Instr.id fact
    | Names.Qubit_release -> (
      match qubit_args_of vt callee args with
      | [ q ] -> (
        match qref_token q with
        | Some t -> release h label callee fact t
        | None -> fact)
      | _ -> fact)
    | Names.Qubit_release_array -> (
      match args with
      | [ a ] -> (
        match Value_track.qarray_of vt a.Operand.v with
        | Some s -> release h label callee fact s
        | None -> (
          match Value_track.param_of vt a.Operand.v with
          | Some p -> release h label callee fact (param_token p)
          | None -> fact))
      | _ -> fact)
    | Names.Mz -> (
      match result_args_of vt callee args with
      | [ r ] -> measure fact r
      | _ -> fact)
    | Names.M -> (
      match i.Instr.id with
      | Some id -> measure fact (Value_track.RMeas id)
      | None -> fact)
    | Names.Read_result | Names.Result_equal | Names.Result_record_output ->
      List.iter (read h label callee fact) (result_args_of vt callee args);
      fact
    | _ -> fact)
  | Instr.Call (_, callee, args) -> (
    match find table callee with
    | Some sg -> transfer_summarized vt h label callee i.Instr.id sg args fact
    | None -> fact (* external classical code: inert for qubit state *))
  | _ -> fact

(* Lifetime solves so far, in every Domain: one per {!replay}. *)
let solves = Atomic.make 0

(* Solves [f]'s lifetime dataflow silently — caller-owned pointer
   parameters start out live — then replays every reached block in
   reverse postorder over the fixpoint, handing each event to [report]
   and [at_ret label fact v] the fact at each reached [ret v]. *)
let replay (table : table) vt ~report ~at_ret (f : Func.t) =
  Atomic.incr solves;
  let cfg = Cfg.of_func f in
  let init =
    List.fold_left
      (fun (i, fact) (p : Func.param) ->
        ( i + 1,
          if Ty.equal p.Func.pty Ty.Ptr then
            { fact with Fact.q = TMap.add (param_token i) Live fact.Fact.q }
          else fact ))
      (0, Fact.bottom) f.Func.params
    |> snd
  in
  let tf =
    { Engine.instr = transfer table vt None; Engine.term = Engine.uniform_term }
  in
  let res = Engine.solve ~init cfg tf in
  List.iter
    (fun label ->
      if Engine.reached res label then begin
        let b = Cfg.block cfg label in
        let fact =
          List.fold_left
            (fun fact i -> transfer table vt (Some report) label i fact)
            (Engine.block_in res label)
            b.Block.instrs
        in
        match b.Block.term with
        | Instr.Ret v -> at_ret label fact v
        | _ -> ()
      end)
    cfg.Cfg.rpo

(* ------------------------------------------------------------------ *)
(* Lifetime findings, reported by the same replay that summarizes:

     QL001 use-after-release   a quantum call consumes a qubit whose
                               site is released on every path here
     QL002 double-release      release of an already-released site
     QL003 qubit-leak          a site still (possibly) live at ret
     QL004 read-before-measure a result is read (read_result,
                               result_equal, result_record_output) but
                               measured on no path to the read

   Joins demote facts to "maybe" states that silence QL001/QL002, QL004
   uses a may-measure set, and opaque callees untrack what flows into
   them, so reports stay definite. Static results are whole-program
   state: only the entry sees their full measurement history.          *)

let token_desc s =
  if is_param_token s then Printf.sprintf "(qubit argument %d)" (-s - 1)
  else Printf.sprintf "(allocation site %d)" s

let report_event ~where ~is_entry emit label callee = function
  | Use_released q ->
    emit
      (Diagnostic.make ~rule:"QL001" ~severity:Diagnostic.Error
         ~where:(where label) "@%s uses a released qubit (%a)" callee
         Value_track.pp_qref q)
  | Double_release token ->
    emit
      (Diagnostic.make ~rule:"QL002" ~severity:Diagnostic.Error
         ~where:(where label) "@%s releases an already-released qubit %s"
         callee (token_desc token))
  | Unmeasured_read
      (Value_track.RUnknown | Value_track.RMeas _ | Value_track.RParam _) ->
    (* a parameter: the caller may have measured it; the function's
       summary exposes the read (fx_reads) so the caller's check fires
       when warranted *)
    ()
  | Unmeasured_read (Value_track.RStatic _) when not is_entry -> ()
  | Unmeasured_read r ->
    emit
      (Diagnostic.make ~rule:"QL004" ~severity:Diagnostic.Error
         ~where:(where label) "@%s reads %a, which is measured on no path here"
         callee Value_track.pp_rref r)

(* Sites a [ret] hands back to the caller: their lifetime is the
   caller's. *)
let returned_sites vt (f : Func.t) =
  List.fold_left
    (fun acc (b : Block.t) ->
      match b.Block.term with
      | Instr.Ret (Some v) -> (
        match qref_token (Value_track.qubit_of vt v.Operand.v) with
        | Some s when s >= 0 -> ISet.add s acc
        | _ -> (
          match Value_track.qarray_of vt v.Operand.v with
          | Some s -> ISet.add s acc
          | None -> acc))
      | _ -> acc)
    ISet.empty f.Func.blocks

(* QL003: a site of this function's own, not handed back to the caller,
   still (possibly) live at a ret. *)
let report_leaks ~where vt returned emit label (fact : Fact.t) =
  TMap.iter
    (fun s st ->
      if is_param_token s || ISet.mem s returned then ()
      else
        match st with
        | Released -> ()
        | Live | Maybe_released ->
          let qualifier = match st with Live -> "" | _ -> " on some paths" in
          let kind =
            match
              List.find_opt
                (fun (site : Value_track.site) -> site.Value_track.site_id = s)
                (Value_track.sites vt)
            with
            | Some { Value_track.site_kind = Value_track.Qubit_array_site; _ }
              ->
              "qubit array"
            | _ -> "qubit"
          in
          emit
            (Diagnostic.make ~rule:"QL003" ~severity:Diagnostic.Warning
               ~where:(where label)
               "%s allocated at site %d is never released%s" kind s qualifier))
    fact.Fact.q

(* ------------------------------------------------------------------ *)

(* One lifetime solve of [f] against the summaries of its callees in
   [table]: [f]'s summary — opaque when [recursive] or when pass A meets
   code it cannot see — and its lifetime findings, both from one replay.
   [vt] must see the fresh-qubit callees [table] knows of. *)
let solve_func (table : table) vt ~recursive ~is_entry (f : Func.t) :
    t * Diagnostic.t list =
  let nparams = List.length f.Func.params in
  let where label = Printf.sprintf "@%s %%%s" f.Func.name label in
  let out = ref [] in
  let emit d = out := d :: !out in
  let returned = returned_sites vt f in
  let reads = ref RSet.empty and rets = ref [] and ret_vals = ref [] in
  let report label callee event =
    (match event with
    | Unmeasured_read r -> reads := RSet.add r !reads
    | Use_released _ | Double_release _ -> ());
    report_event ~where ~is_entry emit label callee event
  in
  replay table vt ~report f ~at_ret:(fun label fact v ->
      report_leaks ~where vt returned emit label fact;
      rets := fact :: !rets;
      ret_vals := v :: !ret_vals);
  let summary =
    match if recursive then None else Some (pass_a table vt f) with
    | None | Some { a_opaque = true; _ } ->
      opaque_summary ~recursive f.Func.name nparams
    | Some fl ->
      let arg_fx =
        Array.init nparams (fun i ->
            let tok = param_token i in
            let states =
              List.map
                (fun (fact : Fact.t) ->
                  Option.value ~default:Live (TMap.find_opt tok fact.Fact.q))
                !rets
            in
            let released =
              states <> [] && List.for_all (( = ) Released) states
            in
            let may_release =
              List.exists (fun s -> s = Released || s = Maybe_released) states
            in
            let measured_any =
              List.exists
                (fun (fact : Fact.t) ->
                  RSet.mem (Value_track.RParam i) fact.Fact.measured)
                !rets
            in
            {
              fx_used = fl.a_used.(i);
              fx_released = released;
              fx_may_release = may_release;
              fx_measures = measured_any;
              fx_reads = RSet.mem (Value_track.RParam i) !reads;
            })
      in
      let measured_statics =
        List.fold_left
          (fun acc (fact : Fact.t) ->
            RSet.fold
              (fun r acc ->
                match r with
                | Value_track.RStatic n -> I64Set.add n acc
                | _ -> acc)
              fact.Fact.measured acc)
          I64Set.empty !rets
      in
      let reads_statics =
        RSet.fold
          (fun r acc ->
            match r with Value_track.RStatic n -> I64Set.add n acc | _ -> acc)
          !reads I64Set.empty
      in
      let returns_fresh_qubit =
        !ret_vals <> []
        && List.for_all
             (fun (v : Operand.typed option) ->
               match v with
               | Some v -> (
                 match Value_track.qubit_of vt v.Operand.v with
                 | Value_track.Alloc _ -> true
                 | _ -> false)
               | None -> false)
             !ret_vals
      in
      {
        fname = f.Func.name;
        nparams;
        arg_fx;
        gates = fl.a_gates;
        measures = fl.a_measures;
        allocates = fl.a_allocates;
        touched_statics = I64Set.elements fl.a_statics;
        touches_local = fl.a_local;
        touches_unknown = fl.a_unknown;
        releases_unknown = fl.a_rel_unknown;
        measured_statics = I64Set.elements measured_statics;
        measures_unknown = fl.a_meas_unknown;
        reads_statics = I64Set.elements reads_statics;
        returns_fresh_qubit;
        side_effect_free = fl.a_sef;
        controller_ok = fl.a_controller;
        recursive = false;
        opaque = false;
      }
  in
  (summary, List.rev !out)
