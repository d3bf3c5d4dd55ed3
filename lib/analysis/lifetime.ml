(* Qubit/result lifetime checking, as a forward dataflow problem on the
   {!Llvm_ir.Dataflow} engine.

   Facts track, per allocation site (see {!Value_track}), whether the
   site is definitely live, definitely released, or released on only
   some paths, plus the may-measured set of results. Caller-owned
   parameters get negative tokens (see {!Summary.param_token}) and are
   seeded Live at entry. The rules:

     QL001 use-after-release   a quantum call consumes a qubit whose
                               site is released on every path here
     QL002 double-release      release of an already-released site
     QL003 qubit-leak          a site still (possibly) live at ret
     QL004 read-before-measure a result is read (read_result,
                               result_equal, result_record_output) but
                               measured on no path to the read

   The check is interprocedural: calls to defined functions apply the
   callee's {!Summary} — a helper that releases its argument makes the
   caller's later use a QL001, a callee-measured result satisfies the
   caller's reads, and a call returning a fresh qubit becomes an
   allocation site the caller must release (QL003). Opaque callees
   untrack whatever flows into them and satisfy all reads, so reports
   stay *definite*: joins demote facts to "maybe" states that silence
   QL001/QL002, QL004 uses a may-measure set, and well-formed programs
   produce no findings. Every defined function is checked; rules that
   need whole-program knowledge (QL003 for returned qubits, QL004 for
   static results a caller may have measured) are scoped accordingly. *)

open Llvm_ir
module TMap = Map.Make (Int)
module ISet = Set.Make (Int)

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

  (* Pointwise join; a site absent on one side keeps the other side's
     state (the site is simply not allocated on that path). *)
  let join a b =
    {
      q = TMap.union (fun _ sa sb -> Some (join_qstate sa sb)) a.q b.q;
      measured = RSet.union a.measured b.measured;
      all_measured = a.all_measured || b.all_measured;
    }
end

module Engine = Dataflow.Forward (Fact)

type finding = Diagnostic.t

(* ------------------------------------------------------------------ *)
(* The transfer function, shared between solving and reporting: [emit]
   is [ignore] while iterating and collects diagnostics on the replay
   pass (the engine guarantees the facts it replays are the fixpoint). *)

type ctx = {
  vt : Value_track.t;
  fname : string;
  summaries : Summary.table;
  is_entry : bool;  (* static results are whole-program state: only the
                       entry sees their full measurement history *)
  returned_sites : ISet.t;  (* sites handed back to the caller at ret *)
  emit : Diagnostic.t -> unit;
}

let where ctx label = Printf.sprintf "@%s %%%s" ctx.fname label
let site_token = Summary.qref_token

let token_desc s =
  if Summary.is_param_token s then
    Printf.sprintf "(qubit argument %d)" (-s - 1)
  else Printf.sprintf "(allocation site %d)" s

let check_qubit_use ctx label callee (fact : Fact.t) (q : Value_track.qref) =
  match site_token q with
  | Some s -> (
    match TMap.find_opt s fact.Fact.q with
    | Some Released ->
      ctx.emit
        (Diagnostic.make ~rule:"QL001" ~severity:Diagnostic.Error
           ~where:(where ctx label) "@%s uses a released qubit (%a)" callee
           Value_track.pp_qref q)
    | Some (Live | Maybe_released) | None -> ())
  | None -> ()

let check_result_read ctx label callee (fact : Fact.t) (r : Value_track.rref) =
  match r with
  | Value_track.RUnknown | Value_track.RMeas _ -> ()
  | Value_track.RParam _ ->
    (* the caller may have measured it; the function's summary exposes
       the read (fx_reads) so the caller's check fires when warranted *)
    ()
  | Value_track.RStatic _ when not ctx.is_entry -> ()
  | _ ->
    if
      (not fact.Fact.all_measured) && not (RSet.mem r fact.Fact.measured)
    then
      ctx.emit
        (Diagnostic.make ~rule:"QL004" ~severity:Diagnostic.Error
           ~where:(where ctx label)
           "@%s reads %a, which is measured on no path here" callee
           Value_track.pp_rref r)

let release ctx label callee (fact : Fact.t) site =
  match TMap.find_opt site fact.Fact.q with
  | Some Released ->
    ctx.emit
      (Diagnostic.make ~rule:"QL002" ~severity:Diagnostic.Error
         ~where:(where ctx label) "@%s releases an already-released qubit %s"
         callee (token_desc site));
    fact
  | Some (Live | Maybe_released) | None ->
    { fact with Fact.q = TMap.add site Released fact.Fact.q }

let measure (fact : Fact.t) (r : Value_track.rref) =
  match r with
  | Value_track.RUnknown -> { fact with Fact.all_measured = true }
  | r -> { fact with Fact.measured = RSet.add r fact.Fact.measured }

let transfer_call ctx label (fact : Fact.t) id callee
    (args : Operand.typed list) : Fact.t =
  let qubit_args = Summary.qubit_args_of ctx.vt callee args in
  let result_args = Summary.result_args_of ctx.vt callee args in
  let call = Names.decode callee in
  (* every qubit consumed by a quantum call is a use — except by the
     release itself, which gets the sharper QL002 below *)
  (match call with
  | Names.Qubit_release | Names.Qubit_release_array -> ()
  | _ -> List.iter (check_qubit_use ctx label callee fact) qubit_args);
  match call with
  | Names.Qubit_allocate | Names.Qubit_allocate_array -> (
    match id with
    | Some id -> (
      match Hashtbl.find_opt ctx.vt.Value_track.site_of_def id with
      | Some s -> { fact with Fact.q = TMap.add s Live fact.Fact.q }
      | None -> fact)
    | None -> fact)
  | Names.Qubit_release -> (
    match qubit_args with
    | [ q ] -> (
      match site_token q with
      | Some s -> release ctx label callee fact s
      | None -> fact)
    | _ -> fact)
  | Names.Qubit_release_array -> (
    match args with
    | [ a ] -> (
      match Value_track.qarray_of ctx.vt a.Operand.v with
      | Some s -> release ctx label callee fact s
      | None -> (
        match Value_track.param_of ctx.vt a.Operand.v with
        | Some p -> release ctx label callee fact (Summary.param_token p)
        | None -> fact))
    | _ -> fact)
  | Names.Mz -> ( match result_args with [ r ] -> measure fact r | _ -> fact)
  | Names.M -> (
    match id with
    | Some id -> measure fact (Value_track.RMeas id)
    | None -> fact)
  | Names.Read_result | Names.Result_equal | Names.Result_record_output ->
    List.iter (check_result_read ctx label callee fact) result_args;
    fact
  | _ -> fact

(* A call to a defined function, interpreted through its summary. *)
let transfer_summarized ctx label (fact : Fact.t) id callee
    (sg : Summary.t) (args : Operand.typed list) : Fact.t =
  if sg.Summary.opaque then begin
    (* no model of the callee: whatever flows in may be released or
       measured over there — untrack it and silence later read checks *)
    let fact =
      List.fold_left
        (fun (fact : Fact.t) (a : Operand.typed) ->
          match site_token (Value_track.qubit_of ctx.vt a.Operand.v) with
          | Some t -> { fact with Fact.q = TMap.remove t fact.Fact.q }
          | None -> fact)
        fact args
    in
    { fact with Fact.all_measured = true }
  end
  else begin
    let fact =
      if sg.Summary.measures_unknown then
        { fact with Fact.all_measured = true }
      else fact
    in
    let fact =
      List.fold_left
        (fun fact n -> measure fact (Value_track.RStatic n))
        fact sg.Summary.measured_statics
    in
    (* reads the callee performs on whole-program static results *)
    List.iter
      (fun n -> check_result_read ctx label callee fact (Value_track.RStatic n))
      sg.Summary.reads_statics;
    let step (fact : Fact.t) j (a : Operand.typed) =
      if j >= Array.length sg.Summary.arg_fx then fact
      else begin
        let fx = sg.Summary.arg_fx.(j) in
        let q = Value_track.qubit_of ctx.vt a.Operand.v in
        (* a consumed argument must not be already released here *)
        if fx.Summary.fx_used then check_qubit_use ctx label callee fact q;
        if fx.Summary.fx_reads then
          check_result_read ctx label callee fact
            (Value_track.result_of ctx.vt a.Operand.v);
        let fact =
          if fx.Summary.fx_measures then
            measure fact (Value_track.result_of ctx.vt a.Operand.v)
          else fact
        in
        match site_token q with
        | None -> fact
        | Some t ->
          if fx.Summary.fx_released then release ctx label callee fact t
          else if fx.Summary.fx_may_release then begin
            match TMap.find_opt t fact.Fact.q with
            | Some Released -> fact
            | _ -> { fact with Fact.q = TMap.add t Maybe_released fact.Fact.q }
          end
          else fact
      end
    in
    let _, fact =
      List.fold_left (fun (j, fact) a -> (j + 1, step fact j a)) (0, fact) args
    in
    if sg.Summary.returns_fresh_qubit then begin
      match id with
      | Some id -> (
        match Hashtbl.find_opt ctx.vt.Value_track.site_of_def id with
        | Some s -> { fact with Fact.q = TMap.add s Live fact.Fact.q }
        | None -> fact)
      | None -> fact
    end
    else fact
  end

let transfer ctx label (i : Instr.t) (fact : Fact.t) : Fact.t =
  match i.Instr.op with
  | Instr.Call (_, callee, args) when Names.is_quantum callee ->
    transfer_call ctx label fact i.Instr.id callee args
  | Instr.Call (_, callee, args) -> (
    match Summary.find ctx.summaries callee with
    | Some sg -> transfer_summarized ctx label fact i.Instr.id callee sg args
    | None -> fact (* external classical code: inert, as before *))
  | _ -> fact

let check_ret ctx label (fact : Fact.t) =
  TMap.iter
    (fun s st ->
      if Summary.is_param_token s || ISet.mem s ctx.returned_sites then
        (* caller-owned, or handed back to the caller: its lifetime *)
        ()
      else
        match st with
        | Released -> ()
        | Live | Maybe_released ->
          let qualifier =
            match st with Live -> "" | _ -> " on some paths"
          in
          let kind =
            match
              List.find_opt
                (fun (site : Value_track.site) ->
                  site.Value_track.site_id = s)
                (Value_track.sites ctx.vt)
            with
            | Some { Value_track.site_kind = Value_track.Qubit_array_site; _ }
              ->
              "qubit array"
            | _ -> "qubit"
          in
          ctx.emit
            (Diagnostic.make ~rule:"QL003" ~severity:Diagnostic.Warning
               ~where:(where ctx label)
               "%s allocated at site %d is never released%s" kind s qualifier))
    fact.Fact.q

(* ------------------------------------------------------------------ *)

let returned_sites_of vt (f : Func.t) =
  List.fold_left
    (fun acc (b : Block.t) ->
      match b.Block.term with
      | Instr.Ret (Some v) -> (
        match site_token (Value_track.qubit_of vt v.Operand.v) with
        | Some s when s >= 0 -> ISet.add s acc
        | _ -> (
          match Value_track.qarray_of vt v.Operand.v with
          | Some s -> ISet.add s acc
          | None -> acc))
      | _ -> acc)
    ISet.empty f.Func.blocks

let check_func ?(summaries : Summary.table = Hashtbl.create 0) ?(is_entry = true)
    (f : Func.t) : finding list =
  if Func.is_declaration f then []
  else begin
    let vt =
      Value_track.of_func ~fresh_fns:(Summary.fresh_fns_of summaries) f
    in
    let silent =
      {
        vt;
        fname = f.Func.name;
        summaries;
        is_entry;
        returned_sites = returned_sites_of vt f;
        emit = ignore;
      }
    in
    let cfg = Cfg.of_func f in
    let tf =
      {
        Engine.instr = (fun label i fact -> transfer silent label i fact);
        Engine.term = Engine.uniform_term;
      }
    in
    (* caller-owned parameters start out live *)
    let init =
      List.fold_left
        (fun (i, fact) (p : Func.param) ->
          ( i + 1,
            if Ty.equal p.Func.pty Ty.Ptr then
              {
                fact with
                Fact.q = TMap.add (Summary.param_token i) Live fact.Fact.q;
              }
            else fact ))
        (0, Fact.bottom) f.Func.params
      |> snd
    in
    let res = Engine.solve ~init cfg tf in
    let out = ref [] in
    let ctx = { silent with emit = (fun d -> out := d :: !out) } in
    List.iter
      (fun label ->
        if Engine.reached res label then begin
          let b = Cfg.block cfg label in
          let fact =
            List.fold_left
              (fun fact i -> transfer ctx label i fact)
              (Engine.block_in res label)
              b.Block.instrs
          in
          match b.Block.term with
          | Instr.Ret _ -> check_ret ctx label fact
          | _ -> ()
        end)
      cfg.Cfg.rpo;
    List.rev !out
  end

(* Whole-module check: every defined function, each against the others'
   summaries. Only the entry point owns the static-result namespace. *)
let check_module ?summaries (m : Ir_module.t) : finding list =
  let summaries =
    match summaries with Some s -> s | None -> Summary.of_module m
  in
  let entry =
    match Ir_module.entry_point m with
    | Some f when not (Func.is_declaration f) -> Some f.Func.name
    | _ -> None
  in
  List.concat_map
    (fun (f : Func.t) ->
      let is_entry =
        match entry with
        | Some e -> String.equal e f.Func.name
        | None -> false
      in
      check_func ~summaries ~is_entry f)
    (Ir_module.defined_funcs m)
