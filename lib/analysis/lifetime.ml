(* Qubit/result lifetime checking: the reporting side of {!Summary}'s
   qubit-lifetime dataflow (pass B). The dataflow — facts, transfer,
   solve-then-replay driver — lives in {!Summary}, which summarizes a
   function by replaying it with recording hooks; this module replays it
   with reporting hooks and adds the checks at [ret]:

     QL001 use-after-release   a quantum call consumes a qubit whose
                               site is released on every path here
     QL002 double-release      release of an already-released site
     QL003 qubit-leak          a site still (possibly) live at ret
     QL004 read-before-measure a result is read (read_result,
                               result_equal, result_record_output) but
                               measured on no path to the read

   Caller-owned parameters get negative tokens (see
   {!Summary.param_token}) and start out live. Calls to defined
   functions apply the callee's summary — a helper that releases its
   argument makes the caller's later use a QL001, a callee-measured
   result satisfies the caller's reads, and a call returning a fresh
   qubit becomes an allocation site the caller must release (QL003).
   Opaque callees untrack whatever flows into them and satisfy all
   reads, so reports stay *definite*: joins demote facts to "maybe"
   states that silence QL001/QL002, QL004 uses a may-measure set, and
   well-formed programs produce no findings. Every defined function is
   checked; rules that need whole-program knowledge (QL003 for returned
   qubits, QL004 for static results a caller may have measured) are
   scoped accordingly. *)

open Llvm_ir
module ISet = Set.Make (Int)

type finding = Diagnostic.t

let token_desc s =
  if Summary.is_param_token s then
    Printf.sprintf "(qubit argument %d)" (-s - 1)
  else Printf.sprintf "(allocation site %d)" s

(* The QL001/QL002/QL004 reports, as the dataflow's replay hooks. Static
   results are whole-program state: only the entry sees their full
   measurement history. *)
let hooks ~where ~is_entry emit =
  {
    Summary.use_released =
      Some
        (fun label callee q ->
          emit
            (Diagnostic.make ~rule:"QL001" ~severity:Diagnostic.Error
               ~where:(where label) "@%s uses a released qubit (%a)" callee
               Value_track.pp_qref q));
    Summary.double_release =
      (fun label callee token ->
        emit
          (Diagnostic.make ~rule:"QL002" ~severity:Diagnostic.Error
             ~where:(where label) "@%s releases an already-released qubit %s"
             callee (token_desc token)));
    Summary.unmeasured_read =
      (fun label callee (r : Value_track.rref) ->
        match r with
        | Value_track.RUnknown | Value_track.RMeas _ -> ()
        | Value_track.RParam _ ->
          (* the caller may have measured it; the function's summary
             exposes the read (fx_reads) so the caller's check fires
             when warranted *)
          ()
        | Value_track.RStatic _ when not is_entry -> ()
        | _ ->
          emit
            (Diagnostic.make ~rule:"QL004" ~severity:Diagnostic.Error
               ~where:(where label)
               "@%s reads %a, which is measured on no path here" callee
               Value_track.pp_rref r));
  }

(* QL003: a site of this function's own, not handed back to the caller,
   still (possibly) live at a ret. *)
let check_ret ~where vt returned_sites emit label (fact : Summary.Fact.t) =
  Summary.TMap.iter
    (fun s st ->
      if Summary.is_param_token s || ISet.mem s returned_sites then
        (* caller-owned, or handed back to the caller: its lifetime *)
        ()
      else
        match st with
        | Summary.Released -> ()
        | Summary.Live | Summary.Maybe_released ->
          let qualifier =
            match st with Summary.Live -> "" | _ -> " on some paths"
          in
          let kind =
            match
              List.find_opt
                (fun (site : Value_track.site) ->
                  site.Value_track.site_id = s)
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
    fact.Summary.Fact.q

(* ------------------------------------------------------------------ *)

let returned_sites_of vt (f : Func.t) =
  List.fold_left
    (fun acc (b : Block.t) ->
      match b.Block.term with
      | Instr.Ret (Some v) -> (
        match Summary.qref_token (Value_track.qubit_of vt v.Operand.v) with
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
    let where label = Printf.sprintf "@%s %%%s" f.Func.name label in
    let out = ref [] in
    let emit d = out := d :: !out in
    let returned_sites = returned_sites_of vt f in
    Summary.replay summaries vt
      (hooks ~where ~is_entry emit)
      f
      ~at_ret:(fun label fact _ ->
        check_ret ~where vt returned_sites emit label fact);
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
