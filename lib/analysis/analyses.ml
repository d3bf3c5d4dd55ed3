(* One module's analyses, each solved on first request and shared by
   every consumer: the call graph, the interprocedural constant facts,
   and per function its {!Value_track} resolution, its {!Passes.Sccp}
   solution and its lifetime solve (summary and QL findings). The IR is
   immutable, so nothing is invalidated: a rewritten function is a new
   value, and a solve is cached per name and physical function, so a
   record for a rewritten module ({!with_module}) still answers for the
   functions the rewrite kept.

   Consumers keep the variants they need apart and share one only where
   the variants coincide: [Value_track] with the fresh-qubit callees the
   summaries know of is the plain resolution for a function calling no
   such callee; [Sccp] seeded from call sites is the plain solve when
   every seed is Varying. *)

open Llvm_ir
module Sccp = Passes.Sccp

(* A function's lifetime solve: the resolution it ran on (the
   fresh-callee variant) and its findings; the summary goes to [table]. *)
type lifetime = { vt : Value_track.t; findings : Diagnostic.t list }

type 'a memo = (string, (Func.t * 'a) list) Hashtbl.t

type t = {
  ir : Ir_module.t;
  call_graph : Call_graph.t Lazy.t;
  const_facts : Const_addr.module_facts Lazy.t;
  vts : Value_track.t memo;
  sccps : Sccp.solution memo;
  table : Summary.table;  (* the summaries solved so far *)
  lifetimes : (string, lifetime) Hashtbl.t;
}

let memo (tbl : 'a memo) solve (f : Func.t) =
  let known = Option.value ~default:[] (Hashtbl.find_opt tbl f.Func.name) in
  match List.assq_opt f known with
  | Some x -> x
  | None ->
    let x = solve f in
    Hashtbl.replace tbl f.Func.name ((f, x) :: known);
    x

let value_track a f = memo a.vts (fun f -> Value_track.of_func f) f
let sccp a f = memo a.sccps (fun f -> Sccp.solve f) f

let make ir vts sccps =
  let rec a =
    {
      ir;
      call_graph = lazy (Call_graph.build ir);
      const_facts = lazy (Const_addr.analyze_module (sccp a) ir);
      vts;
      sccps;
      table = Hashtbl.create 16;
      lifetimes = Hashtbl.create 16;
    }
  in
  a

let of_module m = make m (Hashtbl.create 16) (Hashtbl.create 16)

(* A record for [m], a rewrite of [a]'s module: the per-function solves
   of the functions [m] kept are shared. *)
let with_module a m = make m a.vts a.sccps

let ir a = a.ir
let call_graph a = Lazy.force a.call_graph
let const_facts a = Lazy.force a.const_facts

(* Solves one call-graph component, its callees' components first. *)
let rec solve_scc a scc =
  let cg = call_graph a in
  List.iter
    (fun name ->
      List.iter
        (fun callee ->
          if not (List.mem callee scc) then ignore (lifetime a callee))
        (Call_graph.callees cg name))
    scc;
  let recursive =
    match scc with
    | [ name ] -> Call_graph.is_recursive cg name
    | _ -> true
  in
  let funcs =
    List.filter_map
      (fun name ->
        match Ir_module.find_func a.ir name with
        | Some f when not (Func.is_declaration f) -> Some f
        | Some _ | None -> None)
      scc
  in
  if recursive then
    List.iter
      (fun (f : Func.t) ->
        Hashtbl.replace a.table f.Func.name
          (Summary.opaque_summary ~recursive:true f.Func.name
             (List.length f.Func.params)))
      funcs;
  List.iter
    (fun (f : Func.t) ->
      let fresh = Summary.fresh_fns_of a.table in
      let vt =
        if List.exists fresh (Call_graph.callees cg f.Func.name) then
          Value_track.of_func ~fresh_fns:fresh f
        else value_track a f
      in
      let is_entry = Call_graph.entry_name cg = Some f.Func.name in
      let summary, findings =
        Summary.solve_func a.table vt ~recursive ~is_entry f
      in
      Hashtbl.replace a.table f.Func.name summary;
      Hashtbl.replace a.lifetimes f.Func.name { vt; findings })
    funcs

(* The lifetime solve of the defined function [name], against its
   callees' summaries. *)
and lifetime a name =
  match Hashtbl.find_opt a.lifetimes name with
  | Some l -> l
  | None ->
    solve_scc a (Call_graph.scc_of (call_graph a) name);
    Hashtbl.find a.lifetimes name

(* Every defined function's summary. *)
let summaries a =
  List.iter
    (fun (f : Func.t) -> ignore (lifetime a f.Func.name))
    (Ir_module.defined_funcs a.ir);
  a.table
