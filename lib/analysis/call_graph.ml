(* The direct call graph of a module, the substrate of every
   interprocedural analysis in this library. Nodes are the module's
   defined functions; an edge f -> g records a direct [call] to a
   non-quantum callee (QIS/RT vocabulary calls are *effects*, not
   edges). Tarjan's algorithm condenses the graph into strongly
   connected components emitted callees-first, which is exactly the
   bottom-up order the {!Summary} engine wants; recursion (a self edge
   or a component of size > 1) and entry-point reachability fall out of
   the same pass and feed two whole-module lint rules:

     QP001 error    a recursive function is reachable from the entry
                    point — no QIR hardware profile supports recursion
     QC001 warning  a defined function is unreachable from the entry
                    point (dead code at the call-graph level)

   Calls to non-quantum functions that have no body in the module
   (external declarations) are recorded separately: they are opaque to
   the summary engine and make their caller's effects unknown. *)

open Llvm_ir
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type t = {
  m : Ir_module.t;
  defined : string list;  (* in module order *)
  edges : string list SMap.t;  (* defined f -> defined callees, dedup *)
  externals : string list SMap.t;  (* defined f -> bodyless classical callees *)
  sccs : string list list;  (* bottom-up: callees before callers *)
  recursive : SSet.t;
  entry : string option;
  reachable : SSet.t;  (* defined functions reachable from the entry *)
}

let dedup names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.replace seen n ();
        true
      end)
    names

(* Tarjan's SCC algorithm; pops a component once all its successors are
   complete, so components come out callees-first (bottom-up). *)
let tarjan nodes succs =
  let index = Hashtbl.create 16
  and lowlink = Hashtbl.create 16
  and on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        match Hashtbl.find_opt index w with
        | None ->
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        | Some wi ->
          if Hashtbl.mem on_stack w then
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) wi))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  List.rev !sccs

let build (m : Ir_module.t) : t =
  let defined_set =
    List.fold_left
      (fun acc (f : Func.t) -> SSet.add f.Func.name acc)
      SSet.empty (Ir_module.defined_funcs m)
  in
  let defined =
    List.map (fun (f : Func.t) -> f.Func.name) (Ir_module.defined_funcs m)
  in
  let edges, externals =
    List.fold_left
      (fun (edges, externals) (f : Func.t) ->
        let callees =
          Func.fold_instrs f [] (fun acc (i : Instr.t) ->
              match i.Instr.op with
              | Instr.Call (_, c, _) when not (Names.is_quantum c) -> c :: acc
              | _ -> acc)
          |> List.rev |> dedup
        in
        let internal, external_ =
          List.partition (fun c -> SSet.mem c defined_set) callees
        in
        ( SMap.add f.Func.name internal edges,
          SMap.add f.Func.name external_ externals ))
      (SMap.empty, SMap.empty)
      (Ir_module.defined_funcs m)
  in
  let succs v = Option.value ~default:[] (SMap.find_opt v edges) in
  let sccs = tarjan defined succs in
  let recursive =
    List.fold_left
      (fun acc scc ->
        match scc with
        | [ v ] -> if List.mem v (succs v) then SSet.add v acc else acc
        | vs -> List.fold_left (fun acc v -> SSet.add v acc) acc vs)
      SSet.empty sccs
  in
  let entry =
    match Ir_module.entry_point m with
    | Some f when not (Func.is_declaration f) -> Some f.Func.name
    | _ -> None
  in
  let reachable =
    match entry with
    | None -> SSet.empty
    | Some e ->
      let seen = ref SSet.empty in
      let rec go v =
        if not (SSet.mem v !seen) then begin
          seen := SSet.add v !seen;
          List.iter go (succs v)
        end
      in
      go e;
      !seen
  in
  { m; defined; edges; externals; sccs; recursive; entry; reachable }

let callees t f = Option.value ~default:[] (SMap.find_opt f t.edges)
let external_callees t f = Option.value ~default:[] (SMap.find_opt f t.externals)
let sccs_bottom_up t = t.sccs
let is_recursive t f = SSet.mem f t.recursive
let entry_name t = t.entry
let is_reachable t f = SSet.mem f t.reachable
let reachable_defined t = List.filter (fun f -> is_reachable t f) t.defined

let unreachable_defined t =
  match t.entry with
  | None -> []
  | Some _ -> List.filter (fun f -> not (is_reachable t f)) t.defined

let recursive_reachable t =
  List.filter (fun f -> is_recursive t f) (reachable_defined t)

(* ------------------------------------------------------------------ *)
(* Lint findings. Both rules need an entry point to be meaningful.      *)

let scc_of t f =
  match List.find_opt (fun scc -> List.mem f scc) t.sccs with
  | Some scc -> scc
  | None -> [ f ]

let findings (t : t) : Diagnostic.t list =
  match t.entry with
  | None -> []
  | Some entry ->
    let qp001 =
      List.map
        (fun f ->
          let cycle =
            String.concat " -> " (List.map (fun g -> "@" ^ g) (scc_of t f))
          in
          Diagnostic.make ~rule:"QP001" ~severity:Diagnostic.Error
            ~where:("@" ^ f)
            "recursion (%s) is reachable from @%s; no QIR profile supports \
             recursive calls"
            cycle entry)
        (recursive_reachable t)
    in
    let qc001 =
      List.map
        (fun f ->
          Diagnostic.make ~rule:"QC001" ~severity:Diagnostic.Warning
            ~where:("@" ^ f) "function is never called from entry point @%s"
            entry)
        (unreachable_defined t)
    in
    qp001 @ qc001

(* ------------------------------------------------------------------ *)
(* Rendering, for qir-lint --call-graph.                                *)

let render_text ppf t =
  let entry =
    match t.entry with Some e -> Printf.sprintf " (entry: @%s)" e | None -> ""
  in
  Format.fprintf ppf "call graph of '%s'%s@\n" t.m.Ir_module.source_name entry;
  List.iter
    (fun f ->
      let cs =
        List.map (fun c -> "@" ^ c) (callees t f @ external_callees t f)
      in
      Format.fprintf ppf "  @%s -> %s@\n" f
        (match cs with [] -> "(no calls)" | cs -> String.concat ", " cs))
    t.defined;
  Format.fprintf ppf "  sccs (bottom-up): %s@\n"
    (String.concat " "
       (List.map
          (fun scc ->
            "{" ^ String.concat " " (List.map (fun f -> "@" ^ f) scc) ^ "}")
          t.sccs));
  let named set = match set with [] -> "none" | fs ->
    String.concat ", " (List.map (fun f -> "@" ^ f) fs)
  in
  Format.fprintf ppf "  recursive: %s@\n"
    (named (List.filter (fun f -> is_recursive t f) t.defined));
  Format.fprintf ppf "  unreachable: %s@." (named (unreachable_defined t))

let to_json t =
  let strs fs = Jsonx.Arr (List.map (fun f -> Jsonx.Str f) fs) in
  let func f =
    Jsonx.Obj
      [
        ("name", Jsonx.Str f);
        ("callees", strs (callees t f));
        ("external_callees", strs (external_callees t f));
        ("recursive", Jsonx.Bool (is_recursive t f));
        ("reachable", Jsonx.Bool (t.entry = None || is_reachable t f));
      ]
  in
  Jsonx.Obj
    [
      ("schema_version", Jsonx.int Diagnostic.schema_version);
      ("module", Jsonx.Str t.m.Ir_module.source_name);
      ( "entry",
        match t.entry with Some e -> Jsonx.Str e | None -> Jsonx.Null );
      ("functions", Jsonx.Arr (List.map func t.defined));
      ("sccs", Jsonx.Arr (List.map strs t.sccs));
    ]

let render_json ppf t = Format.fprintf ppf "%s@." (Jsonx.pretty (to_json t))
