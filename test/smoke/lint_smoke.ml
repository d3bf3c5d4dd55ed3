(* Lint smoke: qir-lint must be quiet on code that is actually fine and
   loud on code that is actually broken.

   Four corpora:
   1. the checked-in examples (examples/*.ll, or the directory given as
      argv(1)) — no errors or warnings allowed (notes are fine), except
      the deliberately-buggy demos, which must fire exactly their
      documented rules;
   2. 100 generated circuits built as QIR in both addressing styles —
      builder output must produce zero findings;
   3. 100 generated *multi-function* modules — helpers taking qubit
      arguments, qubit-releasing callees, fresh-qubit-returning
      factories, two-level call chains — that the interprocedural lint
      must pass zero-FP;
   4. embedded seeded-bug fixtures, intraprocedural and cross-call —
      each must trigger its rule.

   Each example's JSON documents (diagnostics, call graph, resource
   certificate) must also parse and carry the schema version.

   Used by CI:  dune exec test/smoke/lint_smoke.exe *)

open Qcircuit

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "FAIL: %s\n" msg)
    fmt

let noisy ds =
  Qir_analysis.Diagnostic.errors ds + Qir_analysis.Diagnostic.warnings ds

let rules ds =
  List.map (fun (d : Qir_analysis.Diagnostic.t) -> d.Qir_analysis.Diagnostic.rule) ds

(* Solve counts: every Lint.run below must run each counted analysis at
   most once per function and variant. The variants a module admits:
   per defined function the plain Value_track and Sccp solves and one
   lifetime solve; a second Value_track for a function calling a
   fresh-qubit factory; and the Sccp solves seeded from call sites,
   at most 2p + 1 for a non-root function of p parameters (seeds only
   harden, one parameter one step at a time). *)
module QA = Qir_analysis

let solve_counts () =
  ( Atomic.get QA.Value_track.solves,
    Atomic.get Passes.Sccp.solves,
    Atomic.get QA.Summary.solves )

let solve_totals = ref (0, 0, 0)

let variants m =
  let a = QA.Analyses.of_module m in
  let cg = QA.Analyses.call_graph a and table = QA.Analyses.summaries a in
  let root (f : Llvm_ir.Func.t) =
    match QA.Call_graph.entry_name cg with
    | Some e -> String.equal e f.Llvm_ir.Func.name
    | None -> true
  in
  List.fold_left
    (fun (vt, sccp, life) (f : Llvm_ir.Func.t) ->
      let fresh =
        List.exists (QA.Summary.fresh_fns_of table)
          (QA.Call_graph.callees cg f.Llvm_ir.Func.name)
      in
      let params = List.length f.Llvm_ir.Func.params in
      ( (vt + if fresh then 2 else 1),
        (sccp + if root f || params = 0 then 1 else (2 * params) + 2),
        life + 1 ))
    (0, 0, 0)
    (Llvm_ir.Ir_module.defined_funcs m)

let lint ?notes what m =
  let v0, s0, l0 = solve_counts () in
  let ds = QA.Lint.run ?notes (QA.Analyses.of_module m) in
  let v1, s1, l1 = solve_counts () in
  let vt, sccp, life = (v1 - v0, s1 - s0, l1 - l0) in
  let tv, ts, tl = !solve_totals in
  solve_totals := (tv + vt, ts + sccp, tl + life);
  let bv, bs, bl = variants m in
  if vt > bv || sccp > bs || life > bl then
    fail "%s: solves value_track %d sccp %d lifetime %d, variants %d %d %d"
      what vt sccp life bv bs bl;
  ds

(* 1. checked-in examples ------------------------------------------- *)

(* Deliberately-buggy demos: each must fire exactly the rules it is
   checked in to demonstrate (any extra error/warning is a smoke FP). *)
let expected_bad =
  [
    ("teleport_helpers.ll", [ "QL001" ]);
    ("recursive_bad.ll", [ "QP001" ]);
  ]

(* The three --format json documents of one example — diagnostics,
   call graph, resource certificate — must parse and carry the schema
   version. *)
let json_documents_parse path m ds =
  let check what pp x =
    match Jsonx.parse (Format.asprintf "%a" pp x) with
    | Error e -> fail "%s: %s JSON does not parse: %s" path what e
    | Ok doc ->
      if Jsonx.mem_int "schema_version" doc
         <> Some Qir_analysis.Diagnostic.schema_version
      then fail "%s: %s JSON lacks schema_version" path what
  in
  check "diagnostics" (Qir_analysis.Diagnostic.render_json ~module_name:path) ds;
  check "call-graph" Qir_analysis.Call_graph.render_json
    (Qir_analysis.Call_graph.build m);
  check "certificate"
    (Qir_analysis.Resource.render_json ~diagnostics:ds)
    Qir_analysis.(Resource.certify (Analyses.of_module m))

let lint_examples dir =
  let files =
    try
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ll")
      |> List.sort compare
    with Sys_error _ -> []
  in
  if files = [] then Printf.printf "examples: none found in %s (skipped)\n" dir
  else
    List.iter
      (fun f ->
        let path = Filename.concat dir f in
        let src = In_channel.with_open_text path In_channel.input_all in
        let m = Llvm_ir.Parser.parse_module ~source_name:path src in
        let ds = lint path m in
        json_documents_parse path m ds;
        match List.assoc_opt f expected_bad with
        | Some required ->
          List.iter
            (fun rule ->
              if not (List.mem rule (rules ds)) then
                fail "%s: expected rule %s to fire" path rule)
            required
        | None ->
          if noisy ds > 0 then
            fail "%s: expected a clean lint, got %d error/warning finding(s)"
              path (noisy ds))
      files;
  Printf.printf "examples: %d file(s) linted\n" (List.length files)

(* 2. generated corpus ---------------------------------------------- *)

let with_measurements (c : Circuit.t) =
  let b =
    Circuit.Build.create ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_qubits ()
  in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Gate (g, qs) -> Circuit.Build.gate b g qs
      | _ -> ())
    c.Circuit.ops;
  for q = 0 to c.Circuit.num_qubits - 1 do
    Circuit.Build.measure b q q
  done;
  Circuit.Build.finish b

let lint_corpus () =
  let count = 100 in
  for i = 0 to count - 1 do
    let seed = 4000 + i in
    let n = 2 + (i mod 5) in
    let c =
      with_measurements
        (Generate.random ~seed ~parametric:(i mod 2 = 0) ~gates:(8 + (i mod 3 * 8)) n)
    in
    List.iter
      (fun addressing ->
        let m = Qir.Qir_builder.build ~addressing c in
        let ds = lint ~notes:false (Printf.sprintf "generated circuit %d" i) m in
        if ds <> [] then
          fail "generated circuit %d (%s): %d unexpected finding(s): %s" i
            (match addressing with `Static -> "static" | `Dynamic -> "dynamic")
            (List.length ds)
            (String.concat " " (rules ds)))
      [ `Static; `Dynamic ]
  done;
  Printf.printf "corpus: %d circuits x 2 addressings linted clean\n" count

(* 3. generated multi-function corpus ------------------------------- *)

(* Textual QIR with helpers that take qubit arguments, release their
   arguments, return fresh qubits, or forward qubits down a two-level
   call chain — all correct, so the interprocedural lint must stay
   silent. Three module shapes, sizes varied by index. *)

let mf_prelude =
  {|declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__rt__qubit_release(ptr)
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
|}

let result_addr i =
  if i = 0 then "ptr null" else Printf.sprintf "ptr inttoptr (i64 %d to ptr)" i

(* helpers release their qubit arguments; main only hands qubits over *)
let mf_release_shape ~n ~gate ~read =
  let b = Buffer.create 1024 in
  Buffer.add_string b mf_prelude;
  Buffer.add_string b
    {|
define void @entangle(ptr %a, ptr %b) {
entry:
  call void @__quantum__qis__h__body(ptr %a)
  call void @__quantum__qis__cnot__body(ptr %a, ptr %b)
  ret void
}

define void @finish(ptr %q, ptr %r) {
entry:
  call void @__quantum__qis__mz__body(ptr %q, ptr %r)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}

define void @main() "entry_point" {
entry:
|};
  for q = 0 to n - 1 do
    Printf.bprintf b "  %%q%d = call ptr @__quantum__rt__qubit_allocate()\n" q
  done;
  Printf.bprintf b "  call void @__quantum__qis__%s__body(ptr %%q0)\n" gate;
  for q = 0 to n - 2 do
    Printf.bprintf b "  call void @entangle(ptr %%q%d, ptr %%q%d)\n" q (q + 1)
  done;
  for q = 0 to n - 1 do
    Printf.bprintf b "  call void @finish(ptr %%q%d, %s)\n" q (result_addr q)
  done;
  if read then begin
    Buffer.add_string b
      "  %c = call i1 @__quantum__qis__read_result__body(ptr null)\n";
    Buffer.add_string b
      "  call void @__quantum__rt__result_record_output(ptr null, ptr null)\n"
  end;
  Buffer.add_string b "  ret void\n}\n";
  Buffer.contents b

(* a factory returns a fresh qubit the caller must (and does) release *)
let mf_factory_shape ~n ~gate ~read =
  let b = Buffer.create 1024 in
  Buffer.add_string b mf_prelude;
  Printf.bprintf b
    {|
define ptr @make_q() {
entry:
  %%q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__%s__body(ptr %%q)
  ret ptr %%q
}

define void @main() "entry_point" {
entry:
|}
    gate;
  for q = 0 to n - 1 do
    Printf.bprintf b "  %%q%d = call ptr @make_q()\n" q
  done;
  for q = 0 to n - 2 do
    Printf.bprintf b
      "  call void @__quantum__qis__cnot__body(ptr %%q%d, ptr %%q%d)\n" q
      (q + 1)
  done;
  for q = 0 to n - 1 do
    Printf.bprintf b "  call void @__quantum__qis__mz__body(ptr %%q%d, %s)\n" q
      (result_addr q)
  done;
  if read then
    Buffer.add_string b
      "  %c = call i1 @__quantum__qis__read_result__body(ptr null)\n";
  for q = 0 to n - 1 do
    Printf.bprintf b "  call void @__quantum__rt__qubit_release(ptr %%q%d)\n" q
  done;
  Buffer.add_string b "  ret void\n}\n";
  Buffer.contents b

(* a two-level chain: effects must compose through nested summaries *)
let mf_chain_shape ~n ~gate ~read =
  let b = Buffer.create 1024 in
  Buffer.add_string b mf_prelude;
  Printf.bprintf b
    {|
define void @inner(ptr %%q, ptr %%r) {
entry:
  call void @__quantum__qis__mz__body(ptr %%q, ptr %%r)
  ret void
}

define void @outer(ptr %%q, ptr %%r) {
entry:
  call void @__quantum__qis__%s__body(ptr %%q)
  call void @inner(ptr %%q, ptr %%r)
  ret void
}

define void @main() "entry_point" {
entry:
|}
    gate;
  for q = 0 to n - 1 do
    Printf.bprintf b "  %%q%d = call ptr @__quantum__rt__qubit_allocate()\n" q
  done;
  for q = 0 to n - 1 do
    Printf.bprintf b "  call void @outer(ptr %%q%d, %s)\n" q (result_addr q)
  done;
  if read then
    Buffer.add_string b
      "  %c = call i1 @__quantum__qis__read_result__body(ptr null)\n";
  for q = 0 to n - 1 do
    Printf.bprintf b "  call void @__quantum__rt__qubit_release(ptr %%q%d)\n" q
  done;
  Buffer.add_string b "  ret void\n}\n";
  Buffer.contents b

let lint_mf_corpus () =
  let count = 100 in
  for i = 0 to count - 1 do
    let n = 2 + (i mod 4) in
    let gate = if i mod 2 = 0 then "h" else "x" in
    let read = i mod 3 = 0 in
    let shape, src =
      match i mod 3 with
      | 0 -> ("release", mf_release_shape ~n ~gate ~read)
      | 1 -> ("factory", mf_factory_shape ~n ~gate ~read)
      | _ -> ("chain", mf_chain_shape ~n ~gate ~read)
    in
    let m = Llvm_ir.Parser.parse_module src in
    let ds = lint ~notes:false (Printf.sprintf "multi-function module %d" i) m in
    if ds <> [] then
      fail "multi-function module %d (%s, n=%d): %d unexpected finding(s): %s"
        i shape n (List.length ds)
        (String.concat " " (rules ds))
  done;
  Printf.printf "multi-function corpus: %d modules linted clean\n" count

(* 4. seeded bugs --------------------------------------------------- *)

let prelude =
  {|
declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__rt__qubit_release(ptr)
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
|}

let seeded : (string * string * string) list =
  [
    ( "QL001",
      "use after release",
      prelude
      ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}|} );
    ( "QL002",
      "double release",
      prelude
      ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|} );
    ( "QL003",
      "leaked qubit",
      prelude
      ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  ret void
}|} );
    ( "QL004",
      "read before measure",
      prelude
      ^ {|
define void @main() "entry_point" {
entry:
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|} );
    ( "QD001",
      "dead gate",
      prelude
      ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 7 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|} );
  ]

(* Bugs only visible across a call boundary: every one was a blind spot
   of the intraprocedural lint and must fire through summaries now. *)
let seeded_cross_call : (string * string * string) list =
  [
    ( "QL001",
      "helper releases its argument, caller uses it after",
      mf_prelude
      ^ {|
define void @free_it(ptr %q) {
entry:
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @free_it(ptr %q)
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}|} );
    ( "QL002",
      "helper releases its argument, caller releases it again",
      mf_prelude
      ^ {|
define void @free_it(ptr %q) {
entry:
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @free_it(ptr %q)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|} );
    ( "QL003",
      "factory returns a fresh qubit the caller never releases",
      mf_prelude
      ^ {|
define ptr @make_q() {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  ret ptr %q
}
define void @main() "entry_point" {
entry:
  %q = call ptr @make_q()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  ret void
}|} );
    ( "QD002",
      "pure classical call with unused result",
      mf_prelude
      ^ {|
define i64 @twice(i64 %x) {
entry:
  %y = add i64 %x, %x
  ret i64 %y
}
define void @main() "entry_point" {
entry:
  %t = call i64 @twice(i64 3)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|} );
    ( "QD002",
      "unitary helper applied to a qubit no measurement can see",
      mf_prelude
      ^ {|
define void @spin(ptr %q) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  %q0 = call ptr @__quantum__rt__qubit_allocate()
  %q1 = call ptr @__quantum__rt__qubit_allocate()
  call void @spin(ptr %q1)
  call void @__quantum__qis__mz__body(ptr %q0, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q0)
  call void @__quantum__rt__qubit_release(ptr %q1)
  ret void
}|} );
    ( "QP001",
      "recursion reachable from the entry point",
      mf_prelude
      ^ {|
define void @loop(ptr %q, i64 %n) {
entry:
  %done = icmp sle i64 %n, 0
  br i1 %done, label %exit, label %recurse
recurse:
  call void @__quantum__qis__h__body(ptr %q)
  %n1 = sub i64 %n, 1
  call void @loop(ptr %q, i64 %n1)
  br label %exit
exit:
  ret void
}
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @loop(ptr %q, i64 3)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|} );
    ( "QC001",
      "defined helper unreachable from the entry point",
      mf_prelude
      ^ {|
define void @orphan(ptr %q) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|} );
  ]

let lint_seeded () =
  List.iter
    (fun (rule, what, src) ->
      let m = Llvm_ir.Parser.parse_module src in
      let ds = lint ("seeded " ^ rule) m in
      if not (List.mem rule (rules ds)) then
        fail "seeded %s (%s) not detected" rule what)
    seeded;
  Printf.printf "seeded: %d bug fixtures detected\n" (List.length seeded)

let lint_seeded_cross_call () =
  List.iter
    (fun (rule, what, src) ->
      let m = Llvm_ir.Parser.parse_module src in
      let ds = lint ("seeded cross-call " ^ rule) m in
      if not (List.mem rule (rules ds)) then
        fail "seeded cross-call %s (%s) not detected" rule what)
    seeded_cross_call;
  Printf.printf "seeded cross-call: %d bug fixtures detected\n"
    (List.length seeded_cross_call)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "examples" in
  lint_examples dir;
  lint_corpus ();
  lint_mf_corpus ();
  lint_seeded ();
  lint_seeded_cross_call ();
  (let vt, sccp, life = !solve_totals in
   Printf.printf "solves: value_track %d, sccp %d, lifetime %d\n" vt sccp life);
  if !failures > 0 then begin
    Printf.eprintf "lint smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "lint smoke: ok"
