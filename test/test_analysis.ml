(* Tests for the dataflow engine and the QIR static analyses: qubit
   lifetime checking (QL001-QL004), dead-quantum-code analysis (QD001 /
   the quantum-dce pass), constant-address proofs (QA001, proved-static
   addressing upgrades) and the lint driver. *)

open Llvm_ir
open Qir
open Qruntime
open Qir_analysis

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let parse = Parser.parse_module

let rules ds = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) ds
let has_rule r ds = List.mem r (rules ds)
let count_rule r ds = List.length (List.filter (String.equal r) (rules ds))

let count_calls_to m callee =
  List.fold_left
    (fun acc (f : Func.t) ->
      Func.fold_instrs f acc (fun acc (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call (_, c, _) when String.equal c callee -> acc + 1
          | _ -> acc))
    0 m.Ir_module.funcs

(* ------------------------------------------------------------------ *)
(* The generic engine                                                   *)

(* A forward reachability problem with branch pruning: blocks behind a
   constant-false edge are never reached, and a diamond join merges the
   facts of both feasible predecessors. *)
module SSet = Set.Make (String)

module Labels = struct
  type t = SSet.t

  let bottom = SSet.empty
  let equal = SSet.equal
  let join = SSet.union
end

module FwdLabels = Dataflow.Forward (Labels)

let test_forward_join_and_pruning () =
  let m =
    parse
      {|
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  br i1 false, label %dead, label %exit
dead:
  br label %exit
exit:
  ret void
}|}
  in
  let f = Ir_module.find_func_exn m "f" in
  let cfg = Cfg.of_func f in
  let tf =
    {
      FwdLabels.instr = (fun _ _ fact -> fact);
      FwdLabels.term =
        (fun label term fact ->
          let fact = SSet.add label fact in
          match term with
          | Instr.Cond_br (Operand.Const (Constant.Bool false), _, el) ->
            [ (el, fact) ]
          | _ -> FwdLabels.uniform_term label term fact);
    }
  in
  let res = FwdLabels.solve cfg tf in
  check bool_t "diamond join sees both arms" true
    (SSet.equal
       (FwdLabels.block_in res "join")
       (SSet.of_list [ "entry"; "a"; "b" ]));
  check bool_t "constant-false arm unreached" false
    (FwdLabels.reached res "dead");
  check bool_t "exit reached" true (FwdLabels.reached res "exit")

(* ------------------------------------------------------------------ *)
(* Lifetime analysis                                                    *)

let lint_module ?notes m = Lint.run ?notes (Analyses.of_module m)
let lint src = lint_module (parse src)

let prelude =
  {|
declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__rt__qubit_release(ptr)
declare ptr @__quantum__rt__qubit_allocate_array(i64)
declare void @__quantum__rt__qubit_release_array(ptr)
declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
|}

let test_use_after_release () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}|})
  in
  check bool_t "QL001 reported" true (has_rule "QL001" ds)

let test_release_then_stop_is_clean () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|})
  in
  (* quantum-opt may note rewrites (QO001-QO003); only errors and
     warnings count against cleanliness *)
  check int_t "no errors or warnings" 0
    (Diagnostic.errors ds + Diagnostic.warnings ds)

let test_double_release () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|})
  in
  check int_t "one QL002" 1 (count_rule "QL002" ds);
  check bool_t "no QL001 for the release itself" false (has_rule "QL001" ds)

let test_leak_and_array_release () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %qs = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  %q0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %qs, i64 0)
  call void @__quantum__qis__h__body(ptr %q0)
  call void @__quantum__qis__mz__body(ptr %q0, ptr null)
  ret void
}|})
  in
  check int_t "one QL003 leak" 1 (count_rule "QL003" ds);
  (* releasing the array silences it *)
  let ds' =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %qs = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  %q0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %qs, i64 0)
  call void @__quantum__qis__h__body(ptr %q0)
  call void @__quantum__qis__mz__body(ptr %q0, ptr null)
  call void @__quantum__rt__qubit_release_array(ptr %qs)
  ret void
}|})
  in
  check int_t "no errors or warnings after release" 0
    (Diagnostic.errors ds' + Diagnostic.warnings ds')

let test_read_before_measure () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  check int_t "one QL004" 1 (count_rule "QL004" ds);
  let ds' =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  ret void
}|})
  in
  check bool_t "measured first is clean" false (has_rule "QL004" ds')

let test_branch_release_no_false_positive () =
  (* released on one path only: a later use is a maybe, not a definite
     use-after-release — no QL001; the path-dependent leak is a QL003 *)
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %then, label %join
then:
  call void @__quantum__rt__qubit_release(ptr %q)
  br label %join
join:
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}|})
  in
  check bool_t "no definite use-after-release" false (has_rule "QL001" ds);
  check bool_t "path-dependent leak reported" true (has_rule "QL003" ds)

let test_builder_output_is_clean () =
  List.iter
    (fun addressing ->
      let m =
        Qir_builder.build ~addressing (Qcircuit.Generate.bell ())
      in
      check int_t "builder module lints clean" 0
        (List.length (lint_module ~notes:false m)))
    [ `Static; `Dynamic ]

(* ------------------------------------------------------------------ *)
(* Dead-quantum-code analysis / quantum-dce pass                        *)

let deadgate_src =
  prelude
  ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}|}

let test_quantum_dce_removes_dead_gate () =
  let m = parse deadgate_src in
  check bool_t "QD001 reported" true (has_rule "QD001" (lint_module m));
  let m' = Pass_table.run "quantum-dce" m in
  check int_t "x removed" 0 (count_calls_to m' Names.(qis "x"));
  check int_t "h kept" 1 (count_calls_to m' Names.(qis "h"));
  (* removing the dead gate does not change the output distribution *)
  let hist = (Executor.run_shots_resilient ~seed:7 ~shots:100 m).histogram in
  let hist' = (Executor.run_shots_resilient ~seed:7 ~shots:100 m').histogram in
  check bool_t "same histogram" true (hist = hist')

let test_quantum_dce_respects_entanglement () =
  let m =
    parse
      (prelude
     ^ {|
declare void @__quantum__qis__cnot__body(ptr, ptr)
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr null)
  ret void
}|})
  in
  (* h acts on an unmeasured qubit, but its effect reaches the measured
     one through the cnot: nothing is removable *)
  check bool_t "nothing dead" false (has_rule "QD001" (lint_module m));
  let m' = Pass_table.run "quantum-dce" m in
  check int_t "h kept" 1 (count_calls_to m' Names.(qis "h"));
  check int_t "cnot kept" 1 (count_calls_to m' Names.(qis "cnot"))

(* ------------------------------------------------------------------ *)
(* Constant-address analysis and proved-static addressing               *)

let phi_addr_src =
  prelude
  ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %then, label %join
then:
  %a1 = add i64 0, 1
  br label %join
join:
  %addr = phi i64 [ 1, %entry ], [ %a1, %then ]
  %q = inttoptr i64 %addr to ptr
  call void @__quantum__qis__x__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr inttoptr (i64 1 to ptr))
  ret void
}|}

let test_const_addr_proves_phi_static () =
  let m = parse phi_addr_src in
  let a = Analyses.of_module m in
  let s = Const_addr.summarize (Analyses.const_facts a) m in
  check int_t "two operands proved" 2 s.Const_addr.proved_static;
  check int_t "none left dynamic" 0 s.Const_addr.dynamic;
  check int_t "two QA001 notes" 2 (count_rule "QA001" (lint_module m))

let test_detect_proved_upgrade () =
  let m = parse phi_addr_src in
  let r = Addressing.detect_proved m in
  (* null-addressed gates next to the phi-computed one: syntactically
     the module mixes static and dynamic addressing *)
  check bool_t "syntactically mixed" true
    (r.Addressing.syntactic = Addressing.Mixed);
  check bool_t "proved static" true (r.Addressing.proved = Addressing.Static);
  check int_t "two upgraded operands" 2 r.Addressing.upgraded_args

let test_detect_ignores_dead_allocation () =
  (* the allocation sits in an unreachable block: the program's live
     addressing is static *)
  let m =
    parse
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
dead:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}|})
  in
  check bool_t "dead allocate does not make it dynamic" true
    (Addressing.detect m = Addressing.Static)

let test_to_static_converts_where_syntactic_refuses () =
  let m = parse phi_addr_src in
  (* the seed's syntactic route rejects the phi outright *)
  check bool_t "parser refuses the phi" true
    (match Qir_parser.parse_result m with Error _ -> true | Ok _ -> false);
  (* the proved-constant rewrite converts it *)
  let m' = Addressing.to_static ~record_output:false m in
  check bool_t "now static" true (Addressing.detect m' = Addressing.Static);
  check bool_t "conforms base" true
    (Profile_check.conforms Profile.Base m');
  (* and the observable behavior is unchanged: qubit 1 is always
     flipped, qubit 0 stays uniform *)
  let shots = 300 in
  let hist = (Executor.run_shots_resilient ~seed:13 ~shots m).histogram in
  let hist' = (Executor.run_shots_resilient ~seed:29 ~shots m').histogram in
  let count key h = Option.value ~default:0 (List.assoc_opt key h) in
  List.iter
    (fun h ->
      check int_t "only 01 and 11" shots (count "01" h + count "11" h))
    [ hist; hist' ];
  let frac h key = float_of_int (count key h) /. float_of_int shots in
  check bool_t "p(01) close" true
    (Float.abs (frac hist "01" -. frac hist' "01") < 0.15)

let test_profile_check_consumes_proofs () =
  (* a single-block program with a computed — but provably constant —
     address: base:static-addresses must not fire (the remaining
     classical-computation violations are expected) *)
  let m =
    parse
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %a = add i64 0, 1
  %q = inttoptr i64 %a to ptr
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  ret void
}|})
  in
  let vs = Profile_check.check Profile.Base m in
  check bool_t "no static-addresses violation" false
    (List.exists
       (fun (v : Profile_check.violation) ->
         String.equal v.Profile_check.rule "base:static-addresses")
       vs);
  check bool_t "classical computation still flagged" true
    (List.exists
       (fun (v : Profile_check.violation) ->
         String.equal v.Profile_check.rule "base:no-classical")
       vs)

(* ------------------------------------------------------------------ *)
(* Verifier and the lint driver                                         *)

let test_verifier_reports_all_phi_mismatches () =
  let m =
    parse
      {|
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %x = phi i64 [ 1, %a ], [ 2, %a ], [ 3, %nosuchpred ]
  ret void
}|}
  in
  let f = Ir_module.find_func_exn m "f" in
  let vs = Verifier.check_func m f in
  let whats = List.map (fun (v : Verifier.violation) -> v.Verifier.what) vs in
  let mem sub =
    List.exists
      (fun w -> Astring.String.is_infix ~affix:sub w)
      whats
  in
  check bool_t "duplicate entries reported" true (mem "duplicate entries");
  check bool_t "missing predecessor reported" true (mem "missing an entry");
  check bool_t "non-predecessor entry reported" true (mem "non-predecessor")

let test_lint_structural_short_circuit () =
  let m =
    parse
      {|
declare void @__quantum__qis__h__body(ptr)
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr %undefined)
  ret void
}|}
  in
  let ds = lint_module m in
  check bool_t "QV001 reported" true (has_rule "QV001" ds);
  check bool_t "only structural findings" true
    (List.for_all (String.equal "QV001") (rules ds))

(* ------------------------------------------------------------------ *)
(* Call graph                                                           *)

let diamond_with_orphan =
  prelude
  ^ {|
define void @leaf(ptr %q) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}
define void @mid(ptr %q) {
entry:
  call void @leaf(ptr %q)
  ret void
}
define void @orphan(ptr %q) {
entry:
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @mid(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|}

let test_call_graph_basics () =
  let m = parse diamond_with_orphan in
  let cg = Call_graph.build m in
  let order = List.concat (Call_graph.sccs_bottom_up cg) in
  let pos name =
    let rec go i = function
      | [] -> Alcotest.failf "%s not in SCC order" name
      | n :: _ when String.equal n name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  check bool_t "callee before caller (leaf < mid)" true (pos "leaf" < pos "mid");
  check bool_t "callee before caller (mid < main)" true (pos "mid" < pos "main");
  check bool_t "no recursion" false (Call_graph.is_recursive cg "mid");
  check bool_t "orphan unreachable" true
    (Call_graph.unreachable_defined cg = [ "orphan" ]);
  let ds = Call_graph.findings cg in
  check int_t "one QC001" 1 (count_rule "QC001" ds);
  check int_t "no QP001" 0 (count_rule "QP001" ds)

let test_call_graph_mutual_recursion () =
  let m =
    parse
      (prelude
     ^ {|
define void @ping(ptr %q, i64 %n) {
entry:
  call void @pong(ptr %q, i64 %n)
  ret void
}
define void @pong(ptr %q, i64 %n) {
entry:
  call void @ping(ptr %q, i64 %n)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @ping(ptr null, i64 2)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  let cg = Call_graph.build m in
  check bool_t "ping recursive" true (Call_graph.is_recursive cg "ping");
  check bool_t "pong recursive" true (Call_graph.is_recursive cg "pong");
  check bool_t "main not recursive" false (Call_graph.is_recursive cg "main");
  (* the mutual pair is one SCC and is reported once per function *)
  check int_t "two QP001" 2 (count_rule "QP001" (Call_graph.findings cg));
  (* whole-module lint surfaces the same rule *)
  check bool_t "lint reports QP001" true (has_rule "QP001" (lint_module m))

(* ------------------------------------------------------------------ *)
(* Function effect summaries                                            *)

let releasing_helper_src ~use_after =
  prelude
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
  call void @__quantum__qis__h__body(ptr %q)
  call void @free_it(ptr %q)
|}
  ^ (if use_after then "  call void @__quantum__qis__x__body(ptr %q)\n" else "")
  ^ {|  ret void
}|}

let test_summary_release_and_purity () =
  let m = parse (releasing_helper_src ~use_after:false) in
  let tbl = Analyses.summaries (Analyses.of_module m) in
  let s =
    match Summary.find tbl "free_it" with
    | Some s -> s
    | None -> Alcotest.fail "no summary for @free_it"
  in
  check bool_t "argument released on every path" true
    s.Summary.arg_fx.(0).Summary.fx_released;
  check bool_t "argument consumed" true s.Summary.arg_fx.(0).Summary.fx_used;
  check bool_t "measures" true s.Summary.measures;
  check bool_t "not opaque" false s.Summary.opaque;
  (* a pure classical helper is quantum-free and side-effect-free *)
  let m2 =
    parse
      {|
define i64 @twice(i64 %x) {
entry:
  %y = add i64 %x, %x
  ret i64 %y
}
define void @main() "entry_point" {
entry:
  %t = call i64 @twice(i64 3)
  ret void
}|}
  in
  let tbl2 = Analyses.summaries (Analyses.of_module m2) in
  (match Summary.find tbl2 "twice" with
  | Some s ->
    check bool_t "quantum free" true (Summary.quantum_free s);
    check bool_t "side-effect free" true s.Summary.side_effect_free;
    check bool_t "controller expressible" true s.Summary.controller_ok
  | None -> Alcotest.fail "no summary for @twice")

let test_summary_returns_fresh_qubit () =
  let m =
    parse
      (prelude
     ^ {|
define ptr @make_q() {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  ret ptr %q
}
define void @main() "entry_point" {
entry:
  %q = call ptr @make_q()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|})
  in
  let tbl = Analyses.summaries (Analyses.of_module m) in
  (match Summary.find tbl "make_q" with
  | Some s ->
    check bool_t "returns fresh qubit" true s.Summary.returns_fresh_qubit
  | None -> Alcotest.fail "no summary for @make_q");
  check int_t "caller releasing the returned qubit is clean" 0
    (List.length (lint_module ~notes:false m))

(* ------------------------------------------------------------------ *)
(* Cross-call lifetime rules                                            *)

let test_cross_call_use_after_release () =
  let ds = lint (releasing_helper_src ~use_after:true) in
  check bool_t "QL001 through the summary" true (has_rule "QL001" ds);
  (* without the use, the helper-released qubit is fine (no QL003: the
     callee released it for us) *)
  check int_t "correct caller is clean" 0
    (List.length (lint (releasing_helper_src ~use_after:false)))

let test_cross_call_double_release () =
  let ds =
    lint
      (prelude
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
}|})
  in
  check int_t "one QL002 through the summary" 1 (count_rule "QL002" ds)

let test_cross_call_leak_of_returned_qubit () =
  let factory leak =
    prelude
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
|}
    ^ (if leak then ""
       else "  call void @__quantum__rt__qubit_release(ptr %q)\n")
    ^ {|  ret void
}|}
  in
  check bool_t "leaked factory qubit" true (has_rule "QL003" (lint (factory true)));
  check bool_t "released factory qubit is clean" false
    (has_rule "QL003" (lint (factory false)))

let test_helper_bodies_are_checked_too () =
  (* a double release inside a non-entry helper is reported even though
     no one calls the helper bug into the entry path *)
  let ds =
    lint
      (prelude
     ^ {|
define void @bad_helper() {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @bad_helper()
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  check bool_t "QL002 inside the helper" true (has_rule "QL002" ds)

(* ------------------------------------------------------------------ *)
(* Interprocedural dead quantum code (QD002) and whole-function DCE     *)

let test_qd002_dead_classical_call () =
  let src used =
    prelude
    ^ {|
define i64 @twice(i64 %x) {
entry:
  %y = add i64 %x, %x
  ret i64 %y
}
define void @main() "entry_point" {
entry:
  %t = call i64 @twice(i64 3)
|}
    ^ (if used then
         "  %addr = inttoptr i64 %t to ptr\n\
          \  call void @__quantum__qis__mz__body(ptr %addr, ptr null)\n"
       else "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n")
    ^ {|  ret void
}|}
  in
  check bool_t "unused pure call is QD002" true
    (has_rule "QD002" (lint (src false)));
  check bool_t "used result keeps the call" false
    (has_rule "QD002" (lint (src true)))

let test_qd002_dead_unitary_helper () =
  let src measured =
    prelude
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
|}
    ^ (if measured then
         "  call void @__quantum__qis__mz__body(ptr %q1, ptr inttoptr (i64 1 \
          to ptr))\n"
       else "")
    ^ {|  call void @__quantum__rt__qubit_release(ptr %q0)
  call void @__quantum__rt__qubit_release(ptr %q1)
  ret void
}|}
  in
  check bool_t "helper on unmeasured qubit is QD002" true
    (has_rule "QD002" (lint (src false)));
  check bool_t "measured qubit keeps the call" false
    (has_rule "QD002" (lint (src true)))

let test_quantum_dce_drops_unreachable_function () =
  let m = parse diamond_with_orphan in
  check bool_t "QC001 before the pass" true (has_rule "QC001" (lint_module m));
  let m' = Pass_table.run "quantum-dce" m in
  check bool_t "orphan dropped" true
    (Ir_module.find_func m' "orphan" = None);
  check bool_t "reachable helpers kept" true
    (Ir_module.find_func m' "mid" <> None
    && Ir_module.find_func m' "leaf" <> None);
  check bool_t "clean after the pass" false (has_rule "QC001" (lint_module m'))

(* ------------------------------------------------------------------ *)
(* Interprocedural constant addresses and profile checking              *)

let threaded_addr_src =
  prelude
  ^ {|
define void @apply_x(i64 %addr) {
entry:
  %q = inttoptr i64 %addr to ptr
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}
define void @mid(i64 %a) {
entry:
  call void @apply_x(i64 %a)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @mid(i64 1)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  ret void
}|}

let test_const_addr_through_calls () =
  let m = parse threaded_addr_src in
  (* the constant 1 reaches @apply_x's address through two call sites *)
  let r = Addressing.detect_proved m in
  check bool_t "proved static" true (r.Addressing.proved = Addressing.Static);
  check bool_t "at least one upgraded operand" true
    (r.Addressing.upgraded_args >= 1)

let test_to_static_through_calls () =
  let m = parse threaded_addr_src in
  check bool_t "syntactic route refuses" true
    (match Qir_parser.parse_result m with Error _ -> true | Ok _ -> false);
  let m' = Addressing.to_static ~record_output:false m in
  check bool_t "now static" true (Addressing.detect m' = Addressing.Static);
  check bool_t "conforms base" true (Profile_check.conforms Profile.Base m');
  (* distribution equivalence: qubit 1 always flipped, qubit 0 uniform *)
  let shots = 300 in
  let hist = (Executor.run_shots_resilient ~seed:11 ~shots m).histogram in
  let hist' = (Executor.run_shots_resilient ~seed:23 ~shots m').histogram in
  let count key h = Option.value ~default:0 (List.assoc_opt key h) in
  List.iter
    (fun h ->
      check int_t "only 01 and 11" shots (count "01" h + count "11" h))
    [ hist; hist' ];
  let frac h key = float_of_int (count key h) /. float_of_int shots in
  check bool_t "p(01) close" true
    (Float.abs (frac hist "01" -. frac hist' "01") < 0.15)

let test_const_addr_dead_branch_phi () =
  (* only the %t edge is feasible, so the phi is 5 even though the dead
     arm disagrees, and the gate operand is proved qubit 5 *)
  let m =
    parse
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %c = icmp eq i64 1, 1
  br i1 %c, label %t, label %e
t:
  br label %join
e:
  br label %join
join:
  %x = phi i64 [ 5, %t ], [ 99, %e ]
  %q = inttoptr i64 %x to ptr
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}|})
  in
  let main = Option.get (Ir_module.find_func m "main") in
  let facts = Analyses.sccp (Analyses.of_module m) main in
  check bool_t "proved qubit 5" true
    (match Const_addr.proved_address facts (Operand.Local "q") with
    | Some (Constant.Inttoptr n) -> Int64.equal n 5L
    | Some _ | None -> false)

let gep_src =
  prelude
  ^ {|
define void @main() "entry_point" {
entry:
  %g = getelementptr i8, ptr null, i64 1
  call void @__quantum__qis__x__body(ptr %g)
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr null)
  ret void
}|}

let test_to_static_gep_address () =
  (* the engines scale GEP offsets by the 8-byte cell: the first x acts
     on qubit 8, and the conversion must say so *)
  let m' = Addressing.to_static ~record_output:false (parse gep_src) in
  let x_operands =
    List.concat_map
      (fun (f : Func.t) ->
        Func.fold_instrs f [] (fun acc (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Call (_, c, [ a ]) when String.equal c Names.(qis "x") ->
              Operand.to_string a.Operand.v :: acc
            | _ -> acc))
      m'.Ir_module.funcs
  in
  check (Alcotest.list Alcotest.string) "x on qubits 8 and 1"
    [ "inttoptr (i64 1 to ptr)"; "inttoptr (i64 8 to ptr)" ]
    (List.sort String.compare x_operands)

let test_adaptive_profile_interprocedural () =
  (* calls to defined conforming helpers are fine under adaptive... *)
  let ok =
    parse
      (prelude
     ^ {|
define void @helper(ptr %q) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @helper(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  check bool_t "internal call conforms" true
    (Profile_check.conforms Profile.Adaptive ok);
  (* ...but recursion has no lowering to any profile *)
  let rec_m =
    parse
      ({|define void @loop(i64 %n) {
entry:
  call void @loop(i64 %n)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @loop(i64 4)
  ret void
}|})
  in
  check bool_t "recursion violates adaptive" true
    (List.exists
       (fun (v : Profile_check.violation) ->
         String.equal v.Profile_check.rule "adaptive:no-recursion")
       (Profile_check.check Profile.Adaptive rec_m))

let test_classify_with_summaries () =
  let m = parse (releasing_helper_src ~use_after:false) in
  let summaries = Analyses.summaries (Analyses.of_module m) in
  let f = Ir_module.find_func_exn m "main" in
  let call_to name =
    Func.fold_instrs f None (fun acc (i : Instr.t) ->
        match i.Instr.op with
        | Instr.Call (_, c, _) when String.equal c name -> Some i
        | _ -> acc)
    |> Option.get
  in
  (* without summaries a defined callee is an opaque classical call;
     with them, its quantum effects are visible *)
  check bool_t "opaque without summaries" true
    (Qhybrid.Classify.classify_instr (call_to "free_it")
    = Qhybrid.Classify.Call_classical);
  check bool_t "quantum with summaries" true
    (Qhybrid.Classify.classify_instr ~summaries (call_to "free_it")
    = Qhybrid.Classify.Quantum)

(* ------------------------------------------------------------------ *)
(* Value-semantics quantum optimizer (qdf / qdf_opt)                    *)

let opt_prelude =
  prelude
  ^ {|
declare void @__quantum__qis__rz__body(double, ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare i64 @choose()
|}

let run_opt = Pass_table.run "quantum-opt"

(* Bit-identical histograms, per-shot sampling: the batched sampler
   draws in a different order, so exact equality needs the per-shot tier. *)
let same_histogram ?(seed = 11) ?(shots = 64) m m' =
  (Executor.run_shots_resilient ~seed ~max_tier:`Per_shot ~shots m).histogram
  = (Executor.run_shots_resilient ~seed ~max_tier:`Per_shot ~shots m').histogram

let test_qopt_cancel_across_classical () =
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  %a = add i64 1, 2
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}|})
  in
  check bool_t "QO001 noted" true (has_rule "QO001" (lint_module m));
  let m' = run_opt m in
  check int_t "both h removed" 0 (count_calls_to m' Names.(qis "h"));
  check bool_t "same histogram" true (same_histogram m m')

let test_qopt_merges_rotations () =
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__rz__body(double 0.25, ptr null)
  call void @__quantum__qis__rz__body(double 0.5, ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}|})
  in
  check bool_t "QO002 noted" true (has_rule "QO002" (lint_module m));
  let m' = run_opt m in
  check int_t "one rz left" 1 (count_calls_to m' Names.(qis "rz"));
  check bool_t "same histogram" true (same_histogram m m')

let test_qopt_merge_to_identity () =
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__rz__body(double 0.5, ptr null)
  call void @__quantum__qis__rz__body(double -0.5, ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  let m' = run_opt m in
  check int_t "identity pair removed" 0 (count_calls_to m' Names.(qis "rz"))

let test_qopt_merge_across_blocks_refused () =
  (* the scan is per-block by design: a rotation pair split across a
     branch is left alone even though the blocks are Br-connected *)
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__rz__body(double 0.25, ptr null)
  br label %next
next:
  call void @__quantum__qis__rz__body(double 0.5, ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  let m' = run_opt m in
  check int_t "cross-block merge refused" 2 (count_calls_to m' Names.(qis "rz"))

let test_qopt_alias_uncertain_refused () =
  (* %p is an array element at an unprovable index: it may or may not
     be the wire the surrounding h gates act on, so neither cancelling
     the outer pair nor commuting through the middle gate is sound *)
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %arr = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  %p0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %arr, i64 0)
  %i = call i64 @choose()
  %p = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %arr, i64 %i)
  call void @__quantum__qis__h__body(ptr %p0)
  call void @__quantum__qis__h__body(ptr %p)
  call void @__quantum__qis__h__body(ptr %p0)
  call void @__quantum__qis__mz__body(ptr %p0, ptr null)
  call void @__quantum__rt__qubit_release_array(ptr %arr)
  ret void
}|})
  in
  let m' = run_opt m in
  check int_t "alias-uncertain: nothing removed" 3
    (count_calls_to m' Names.(qis "h"))

let test_qopt_commute_cancel () =
  (* x on the cnot target commutes with the cnot, so the pair cancels
     across it *)
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)
  ret void
}|})
  in
  let m' = run_opt m in
  check int_t "x pair cancelled through cnot" 0
    (count_calls_to m' Names.(qis "x"));
  check int_t "cnot kept" 1 (count_calls_to m' Names.(qis "cnot"));
  check bool_t "same histogram" true (same_histogram m m')

let test_qopt_release_hoist () =
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %a = call ptr @__quantum__rt__qubit_allocate()
  %b = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %b)
  call void @__quantum__qis__x__body(ptr %b)
  call void @__quantum__qis__mz__body(ptr %b, ptr null)
  call void @__quantum__rt__qubit_release(ptr %a)
  call void @__quantum__rt__qubit_release(ptr %b)
  ret void
}|})
  in
  check bool_t "QO003 noted" true (has_rule "QO003" (lint_module m));
  let _, st = Qdf_opt.optimize m in
  check bool_t "release hoisted" true (st.Qdf_opt.s_hoisted > 0)

(* The tape tier, capped so the batched sampler stays out, against the
   per-shot tier: the same histogram at the same seed, bit for bit. *)
let tape_matches_per_shot ?(backend = `Statevector) m =
  let run max_tier =
    Executor.run_shots_resilient ~seed:3 ~shots:50 ~backend ~max_tier m
  in
  let tape = run `Tape and per_shot = run `Per_shot in
  tape.Executor.tape && tape.Executor.histogram = per_shot.Executor.histogram

let test_tape_dynamic_as_written () =
  let m =
    Qir_builder.build ~addressing:`Dynamic (Qcircuit.Generate.bell ())
  in
  (match Gate_tape.extract (Analyses.of_module m) with
  | Some tape -> check int_t "register: the allocated pair" 2 (Gate_tape.qubits tape)
  | None -> Alcotest.fail "dynamic entry refused");
  check bool_t "statevector: tape = per-shot" true (tape_matches_per_shot m);
  check bool_t "stabilizer: tape = per-shot" true
    (tape_matches_per_shot ~backend:`Stabilizer m);
  (* Value_track joins a slot's stores flow-insensitively: a load before
     the slot's first store reads memory it does not describe *)
  let early =
    parse
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %s = alloca ptr
  %l = load ptr, ptr %s
  %q = call ptr @__quantum__rt__qubit_allocate()
  store ptr %q, ptr %s
  call void @__quantum__qis__h__body(ptr %l)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|})
  in
  check bool_t "slot loaded before its store: refused" true
    (Gate_tape.extract (Analyses.of_module early) = None)

(* Static addresses and allocations share the register the runtime
   grows: a fresh qubit is numbered at the current size, and a static
   address grows the register to itself; the last qubit is allocated
   and never touched, and still counts. Nothing is recorded, so the key
   is every result in the runtime's address order: static results
   first, then the result array's elements. *)
let test_tape_mixed_addressing () =
  let m =
    parse
      (opt_prelude
     ^ {|
declare ptr @__quantum__rt__array_create_1d(i32, i64)
define void @main() #0 {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  %r = call ptr @__quantum__rt__array_create_1d(i32 1, i64 2)
  %a1 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 1)
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__cnot__body(ptr %q, ptr %a1)
  call void @__quantum__qis__x__body(ptr inttoptr (i64 6 to ptr))
  %r0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %r, i64 0)
  %r1 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %r, i64 1)
  call void @__quantum__qis__mz__body(ptr %a1, ptr %r1)
  call void @__quantum__qis__mz__body(ptr %q, ptr %r0)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 9 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 6 to ptr), ptr null)
  %idle = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__rt__qubit_release_array(ptr %a)
  call void @__quantum__rt__qubit_release(ptr %idle)
  ret void
}
attributes #0 = { "entry_point" "required_num_qubits"="2" }|})
  in
  let shot = Executor.run ~seed:5 m in
  check int_t "per-shot register" 8 shot.Executor.qubits;
  (match Gate_tape.extract (Analyses.of_module m) with
  | Some tape ->
    check int_t "tape register: every allocated qubit" 8 (Gate_tape.qubits tape)
  | None -> Alcotest.fail "mixed entry refused");
  let keys =
    List.map fst
      (Executor.run_shots_resilient ~seed:3 ~shots:50 ~max_tier:`Tape m)
        .Executor.histogram
  in
  check (Alcotest.list Alcotest.string) "keys in address order"
    [ "1100"; "1111" ] keys;
  check bool_t "statevector: tape = per-shot" true (tape_matches_per_shot m);
  check bool_t "stabilizer: tape = per-shot" true
    (tape_matches_per_shot ~backend:`Stabilizer m)

(* The gate tape runs only the entry, so only the entry's lifetime
   findings gate it: a never-called helper's error does not, the entry's
   own error does. *)
let broken_helper =
  {|
declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__rt__qubit_release(ptr)
define void @helper() {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}
|}

let with_text m text = parse (Printer.module_to_string m ^ text)

let test_entry_only_lifetime () =
  let errors m =
    Diagnostic.errors (Lifetime.check_module (Analyses.of_module m))
  in
  let static =
    with_text (Qir_builder.build (Qcircuit.Generate.bell ())) broken_helper
  in
  check bool_t "helper error reported" true (errors static > 0);
  check bool_t "static entry stays tape-eligible" true
    (Gate_tape.extract (Analyses.of_module static) <> None);
  let dynamic =
    with_text
      (Qir_builder.build ~addressing:`Dynamic (Qcircuit.Generate.bell ()))
      broken_helper
  in
  check bool_t "dynamic entry stays tape-eligible" true
    (Gate_tape.extract (Analyses.of_module dynamic) <> None);
  (* the entry releases its qubit array twice *)
  let twice line =
    if Astring.String.is_infix ~affix:"call void @__quantum__rt__qubit_release_array(" line
    then [ line; line ]
    else [ line ]
  in
  let own =
    Printer.module_to_string
      (Qir_builder.build ~addressing:`Dynamic (Qcircuit.Generate.bell ()))
    |> String.split_on_char '\n' |> List.concat_map twice
    |> String.concat "\n" |> parse
  in
  check bool_t "entry error reported" true (errors own > 0);
  check bool_t "entry with its own error is refused" true
    (Gate_tape.extract (Analyses.of_module own) = None)

(* Each counted analysis is solved at most once per function and
   variant on the cached paths; pinned per file as (Value_track, Sccp,
   lifetime) solves. Lint with --resources also solves the functions
   its normalized shadow rewrote, and seeded Sccp variants. The session
   path (one fresh session: certificate, then tape) shares one analyses
   record between the two, so a static entry is solved once; a
   dynamically addressed entry is still solved twice, because
   certification analyzes its mem2reg'd shadow, a different function. *)
let test_solve_counts () =
  let counted f =
    let v = Atomic.get Value_track.solves
    and s = Atomic.get Passes.Sccp.solves
    and l = Atomic.get Summary.solves in
    f ();
    ( Atomic.get Value_track.solves - v,
      Atomic.get Passes.Sccp.solves - s,
      Atomic.get Summary.solves - l )
  in
  let pinned =
    [
      ("../examples/bell_dynamic.ll", (2, 2, 1), (1, 1, 0), (1, 1, 0), (1, 1, 1), (2, 2, 1));
      ("../examples/bell_static.ll", (1, 1, 1), (1, 1, 0), (1, 1, 0), (1, 1, 1), (1, 1, 1));
      ("../examples/phi_addr.ll", (2, 2, 1), (1, 1, 0), (1, 1, 0), (0, 0, 0), (1, 1, 0));
      ("../examples/recursive_bad.ll", (2, 4, 2), (2, 2, 0), (1, 1, 0), (0, 0, 0), (1, 1, 0));
      ("../examples/teleport_helpers.ll", (3, 5, 3), (3, 3, 0), (3, 3, 0), (0, 0, 0), (3, 3, 0));
      ("cli.t/forloop.ll", (2, 2, 1), (1, 1, 0), (1, 1, 0), (0, 0, 0), (1, 1, 0));
    ]
  in
  let triple = Alcotest.(triple int int int) in
  List.iter
    (fun (path, lint, opt, cert, tape, session) ->
      let m = parse (In_channel.with_open_text path In_channel.input_all) in
      let resources = Resource_lint.default_opts in
      check triple (path ^ " lint --resources") lint
        (counted (fun () ->
             let a = Analyses.of_module m in
             ignore (Lint.run a);
             ignore (Resource_lint.check ~opts:resources (Resource.certify a))));
      check triple (path ^ " optimize") opt
        (counted (fun () -> ignore (Qdf_opt.optimize m)));
      check triple (path ^ " certify") cert
        (counted (fun () -> ignore (Resource.certify (Analyses.of_module m))));
      check triple (path ^ " tape") tape
        (counted (fun () -> ignore (Gate_tape.extract (Analyses.of_module m))));
      check triple (path ^ " session cert + tape") session
        (counted (fun () ->
             let s = Executor.Session.create () in
             ignore (Executor.Session.cert_of s m);
             ignore (Executor.Session.tape_of s m))))
    pinned

(* Differential property: on random circuits (with seeded redundancy
   injected so the rewrites actually fire) the optimizer must preserve
   the exact per-shot histogram in both addressing styles. *)
let qopt_module ~addressing ~redundant ~seed n =
  let open Qcircuit in
  let c = Generate.random ~seed ~parametric:true ~gates:14 n in
  let b =
    Circuit.Build.create ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_qubits ()
  in
  let st = Random.State.make [| seed; 77 |] in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Gate (g, qs) ->
        Circuit.Build.gate b g qs;
        if redundant && Random.State.int st 3 = 0 then
          Circuit.Build.gate b (Gate.inverse g) qs
      | _ -> ())
    c.Circuit.ops;
  for q = 0 to c.Circuit.num_qubits - 1 do
    Circuit.Build.measure b q q
  done;
  Qir_builder.build ~addressing (Circuit.Build.finish b)

let qopt_props =
  let prop (seed, n) =
    List.for_all
      (fun addressing ->
        List.for_all
          (fun redundant ->
            let m = qopt_module ~addressing ~redundant ~seed n in
            let m', _ = Qdf_opt.optimize m in
            same_histogram ~seed:(1 + (seed mod 1000)) ~shots:48 m m')
          [ false; true ])
      [ `Static; `Dynamic ]
  in
  [
    QCheck2.Test.make ~count:30
      ~name:"quantum-opt: optimized modules are distribution-equivalent"
      QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
      prop;
  ]

let suite =
  [
    Alcotest.test_case "engine: forward join and pruning" `Quick
      test_forward_join_and_pruning;
    Alcotest.test_case "lifetime: use after release" `Quick
      test_use_after_release;
    Alcotest.test_case "lifetime: release is clean" `Quick
      test_release_then_stop_is_clean;
    Alcotest.test_case "lifetime: double release" `Quick test_double_release;
    Alcotest.test_case "lifetime: leak and array release" `Quick
      test_leak_and_array_release;
    Alcotest.test_case "lifetime: read before measure" `Quick
      test_read_before_measure;
    Alcotest.test_case "lifetime: branch release, no false positive" `Quick
      test_branch_release_no_false_positive;
    Alcotest.test_case "lifetime: builder output is clean" `Quick
      test_builder_output_is_clean;
    Alcotest.test_case "quantum-dce: removes dead gate" `Quick
      test_quantum_dce_removes_dead_gate;
    Alcotest.test_case "quantum-dce: respects entanglement" `Quick
      test_quantum_dce_respects_entanglement;
    Alcotest.test_case "const-addr: proves phi static" `Quick
      test_const_addr_proves_phi_static;
    Alcotest.test_case "const-addr: detect_proved upgrade" `Quick
      test_detect_proved_upgrade;
    Alcotest.test_case "addressing: dead allocate ignored" `Quick
      test_detect_ignores_dead_allocation;
    Alcotest.test_case "addressing: to_static via proofs" `Quick
      test_to_static_converts_where_syntactic_refuses;
    Alcotest.test_case "profile-check: consumes proofs" `Quick
      test_profile_check_consumes_proofs;
    Alcotest.test_case "verifier: all phi mismatches" `Quick
      test_verifier_reports_all_phi_mismatches;
    Alcotest.test_case "lint: structural short-circuit" `Quick
      test_lint_structural_short_circuit;
    Alcotest.test_case "call-graph: bottom-up SCCs and reachability" `Quick
      test_call_graph_basics;
    Alcotest.test_case "call-graph: mutual recursion (QP001)" `Quick
      test_call_graph_mutual_recursion;
    Alcotest.test_case "summary: release and purity" `Quick
      test_summary_release_and_purity;
    Alcotest.test_case "summary: returns fresh qubit" `Quick
      test_summary_returns_fresh_qubit;
    Alcotest.test_case "lifetime: cross-call use after release" `Quick
      test_cross_call_use_after_release;
    Alcotest.test_case "lifetime: cross-call double release" `Quick
      test_cross_call_double_release;
    Alcotest.test_case "lifetime: leak of returned qubit" `Quick
      test_cross_call_leak_of_returned_qubit;
    Alcotest.test_case "lifetime: helper bodies checked" `Quick
      test_helper_bodies_are_checked_too;
    Alcotest.test_case "quantum-dce: QD002 dead classical call" `Quick
      test_qd002_dead_classical_call;
    Alcotest.test_case "quantum-dce: QD002 dead unitary helper" `Quick
      test_qd002_dead_unitary_helper;
    Alcotest.test_case "quantum-dce: drops unreachable function" `Quick
      test_quantum_dce_drops_unreachable_function;
    Alcotest.test_case "const-addr: threaded through calls" `Quick
      test_const_addr_through_calls;
    Alcotest.test_case "addressing: to_static through calls" `Quick
      test_to_static_through_calls;
    Alcotest.test_case "const-addr: dead-branch phi" `Quick
      test_const_addr_dead_branch_phi;
    Alcotest.test_case "addressing: to_static GEP is qubit 8" `Quick
      test_to_static_gep_address;
    Alcotest.test_case "profile-check: adaptive interprocedural" `Quick
      test_adaptive_profile_interprocedural;
    Alcotest.test_case "classify: summaries reveal callee effects" `Quick
      test_classify_with_summaries;
    Alcotest.test_case "quantum-opt: cancels across classical instr" `Quick
      test_qopt_cancel_across_classical;
    Alcotest.test_case "quantum-opt: merges adjacent rotations" `Quick
      test_qopt_merges_rotations;
    Alcotest.test_case "quantum-opt: merges to identity" `Quick
      test_qopt_merge_to_identity;
    Alcotest.test_case "quantum-opt: refuses merge across blocks" `Quick
      test_qopt_merge_across_blocks_refused;
    Alcotest.test_case "quantum-opt: refuses alias-uncertain wires" `Quick
      test_qopt_alias_uncertain_refused;
    Alcotest.test_case "quantum-opt: cancels through a commuting gate" `Quick
      test_qopt_commute_cancel;
    Alcotest.test_case "quantum-opt: hoists a late release" `Quick
      test_qopt_release_hoist;
    Alcotest.test_case "tape: dynamic entry runs as written" `Quick
      test_tape_dynamic_as_written;
  ]
  @ List.map QCheck_alcotest.to_alcotest qopt_props
  @ [
      Alcotest.test_case "lifetime: the tape reads the entry" `Quick
        test_entry_only_lifetime;
      Alcotest.test_case "tape: static addresses and allocation" `Quick
        test_tape_mixed_addressing;
      Alcotest.test_case "analyses: one solve per function and variant"
        `Quick test_solve_counts;
    ]
