(* Tests for the optimization passes: each pass individually, the preset
   pipelines, and semantic-preservation properties (the interpreter result
   is unchanged by optimization). *)

open Llvm_ir
open Passes

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let parse = Parser.parse_module

let run_i64 m name args =
  match Interp.run m name (List.map (fun n -> Interp.VInt (Ty.I64, n)) args) with
  | Interp.VInt (_, n) -> n
  | _ -> Alcotest.fail "expected an integer result"

let verify m =
  match Verifier.check_module m with
  | [] -> ()
  | v :: _ -> Alcotest.failf "verifier: %a" Verifier.pp_violation v

let count_instrs m name =
  let f = Ir_module.find_func_exn m name in
  Func.fold_instrs f 0 (fun acc _ -> acc + 1)

let count_calls m name callee =
  let f = Ir_module.find_func_exn m name in
  Func.fold_instrs f 0 (fun acc (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Call (_, c, _) when String.equal c callee -> acc + 1
      | _ -> acc)

let block_count m name =
  List.length (Ir_module.find_func_exn m name).Func.blocks

(* ------------------------------------------------------------------ *)
(* mem2reg                                                              *)

let alloca_sum =
  {|
define i64 @sum(i64 %n) {
entry:
  %acc = alloca i64
  %i = alloca i64
  store i64 0, ptr %acc
  store i64 0, ptr %i
  br label %header
header:
  %iv = load i64, ptr %i
  %c = icmp slt i64 %iv, %n
  br i1 %c, label %body, label %done
body:
  %a = load i64, ptr %acc
  %a2 = add i64 %a, %iv
  store i64 %a2, ptr %acc
  %i2 = add i64 %iv, 1
  store i64 %i2, ptr %i
  br label %header
done:
  %r = load i64, ptr %acc
  ret i64 %r
}
|}

let test_mem2reg_promotes_loop () =
  let m = parse alloca_sum in
  let m', changed = (Pass.of_func_pass Mem2reg.pass).Pass.mrun m in
  check bool_t "changed" true changed;
  verify m';
  (* all allocas, loads and stores are gone *)
  let f = Ir_module.find_func_exn m' "sum" in
  Func.iter_instrs f (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Alloca _ | Instr.Load _ | Instr.Store _ ->
        Alcotest.fail "memory operation survived mem2reg"
      | _ -> ());
  check bool_t "semantics preserved" true
    (Int64.equal (run_i64 m' "sum" [ 10L ]) 45L)

let test_mem2reg_leaves_escaping_allocas () =
  let src =
    {|
declare void @use(ptr)
define void @f() {
entry:
  %a = alloca i64
  store i64 1, ptr %a
  call void @use(ptr %a)
  ret void
}
|}
  in
  let m = parse src in
  let m', _ = (Pass.of_func_pass Mem2reg.pass).Pass.mrun m in
  verify m';
  let f = Ir_module.find_func_exn m' "f" in
  let has_alloca =
    Func.fold_instrs f false (fun acc (i : Instr.t) ->
        acc
        ||
        match i.Instr.op with
        | Instr.Alloca _ -> true
        | _ -> false)
  in
  check bool_t "escaping alloca kept" true has_alloca

let test_mem2reg_diamond_phi () =
  let src =
    {|
define i64 @f(i1 %c) {
entry:
  %x = alloca i64
  store i64 0, ptr %x
  br i1 %c, label %t, label %e
t:
  store i64 1, ptr %x
  br label %join
e:
  store i64 2, ptr %x
  br label %join
join:
  %r = load i64, ptr %x
  ret i64 %r
}
|}
  in
  let m = parse src in
  let m', _ = (Pass.of_func_pass Mem2reg.pass).Pass.mrun m in
  verify m';
  let run c =
    match Interp.run m' "f" [ Interp.VInt (Ty.I1, c) ] with
    | Interp.VInt (_, n) -> n
    | _ -> Alcotest.fail "expected int"
  in
  check bool_t "true branch" true (Int64.equal (run 1L) 1L);
  check bool_t "false branch" true (Int64.equal (run 0L) 2L);
  (* a phi was inserted in join *)
  let f = Ir_module.find_func_exn m' "f" in
  let join = Cfg.block (Cfg.of_func f) "join" in
  check bool_t "phi present" true
    (List.exists
       (fun (i : Instr.t) ->
         match i.Instr.op with
         | Instr.Phi _ -> true
         | _ -> false)
       join.Block.instrs)

(* ------------------------------------------------------------------ *)
(* const folding / SCCP / DCE                                           *)

let test_const_fold_chain () =
  let src =
    {|
define i64 @f() {
entry:
  %a = add i64 2, 3
  %b = mul i64 %a, 4
  %c = sub i64 %b, 5
  ret i64 %c
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Const_fold.pass).Pass.mrun m in
  check bool_t "changed" true changed;
  verify m';
  check int_t "all folded away" 0 (count_instrs m' "f");
  check bool_t "result" true (Int64.equal (run_i64 m' "f" []) 15L)

let test_const_fold_division_by_zero_kept () =
  let src =
    {|
define i64 @f() {
entry:
  %a = sdiv i64 1, 0
  ret i64 %a
}
|}
  in
  let m = parse src in
  let m', _ = (Pass.of_func_pass Const_fold.pass).Pass.mrun m in
  (* the trapping division must not be folded away *)
  check int_t "division kept" 1 (count_instrs m' "f")

let test_sccp_through_branch () =
  (* x is 7 on both paths; SCCP proves the final value constant *)
  let src =
    {|
define i64 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %join
e:
  br label %join
join:
  %x = phi i64 [ 7, %t ], [ 7, %e ]
  %y = add i64 %x, 1
  ret i64 %y
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Sccp.pass).Pass.mrun m in
  check bool_t "changed" true changed;
  verify m';
  check int_t "folded to return of 8" 0 (count_instrs m' "f");
  check bool_t "result" true
    (Int64.equal
       (match Interp.run m' "f" [ Interp.VInt (Ty.I1, 1L) ] with
       | Interp.VInt (_, n) -> n
       | _ -> 0L)
       8L)

let test_sccp_dead_branch () =
  (* the condition is constant: only one arm is executable, so the phi is
     constant even though the arms disagree *)
  let src =
    {|
define i64 @f() {
entry:
  %c = icmp eq i64 1, 1
  br i1 %c, label %t, label %e
t:
  br label %join
e:
  br label %join
join:
  %x = phi i64 [ 5, %t ], [ 99, %e ]
  ret i64 %x
}
|}
  in
  let m = parse src in
  let m', _ = (Pass.of_func_pass Sccp.pass).Pass.mrun m in
  verify m';
  check bool_t "result" true (Int64.equal (run_i64 m' "f" []) 5L);
  (* after simplify-cfg the function is a single block *)
  let m'', _ = (Pass.of_func_pass Simplify_cfg.pass).Pass.mrun m' in
  verify m'';
  check int_t "single block" 1 (block_count m'' "f")

let test_sccp_select_agreeing_arms () =
  (* the condition is a parameter, but both arms are 3: the select is 3
     whichever way it goes *)
  let src =
    {|
define i64 @f(i1 %p) {
entry:
  %s = select i1 %p, i64 3, i64 3
  %y = add i64 %s, 1
  ret i64 %y
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Sccp.pass).Pass.mrun m in
  check bool_t "changed" true changed;
  verify m';
  check int_t "folded to return of 4" 0 (count_instrs m' "f");
  check bool_t "result" true
    (match Interp.run m' "f" [ Interp.VInt (Ty.I1, 0L) ] with
    | Interp.VInt (_, n) -> Int64.equal n 4L
    | _ -> false)

let test_sccp_refused_type_does_not_raise () =
  (* an icmp typed as a struct: the verifier rejects it, and folding it
     anyway must not raise — it stays unfolded *)
  let src =
    {|
define i1 @f() {
entry:
  %k = add i32 1, 2
  %c = icmp slt { } 0, %k
  ret i1 %c
}
|}
  in
  let m = parse src in
  let violations m =
    List.map (Format.asprintf "%a" Verifier.pp_violation)
      (Verifier.check_module m)
  in
  check Alcotest.(list string) "rejected"
    [ "@f %entry: icmp on {  }, not an integer type" ]
    (violations m);
  let m', _ = (Pass.of_func_pass Sccp.pass).Pass.mrun m in
  check Alcotest.(list string) "still the only violation" (violations m) (violations m');
  check int_t "icmp kept" 1 (count_instrs m' "f")

let test_dce_removes_unused () =
  let src =
    {|
declare i64 @opaque()
define i64 @f() {
entry:
  %dead = add i64 1, 2
  %dead2 = mul i64 %dead, 3
  %live = call i64 @opaque()
  ret i64 %live
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Dce.pass).Pass.mrun m in
  check bool_t "changed" true changed;
  verify m';
  (* only the call remains *)
  check int_t "one instruction" 1 (count_instrs m' "f")

let test_simplify_cfg_merges_chain () =
  let src =
    {|
define i64 @f() {
entry:
  br label %a
a:
  %x = add i64 1, 0
  br label %b
b:
  ret i64 %x
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Simplify_cfg.pass).Pass.mrun m in
  check bool_t "changed" true changed;
  verify m';
  check int_t "single block" 1 (block_count m' "f");
  check bool_t "result" true (Int64.equal (run_i64 m' "f" []) 1L)

let test_simplify_cfg_prunes_dead_arm () =
  let src =
    {|
define i64 @f() {
entry:
  br i1 true, label %t, label %e
t:
  br label %join
e:
  br label %join
join:
  %x = phi i64 [ 1, %t ], [ 2, %e ]
  ret i64 %x
}
|}
  in
  let m = parse src in
  let m', _ = (Pass.of_func_pass Simplify_cfg.pass).Pass.mrun m in
  verify m';
  check bool_t "result" true (Int64.equal (run_i64 m' "f" []) 1L);
  check int_t "single block" 1 (block_count m' "f")

(* ------------------------------------------------------------------ *)
(* CSE / instcombine                                                    *)

let test_cse_dedups () =
  let src =
    {|
define i64 @f(i64 %x, i64 %y) {
entry:
  %a = add i64 %x, %y
  %b = add i64 %x, %y
  %c = add i64 %a, %b
  ret i64 %c
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Cse.pass).Pass.mrun m in
  check bool_t "changed" true changed;
  verify m';
  check int_t "one add eliminated" 2 (count_instrs m' "f");
  check bool_t "semantics" true (Int64.equal (run_i64 m' "f" [ 3L; 4L ]) 14L)

let test_cse_does_not_cross_blocks () =
  let src =
    {|
define i64 @f(i1 %c, i64 %x) {
entry:
  %a = add i64 %x, 1
  br i1 %c, label %t, label %e
t:
  %b = add i64 %x, 1
  ret i64 %b
e:
  ret i64 %a
}
|}
  in
  let m = parse src in
  let _, changed = (Pass.of_func_pass Cse.pass).Pass.mrun m in
  (* local CSE must not touch the cross-block duplicate *)
  check bool_t "unchanged" false changed

let test_cse_skips_calls_and_loads () =
  let src =
    {|
declare i64 @opaque()
define i64 @f() {
entry:
  %a = call i64 @opaque()
  %b = call i64 @opaque()
  %r = add i64 %a, %b
  ret i64 %r
}
|}
  in
  let m = parse src in
  let _, changed = (Pass.of_func_pass Cse.pass).Pass.mrun m in
  check bool_t "calls kept" false changed

let test_instcombine_identities () =
  let src =
    {|
define i64 @f(i64 %x) {
entry:
  %a = add i64 %x, 0
  %b = mul i64 %a, 1
  %c = xor i64 %b, 0
  %d = sub i64 %c, 0
  %e = or i64 %d, %d
  ret i64 %e
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Instcombine.pass).Pass.mrun m in
  check bool_t "changed" true changed;
  verify m';
  check int_t "everything folds to %x" 0 (count_instrs m' "f");
  check bool_t "semantics" true (Int64.equal (run_i64 m' "f" [ 9L ]) 9L)

let test_instcombine_mul_zero () =
  let src =
    {|
define i64 @f(i64 %x) {
entry:
  %a = mul i64 %x, 0
  %b = add i64 %a, 5
  ret i64 %b
}
|}
  in
  let m = parse src in
  let m' =
    Pass.run_until_fixpoint
      (List.map Pass.of_func_pass [ Instcombine.pass; Const_fold.pass ])
      m
  in
  verify m';
  check int_t "fully folded" 0 (count_instrs m' "f");
  check bool_t "result 5" true (Int64.equal (run_i64 m' "f" [ 123L ]) 5L)

let test_instcombine_reflexive_icmp () =
  let src =
    {|
define i64 @f(i64 %x) {
entry:
  %c = icmp eq i64 %x, %x
  br i1 %c, label %t, label %e
t:
  ret i64 1
e:
  ret i64 0
}
|}
  in
  let m = parse src in
  let m' =
    Pass.run_until_fixpoint
      (List.map Pass.of_func_pass [ Instcombine.pass; Simplify_cfg.pass ])
      m
  in
  verify m';
  check int_t "single block" 1 (block_count m' "f");
  check bool_t "returns 1" true (Int64.equal (run_i64 m' "f" [ 5L ]) 1L)

(* ------------------------------------------------------------------ *)
(* Loop unrolling (Ex. 4)                                               *)

let forloop_src = List.assoc "forloop" Test_llvm_ir.fixtures

let count_h_calls m =
  count_calls m "main" "__quantum__qis__h__body"

let test_unroll_ex4 () =
  (* the paper's Ex. 4 program: after the lowering pipeline the loop is
     gone and exactly ten H calls remain, on addresses 0..9 *)
  let m = parse forloop_src in
  let m' = Pipeline.lower m in
  verify m';
  check int_t "ten H calls" 10 (count_h_calls m');
  check int_t "single block" 1 (block_count m' "main");
  (* every call's argument is a constant static address *)
  let f = Ir_module.find_func_exn m' "main" in
  let addrs =
    Func.fold_instrs f [] (fun acc (i : Instr.t) ->
        match i.Instr.op with
        | Instr.Call (_, "__quantum__qis__h__body", [ arg ]) -> (
          match arg.Operand.v with
          | Operand.Const (Constant.Inttoptr n) -> Int64.to_int n :: acc
          | Operand.Const Constant.Null -> 0 :: acc
          | _ -> Alcotest.fail "H argument is not a static address")
        | _ -> acc)
  in
  check (Alcotest.list int_t) "addresses 0..9" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev addrs)

let test_unroll_preserves_semantics () =
  let src =
    {|
define i64 @tri(i64 %unused) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp slt i64 %i, 20
  br i1 %c, label %body, label %exit
body:
  %acc2 = add i64 %acc, %i
  %i2 = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
|}
  in
  let m = parse src in
  let before = run_i64 m "tri" [ 0L ] in
  let m', changed = (Pass.of_func_pass Unroll.pass).Pass.mrun m in
  check bool_t "unrolled" true changed;
  verify m';
  check bool_t "no loop left" true (Loop.find (Cfg.of_func (Ir_module.find_func_exn m' "tri")) = []);
  check bool_t "same result" true (Int64.equal before (run_i64 m' "tri" [ 0L ]))

let test_unroll_skips_dynamic_bound () =
  let src =
    {|
define i64 @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %i2 = add i64 %i, 1
  br label %header
exit:
  ret i64 %i
}
|}
  in
  let m = parse src in
  let _, changed = (Pass.of_func_pass Unroll.pass).Pass.mrun m in
  check bool_t "not unrolled" false changed

let test_unroll_respects_trip_limit () =
  let src =
    {|
define i64 @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, 1000000
  br i1 %c, label %body, label %exit
body:
  %i2 = add i64 %i, 1
  br label %header
exit:
  ret i64 %i
}
|}
  in
  let m = parse src in
  let _, changed = (Pass.of_func_pass Unroll.pass).Pass.mrun m in
  check bool_t "not unrolled (trip too large)" false changed

let test_unroll_zero_trip () =
  let src =
    {|
define i64 @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 5, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, 0
  br i1 %c, label %body, label %exit
body:
  %i2 = add i64 %i, 1
  br label %header
exit:
  ret i64 %i
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Unroll.pass).Pass.mrun m in
  check bool_t "unrolled" true changed;
  verify m';
  check bool_t "result is initial value" true (Int64.equal (run_i64 m' "f" []) 5L)

let test_unroll_countdown () =
  let src =
    {|
define i64 @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 10, %entry ], [ %i2, %body ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp sgt i64 %i, 0
  br i1 %c, label %body, label %exit
body:
  %acc2 = add i64 %acc, %i
  %i2 = sub i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Unroll.pass).Pass.mrun m in
  check bool_t "unrolled" true changed;
  verify m';
  check bool_t "sum 1..10" true (Int64.equal (run_i64 m' "f" []) 55L)

let test_unroll_body_with_branches () =
  (* the loop body contains an if-else: sum of odd numbers minus evens *)
  let src =
    {|
define i64 @f() {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i2, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %latch ]
  %c = icmp slt i64 %i, 10
  br i1 %c, label %body, label %exit
body:
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %add, label %sub
add:
  %aplus = add i64 %acc, %i
  br label %latch
sub:
  %aminus = sub i64 %acc, %i
  br label %latch
latch:
  %acc2 = phi i64 [ %aplus, %add ], [ %aminus, %sub ]
  %i2 = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
|}
  in
  let m = parse src in
  let before = run_i64 m "f" [] in
  (* odds 1+3+5+7+9 = 25; evens 0+2+4+6+8 = 20; result 5 *)
  check bool_t "reference" true (Int64.equal before 5L);
  let m', changed = (Pass.of_func_pass Unroll.pass).Pass.mrun m in
  check bool_t "unrolled" true changed;
  verify m';
  check bool_t "no loop left" true
    (Loop.find (Cfg.of_func (Ir_module.find_func_exn m' "f")) = []);
  check bool_t "same result" true (Int64.equal before (run_i64 m' "f" []));
  (* and the whole pipeline folds it to a constant return *)
  let m'' = Pipeline.lower m in
  check int_t "fully folded" 0 (count_instrs m'' "f");
  check bool_t "still 5" true (Int64.equal (run_i64 m'' "f" []) 5L)

let test_unroll_exit_phi_uses_loop_value () =
  (* the exit block's phi consumes a header-defined value *)
  let src =
    {|
define i64 @f(i1 %skip) {
entry:
  br i1 %skip, label %exit_direct, label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, 7
  br i1 %c, label %body, label %after
body:
  %i2 = add i64 %i, 1
  br label %header
after:
  br label %exit_direct
exit_direct:
  %r = phi i64 [ -1, %entry ], [ %i, %after ]
  ret i64 %r
}
|}
  in
  let m = parse src in
  let run skip =
    match Interp.run m "f" [ Interp.VInt (Ty.I1, skip) ] with
    | Interp.VInt (_, n) -> n
    | _ -> Alcotest.fail "expected int"
  in
  check bool_t "skip" true (Int64.equal (run 1L) (-1L));
  check bool_t "loop" true (Int64.equal (run 0L) 7L);
  let m', changed = (Pass.of_func_pass Unroll.pass).Pass.mrun m in
  check bool_t "unrolled" true changed;
  verify m';
  let run' skip =
    match Interp.run m' "f" [ Interp.VInt (Ty.I1, skip) ] with
    | Interp.VInt (_, n) -> n
    | _ -> Alcotest.fail "expected int"
  in
  check bool_t "skip preserved" true (Int64.equal (run' 1L) (-1L));
  check bool_t "loop preserved" true (Int64.equal (run' 0L) 7L)

let test_unroll_nested () =
  let src =
    {|
declare void @__quantum__qis__h__body(ptr)
define void @main() "entry_point" {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i2, %outer.latch ]
  %oc = icmp slt i64 %i, 3
  br i1 %oc, label %inner.pre, label %exit
inner.pre:
  br label %inner
inner:
  %j = phi i64 [ 0, %inner.pre ], [ %j2, %inner.body ]
  %ic = icmp slt i64 %j, 4
  br i1 %ic, label %inner.body, label %outer.latch
inner.body:
  %q = mul i64 %i, 4
  %q2 = add i64 %q, %j
  %qb = inttoptr i64 %q2 to ptr
  call void @__quantum__qis__h__body(ptr %qb)
  %j2 = add i64 %j, 1
  br label %inner
outer.latch:
  %i2 = add i64 %i, 1
  br label %outer
exit:
  ret void
}
|}
  in
  let m = parse src in
  let m' = Pipeline.lower m in
  verify m';
  check int_t "12 H calls (3x4)" 12 (count_h_calls m');
  check int_t "single block" 1 (block_count m' "main")

(* ------------------------------------------------------------------ *)
(* Inlining                                                             *)

let test_inline_simple () =
  let src =
    {|
define i64 @double(i64 %x) {
entry:
  %r = add i64 %x, %x
  ret i64 %r
}
define i64 @f(i64 %x) {
entry:
  %a = call i64 @double(i64 %x)
  %b = call i64 @double(i64 %a)
  ret i64 %b
}
|}
  in
  let m = parse src in
  let m', changed = (Pass.of_func_pass Inline.pass).Pass.mrun m in
  check bool_t "changed" true changed;
  verify m';
  check int_t "no calls left in f" 0 (count_calls m' "f" "double");
  check bool_t "semantics" true (Int64.equal (run_i64 m' "f" [ 3L ]) 12L)

let test_inline_branching_callee () =
  let src =
    {|
define i64 @abs(i64 %x) {
entry:
  %neg = icmp slt i64 %x, 0
  br i1 %neg, label %n, label %p
n:
  %m = sub i64 0, %x
  ret i64 %m
p:
  ret i64 %x
}
define i64 @f(i64 %x) {
entry:
  %a = call i64 @abs(i64 %x)
  %b = add i64 %a, 1
  ret i64 %b
}
|}
  in
  let m = parse src in
  let m', _ = (Pass.of_func_pass Inline.pass).Pass.mrun m in
  verify m';
  check int_t "call inlined" 0 (count_calls m' "f" "abs");
  check bool_t "negative input" true (Int64.equal (run_i64 m' "f" [ -5L ]) 6L);
  check bool_t "positive input" true (Int64.equal (run_i64 m' "f" [ 5L ]) 6L)

let test_inline_skips_recursion () =
  let src =
    {|
define i64 @fact(i64 %n) {
entry:
  %c = icmp sle i64 %n, 1
  br i1 %c, label %base, label %rec
base:
  ret i64 1
rec:
  %n1 = sub i64 %n, 1
  %r = call i64 @fact(i64 %n1)
  %p = mul i64 %r, %n
  ret i64 %p
}
define i64 @f() {
entry:
  %r = call i64 @fact(i64 5)
  ret i64 %r
}
|}
  in
  let m = parse src in
  let m', _ = (Pass.of_func_pass Inline.pass).Pass.mrun m in
  verify m';
  (* the recursive callee is not inlined into itself *)
  check int_t "fact still recursive" 1 (count_calls m' "fact" "fact");
  check bool_t "semantics" true (Int64.equal (run_i64 m' "f" []) 120L)

let test_inline_void_callee () =
  let src =
    {|
declare void @__quantum__qis__h__body(ptr)
define void @apply_h(i64 %q) {
entry:
  %p = inttoptr i64 %q to ptr
  call void @__quantum__qis__h__body(ptr %p)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @apply_h(i64 0)
  call void @apply_h(i64 1)
  ret void
}
|}
  in
  let m = parse src in
  let m' = Pipeline.lower m in
  verify m';
  check int_t "two H calls inline" 2 (count_h_calls m');
  check int_t "single function body"
    0
    (count_calls m' "main" "apply_h")

(* ------------------------------------------------------------------ *)
(* Semantic-preservation properties                                     *)

(* Random counted-loop programs: the lowering pipeline must preserve the
   interpreter's result. *)
let gen_loop_program =
  let open QCheck2.Gen in
  let* init = int_range 0 5 in
  let* bound = int_range 0 40 in
  let* step = int_range 1 3 in
  let* mult = int_range 1 4 in
  let src =
    Printf.sprintf
      {|
define i64 @f(i64 %%seed) {
entry:
  br label %%header
header:
  %%i = phi i64 [ %d, %%entry ], [ %%i2, %%body ]
  %%acc = phi i64 [ %%seed, %%entry ], [ %%acc2, %%body ]
  %%c = icmp slt i64 %%i, %d
  br i1 %%c, label %%body, label %%exit
body:
  %%t = mul i64 %%i, %d
  %%acc2 = add i64 %%acc, %%t
  %%i2 = add i64 %%i, %d
  br label %%header
exit:
  ret i64 %%acc
}
|}
      init bound mult step
  in
  return src

let prop_lowering_preserves_loops =
  QCheck2.Test.make ~count:60 ~name:"lowering preserves loop semantics"
    QCheck2.Gen.(pair gen_loop_program (int_range (-100) 100))
    (fun (src, seed) ->
      let m = parse src in
      let before = run_i64 m "f" [ Int64.of_int seed ] in
      let m' = Pipeline.lower m in
      (match Verifier.check_module m' with
      | [] -> ()
      | v :: _ ->
        QCheck2.Test.fail_reportf "verifier after lowering: %a"
          Verifier.pp_violation v);
      Int64.equal before (run_i64 m' "f" [ Int64.of_int seed ]))

let prop_standard_preserves_branchy =
  (* random diamonds with constants and parameters *)
  let gen =
    let open QCheck2.Gen in
    let* k1 = int_range (-50) 50 in
    let* k2 = int_range (-50) 50 in
    let* threshold = int_range (-20) 20 in
    return
      (Printf.sprintf
         {|
define i64 @f(i64 %%x) {
entry:
  %%slot = alloca i64
  store i64 %d, ptr %%slot
  %%c = icmp sgt i64 %%x, %d
  br i1 %%c, label %%t, label %%e
t:
  store i64 %d, ptr %%slot
  br label %%join
e:
  br label %%join
join:
  %%v = load i64, ptr %%slot
  %%r = add i64 %%v, %%x
  ret i64 %%r
}
|}
         k1 threshold k2)
  in
  QCheck2.Test.make ~count:60 ~name:"standard pipeline preserves diamonds"
    QCheck2.Gen.(pair gen (int_range (-100) 100))
    (fun (src, x) ->
      let m = parse src in
      let before = run_i64 m "f" [ Int64.of_int x ] in
      let m' = Pipeline.optimize m in
      (match Verifier.check_module m' with
      | [] -> ()
      | v :: _ ->
        QCheck2.Test.fail_reportf "verifier after optimize: %a"
          Verifier.pp_violation v);
      Int64.equal before (run_i64 m' "f" [ Int64.of_int x ]))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lowering_preserves_loops; prop_standard_preserves_branchy ]

let suite =
  [
    Alcotest.test_case "mem2reg: promotes loop variables" `Quick
      test_mem2reg_promotes_loop;
    Alcotest.test_case "mem2reg: keeps escaping allocas" `Quick
      test_mem2reg_leaves_escaping_allocas;
    Alcotest.test_case "mem2reg: inserts phis at joins" `Quick
      test_mem2reg_diamond_phi;
    Alcotest.test_case "const-fold: folds chains" `Quick test_const_fold_chain;
    Alcotest.test_case "const-fold: keeps div-by-zero" `Quick
      test_const_fold_division_by_zero_kept;
    Alcotest.test_case "sccp: constants through branches" `Quick
      test_sccp_through_branch;
    Alcotest.test_case "sccp: ignores dead arms" `Quick test_sccp_dead_branch;
    Alcotest.test_case "sccp: select with agreeing arms" `Quick
      test_sccp_select_agreeing_arms;
    Alcotest.test_case "sccp: unfoldable type does not raise" `Quick
      test_sccp_refused_type_does_not_raise;
    Alcotest.test_case "dce: removes dead code" `Quick test_dce_removes_unused;
    Alcotest.test_case "simplify-cfg: merges chains" `Quick
      test_simplify_cfg_merges_chain;
    Alcotest.test_case "simplify-cfg: prunes dead arms" `Quick
      test_simplify_cfg_prunes_dead_arm;
    Alcotest.test_case "cse: duplicates eliminated" `Quick test_cse_dedups;
    Alcotest.test_case "cse: block-local only" `Quick
      test_cse_does_not_cross_blocks;
    Alcotest.test_case "cse: calls/loads kept" `Quick
      test_cse_skips_calls_and_loads;
    Alcotest.test_case "instcombine: identities" `Quick
      test_instcombine_identities;
    Alcotest.test_case "instcombine: mul by zero" `Quick
      test_instcombine_mul_zero;
    Alcotest.test_case "instcombine: reflexive icmp" `Quick
      test_instcombine_reflexive_icmp;
    Alcotest.test_case "unroll: Ex.4 end-to-end" `Quick test_unroll_ex4;
    Alcotest.test_case "unroll: semantics preserved" `Quick
      test_unroll_preserves_semantics;
    Alcotest.test_case "unroll: dynamic bound skipped" `Quick
      test_unroll_skips_dynamic_bound;
    Alcotest.test_case "unroll: trip limit respected" `Quick
      test_unroll_respects_trip_limit;
    Alcotest.test_case "unroll: zero-trip loop" `Quick test_unroll_zero_trip;
    Alcotest.test_case "unroll: countdown loop" `Quick test_unroll_countdown;
    Alcotest.test_case "unroll: body with branches" `Quick
      test_unroll_body_with_branches;
    Alcotest.test_case "unroll: exit phi uses loop value" `Quick
      test_unroll_exit_phi_uses_loop_value;
    Alcotest.test_case "unroll: nested loops" `Quick test_unroll_nested;
    Alcotest.test_case "inline: simple" `Quick test_inline_simple;
    Alcotest.test_case "inline: branching callee" `Quick
      test_inline_branching_callee;
    Alcotest.test_case "inline: recursion skipped" `Quick
      test_inline_skips_recursion;
    Alcotest.test_case "inline: void callee via pipeline" `Quick
      test_inline_void_callee;
  ]
  @ props
