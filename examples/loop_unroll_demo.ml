(* The paper's Ex. 4, live: a QIR program with a classical FOR-loop over
   Hadamard gates, lowered by the classical pass pipeline until "an
   optimization pass does not have to handle the FOR-loop, but sees only
   the ten individual Hadamard gates".

   Run with: dune exec examples/loop_unroll_demo.exe *)

open Llvm_ir

let forloop_qir =
  {|
declare void @__quantum__qis__h__body(ptr)

define void @main() "entry_point" {
entry:
  %i = alloca i32, align 4
  store i32 0, ptr %i, align 4
  br label %for.header

for.header:
  %1 = load i32, ptr %i, align 4
  %cond = icmp slt i32 %1, 10
  br i1 %cond, label %body, label %exit

body:
  %2 = load i32, ptr %i, align 4
  %idx = sext i32 %2 to i64
  %qb = inttoptr i64 %idx to ptr
  call void @__quantum__qis__h__body(ptr %qb)
  %3 = load i32, ptr %i, align 4
  %4 = add nsw i32 %3, 1
  store i32 %4, ptr %i, align 4
  br label %for.header

exit:
  ret void
}
|}

let () =
  let m = Parser.parse_module forloop_qir in
  print_endline "=== Input (the paper's Ex. 4) ===";
  print_string (Printer.module_to_string m);
  Format.printf "@\nProfile before lowering: %a@\n" Qir.Profile.pp
    (Qir.Profile_check.classify m);

  (* the program EXECUTES as-is: the interpreter handles the loop *)
  let r = Qruntime.Executor.run m in
  Format.printf "Direct execution applies %d H gates.@\n@\n"
    r.Qruntime.Executor.runtime_stats.Qruntime.Runtime.gate_calls;

  (* lowering: inline + mem2reg + sccp + unroll + fold + dce + simplify *)
  let lowered = Qir.Lowering.lower_module m in
  print_endline "=== After lowering (mem2reg, unroll, const-prop, DCE) ===";
  print_string (Printer.module_to_string lowered);
  Format.printf "@\nProfile after lowering: %a@\n" Qir.Profile.pp
    (Qir.Profile_check.classify lowered);

  (* step-by-step ablation: which pass enables which *)
  print_endline "\n=== Pass-by-pass instruction counts ===";
  let count m =
    List.fold_left
      (fun acc f -> acc + Func.size f)
      0 (Ir_module.defined_funcs m)
  in
  let stages =
    [ "input"; "mem2reg"; "loop-unroll"; "sccp"; "const-fold"; "dce";
      "simplify-cfg" ]
  in
  let _ =
    List.fold_left
      (fun m stage ->
        let m' =
          if String.equal stage "input" then m
          else Qir_analysis.Pass_table.run stage m
        in
        Format.printf "  %-12s %4d instructions, %d blocks@\n" stage (count m')
          (List.length (Ir_module.find_func_exn m' "main").Func.blocks);
        m')
      m stages
  in

  (* the lowered module parses straight into a circuit (Ex. 3) *)
  let circuit = Qir.Qir_parser.parse lowered in
  Format.printf "@\nExtracted circuit:@\n%a" Qcircuit.Circuit.pp circuit;
  Format.printf "Equals the hand-written 10-qubit H layer: %b@\n"
    (Qcircuit.Circuit.equal circuit (Qcircuit.Generate.h_layer 10))
