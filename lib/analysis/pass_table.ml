(* Every pass that runs by name ([qirc --pass], the tests, the
   benchmarks), in one immutable table: the classical passes QIR
   inherits from LLVM, then the quantum ones of this library. *)

open Passes

let all : Pass.module_pass list =
  List.map Pass.of_func_pass
    [
      Mem2reg.pass;
      Const_fold.pass;
      Sccp.pass;
      Instcombine.pass;
      Cse.pass;
      Dce.pass;
      Simplify_cfg.pass;
      Unroll.pass;
      Inline.pass;
    ]
  @ [ Quantum_dce.pass; Qdf_opt.pass ]

let names = List.map (fun (p : Pass.module_pass) -> p.Pass.mname) all

let find name =
  List.find_opt
    (fun (p : Pass.module_pass) -> String.equal p.Pass.mname name)
    all

(* Runs one named pass once; [Invalid_argument] on unknown names. *)
let run name m =
  match find name with
  | Some p -> fst (p.Pass.mrun m)
  | None ->
    invalid_arg
      (Printf.sprintf "Pass_table.run: unknown pass %s (available: %s)" name
         (String.concat ", " names))
