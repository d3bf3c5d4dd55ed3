(* Preset pass pipelines. *)

(* The cleanup pipeline: SSA construction plus the classical scalar
   optimizations the paper names in Sec. II-B. *)
let standard : Pass.module_pass list =
  List.map Pass.of_func_pass
    [ Mem2reg.pass; Sccp.pass; Instcombine.pass; Cse.pass; Simplify_cfg.pass;
      Dce.pass ]

(* The lowering pipeline: flattens a hybrid (adaptive-profile) program
   towards the base profile — inline everything into the entry point,
   promote memory to SSA, propagate constants, fully unroll counted loops
   and clean up. Corresponds to the paper's Sec. III-B / Ex. 4. *)
let lowering : Pass.module_pass list =
  List.map Pass.of_func_pass
    [
      Inline.pass;
      Mem2reg.pass;
      Sccp.pass;
      Simplify_cfg.pass;
      Unroll.pass;
      Sccp.pass;
      Const_fold.pass;
      Instcombine.pass;
      Cse.pass;
      Simplify_cfg.pass;
      Dce.pass;
    ]

let optimize ?(max_rounds = 8) m =
  Pass.run_until_fixpoint ~max_rounds standard m

let lower ?(max_rounds = 8) m =
  Pass.run_until_fixpoint ~max_rounds lowering m
