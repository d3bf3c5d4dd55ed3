(* Property tests for the high-performance statevector engine: every
   gate kernel, the fusion pass, the Domain-parallel paths and
   the batched shot sampler are checked against the naive general-kernel
   reference ({!Qsim.Statevector.Reference}) on randomized inputs. *)

open Qcircuit
module Sv = Qsim.Statevector
module Ref = Qsim.Statevector.Reference

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)

(* Two bitwise-identical random states, both prepared by the reference
   engine, so any deviation after the gate under test is the kernel's. *)
let prep n seed =
  let c = Generate.random ~seed ~gates:(6 * n) ~parametric:true n in
  let st1, _ = Ref.run_circuit ~seed c in
  let st2, _ = Ref.run_circuit ~seed c in
  (st1, st2)

let max_dev a b =
  check int_t "same dim" (Sv.dim a) (Sv.dim b);
  let d = ref 0.0 in
  for i = 0 to Sv.dim a - 1 do
    let za = Sv.amplitude a i and zb = Sv.amplitude b i in
    d := Float.max !d (Complex.norm (Complex.sub za zb))
  done;
  !d

let norm st =
  let s = ref 0.0 in
  for i = 0 to Sv.dim st - 1 do
    s := !s +. Sv.probability st i
  done;
  !s

let all_finite st =
  let ok = ref true in
  for i = 0 to Sv.dim st - 1 do
    let z = Sv.amplitude st i in
    if not (Float.is_finite z.Complex.re && Float.is_finite z.Complex.im) then
      ok := false
  done;
  !ok

(* Temporarily force a worker pool so the parallel code paths run even
   on single-core CI machines. *)
let with_pool ~domains ~threshold f =
  let d0 = Qsim.Dpool.domains () and t0 = Qsim.Dpool.threshold () in
  Qsim.Dpool.set_domains domains;
  Qsim.Dpool.set_threshold threshold;
  Fun.protect f ~finally:(fun () ->
      Qsim.Dpool.set_domains d0;
      Qsim.Dpool.set_threshold t0)

(* Temporarily lower the shard granularity so even tiny registers split
   into multiple shards, exercising the two-level kernels cheaply. *)
let with_local_bits bits f =
  let b0 = Sv.max_local_bits () in
  Sv.set_max_local_bits bits;
  Fun.protect f ~finally:(fun () -> Sv.set_max_local_bits b0)

(* ------------------------------------------------------------------ *)
(* 1. Every gate's kernel against the reference                          *)

let gates_1q =
  Gate.
    [
      I; H; X; Y; Z; S; Sdg; T; Tdg; Sx; Sxdg; Rx 0.7; Ry 1.1; Rz 2.3; P 0.9;
      U (0.5, 1.2, 2.0);
    ]

let gates_2q =
  Gate.
    [
      Cx; Cy; Cz; Ch; Swap; Crx 0.8; Cry 1.3; Crz 0.4; Cp 1.9;
      Cu (0.3, 0.7, 1.5);
    ]

(* Each gate through [Sv.apply] and as a one-step fused plan, against
   the reference applied to a flat copy: on a flat 5-qubit state, and on
   6-qubit states sharded at 2 and 3 local bits with operands below,
   across and above the shard boundary. *)
let test_kernels_vs_reference () =
  let try_gate ~n ~lb seed g qs =
    let _, st_ref = prep n seed in
    Ref.apply st_ref g qs;
    let one_step st =
      let c =
        Circuit.create ~num_qubits:n ~num_clbits:0 [ Circuit.gate g qs ]
      in
      Qsim.Fusion.apply_plan st [||] (fst (Qsim.Fusion.plan c))
    in
    List.iter
      (fun (path, run) ->
        let st = with_local_bits lb (fun () -> fst (prep n seed)) in
        if n > lb && Sv.shard_count st < 2 then
          Alcotest.fail "state did not shard";
        run st;
        let dev = max_dev st st_ref in
        if dev > 1e-12 then
          Alcotest.failf
            "%s on [%s] (%d qubits, local bits %d, %s): deviation %g"
            (Gate.to_string g)
            (String.concat ";" (List.map string_of_int qs))
            n lb path dev)
      [ ("apply", fun st -> Sv.apply st g qs); ("plan", one_step) ]
  in
  let run_all ~n ~lb ~q1 ~q2 ~ccx ~cswap =
    List.iteri
      (fun i g -> List.iter (fun q -> try_gate ~n ~lb (31 + i) g [ q ]) q1)
      gates_1q;
    List.iteri
      (fun i g ->
        List.iter (fun (a, b) -> try_gate ~n ~lb (53 + i) g [ a; b ]) q2)
      gates_2q;
    List.iter (try_gate ~n ~lb 71 Gate.Ccx) ccx;
    List.iter (try_gate ~n ~lb 73 Gate.Cswap) cswap
  in
  run_all ~n:5 ~lb:(Sv.max_local_bits ()) ~q1:[ 0; 2; 4 ]
    ~q2:[ (0, 1); (1, 0); (0, 4); (3, 1) ]
    ~ccx:[ [ 0; 1; 2 ]; [ 2; 0; 4 ]; [ 4; 3; 1 ] ]
    ~cswap:[ [ 0; 1; 2 ]; [ 1; 4; 0 ]; [ 3; 0; 2 ] ];
  List.iter
    (fun lb ->
      run_all ~n:6 ~lb ~q1:[ 0; 2; 5 ]
        ~q2:[ (0, 1); (1, 0); (0, 5); (4, 2); (5, 3) ]
        ~ccx:[ [ 0; 1; 2 ]; [ 2; 0; 4 ]; [ 5; 3; 4 ]; [ 4; 5; 1 ] ]
        ~cswap:[ [ 0; 1; 2 ]; [ 1; 4; 0 ]; [ 3; 5; 4 ] ])
    [ 2; 3 ]

(* Malformed operands raise [Sim_error] — never [Invalid_argument] or an
   unchecked access — and leave the state untouched, on flat and sharded
   states alike; so does a kernel whose qubits lie outside the register,
   with checked access off. *)
let test_operand_validation () =
  let expect_error what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Qsim.Sim_error.Error _ -> ()
    | exception e ->
      Alcotest.failf "%s: raised %s, not Sim_error" what (Printexc.to_string e)
  in
  let untouched st =
    check bool_t "state untouched" true
      (Complex.norm (Complex.sub (Sv.amplitude st 0) Complex.one) = 0.0)
  in
  let bad =
    Gate.
      [
        ("wrong arity", H, [ 0; 1 ]); ("wrong arity", Cx, [ 0 ]);
        ("wrong arity", Ccx, [ 0; 1 ]); ("no operands", X, []);
        ("duplicate", Cx, [ 2; 2 ]); ("duplicate", Ccx, [ 0; 1; 1 ]);
        ("duplicate", Cswap, [ 3; 1; 3 ]); ("negative", X, [ -1 ]);
        ("negative", Cx, [ 0; -3 ]); ("out of range", H, [ 6 ]);
        ("out of range", Cz, [ 6; 0 ]); ("out of range", Cswap, [ 0; 1; 9 ]);
      ]
  in
  check bool_t "checked access off" false (Sv.checked_access ());
  let k5 = Sv.kernel (Gate.matrix Gate.X) [| 5 |] in
  List.iter
    (fun lb ->
      with_local_bits lb (fun () ->
          let st = Sv.create 6 in
          List.iter
            (fun (what, g, qs) ->
              expect_error
                (Printf.sprintf "%s: %s [%s] (local bits %d)" what (Gate.name g)
                   (String.concat ";" (List.map string_of_int qs))
                   lb)
                (fun () -> Sv.apply st g qs))
            bad;
          untouched st;
          let st3 = Sv.create 3 in
          expect_error "kernel on qubit 5, 3-qubit state" (fun () ->
              Sv.apply_kernel st3 k5);
          untouched st3))
    [ Sv.max_local_bits (); 2 ];
  List.iter
    (fun (what, u, qs) ->
      expect_error ("kernel: " ^ what) (fun () -> ignore (Sv.kernel u qs)))
    [
      ("duplicate qubit", Gate.matrix Gate.Cx, [| 1; 1 |]);
      ("negative qubit", Gate.matrix Gate.X, [| -2 |]);
      ("no qubits", [| [| Complex.one |] |], [||]);
      ("matrix size", Gate.matrix Gate.X, [| 0; 1 |]);
    ]

(* ------------------------------------------------------------------ *)
(* 2. Whole random circuits: fast engine == reference                    *)

let test_random_circuits_vs_reference () =
  List.iter
    (fun seed ->
      let parametric = seed mod 2 = 0 in
      let c =
        Generate.random ~seed ~two_qubit_fraction:0.35 ~parametric ~gates:120 6
      in
      let st_fast, _ = Sv.run_circuit ~seed c in
      let st_ref, _ = Ref.run_circuit ~seed c in
      let dev = max_dev st_fast st_ref in
      if dev > 1e-10 then Alcotest.failf "seed %d: deviation %g" seed dev)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* 3. Fusion: same state, far fewer kernel sweeps                        *)

let test_fusion_vs_reference () =
  List.iter
    (fun seed ->
      let parametric = seed mod 2 = 0 in
      let c =
        Generate.random ~seed ~two_qubit_fraction:0.3 ~parametric ~gates:150 6
      in
      let st_fused, _ = Qsim.Fusion.run_circuit ~seed c in
      let st_ref, _ = Ref.run_circuit ~seed c in
      let fid = Sv.fidelity st_fused st_ref in
      if Float.abs (fid -. 1.0) > 1e-9 then
        Alcotest.failf "seed %d: fidelity %.15f" seed fid;
      let _, stats = Qsim.Fusion.plan c in
      check bool_t "fusion shrinks the plan" true
        (stats.Qsim.Fusion.steps_out < stats.Qsim.Fusion.ops_in))
    [ 11; 12; 13; 14 ]

(* Fusion must also preserve classical behavior: measurements, resets
   and conditioned gates are barriers, and RNG consumption order is
   unchanged. *)
let test_fusion_with_measurements () =
  List.iter
    (fun seed ->
      let c = Generate.feedback_rounds ~rounds:4 3 in
      let st_fused, cl_fused = Qsim.Fusion.run_circuit ~seed c in
      let st_ref, cl_ref = Ref.run_circuit ~seed c in
      check bool_t "clbits match" true (cl_fused = cl_ref);
      let dev = max_dev st_fused st_ref in
      if dev > 1e-10 then Alcotest.failf "seed %d: deviation %g" seed dev)
    [ 3; 17; 42 ]

(* QFT: long runs of 1q+Cp gates — the fusion sweet spot. *)
let test_fusion_qft () =
  let c = Generate.qft 6 in
  let st_fused, _ = Qsim.Fusion.run_circuit c in
  let st_ref, _ = Ref.run_circuit c in
  let dev = max_dev st_fused st_ref in
  if dev > 1e-10 then Alcotest.failf "qft deviation %g" dev

(* ------------------------------------------------------------------ *)
(* 4. Parallel paths: forced pool == sequential                          *)

let test_parallel_kernels () =
  with_pool ~domains:4 ~threshold:32 (fun () ->
      test_kernels_vs_reference ();
      test_random_circuits_vs_reference ();
      test_fusion_vs_reference ())

let test_parallel_reductions () =
  let c = Generate.random ~seed:9 ~gates:80 ~parametric:true 7 in
  let st, _ = Ref.run_circuit ~seed:9 c in
  let st2, _ = Ref.run_circuit ~seed:9 c in
  let seq_probs = Array.init 7 (fun q -> Sv.prob_one st q) in
  let seq_ip = Sv.inner_product st st2 in
  with_pool ~domains:4 ~threshold:16 (fun () ->
      Array.iteri
        (fun q p ->
          let pp = Sv.prob_one st q in
          if Float.abs (p -. pp) > 1e-12 then
            Alcotest.failf "prob_one qubit %d: %g vs %g" q p pp)
        seq_probs;
      let par_ip = Sv.inner_product st st2 in
      if Complex.norm (Complex.sub seq_ip par_ip) > 1e-12 then
        Alcotest.fail "inner_product parallel mismatch")

let test_parallel_measure_collapse () =
  (* measure/collapse under a forced pool: same outcomes and a
     normalized post-state *)
  let c = Generate.random ~seed:21 ~gates:60 ~parametric:false 6 in
  let st_seq, _ = Ref.run_circuit ~seed:21 c in
  let seq_outcomes = List.init 6 (fun q -> Sv.measure st_seq q) in
  with_pool ~domains:4 ~threshold:16 (fun () ->
      let st_par, _ = Ref.run_circuit ~seed:21 c in
      let par_outcomes = List.init 6 (fun q -> Sv.measure st_par q) in
      check bool_t "same outcomes" true (seq_outcomes = par_outcomes);
      check bool_t "finite" true (all_finite st_par);
      if Float.abs (norm st_par -. 1.0) > 1e-9 then
        Alcotest.failf "norm %g after parallel collapse" (norm st_par))

(* ------------------------------------------------------------------ *)
(* 5. The Domain pool itself                                             *)

let test_dpool_coverage () =
  with_pool ~domains:4 ~threshold:16 (fun () ->
      check int_t "small stays sequential" 1 (Qsim.Dpool.chunk_count ~size:8);
      check int_t "large splits" 4 (Qsim.Dpool.chunk_count ~size:64);
      let size = 1000 in
      let hits = Array.make size 0 in
      Qsim.Dpool.run ~size (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      check bool_t "every index exactly once" true
        (Array.for_all (fun h -> h = 1) hits);
      let s =
        Qsim.Dpool.reduce_float ~size (fun lo hi ->
            let acc = ref 0.0 in
            for i = lo to hi - 1 do
              acc := !acc +. float_of_int i
            done;
            !acc)
      in
      check bool_t "reduce sums the range" true
        (Float.abs (s -. (float_of_int (size * (size - 1)) /. 2.0)) < 1e-9))

let test_dpool_exception () =
  with_pool ~domains:4 ~threshold:16 (fun () ->
      match
        Qsim.Dpool.run ~size:256 (fun lo _ ->
            if lo > 0 then failwith "worker boom")
      with
      | () -> Alcotest.fail "expected the worker exception to propagate"
      | exception Failure _ -> ())

(* ------------------------------------------------------------------ *)
(* 6. FP robustness                                                      *)

let test_prob_one_clamped () =
  let c = Generate.random ~seed:5 ~gates:200 ~parametric:true 8 in
  let st, _ = Sv.run_circuit ~seed:5 c in
  for q = 0 to 7 do
    let p = Sv.prob_one st q in
    check bool_t "p >= 0" true (p >= 0.0);
    check bool_t "p <= 1" true (p <= 1.0)
  done

let test_collapse_near_zero_branch () =
  (* a branch with probability ~1e-18 must not blow up into NaN/inf *)
  let st = Sv.create ~seed:7 2 in
  Sv.apply st (Gate.Ry 2e-9) [ 0 ];
  ignore (Sv.measure st 0);
  check bool_t "finite after knife-edge collapse" true (all_finite st);
  if Float.abs (norm st -. 1.0) > 1e-6 then
    Alcotest.failf "norm %g after collapse" (norm st)

let test_measure_deterministic_qubit () =
  let st = Sv.create 2 in
  check bool_t "|0> measures 0" false (Sv.measure st 0);
  Sv.apply st Gate.X [ 1 ];
  check bool_t "|1> measures 1" true (Sv.measure st 1);
  check bool_t "finite" true (all_finite st);
  if Float.abs (norm st -. 1.0) > 1e-12 then Alcotest.fail "not normalized"

(* ------------------------------------------------------------------ *)
(* 7. Batched shot sampling                                              *)

let measure_all c =
  let b = Circuit.Build.create ~num_qubits:c.Circuit.num_qubits
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

(* Histogram over [shots] per-shot Reference runs (seeds seed + s*7919),
   keyed like the sampler: the measured clbits in ascending order. *)
let measured_clbits (c : Circuit.t) =
  List.sort_uniq compare
    (List.filter_map
       (fun (op : Circuit.op) ->
         match op.Circuit.kind with
         | Circuit.Measure (_, cl) -> Some cl
         | _ -> None)
       c.Circuit.ops)

let reference_shots (c : Circuit.t) ~shots ~seed =
  let key_cl = measured_clbits c in
  let tbl = Hashtbl.create 16 in
  for s = 0 to shots - 1 do
    let _, bits = Ref.run_circuit ~seed:(seed + (s * 7919)) c in
    let key =
      String.concat "" (List.map (fun cl -> if bits.(cl) then "1" else "0") key_cl)
    in
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  done;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []

(* Two sampled histograms agree at 6 sigma on every single-bit
   frequency and every pairwise joint frequency. *)
let agree a b =
  let total h = float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 h) in
  let na = total a and nb = total b in
  let width = match a with (k, _) :: _ -> String.length k | [] -> 0 in
  let freq h js =
    float_of_int
      (List.fold_left
         (fun acc (k, n) -> if List.for_all (fun j -> k.[j] = '1') js then acc + n else acc)
         0 h)
    /. total h
  in
  let events =
    List.concat_map
      (fun i -> [ i ] :: List.filter_map (fun j -> if j > i then Some [ i; j ] else None)
                          (List.init width Fun.id))
      (List.init width Fun.id)
  in
  List.for_all
    (fun js ->
      let fa = freq a js and fb = freq b js in
      let pbar = ((fa *. na) +. (fb *. nb)) /. (na +. nb) in
      let sd = sqrt (pbar *. (1. -. pbar) *. ((1. /. na) +. (1. /. nb))) in
      Float.abs (fa -. fb) <= (6. *. sd) +. (2. /. Float.min na nb))
    events

let branch_points c = Qsim.Sampler.branch_points (Qsim.Sampler.prepare c)

let test_batchable () =
  check int_t "bell: no branch point" 0 (branch_points (Generate.bell ()));
  check int_t "ghz: no branch point" 0 (branch_points (Generate.ghz 4));
  (* two rounds: each measurement feeds a condition, each reset branches *)
  let fb = Generate.feedback_rounds ~rounds:2 2 in
  check int_t "feedback: measurements and resets branch" 4 (branch_points fb);
  (* gate after measuring the same qubit *)
  let b = Circuit.Build.create ~num_qubits:2 ~num_clbits:1 () in
  Circuit.Build.gate b Gate.H [ 0 ];
  Circuit.Build.measure b 0 0;
  Circuit.Build.gate b Gate.X [ 0 ];
  check int_t "gate after measure" 1 (branch_points (Circuit.Build.finish b));
  (* gate on another qubit after a measurement commutes: terminal *)
  let b = Circuit.Build.create ~num_qubits:2 ~num_clbits:2 () in
  Circuit.Build.gate b Gate.H [ 0 ];
  Circuit.Build.measure b 0 0;
  Circuit.Build.gate b Gate.X [ 1 ];
  Circuit.Build.measure b 1 1;
  check int_t "commuting tail gate" 0 (branch_points (Circuit.Build.finish b));
  (* permuted and sparse clbits are terminal; keys cover measured clbits *)
  let b = Circuit.Build.create ~num_qubits:2 ~num_clbits:2 () in
  Circuit.Build.gate b Gate.H [ 0 ];
  Circuit.Build.measure b 0 1;
  Circuit.Build.measure b 1 0;
  check int_t "permuted clbits" 0 (branch_points (Circuit.Build.finish b));
  let b = Circuit.Build.create ~num_qubits:2 ~num_clbits:3 () in
  Circuit.Build.gate b Gate.X [ 0 ];
  Circuit.Build.measure b 0 2;
  let sparse = Circuit.Build.finish b in
  check int_t "sparse clbits" 0 (branch_points sparse);
  check bool_t "sparse key is the measured clbit" true
    (Qsim.Sampler.sample ~shots:10 sparse = [ ("1", 10) ]);
  (* feedback rounds now sample, and agree with per-shot Reference runs *)
  let fb = Generate.feedback_rounds ~rounds:3 3 in
  let sampled = Qsim.Sampler.sample ~seed:5 ~shots:3000 fb in
  let reference = reference_shots fb ~shots:3000 ~seed:6 in
  check bool_t "feedback agrees with per-shot Reference" true (agree sampled reference)

let total_variation h1 h2 =
  let keys =
    List.sort_uniq compare (List.map fst h1 @ List.map fst h2)
  in
  let shots h = float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 h) in
  let s1 = shots h1 and s2 = shots h2 in
  List.fold_left
    (fun acc k ->
      let f h s =
        float_of_int (Option.value ~default:0 (List.assoc_opt k h)) /. s
      in
      acc +. Float.abs (f h1 s1 -. f h2 s2))
    0.0 keys
  /. 2.0

let test_batched_matches_per_shot () =
  let c = measure_all (Generate.random ~seed:8 ~gates:40 ~parametric:true 4) in
  let shots = 2000 in
  let m = Qir.Qir_builder.build c in
  let run max_tier =
    (Qruntime.Executor.run_shots_resilient ~seed:3 ~max_tier ~shots m)
      .Qruntime.Executor.histogram
  in
  let batched = run `Batched and per_shot = run `Per_shot in
  check int_t "batched shot total" shots
    (List.fold_left (fun a (_, n) -> a + n) 0 batched);
  let tv = total_variation batched per_shot in
  if tv > 0.06 then
    Alcotest.failf "batched vs per-shot total variation %.4f" tv

let test_batched_sampler_vs_direct () =
  (* the sampler agrees with drawing shots from the exact distribution *)
  let c = measure_all (Generate.random ~seed:14 ~gates:30 ~parametric:false 3) in
  let st, _ = Ref.run_circuit (Qsim.Sampler.strip_measurements c) in
  let hist = Qsim.Sampler.sample ~seed:2 ~shots:4000 c in
  List.iter
    (fun (key, n) ->
      (* key bit j = qubit j here, LSB first *)
      let idx = ref 0 in
      String.iteri (fun j ch -> if ch = '1' then idx := !idx lor (1 lsl j)) key;
      let p = Sv.probability st !idx in
      let f = float_of_int n /. 4000.0 in
      if Float.abs (p -. f) > 0.05 then
        Alcotest.failf "outcome %s: probability %.3f sampled %.3f" key p f)
    hist

let test_batched_deterministic_permutation () =
  (* QPE measures qubit i into clbit bits-1-i: the batched path must
     reproduce the per-shot (recorded-output) key exactly *)
  let m = Qir.Qir_builder.build (Algorithms.phase_estimation ~bits:3 ~k:5) in
  let run max_tier =
    (Qruntime.Executor.run_shots_resilient ~seed:4 ~max_tier ~shots:50 m)
      .Qruntime.Executor.histogram
  in
  let batched = run `Batched and per_shot = run `Per_shot in
  check bool_t "same deterministic histogram" true (batched = per_shot);
  match batched with
  | [ (key, 50) ] -> check Alcotest.string "key" "101" key
  | _ -> Alcotest.fail "expected a deterministic outcome"

(* ------------------------------------------------------------------ *)
(* 8. Sharded storage and the cluster path: differential properties      *)

(* Cluster-fused execution on a sharded state vs the flat naive
   reference: same amplitudes (<= 1e-12) and the same classical bits,
   over random 2..14-qubit circuits and every cluster width. *)
let prop_cluster_shard_differential =
  QCheck2.Test.make ~count:40
    ~name:"cluster-fused sharded engine matches flat reference"
    QCheck2.Gen.(
      triple (int_range 0 100000) (int_range 2 14)
        (pair (int_range 2 6) (int_range 2 4)))
    (fun (seed, n, (k, lb)) ->
      let c =
        Generate.random ~seed ~two_qubit_fraction:0.3
          ~parametric:(seed mod 2 = 0) ~gates:(5 * n) n
      in
      let st_ref, cl_ref = Ref.run_circuit ~seed c in
      let st_sh, cl_sh =
        with_local_bits lb (fun () -> Qsim.Fusion.run_circuit ~seed ~k c)
      in
      if n > lb && Sv.shard_count st_sh < 2 then
        QCheck2.Test.fail_report "state did not shard";
      if cl_sh <> cl_ref then QCheck2.Test.fail_report "clbits diverge";
      let dev = max_dev st_sh st_ref in
      if dev > 1e-12 then
        QCheck2.Test.fail_reportf "amplitude deviation %g" dev;
      true)

(* Fixed seed => the sampler histogram is bit-identical whether the
   state is flat or sharded, clustered or not. *)
let test_histogram_shard_invariant () =
  let c = measure_all (Generate.random ~seed:19 ~gates:60 ~parametric:true 6) in
  let flat = Qsim.Sampler.sample ~seed:11 ~shots:500 c in
  let sharded =
    with_local_bits 3 (fun () -> Qsim.Sampler.sample ~seed:11 ~shots:500 c)
  in
  check bool_t "sharded histogram bit-identical" true (flat = sharded);
  let sharded_par =
    with_local_bits 2 (fun () ->
        with_pool ~domains:4 ~threshold:16 (fun () ->
            Qsim.Sampler.sample ~seed:11 ~shots:500 c))
  in
  check bool_t "sharded+pooled histogram bit-identical" true (flat = sharded_par)

(* Gates whose qubit span exceeds the shard width: every amplitude
   group straddles shard boundaries. *)
let test_shard_straddling_gates () =
  let n = 6 in
  let st_ref, _ = prep n 91 in
  let ops =
    [
      (Gate.H, [ 5 ]); (Gate.Cx, [ 5; 0 ]); (Gate.Swap, [ 2; 5 ]);
      (Gate.Ccx, [ 1; 3; 5 ]); (Gate.Cp 0.7, [ 4; 2 ]);
    ]
  in
  let c = Generate.random ~seed:91 ~gates:(6 * n) ~parametric:true n in
  let st_sh =
    with_local_bits 2 (fun () ->
        let st, _ = Ref.run_circuit ~seed:91 c in
        check bool_t "sharded" true (Sv.shard_count st > 1);
        List.iter (fun (g, qs) -> Sv.apply st g qs) ops;
        st)
  in
  List.iter (fun (g, qs) -> Ref.apply st_ref g qs) ops;
  let dev = max_dev st_sh st_ref in
  if dev > 1e-12 then
    Alcotest.failf "straddling-gate deviation %g" dev;
  (* a cluster spanning more qubits than the shard width *)
  let u =
    Array.init 8 (fun r ->
        Array.init 8 (fun c -> if c = 7 - r then Complex.one else Complex.zero))
  in
  Sv.apply_cluster st_sh u [| 1; 3; 5 |];
  List.iter
    (fun (g, qs) -> Ref.apply st_ref g qs)
    [ (Gate.X, [ 1 ]); (Gate.X, [ 3 ]); (Gate.X, [ 5 ]) ];
  let dev = max_dev st_sh st_ref in
  if dev > 1e-12 then Alcotest.failf "straddling-cluster deviation %g" dev

(* Mid-circuit register growth across the flat->sharded boundary. *)
let test_add_qubit_across_shard_split () =
  let build apply_ops st =
    apply_ops st [ (Gate.H, [ 0 ]); (Gate.Cx, [ 0; 1 ]) ];
    Sv.ensure_qubits st 5;
    apply_ops st [ (Gate.Cx, [ 1; 4 ]); (Gate.H, [ 4 ]); (Gate.Cz, [ 0; 4 ]) ]
  in
  let st_flat = Sv.create ~seed:3 2 in
  build (fun st -> List.iter (fun (g, qs) -> Ref.apply st g qs)) st_flat;
  let st_sh =
    with_local_bits 3 (fun () ->
        let st = Sv.create ~seed:3 2 in
        check int_t "starts flat" 1 (Sv.shard_count st);
        build (fun st -> List.iter (fun (g, qs) -> Sv.apply st g qs)) st;
        check bool_t "grew across the split" true (Sv.shard_count st > 1);
        st)
  in
  let dev = max_dev st_sh st_flat in
  if dev > 1e-12 then Alcotest.failf "growth deviation %g" dev

(* The checked-access mode re-asserts every unsafe index; it must be
   transparent (and actually run the cluster sweeps). *)
let test_checked_access_path () =
  let c = Generate.random ~seed:55 ~gates:80 ~parametric:false 6 in
  let st_ref, cl_ref = Ref.run_circuit ~seed:55 c in
  let st_chk, cl_chk =
    let c0 = Sv.checked_access () in
    Sv.set_checked_access true;
    Fun.protect
      (fun () ->
        check bool_t "checked mode on" true (Sv.checked_access ());
        with_local_bits 2 (fun () -> Qsim.Fusion.run_circuit ~seed:55 ~k:5 c))
      ~finally:(fun () -> Sv.set_checked_access c0)
  in
  check bool_t "clbits match" true (cl_chk = cl_ref);
  let dev = max_dev st_chk st_ref in
  if dev > 1e-12 then Alcotest.failf "checked-access deviation %g" dev

(* ------------------------------------------------------------------ *)
(* 9. Shot-branching sampler                                            *)

(* A random dynamic circuit over [n] qubits: random gates interleaved
   with up to six mid-circuit measurements (some conditioned), resets
   and gates conditioned on one or two clbits, then terminal
   measurements of up to three qubits into their own clbits. *)
let random_dynamic ~seed n =
  let rng = Rng.create (seed * 31 + 7) in
  let mids = 3 in
  let events = ref 0 in
  let cond () =
    let c1 = Rng.int rng mids in
    let cbits = if Rng.bool rng then [ c1 ] else [ c1; (c1 + 1) mod mids ] in
    { Circuit.cbits; value = Rng.int rng (1 lsl List.length cbits) }
  in
  let base = Generate.random ~seed ~gates:(4 * n) ~parametric:true n in
  let ops =
    List.concat_map
      (fun op ->
        let q = Rng.int rng n in
        let extra =
          match Rng.int rng 10 with
          | 0 when !events < 6 ->
            incr events;
            [ Circuit.measure q (Rng.int rng mids) ]
          | 1 when !events < 6 ->
            incr events;
            [ Circuit.reset q ]
          | 2 when !events < 6 ->
            incr events;
            [ Circuit.measure ~cond:(cond ()) q (Rng.int rng mids) ]
          | 3 | 4 -> [ Circuit.gate ~cond:(cond ()) Gate.X [ q ] ]
          | _ -> []
        in
        op :: extra)
      base.Circuit.ops
  in
  let t = min n 3 in
  Circuit.create ~num_qubits:n ~num_clbits:(mids + t)
    (ops @ List.init t (fun q -> Circuit.measure q (mids + q)))

(* The exact key distribution of [c] by branch enumeration over the
   naive Reference kernels: every measurement and reset forks both
   outcomes with their exact probabilities. *)
let exact_distribution (c : Circuit.t) =
  let key_cl = measured_clbits c in
  let dist = Hashtbl.create 16 in
  let prob_one st q =
    let p = ref 0.0 in
    for i = 0 to Sv.dim st - 1 do
      if i land (1 lsl q) <> 0 then p := !p +. Sv.probability st i
    done;
    !p
  in
  let rec go st clbits ops p =
    match ops with
    | [] ->
      let key =
        String.concat "" (List.map (fun cl -> if clbits.(cl) then "1" else "0") key_cl)
      in
      Hashtbl.replace dist key (p +. Option.value ~default:0.0 (Hashtbl.find_opt dist key))
    | (op : Circuit.op) :: rest when not (Sv.cond_holds clbits op.Circuit.cond) ->
      go st clbits rest p
    | op :: rest -> (
      match op.Circuit.kind with
      | Circuit.Gate (g, qs) ->
        Ref.apply st g qs;
        go st clbits rest p
      | Circuit.Barrier _ -> go st clbits rest p
      | Circuit.Measure (q, _) | Circuit.Reset q ->
        let p1 = prob_one st q in
        List.iter
          (fun outcome ->
            let po = if outcome then p1 else 1.0 -. p1 in
            if po > 1e-12 then begin
              let st' = Sv.copy st and clbits' = Array.copy clbits in
              Sv.collapse st' q outcome po;
              (match op.Circuit.kind with
              | Circuit.Measure (_, cl) -> clbits'.(cl) <- outcome
              | _ -> if outcome then Ref.apply st' Gate.X [ q ]);
              go st' clbits' rest (p *. po)
            end)
          [ false; true ])
  in
  go (Sv.create c.Circuit.num_qubits)
    (Array.make (max c.Circuit.num_clbits 1) false)
    c.Circuit.ops 1.0;
  dist

(* Sampled key frequencies against the exact distribution, at six
   standard deviations per key; every sampled key must be possible. *)
let test_branching_exact () =
  List.iter
    (fun i ->
      let n = 2 + (i mod 9) in
      let c = random_dynamic ~seed:(40 + i) n in
      let shots = 4000 in
      let hist = Qsim.Sampler.sample ~seed:(i + 1) ~shots c in
      let exact = exact_distribution c in
      List.iter
        (fun (k, _) ->
          if not (Hashtbl.mem exact k) then
            Alcotest.failf "circuit %d (%d qubits): impossible key %s" i n k)
        hist;
      Hashtbl.iter
        (fun k p ->
          let f =
            float_of_int (Option.value ~default:0 (List.assoc_opt k hist))
            /. float_of_int shots
          in
          let sd = sqrt (p *. (1.0 -. p) /. float_of_int shots) in
          if Float.abs (f -. p) > (6.0 *. sd) +. (1.0 /. float_of_int shots) then
            Alcotest.failf "circuit %d (%d qubits): key %s sampled %.4f, exact %.4f" i n
              k f p)
        exact)
    (List.init 18 Fun.id)

(* Terminal-measurement circuits (no branch point) whose histograms were
   recorded before the sampler learned to branch: the draws must stay
   byte-identical. Identity, reversed, rotated-subset and identity-prefix
   measurement maps exercise both marginalisation paths. *)
let terminal_corpus () =
  List.init 24 (fun i ->
      let n = 2 + (i mod 11) in
      let base =
        Generate.random ~seed:(100 + i) ~gates:(8 * n) ~parametric:(i mod 2 = 0) n
      in
      let m = (n + 1) / 2 and r = i mod n in
      let meas =
        match i mod 4 with
        | 0 -> List.init n (fun q -> (q, q))
        | 1 -> List.init n (fun q -> (q, n - 1 - q))
        | 2 -> List.init m (fun j -> ((j + r) mod n, j))
        | _ -> List.init m (fun q -> (q, q))
      in
      let c =
        Circuit.create ~num_qubits:n ~num_clbits:n
          (base.Circuit.ops @ List.map (fun (q, cl) -> Circuit.measure q cl) meas)
      in
      (c, 50 + (37 * i), 1 + i))

let pinned_terminal_digests =
  [
    "06ddc39d40b229feddbd35c2475ba2c2";
    "03e496309b68f196ef20f92124318982";
    "0ae0d711f0d7544971c4c1881d9be4e5";
    "9da9d37cf514bb86b8a619f71f8a64fd";
    "b57303d6e4a014fdadba872451e05a0d";
    "f3df88062846073d3cc4838d38dfe968";
    "506b3f836af5317a298e49f30275e8ef";
    "4e56273d883647619aca851d15259b77";
    "47f5a23601aa04a4f3a116587750a889";
    "1bbaae18567edd537c0623946d6028c8";
    "81fabb0af652bc7a968c457981b29534";
    "064dca2bf4e747036f8d7dbb9911708c";
    "4a935ef769f71e5a82b3ae33c54bf7b2";
    "49ebc2e4ae6a8b7a42ee5f512b8b292c";
    "7996c33555ff8a5219ef99ded3224c6b";
    "43225cca2998cd7cb92a59bda9eef685";
    "39c2393926a83ecf1a4475080a97c5d0";
    "c91074f5f46f48160bf2dfb6d6d4f043";
    "c5ccbabf60e22239fd472bce80ea14b6";
    "7ee23b8f13d555a04a3880f939140c29";
    "99f1cc65826cb857d19e1daf37d8b2ae";
    "866566db053bb5ee05013cef05fdf2af";
    "562f073bc72bfd8f7edf2a0317495717";
    "fb0f0c1893cf1390c9efd00f0cd5f1f9";
  ]

let histogram_digest hist =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (k, n) -> k ^ ":" ^ string_of_int n) hist)))

let test_terminal_histograms_pinned () =
  List.iteri
    (fun i ((c, shots, seed), pinned) ->
      check int_t "no branch point" 0 (branch_points c);
      check Alcotest.string
        (Printf.sprintf "terminal circuit %d" i)
        pinned
        (histogram_digest (Qsim.Sampler.sample ~seed ~shots c)))
    (List.combine (terminal_corpus ()) pinned_terminal_digests)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* The walker's own counters: at most min(2^k, shots) leaves and
   min(k, floor(log2 shots)) + 1 live states. *)
let test_branching_live_states () =
  List.iter
    (fun i ->
      let c = random_dynamic ~seed:(70 + i) (2 + (i mod 6)) in
      let plan = Qsim.Sampler.prepare c in
      let k = Qsim.Sampler.branch_points plan in
      List.iter
        (fun shots ->
          let hist, st = Qsim.Sampler.run ~seed:i ~shots plan in
          check int_t "every shot drawn" shots
            (List.fold_left (fun a (_, n) -> a + n) 0 hist);
          if st.Qsim.Sampler.peak_states > min k (log2 shots) + 1 then
            Alcotest.failf "k=%d shots=%d: %d live states" k shots
              st.Qsim.Sampler.peak_states;
          if st.Qsim.Sampler.branches > min (1 lsl min k 30) shots then
            Alcotest.failf "k=%d shots=%d: %d branches" k shots st.Qsim.Sampler.branches)
        [ 1; 2; 7; 64; 1000 ])
    (List.init 12 Fun.id);
  (* a chain of fair coins: k mid-circuit measurements of |+>, each
     followed by a reset (2k branch points, the resets never split) *)
  let coins k =
    let b = Circuit.Build.create ~num_qubits:1 ~num_clbits:k () in
    for j = 0 to k - 1 do
      Circuit.Build.gate b Gate.H [ 0 ];
      Circuit.Build.measure b 0 j;
      Circuit.Build.reset b 0
    done;
    Qsim.Sampler.prepare (Circuit.Build.finish b)
  in
  let _, st = Qsim.Sampler.run ~shots:4096 (coins 5) in
  check int_t "all 2^k measurement histories" 32 st.Qsim.Sampler.branches;
  (* the stop probe is polled at branch points only *)
  (match Qsim.Sampler.run ~stop:(fun () -> true) ~shots:8 (coins 1) with
  | _ -> Alcotest.fail "stop probe ignored at a branch point"
  | exception Qsim.Sampler.Stopped -> ());
  check int_t "no branch point, no poll" 1
    (snd
       (Qsim.Sampler.run ~stop:(fun () -> true) ~shots:8
          (Qsim.Sampler.prepare (Generate.bell ()))))
      .Qsim.Sampler.branches;
  (* deeper than log2 shots: the smaller-child-first order keeps the
     live states at log2 shots + 1, not k + 1 *)
  List.iter
    (fun seed ->
      let _, st = Qsim.Sampler.run ~seed ~shots:64 (coins 14) in
      if st.Qsim.Sampler.peak_states > 7 then
        Alcotest.failf "seed %d: %d live states for 64 shots" seed
          st.Qsim.Sampler.peak_states)
    [ 1; 2; 3 ]

(* Adaptive QIR through the executor: the batched tier answers, a hot
   run (plan cached) equals the cold one, and no bytecode is compiled. *)
let test_branching_hot_equals_cold () =
  List.iter
    (fun addressing ->
      let b = Circuit.Build.create ~num_qubits:3 ~num_clbits:4 () in
      Circuit.Build.gate b Gate.H [ 0 ];
      Circuit.Build.gate b Gate.Cx [ 0; 1 ];
      Circuit.Build.measure b 0 3;
      Circuit.Build.gate b ~cond:{ Circuit.cbits = [ 3 ]; value = 1 } Gate.X [ 2 ];
      Circuit.Build.gate b Gate.H [ 0 ];
      for q = 0 to 2 do
        Circuit.Build.measure b q q
      done;
      let m = Qir.Qir_builder.build ~addressing (Circuit.Build.finish b) in
      let session = Qruntime.Executor.Session.create () in
      let run () = Qruntime.Executor.run_shots_resilient ~session ~seed:4 ~shots:300 m in
      let cold = run () and hot = run () in
      check bool_t "batched" true (cold.Qruntime.Executor.batched && hot.Qruntime.Executor.batched);
      check int_t "two branches" 2 cold.Qruntime.Executor.branches;
      check bool_t "hot equals cold" true
        (cold.Qruntime.Executor.histogram = hot.Qruntime.Executor.histogram);
      let s = Qruntime.Executor.Session.cache_stats session in
      check int_t "one plan" 1 s.Qruntime.Executor.Session.plan_misses;
      check int_t "one plan hit" 1 s.Qruntime.Executor.Session.plan_hits;
      check int_t "no bytecode compiled" 0 s.Qruntime.Executor.Session.compile_misses;
      (* qubit 2 copies qubit 1 = the mid-circuit bit: keys read bit 3 *)
      List.iter
        (fun (key, _) ->
          check bool_t ("mid bit drives the feedback in " ^ key) true (key.[1] = key.[2] && key.[1] = key.[3]))
        cold.Qruntime.Executor.histogram)
    [ `Static; `Dynamic ]

let suite =
  [
    Alcotest.test_case "gate kernels vs reference" `Quick
      test_kernels_vs_reference;
    Alcotest.test_case "operand validation" `Quick test_operand_validation;
    Alcotest.test_case "random circuits vs reference" `Quick
      test_random_circuits_vs_reference;
    Alcotest.test_case "fusion vs reference" `Quick test_fusion_vs_reference;
    Alcotest.test_case "fusion with measurements" `Quick
      test_fusion_with_measurements;
    Alcotest.test_case "fusion on QFT" `Quick test_fusion_qft;
    Alcotest.test_case "parallel kernels (forced pool)" `Quick
      test_parallel_kernels;
    Alcotest.test_case "parallel reductions" `Quick test_parallel_reductions;
    Alcotest.test_case "parallel measure/collapse" `Quick
      test_parallel_measure_collapse;
    Alcotest.test_case "dpool coverage and reduce" `Quick test_dpool_coverage;
    Alcotest.test_case "dpool exception propagation" `Quick
      test_dpool_exception;
    Alcotest.test_case "prob_one clamped" `Quick test_prob_one_clamped;
    Alcotest.test_case "collapse near-zero branch" `Quick
      test_collapse_near_zero_branch;
    Alcotest.test_case "measure deterministic qubit" `Quick
      test_measure_deterministic_qubit;
    Alcotest.test_case "batchable classification" `Quick test_batchable;
    Alcotest.test_case "batched matches per-shot" `Quick
      test_batched_matches_per_shot;
    Alcotest.test_case "batched sampler vs exact distribution" `Quick
      test_batched_sampler_vs_direct;
    Alcotest.test_case "batched path matches recorded-output order" `Quick
      test_batched_deterministic_permutation;
    QCheck_alcotest.to_alcotest prop_cluster_shard_differential;
    Alcotest.test_case "histogram invariant under sharding" `Quick
      test_histogram_shard_invariant;
    Alcotest.test_case "shard-straddling gates" `Quick
      test_shard_straddling_gates;
    Alcotest.test_case "add_qubit across the shard split" `Quick
      test_add_qubit_across_shard_split;
    Alcotest.test_case "checked-access mode" `Quick test_checked_access_path;
    Alcotest.test_case "branching sampler vs exact enumeration" `Quick
      test_branching_exact;
    Alcotest.test_case "terminal histograms pinned (k = 0)" `Quick
      test_terminal_histograms_pinned;
    Alcotest.test_case "branching live-state bound" `Quick
      test_branching_live_states;
    Alcotest.test_case "branching: hot run equals cold" `Quick
      test_branching_hot_equals_cold;
  ]
