(* Resource-certification smoke: the soundness gate for the static
   resource analysis. 120+ fuzzed modules (30 seeds x 2 addressing
   styles x {plain, parametric}) plus counted-loop and interprocedural
   fixtures (i8 and i16 counters among them, with and without a wrap)
   are certified and then actually executed; for every module
   the interpreter-measured register size, gate count and measurement
   count must fall inside the certified [lo, hi] interval. One
   violation anywhere fails the run — an unsound bound is a broken
   proof, not a statistic.

   A second gate seeds modules whose *lower* bound is proven huge
   (static gates on high qubit indices) and checks that admission
   control rejects them on the certificate alone — before any
   compilation — with the stable overload taxonomy (exit 8).

   Used by CI:  dune exec test/smoke/resource_smoke.exe *)

open Qcircuit
module Resource = Qir_analysis.Resource

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "FAIL: %s\n" msg)
    fmt

(* ------------------------------------------------------------------ *)
(* Execution-side measurement: run the module once on the statevector
   backend and read the runtime's ground truth. *)

let measure ~seed (m : Llvm_ir.Ir_module.t) =
  let f =
    match Llvm_ir.Ir_module.entry_point m with
    | Some f -> f
    | None -> failwith "module has no entry point"
  in
  let inst =
    Qsim.Backend.create_instance ~seed `Statevector (Names.declared_qubits f)
  in
  let rt = Qruntime.Runtime.create inst in
  let externals = Qruntime.Runtime.externals rt in
  let entry = f.Llvm_ir.Func.name in
  let st = Llvm_ir.Interp.create ~externals m in
  ignore (Llvm_ir.Interp.run_function st entry []);
  let stats = Qruntime.Runtime.stats rt in
  ( rt.Qruntime.Runtime.ops.Qruntime.Runtime.bnum_qubits (),
    stats.Qruntime.Runtime.gate_calls,
    stats.Qruntime.Runtime.measurements )

let in_iv what tag measured (iv : Resource.iv) =
  if measured < iv.Resource.lo then
    fail "%s: measured %s %d below certified lower bound %d" tag what measured
      iv.Resource.lo;
  match iv.Resource.hi with
  | Resource.Fin hi when measured > hi ->
    fail "%s: measured %s %d above certified upper bound %d" tag what measured
      hi
  | Resource.Fin _ | Resource.Inf -> ()

let check_sound ~seed tag (m : Llvm_ir.Ir_module.t) =
  try
    let cert = Resource.certify (Qir_analysis.Analyses.of_module m) in
    let qubits, gates, measures = measure ~seed m in
    in_iv "qubits" tag qubits cert.Resource.qubits;
    in_iv "gates" tag gates cert.Resource.gates;
    in_iv "measures" tag measures cert.Resource.measures;
    (* internal consistency: T gates are gates; depth never exceeds the
       serial gate count *)
    (match (cert.Resource.t_count.Resource.hi, cert.Resource.gates.Resource.hi)
    with
    | Resource.Fin t, Resource.Fin g when t > g ->
      fail "%s: t-count bound %d exceeds gate bound %d" tag t g
    | _ -> ());
    match (cert.Resource.depth.Resource.hi, cert.Resource.gates.Resource.hi)
    with
    | Resource.Fin d, Resource.Fin g when d > g ->
      fail "%s: depth bound %d exceeds gate bound %d" tag d g
    | _ -> ()
  with e -> fail "%s: exception %s" tag (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Fuzzed corpus: generated circuits, terminal measurements on every
   qubit, both addressing styles. *)

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

let fuzzed () =
  let total = ref 0 in
  for i = 0 to 29 do
    let seed = 4100 + i in
    let n = 2 + (i mod 4) in
    List.iter
      (fun parametric ->
        let c =
          with_measurements (Generate.random ~seed ~parametric ~gates:14 n)
        in
        List.iter
          (fun addressing ->
            incr total;
            let tag =
              Printf.sprintf "fuzz seed %d n %d %s%s" seed n
                (match addressing with
                | `Static -> "static"
                | `Dynamic -> "dynamic")
                (if parametric then " parametric" else "")
            in
            check_sound ~seed tag (Qir.Qir_builder.build ~addressing c))
          [ `Static; `Dynamic ])
      [ false; true ]
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Counted-loop and interprocedural fixtures: the measured gate count
   equals the trip count exactly, so these double as precision checks —
   the certified gate interval must be finite. *)

let loop_src trip =
  Printf.sprintf
    "declare void @__quantum__qis__h__body(ptr)\n\
     define void @main() \"entry_point\" {\n\
     entry:\n\
    \  br label %%h\n\
     h:\n\
    \  %%i = phi i64 [ 0, %%entry ], [ %%n, %%b ]\n\
    \  %%c = icmp slt i64 %%i, %d\n\
    \  br i1 %%c, label %%b, label %%x\n\
     b:\n\
    \  call void @__quantum__qis__h__body(ptr inttoptr (i64 1 to ptr))\n\
    \  %%n = add i64 %%i, 1\n\
    \  br label %%h\n\
     x:\n\
    \  ret void\n\
     }"
    trip

let callee_loop_src trip =
  Printf.sprintf
    "declare void @__quantum__qis__h__body(ptr)\n\
     declare void @__quantum__qis__t__body(ptr)\n\
     define void @flip(ptr %%q) {\n\
     entry:\n\
    \  call void @__quantum__qis__h__body(ptr %%q)\n\
    \  call void @__quantum__qis__t__body(ptr %%q)\n\
    \  ret void\n\
     }\n\
     define void @main() \"entry_point\" {\n\
     entry:\n\
    \  br label %%h\n\
     h:\n\
    \  %%i = phi i64 [ 0, %%entry ], [ %%n, %%b ]\n\
    \  %%c = icmp slt i64 %%i, %d\n\
    \  br i1 %%c, label %%b, label %%x\n\
     b:\n\
    \  call void @flip(ptr inttoptr (i64 2 to ptr))\n\
    \  %%n = add i64 %%i, 1\n\
    \  br label %%h\n\
     x:\n\
    \  ret void\n\
     }"
    trip

let check_fixture ~seed tag src =
  let m = Llvm_ir.Parser.parse_module src in
  check_sound ~seed tag m;
  (* precision: a proven trip count must make the gate bound finite *)
  let cert = Resource.certify (Qir_analysis.Analyses.of_module m) in
  match cert.Resource.gates.Resource.hi with
  | Resource.Inf -> fail "%s: gate bound not finite" tag
  | Resource.Fin _ -> ()

(* An unsigned counted loop at a narrow type [ty], from 0 by [step]
   while below [bound]: its counter wraps at [ty]'s width when [bound]
   is within [step] of it. *)
let narrow_loop_src ty bound step =
  Printf.sprintf
    "declare void @__quantum__qis__h__body(ptr)\n\
     define void @main() \"entry_point\" {\n\
     entry:\n\
    \  br label %%h\n\
     h:\n\
    \  %%i = phi %s [ 0, %%entry ], [ %%n, %%b ]\n\
    \  %%c = icmp ult %s %%i, %d\n\
    \  br i1 %%c, label %%b, label %%x\n\
     b:\n\
    \  call void @__quantum__qis__h__body(ptr inttoptr (i64 1 to ptr))\n\
    \  %%n = add %s %%i, %d\n\
    \  br label %%h\n\
     x:\n\
    \  ret void\n\
     }"
    ty ty bound ty step

(* kind, source: 4 and 6 iterations without a wrap; 11 and 18 with one
   (an unwrapped count reads 6 and 2) *)
let narrow_loops =
  [
    ("i8 loop", narrow_loop_src "i8" 200 50);
    ("i8 wrapping loop", narrow_loop_src "i8" 224 44);
    ("i16 loop", narrow_loop_src "i16" 60000 10000);
    ("i16 wrapping loop", narrow_loop_src "i16" 64000 40000);
  ]

let fixtures () =
  let total = ref 0 in
  List.iter
    (fun trip ->
      List.iter
        (fun (kind, src) ->
          incr total;
          let tag = Printf.sprintf "%s trip %d" kind trip in
          check_fixture ~seed:(trip + 1) tag src)
        [ ("loop", loop_src trip); ("call-loop", callee_loop_src trip) ])
    [ 1; 2; 3; 5; 8; 13 ];
  List.iter
    (fun (tag, src) ->
      incr total;
      check_fixture ~seed:1 tag src)
    narrow_loops;
  !total

(* ------------------------------------------------------------------ *)
(* Lower-bound early rejection: a static gate on qubit index K proves a
   (K+1)-qubit register on every path; under a budget below that
   footprint, admission must reject on the certificate alone. *)

let big_src k =
  Printf.sprintf
    "declare void @__quantum__qis__h__body(ptr)\n\
     define void @main() \"entry_point\" {\n\
     entry:\n\
    \  call void @__quantum__qis__h__body(ptr inttoptr (i64 %d to ptr))\n\
    \  ret void\n\
     }"
    k

let contains ~needle hay =
  let n = String.length needle and l = String.length hay in
  let rec scan i = i + n <= l && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let rejections () =
  let total = ref 0 in
  let budget = 1 lsl 30 (* 1 GiB: fits 26 qubits, not 27 *) in
  List.iter
    (fun k ->
      incr total;
      let tag = Printf.sprintf "reject k %d" k in
      let m = Llvm_ir.Parser.parse_module (big_src k) in
      let cert = Resource.certify (Qir_analysis.Analyses.of_module m) in
      if Resource.qubits_lower cert <> k + 1 then
        fail "%s: expected proven lower bound %d, got %d" tag (k + 1)
          (Resource.qubits_lower cert);
      match Qservice.Admission.check ~cert ~budget ~backend:`Statevector m with
      | Ok _ -> fail "%s: admitted a proven %d-qubit job under 1 GiB" tag (k + 1)
      | Error e ->
        if Qruntime.Qir_error.exit_code e <> 8 then
          fail "%s: expected exit 8, got %d" tag
            (Qruntime.Qir_error.exit_code e);
        if not (contains ~needle:"before compile" e.Qruntime.Qir_error.message)
        then fail "%s: rejection not certificate-first: %s" tag
            e.Qruntime.Qir_error.message)
    [ 26; 27; 28; 29 ];
  (* control: a small module under the same budget sails through *)
  let m = Llvm_ir.Parser.parse_module (big_src 1) in
  let cert = Resource.certify (Qir_analysis.Analyses.of_module m) in
  (match Qservice.Admission.check ~cert ~budget ~backend:`Statevector m with
  | Ok v ->
    if v.Qservice.Admission.v_qubits <> 2 then
      fail "control: charged %d qubits, expected 2" v.Qservice.Admission.v_qubits
  | Error e ->
    fail "control: small module rejected: %s" e.Qruntime.Qir_error.message);
  !total

let () =
  let n_fuzz = fuzzed () in
  let n_fix = fixtures () in
  let n_rej = rejections () in
  Printf.printf
    "resource smoke: %d fuzzed + %d loop/call fixtures certified sound, %d \
     certificate-first rejections\n"
    n_fuzz n_fix n_rej;
  if !failures > 0 then begin
    Printf.eprintf "resource smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "resource smoke: ok"
