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

let fuzzed () =
  let total = ref 0 in
  for i = 0 to 29 do
    let seed = 4100 + i in
    let n = 2 + (i mod 4) in
    List.iter
      (fun parametric ->
        let c =
          Smoke_corpus.with_measurements
            (Generate.random ~seed ~parametric ~gates:14 n)
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

(* ------------------------------------------------------------------ *)
(* Pinned outputs: one digest over every certificate, lint finding list
   and rewritten text of a fixed corpus — this smoke's modules,
   fault_smoke's fuzzed circuits and their verified static, dynamic and
   classical mutations, the examples and a set of alloca-based branching
   programs (with mutations of their own). A refactor of the analyses
   or passes must leave the digest as pinned; a change that means to
   alter an output re-pins it and says why. *)

let pinned_digest = "77a2abf5e8e41db4ad363163e7a2dbba"

(* Alloca-based control flow, so mem2reg places phis at dominance
   frontiers and renames over the dominator tree: the paper's Ex. 4
   loop, a measured diamond, nested loops, a loop with two latches and
   a switch with shared targets, and a chain of diamonds. *)
let branching_corpus =
  let diamonds k =
    String.concat ""
      (List.init k (fun j ->
           Printf.sprintf
             "d%d:\n\
             \  call void @__quantum__qis__h__body(ptr inttoptr (i64 %d to ptr))\n\
             \  call void @__quantum__qis__mz__body(ptr inttoptr (i64 %d to ptr), ptr inttoptr (i64 %d to ptr))\n\
             \  %%r%d = call i1 @__quantum__qis__read_result__body(ptr inttoptr (i64 %d to ptr))\n\
             \  br i1 %%r%d, label %%t%d, label %%j%d\n\
              t%d:\n\
             \  store i64 %d, ptr %%acc\n\
             \  call void @__quantum__qis__x__body(ptr inttoptr (i64 %d to ptr))\n\
             \  br label %%j%d\n\
              j%d:\n\
             \  %%v%d = load i64, ptr %%acc\n\
             \  %%w%d = add i64 %%v%d, 1\n\
             \  store i64 %%w%d, ptr %%acc\n\
             \  br label %%d%d\n"
             j (j mod 3) (j mod 3) j j j j j j j j (j mod 3) j j j j j j (j + 1)))
  in
  let prelude =
    "declare void @__quantum__qis__h__body(ptr)\n\
     declare void @__quantum__qis__x__body(ptr)\n\
     declare void @__quantum__qis__mz__body(ptr, ptr)\n\
     declare i1 @__quantum__qis__read_result__body(ptr)\n\
     declare void @__quantum__rt__result_record_output(ptr, ptr)\n\n"
  in
  [
    prelude
    ^ "define void @main() \"entry_point\" {\nentry:\n\
      \  %i = alloca i32, align 4\n  store i32 0, ptr %i, align 4\n\
      \  br label %for.header\nfor.header:\n\
      \  %1 = load i32, ptr %i, align 4\n  %cond = icmp slt i32 %1, 10\n\
      \  br i1 %cond, label %body, label %exit\nbody:\n\
      \  %2 = load i32, ptr %i, align 4\n  %idx = sext i32 %2 to i64\n\
      \  %qb = inttoptr i64 %idx to ptr\n\
      \  call void @__quantum__qis__h__body(ptr %qb)\n\
      \  %3 = load i32, ptr %i, align 4\n  %4 = add nsw i32 %3, 1\n\
      \  store i32 %4, ptr %i, align 4\n  br label %for.header\nexit:\n\
      \  ret void\n}\n";
    prelude
    ^ "define void @main() \"entry_point\" {\nentry:\n\
      \  %s = alloca i64\n  store i64 0, ptr %s\n\
      \  call void @__quantum__qis__h__body(ptr null)\n\
      \  call void @__quantum__qis__mz__body(ptr null, ptr null)\n\
      \  %r = call i1 @__quantum__qis__read_result__body(ptr null)\n\
      \  br i1 %r, label %then, label %else\nthen:\n\
      \  store i64 1, ptr %s\n  br label %join\nelse:\n\
      \  store i64 2, ptr %s\n  br label %join\njoin:\n\
      \  %v = load i64, ptr %s\n  %q = inttoptr i64 %v to ptr\n\
      \  call void @__quantum__qis__x__body(ptr %q)\n\
      \  call void @__quantum__qis__mz__body(ptr %q, ptr inttoptr (i64 1 to ptr))\n\
      \  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)\n\
      \  ret void\n}\n";
    prelude
    ^ "define void @main() \"entry_point\" {\nentry:\n\
      \  %i = alloca i64\n  %j = alloca i64\n  store i64 0, ptr %i\n\
      \  br label %outer\nouter:\n  %a = load i64, ptr %i\n\
      \  %c = icmp slt i64 %a, 3\n  br i1 %c, label %init, label %exit\n\
       init:\n  store i64 0, ptr %j\n  br label %inner\ninner:\n\
      \  %b = load i64, ptr %j\n  %d = icmp slt i64 %b, 2\n\
      \  br i1 %d, label %ibody, label %onext\nibody:\n\
      \  %q = inttoptr i64 %b to ptr\n\
      \  call void @__quantum__qis__h__body(ptr %q)\n\
      \  %b1 = add i64 %b, 1\n  store i64 %b1, ptr %j\n  br label %inner\n\
       onext:\n  %a1 = add i64 %a, 1\n  store i64 %a1, ptr %i\n\
      \  br label %outer\nexit:\n  ret void\n}\n";
    prelude
    ^ "define void @main() \"entry_point\" {\nentry:\n\
      \  %n = alloca i64\n  store i64 0, ptr %n\n  br label %head\nhead:\n\
      \  %k = load i64, ptr %n\n  %more = icmp ult i64 %k, 6\n\
      \  br i1 %more, label %body, label %exit\nbody:\n\
      \  %odd = and i64 %k, 1\n\
      \  switch i64 %odd, label %skip [ i64 0, label %gate i64 1, label %skip ]\n\
       gate:\n  call void @__quantum__qis__h__body(ptr null)\n\
      \  %k2 = add i64 %k, 1\n  store i64 %k2, ptr %n\n  br label %head\n\
       skip:\n  %k3 = add i64 %k, 1\n  store i64 %k3, ptr %n\n\
      \  br label %head\nexit:\n  ret void\n}\n";
    prelude
    ^ "define void @main() \"entry_point\" {\nentry:\n\
      \  %acc = alloca i64\n  store i64 0, ptr %acc\n  br label %d0\n"
    ^ diamonds 6
    ^ "d6:\n  %fin = load i64, ptr %acc\n  %fq = inttoptr i64 %fin to ptr\n\
      \  call void @__quantum__qis__x__body(ptr %fq)\n  ret void\n}\n";
  ]

let examples_dir = "examples"

let example_modules () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ll")
  |> List.sort compare
  |> List.map (fun f ->
         Llvm_ir.Parser.parse_module
           (In_channel.with_open_bin (Filename.concat examples_dir f)
              In_channel.input_all))

(* Every module the digest reads, in a fixed order. *)
let digest_corpus () =
  let parse = Llvm_ir.Parser.parse_module in
  let fuzz =
    List.concat_map
      (fun i ->
        let seed = 4100 + i and n = 2 + (i mod 4) in
        List.concat_map
          (fun parametric ->
            let c =
              Smoke_corpus.with_measurements
                (Generate.random ~seed ~parametric ~gates:14 n)
            in
            List.map
              (fun addressing -> Qir.Qir_builder.build ~addressing c)
              [ `Static; `Dynamic ])
          [ false; true ])
      (List.init 30 Fun.id)
  in
  let fixtures =
    List.concat_map
      (fun trip -> [ parse (loop_src trip); parse (callee_loop_src trip) ])
      [ 1; 2; 3; 5; 8; 13 ]
    @ List.map (fun (_, src) -> parse src) narrow_loops
    @ List.map (fun k -> parse (big_src k)) [ 1; 26; 27; 28; 29 ]
  in
  let texts addressing =
    List.filter_map
      (fun i ->
        match Smoke_corpus.fault_circuit i with
        | c -> Some (Qir.Qir_builder.to_string ~addressing c)
        | exception _ -> None)
      (List.init Smoke_corpus.circuits Fun.id)
  in
  let branching = List.map parse branching_corpus in
  List.iter
    (fun m ->
      if Llvm_ir.Verifier.check_module m <> [] then
        fail "digest: a branching corpus program does not verify")
    branching;
  fuzz @ fixtures @ example_modules () @ branching
  @ Smoke_corpus.verified_mutations ~seed:Smoke_corpus.static_seed
      (texts `Static)
  @ Smoke_corpus.verified_mutations ~seed:Smoke_corpus.dynamic_seed
      (texts `Dynamic)
  @ Smoke_corpus.verified_mutations ~seed:Smoke_corpus.classical_seed
      Smoke_corpus.classical_corpus
  @ Smoke_corpus.verified_mutations ~count:500 ~seed:2028 branching_corpus

(* What the digest reads of one module: its certificate, its lint
   findings, and its text after each rewrite ([qirc --pass], [-O],
   [--lower]); an exception is read as its text. *)
let outputs (m : Llvm_ir.Ir_module.t) =
  let guard f = try f () with e -> "raised " ^ Printexc.to_string e in
  let print m = Llvm_ir.Printer.module_to_string m in
  let analyses () = Qir_analysis.Analyses.of_module m in
  guard (fun () ->
      Jsonx.to_string (Resource.to_json (Resource.certify (analyses ()))))
  :: guard (fun () ->
         Jsonx.to_string
           (Qir_analysis.Diagnostic.json_document
              (Qir_analysis.Lint.run (analyses ()))))
  :: guard (fun () ->
         Jsonx.to_string
           (Qir_analysis.Diagnostic.json_document
              (Qir_analysis.Lint.run ~ipo:false (analyses ()))))
  :: guard (fun () -> print (Passes.Pipeline.optimize m))
  :: guard (fun () -> print (Qir.Lowering.lower_module m))
  :: List.map
       (fun pass -> guard (fun () -> print (Qir_analysis.Pass_table.run pass m)))
       [ "simplify-cfg"; "mem2reg"; "loop-unroll"; "quantum-opt"; "sccp" ]

let output_digest () =
  let corpus = digest_corpus () in
  let buf = Buffer.create 4096 in
  List.iter
    (fun m ->
      List.iter (fun s -> Buffer.add_string buf (Digest.string s)) (outputs m))
    corpus;
  let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Printf.printf "resource smoke: output digest over %d modules: %s\n"
    (List.length corpus) d;
  if d <> pinned_digest then
    fail "output digest %s differs from the pinned %s" d pinned_digest

let () =
  let n_fuzz = fuzzed () in
  let n_fix = fixtures () in
  let n_rej = rejections () in
  Printf.printf
    "resource smoke: %d fuzzed + %d loop/call fixtures certified sound, %d \
     certificate-first rejections\n"
    n_fuzz n_fix n_rej;
  output_digest ();
  if !failures > 0 then begin
    Printf.eprintf "resource smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "resource smoke: ok"
