(* Tests for the bytecode engine: compile-once programs must be
   observably identical to the AST interpreter — same values, stats,
   fuel accounting, deadline behaviour and error strings — and the
   gate-tape fast path must fire exactly when the analyses prove the
   program static, with bit-identical histograms. *)

open Llvm_ir

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let value_to_string : Interp.value -> string = function
  | Interp.VInt (ty, n) -> Printf.sprintf "%s %Ld" (Ty.to_string ty) n
  | Interp.VFloat f -> Printf.sprintf "double %h" f
  | Interp.VPtr a -> Printf.sprintf "ptr 0x%Lx" a
  | Interp.VVoid -> "void"

let stats_to_string (s : Interp.stats) =
  Printf.sprintf "instr=%d ext=%d int=%d blocks=%d" s.Interp.instructions
    s.Interp.external_calls s.Interp.internal_calls s.Interp.blocks_entered

(* Runs [entry] under both engines and returns (result-or-error,
   stats) per engine, errors as strings so messages can be compared. *)
let both ?fuel ?deadline ?(externals = []) text entry =
  let outcome create run stats =
    let st = create () in
    let r =
      match run st with
      | v -> Printf.sprintf "ok: %s" (value_to_string v)
      | exception Ir_error.Exec_error msg -> Printf.sprintf "exec: %s" msg
      | exception Ir_error.Timeout_error msg ->
        Printf.sprintf "timeout: %s" msg
      | exception Invalid_argument msg -> Printf.sprintf "invalid: %s" msg
    in
    (r, stats_to_string (stats st))
  in
  let m = Parser.parse_module text in
  let a =
    outcome
      (fun () -> Interp.create ?fuel ?deadline ~externals m)
      (fun st -> Interp.run_function st entry [])
      Interp.stats
  in
  let prog = Bytecode.compile m in
  let b =
    outcome
      (fun () -> Bc_exec.create ?fuel ?deadline ~externals prog)
      (fun st -> Bc_exec.run_function st entry [])
      Bc_exec.stats
  in
  (a, b)

let check_parity ?fuel ?deadline ?externals ~name text entry =
  let (ra, sa), (rb, sb) = both ?fuel ?deadline ?externals text entry in
  check string_t (name ^ ": result") ra rb;
  check string_t (name ^ ": stats") sa sb;
  (ra, sa)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                             *)

(* Parallel phi moves: the classic swap loop — naive in-order phi
   assignment computes (b, b) instead of (b, a). *)
let phi_swap_qir =
  {|
define i64 @main() {
entry:
  br label %loop

loop:
  %a = phi i64 [ 1, %entry ], [ %b, %loop ]
  %b = phi i64 [ 2, %entry ], [ %a, %loop ]
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i64 %i, 1
  %done = icmp eq i64 %i1, 5
  br i1 %done, label %exit, label %loop

exit:
  %r = mul i64 %a, 10
  %s = add i64 %r, %b
  ret i64 %s
}
|}

(* select / switch / gep / load / store in one program. *)
let classical_mix_qir =
  {|
define i64 @main() {
entry:
  %buf = alloca [4 x i64], align 8
  %p0 = getelementptr [4 x i64], ptr %buf, i64 0, i64 0
  store i64 11, ptr %p0, align 8
  %p2 = getelementptr [4 x i64], ptr %buf, i64 0, i64 2
  store i64 22, ptr %p2, align 8
  %v = load i64, ptr %p2, align 8
  %c = icmp sgt i64 %v, 11
  %sel = select i1 %c, i64 2, i64 0
  switch i64 %sel, label %other [
    i64 0, label %zero
    i64 2, label %two
  ]

zero:
  ret i64 -1

two:
  %w = load i64, ptr %p0, align 8
  %s = add i64 %w, %v
  ret i64 %s

other:
  ret i64 -2
}
|}

(* A tight arithmetic loop with an internal call: enough instructions
   that fuel boundaries land everywhere interesting. *)
let loop_qir =
  {|
define i64 @double(i64 %x) {
entry:
  %r = add i64 %x, %x
  ret i64 %r
}

define i64 @main() {
entry:
  br label %loop

loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc1, %loop ]
  %d = call i64 @double(i64 %i)
  %acc1 = add i64 %acc, %d
  %i1 = add i64 %i, 1
  %done = icmp eq i64 %i1, 10
  br i1 %done, label %exit, label %loop

exit:
  ret i64 %acc
}
|}

let div_by_zero_qir =
  {|
define i64 @main() {
entry:
  %z = sub i64 1, 1
  %d = sdiv i64 7, %z
  ret i64 %d
}
|}

let missing_external_qir =
  {|
declare void @mystery(i64)

define void @main() {
entry:
  call void @mystery(i64 3)
  ret void
}
|}

(* ------------------------------------------------------------------ *)
(* Engine parity                                                        *)

let test_phi_swap () =
  let r, _ = check_parity ~name:"phi swap" phi_swap_qir "main" in
  (* after 5 iterations the pair has swapped back to a=1, b=2 *)
  check string_t "value" "ok: i64 12" r

let test_classical_mix () =
  let r, _ = check_parity ~name:"mix" classical_mix_qir "main" in
  check string_t "value" "ok: i64 33" r

let test_loop () =
  let r, _ = check_parity ~name:"loop" loop_qir "main" in
  (* exit returns the phi's value on the final iteration: 2*(0+..+8) *)
  check string_t "value" "ok: i64 72" r

(* Inlining the call in a block that loops to itself: the split's head
   keeps the block's phis, whose back-edge entries must now name the
   suffix that ends the loop body. *)
let test_inline_self_loop () =
  let m = Parser.parse_module loop_qir in
  let m', changed =
    (Passes.Pass.of_func_pass Passes.Inline.pass).Passes.Pass.mrun m
  in
  check bool_t "inlined" true changed;
  check (Alcotest.list string_t) "verifies" []
    (List.map
       (Format.asprintf "%a" Verifier.pp_violation)
       (Verifier.check_module m'));
  let value m =
    value_to_string
      (Interp.run_function (Interp.create ~externals:[] m) "main" [])
  in
  check string_t "same value" (value m) (value m')

let test_div_by_zero () =
  let r, _ = check_parity ~name:"sdiv 0" div_by_zero_qir "main" in
  check bool_t "is exec error" true
    (String.length r >= 5 && String.sub r 0 5 = "exec:")

let test_missing_external () =
  let r, _ = check_parity ~name:"missing ext" missing_external_qir "main" in
  check string_t "error" "exec: call to external function @mystery with no \
                          implementation" r

let test_missing_function () =
  let (ra, _), (rb, _) = both loop_qir "nope" in
  check string_t "missing function" ra rb

(* Every fuel value from 0 to past completion: the two engines must
   either both succeed or both fail with the identical message. *)
let test_fuel_boundary () =
  for fuel = 0 to 90 do
    let name = Printf.sprintf "fuel=%d" fuel in
    ignore (check_parity ~fuel ~name loop_qir "main")
  done

(* A deterministic counting deadline (polled every 128 instructions)
   must trip at the identical instruction in both engines. *)
let test_deadline_parity () =
  let deep =
    {|
define i64 @main() {
entry:
  br label %loop

loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i64 %i, 1
  %done = icmp eq i64 %i1, 100000
  br i1 %done, label %exit, label %loop

exit:
  ret i64 %i1
}
|}
  in
  let make_deadline () =
    let polls = ref 0 in
    fun () ->
      incr polls;
      !polls > 2
  in
  let m = Parser.parse_module deep in
  let run_a () =
    let st = Interp.create ~deadline:(make_deadline ()) m in
    match Interp.run_function st "main" [] with
    | _ -> "no timeout"
    | exception Ir_error.Timeout_error msg -> msg
  in
  let run_b () =
    let prog = Bytecode.compile m in
    let st = Bc_exec.create ~deadline:(make_deadline ()) prog in
    match Bc_exec.run_function st "main" [] with
    | _ -> "no timeout"
    | exception Ir_error.Timeout_error msg -> msg
  in
  let a = run_a () and b = run_b () in
  check bool_t "timed out" true (a <> "no timeout");
  check string_t "same timeout point" a b

(* Differential property: random circuits through the full QIR path
   produce identical outputs, results and stats under the production
   executor and the reference interpreter. *)
let prop_engine_differential =
  QCheck2.Test.make ~count:40 ~name:"bytecode engine matches ast engine"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
    (fun (seed, n) ->
      let c = Qcircuit.Generate.random ~seed ~gates:30 n in
      let addressing = if seed mod 2 = 0 then `Static else `Dynamic in
      let m = Qir.Qir_builder.build ~addressing c in
      let ra = Qruntime.Executor.Reference.run ~seed m in
      let rb = Qruntime.Executor.run ~seed m in
      ra.Qruntime.Executor.output = rb.Qruntime.Executor.output
      && ra.Qruntime.Executor.results = rb.Qruntime.Executor.results
      && stats_to_string ra.Qruntime.Executor.interp_stats
         = stats_to_string rb.Qruntime.Executor.interp_stats)

(* ------------------------------------------------------------------ *)
(* Compile-once cache                                                   *)

let test_compile_cache () =
  let m = Parser.parse_module loop_qir in
  let compiled = Qruntime.Executor.(Session.compiled Session.default) in
  let p1, _, hit1 = compiled m in
  let p2, _, hit2 = compiled m in
  check bool_t "first is a miss" false hit1;
  check bool_t "second is a hit" true hit2;
  check bool_t "same program" true (p1 == p2);
  (* a different parse of the same text is a different module *)
  let m' = Parser.parse_module loop_qir in
  let _, _, hit3 = compiled m' in
  check bool_t "reparse is a miss" false hit3

(* ------------------------------------------------------------------ *)
(* Gate tape                                                            *)

let static_circuit_qir =
  {|
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__reset__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)

define void @main() "entry_point" "required_num_qubits"="2" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__reset__body(ptr null)
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)
  ret void
}
|}

let branching_qir =
  {|
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__rt__read_result(ptr)

define void @main() "entry_point" "required_num_qubits"="1" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__rt__read_result(ptr null)
  br i1 %r, label %one, label %zero

one:
  ret void

zero:
  ret void
}
|}

(* Address computed through arithmetic: syntactically dynamic, proved
   static by Const_addr. The reset keeps the batched sampler out, so
   the tape tier is the one that must handle it. *)
let computed_addr_qir =
  {|
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__reset__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)

define void @main() "entry_point" "required_num_qubits"="2" {
entry:
  %i = add i64 0, 1
  %q = inttoptr i64 %i to ptr
  call void @__quantum__qis__reset__body(ptr %q)
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  ret void
}
|}

let test_tape_extracts_static () =
  let m = Parser.parse_module static_circuit_qir in
  match Qruntime.Gate_tape.extract (Qir_analysis.Analyses.of_module m) with
  | None -> Alcotest.fail "expected a tape for the static circuit"
  | Some tape ->
    check int_t "ops" 8 (Qruntime.Gate_tape.length tape);
    check int_t "records" 2 tape.Qruntime.Gate_tape.records

let test_tape_rejects_branching () =
  let m = Parser.parse_module branching_qir in
  check bool_t "no tape" true (Qruntime.Gate_tape.extract (Qir_analysis.Analyses.of_module m) = None)

let test_tape_rejects_defined_callee () =
  let m = Parser.parse_module loop_qir in
  check bool_t "no tape" true (Qruntime.Gate_tape.extract (Qir_analysis.Analyses.of_module m) = None)

let test_tape_proved_address () =
  let m = Parser.parse_module computed_addr_qir in
  check bool_t "computed address still tapes" true
    (Qruntime.Gate_tape.extract (Qir_analysis.Analyses.of_module m) <> None)

(* A use before its definition in one block: the verifier refuses it,
   but executor callers may pass unverified modules, and the interpreter
   faults on it, so the tape must not answer for it either. *)
let test_tape_rejects_use_before_def () =
  let m =
    Parser.parse_module
      {|
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)

define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  %q = inttoptr i64 1 to ptr
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  ret void
}
|}
  in
  check bool_t "no tape" true (Qruntime.Gate_tape.extract (Qir_analysis.Analyses.of_module m) = None)

(* Under the tape cap the tape fires, and its histogram must equal
   per-shot interpretation at the same seed. (The default cap answers
   these mid-circuit-reset programs on the shot-branching tier.) *)
let tape_matches_from text =
  let m = Parser.parse_module text in
  let branching = Qruntime.Executor.run_shots_resilient ~seed:9 ~shots:60 m in
  check bool_t "default cap branches" true branching.Qruntime.Executor.batched;
  let tape =
    Qruntime.Executor.run_shots_resilient ~seed:9 ~shots:60 ~max_tier:`Tape m
  in
  check bool_t "tape fired" true tape.Qruntime.Executor.tape;
  let per_shot =
    Qruntime.Executor.run_shots_resilient ~seed:9 ~shots:60
      ~max_tier:`Per_shot m
  in
  check bool_t "per-shot cap keeps the tape off" false
    per_shot.Qruntime.Executor.tape;
  Alcotest.(check (list (pair string int)))
    "identical histogram" per_shot.Qruntime.Executor.histogram
    tape.Qruntime.Executor.histogram

let test_tape_histogram_matches () = tape_matches_from static_circuit_qir
let test_tape_histogram_computed () = tape_matches_from computed_addr_qir

(* The eligibility verdict is cached by module identity: the second run
   reports zero analysis time, and a reparse pays it again. *)
let test_tape_verdict_cache () =
  let m = Parser.parse_module static_circuit_qir in
  let run m =
    Qruntime.Executor.run_shots_resilient ~seed:5 ~shots:3 ~max_tier:`Tape m
  in
  let r1 = run m in
  check bool_t "tape fired" true r1.Qruntime.Executor.tape;
  check bool_t "first run pays the analysis" true
    (r1.Qruntime.Executor.analysis_s > 0.);
  let r2 = run m in
  check bool_t "tape still fires" true r2.Qruntime.Executor.tape;
  Alcotest.(check (float 0.))
    "cached verdict is free" 0. r2.Qruntime.Executor.analysis_s;
  let r3 = run (Parser.parse_module static_circuit_qir) in
  check bool_t "reparse re-analyzes" true
    (r3.Qruntime.Executor.analysis_s > 0.)

(* One LRU list bounds the session: once [cache_limit] further modules
   have been used since a module's last use, its entry (and every
   product in it) is gone; a use in between keeps it. *)
let test_session_lru_bound () =
  let open Qruntime.Executor in
  let limit = 4 in
  let s = Session.create ~cache_limit:limit () in
  let mods = List.init (limit + 1) (fun _ -> Parser.parse_module loop_qir) in
  let hit m =
    let _, _, hit = Session.compiled s m in
    hit
  in
  let first = List.hd mods and kept = List.nth mods 1 in
  List.iteri
    (fun i m ->
      if i = limit then check bool_t "touched in between: a hit" true (hit kept);
      check bool_t "a new module is a miss" false (hit m))
    mods;
  check bool_t "touched module survives the eviction" true (hit kept);
  check bool_t "least recently used module was evicted" false (hit first);
  let c = Session.cache_stats s in
  check int_t "compile misses" (limit + 2) c.Session.compile_misses;
  check int_t "compile hits" 2 c.Session.compile_hits

(* Every product of a module lives in its one entry: a product missing
   from the entry is a miss, certifying does not warm the entry, a
   compile or a tape lookup does, and a tape verdict is visible to
   [cached_tape] only once looked up. *)
let test_session_one_entry () =
  let open Qruntime.Executor in
  let s = Session.create () in
  let m = Parser.parse_module static_circuit_qir in
  let _, _, cert_hit = Session.cert_of s m in
  check bool_t "first certificate is a miss" false cert_hit;
  check bool_t "certified only: cold" false (Session.is_cached s m);
  check bool_t "no tape peeked before the analysis" true
    (Session.cached_tape s m = None);
  let _, _, plan_hit = Session.plan_of ~warm:false s m in
  check bool_t "a missing slot is a miss" false plan_hit;
  check bool_t "sizing a plan: still cold" false (Session.is_cached s m);
  let tape, _, tape_hit = Session.tape_of s m in
  check bool_t "first tape lookup is a miss" false tape_hit;
  check bool_t "taped" true (tape <> None);
  check bool_t "tape lookup warms" true (Session.is_cached s m);
  check bool_t "cached tape peeked" true (Session.cached_tape s m == tape);
  let _, _, cert_hit = Session.cert_of s m in
  check bool_t "second certificate is a hit" true cert_hit;
  let c = Session.cache_stats s in
  check (Alcotest.list int_t) "hits and misses per product"
    [ 0; 0; 0; 1; 1; 1; 0; 1 ]
    [
      c.Session.compile_hits; c.Session.compile_misses; c.Session.tape_hits;
      c.Session.tape_misses; c.Session.cert_hits; c.Session.cert_misses;
      c.Session.plan_hits; c.Session.plan_misses;
    ]

let suite =
  [
    Alcotest.test_case "parity: phi swap" `Quick test_phi_swap;
    Alcotest.test_case "parity: select/switch/gep" `Quick test_classical_mix;
    Alcotest.test_case "parity: loop with calls" `Quick test_loop;
    Alcotest.test_case "inline: self-looping block verifies" `Quick
      test_inline_self_loop;
    Alcotest.test_case "parity: division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "parity: missing external" `Quick
      test_missing_external;
    Alcotest.test_case "parity: missing function" `Quick
      test_missing_function;
    Alcotest.test_case "parity: every fuel boundary" `Quick
      test_fuel_boundary;
    Alcotest.test_case "parity: deadline instruction" `Quick
      test_deadline_parity;
    Alcotest.test_case "cache: compile once per module" `Quick
      test_compile_cache;
    Alcotest.test_case "cache: one LRU bound over modules" `Quick
      test_session_lru_bound;
    Alcotest.test_case "cache: one entry per module" `Quick
      test_session_one_entry;
    Alcotest.test_case "tape: extracts static circuit" `Quick
      test_tape_extracts_static;
    Alcotest.test_case "tape: rejects branching" `Quick
      test_tape_rejects_branching;
    Alcotest.test_case "tape: rejects defined callees" `Quick
      test_tape_rejects_defined_callee;
    Alcotest.test_case "tape: proved computed address" `Quick
      test_tape_proved_address;
    Alcotest.test_case "tape: rejects a use before its definition" `Quick
      test_tape_rejects_use_before_def;
    Alcotest.test_case "tape: histogram equals per-shot" `Quick
      test_tape_histogram_matches;
    Alcotest.test_case "tape: computed-address histogram" `Quick
      test_tape_histogram_computed;
    Alcotest.test_case "tape: verdict cached per module" `Quick
      test_tape_verdict_cache;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_engine_differential ]
