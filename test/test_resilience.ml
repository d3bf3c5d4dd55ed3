(* Tests for the resilience layer: fault injection (Qsim.Faulty), the
   retry/timeout/backoff policy (Qruntime.Resilience), graceful
   degradation of the batched and parallel fast paths, and the unified
   error taxonomy (Qruntime.Qir_error).

   The central property: because a retried shot re-runs with the
   identical quantum seed but a fresh fault stream, a faulty run that
   recovers produces *exactly* the fault-free histogram — not merely a
   statistically similar one. *)

open Qcircuit
open Qir
open Qruntime

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let hist_t = Alcotest.(list (pair string int))

let bell () = Qir_builder.build (Generate.bell ())
let ghz n = Qir_builder.build (Generate.ghz n)

(* An entry point that never terminates: br label %l / l: br label %l.
   Used to exercise wall-clock deadlines deterministically. *)
let spin_src =
  "define void @main() \"entry_point\" {\nentry:\n  br label %l\nl:\n  br \
   label %l\n}"

let faulty ?(gate = 0.0) ?(measure = 0.0) ?(crash = 0.0) ?(stall = 0.0)
    ?(seed = 1) () =
  `Faulty
    {
      Qsim.Faulty.default with
      Qsim.Faulty.gate_rate = gate;
      measure_rate = measure;
      crash_rate = crash;
      stall_rate = stall;
      fault_seed = seed;
    }

(* Retries without real sleeps keep the suite fast. *)
let policy ?(retries = 8) () =
  { Resilience.default with Resilience.max_retries = retries; sleep = false }

(* ------------------------------------------------------------------ *)
(* (a) recovery: per fault kind, the recovered histogram is exact      *)

let recovered_equals_fault_free backend =
  let m = bell () in
  let reference =
    Executor.run_shots_resilient ~policy:(policy ()) ~seed:5
      ~max_tier:`Per_shot ~shots:300 m
  in
  let injected_before = Qsim.Faulty.injected () in
  let r =
    Executor.run_shots_resilient ~policy:(policy ()) ~seed:5 ~backend
      ~shots:300 m
  in
  check bool_t "faults were actually injected" true
    (Qsim.Faulty.injected () > injected_before);
  check bool_t "retries happened" true (r.Executor.retries > 0);
  check bool_t "not degraded" false r.Executor.degraded;
  check int_t "all shots completed" 300 r.Executor.completed;
  check hist_t "histogram identical to fault-free run"
    reference.Executor.histogram r.Executor.histogram

let test_recover_gate_faults () =
  recovered_equals_fault_free (faulty ~gate:0.05 ~seed:7 ())

let test_recover_measure_faults () =
  recovered_equals_fault_free (faulty ~measure:0.05 ~seed:11 ())

let test_recover_crash_faults () =
  recovered_equals_fault_free (faulty ~crash:0.02 ~seed:13 ())

let test_recover_stall_faults () =
  recovered_equals_fault_free (faulty ~stall:0.02 ~seed:17 ())

let test_recover_mixed_on_stabilizer () =
  (* the fault injector wraps any inner backend *)
  let m = ghz 4 in
  let spec =
    {
      Qsim.Faulty.default with
      Qsim.Faulty.gate_rate = 0.03;
      measure_rate = 0.03;
      fault_seed = 23;
      inner = `Stabilizer;
    }
  in
  let reference =
    Executor.run_shots_resilient ~policy:(policy ()) ~seed:9
      ~backend:`Stabilizer ~shots:200 m
  in
  let r =
    Executor.run_shots_resilient ~policy:(policy ()) ~seed:9
      ~backend:(`Faulty spec) ~shots:200 m
  in
  check bool_t "retries happened" true (r.Executor.retries > 0);
  check hist_t "stabilizer histogram identical" reference.Executor.histogram
    r.Executor.histogram

let test_no_retries_fails_with_backend_error () =
  let m = bell () in
  match
    Executor.run_resilient ~policy:Resilience.no_retry ~seed:1
      ~backend:(faulty ~gate:1.0 ())
      m
  with
  | Ok _ -> Alcotest.fail "expected a backend error with retries disabled"
  | Error e ->
    check int_t "backend exit code" Qir_error.exit_backend
      (Qir_error.exit_code e);
    check bool_t "classified transient" true
      (e.Qir_error.severity = Qir_error.Transient)

let test_exhausted_budget_raises () =
  let m = bell () in
  check bool_t "run_shots_resilient raises Qir_error on certain faults" true
    (match
       Executor.run_shots_resilient
         ~policy:(policy ~retries:2 ())
         ~seed:1
         ~backend:(faulty ~gate:1.0 ())
         ~shots:5 m
     with
    | exception Qir_error.Error e -> e.Qir_error.kind = Qir_error.Backend_failure
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* (b) deadlines: expiry yields partial results with degraded = true   *)

(* An already-expired budget does no work at any tier cap: no plan,
   tape or compile lookup reaches the session. *)
let test_total_deadline_already_expired () =
  let m = bell () in
  let p = { (policy ()) with Resilience.total_timeout = Some 0.0 } in
  List.iter
    (fun max_tier ->
      let session = Executor.Session.create () in
      let r =
        Executor.run_shots_resilient ~session ~policy:p ~max_tier ~shots:50 m
      in
      let name = Executor.tier_name max_tier in
      check bool_t (name ^ ": degraded") true r.Executor.degraded;
      check int_t (name ^ ": no shots completed") 0 r.Executor.completed;
      check int_t (name ^ ": requested preserved") 50 r.Executor.requested;
      let c = Executor.Session.cache_stats session in
      check int_t (name ^ ": no compile") 0 c.Executor.Session.compile_misses;
      check int_t (name ^ ": no tape analysis") 0
        c.Executor.Session.tape_misses;
      check int_t (name ^ ": no plan") 0 c.Executor.Session.plan_misses)
    [ `Batched; `Tape; `Per_shot ]

let test_shot_deadline_stops_spinning_program () =
  let m = Llvm_ir.Parser.parse_module spin_src in
  let p = { (policy ()) with Resilience.shot_timeout = Some 0.02 } in
  let t0 = Unix.gettimeofday () in
  let r =
    Executor.run_shots_resilient ~policy:p ~max_tier:`Per_shot ~shots:3 m
  in
  check bool_t "degraded" true r.Executor.degraded;
  check bool_t "stopped promptly" true (Unix.gettimeofday () -. t0 < 5.0)

let test_generous_deadline_not_degraded () =
  let m = bell () in
  let p = { (policy ()) with Resilience.total_timeout = Some 60.0 } in
  let r = Executor.run_shots_resilient ~policy:p ~shots:20 m in
  check bool_t "not degraded" false r.Executor.degraded;
  check int_t "all completed" 20 r.Executor.completed

let test_interp_deadline_raises_timeout () =
  let m = Llvm_ir.Parser.parse_module spin_src in
  (* absolute deadlines live on the monotonic clock, not the epoch *)
  let deadline = Resilience.Deadline.now () +. 0.02 in
  check bool_t "interpreter raises Timeout_error past the deadline" true
    (match Executor.run ~deadline m with
    | exception Llvm_ir.Ir_error.Timeout_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* (c) graceful degradation: fallbacks preserve the histogram          *)

let test_batch_fallback_identical_histogram () =
  let m = bell () in
  let batched = Executor.run_shots_resilient ~seed:4 ~shots:400 m in
  check bool_t "fast path is batched" true batched.Executor.batched;
  Executor.set_batch_sabotage (fun () ->
      Qsim.Sim_error.error ~op:"test" "sabotaged batch path");
  let fell_back =
    Fun.protect
      ~finally:(fun () -> Executor.set_batch_sabotage (fun () -> ()))
      (fun () -> Executor.run_shots_resilient ~seed:4 ~shots:400 m)
  in
  check bool_t "fallback engaged" true fell_back.Executor.batch_fallback;
  check bool_t "no longer batched" false fell_back.Executor.batched;
  let per_shot =
    Executor.run_shots_resilient ~seed:4 ~max_tier:`Per_shot ~shots:400 m
  in
  check hist_t "fallback histogram = per-shot histogram"
    per_shot.Executor.histogram fell_back.Executor.histogram

let test_pool_fallback_identical_histogram () =
  (* Lower the parallel threshold so even a 2-qubit kernel wants the
     pool, then make Domain.spawn fail: kernels must degrade to
     sequential sweeps with identical results. *)
  let m = bell () in
  let reference = Executor.run_shots_resilient ~seed:6 ~shots:200 m in
  let saved_threshold = Qsim.Dpool.threshold () in
  let saved_domains = Qsim.Dpool.domains () in
  Qsim.Dpool.set_threshold 1;
  Qsim.Dpool.set_domains 2;
  Qsim.Dpool.force_spawn_failure true;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Qsim.Dpool.force_spawn_failure false;
        Qsim.Dpool.set_domains saved_domains;
        Qsim.Dpool.set_threshold saved_threshold)
      (fun () -> Executor.run_shots_resilient ~seed:6 ~shots:200 m)
  in
  check bool_t "sequential fallbacks counted" true
    (r.Executor.pool_fallbacks > 0);
  check hist_t "sequential histogram identical" reference.Executor.histogram
    r.Executor.histogram

(* ------------------------------------------------------------------ *)
(* (d) units: taxonomy, policy, fault-spec parsing                     *)

let test_error_classification () =
  let cases =
    [
      ( Qsim.Sim_error.Backend_fault
          { fault = Qsim.Sim_error.Gate_fault; op = "h" },
        Qir_error.Backend_failure, Qir_error.Transient, 6 );
      ( Qsim.Sim_error.Backend_fault
          { fault = Qsim.Sim_error.Stall; op = "h" },
        Qir_error.Timeout, Qir_error.Transient, 5 );
      ( Qsim.Sim_error.Error { op = "apply"; msg = "qubit out of range" },
        Qir_error.Backend_failure, Qir_error.Permanent, 6 );
      ( Llvm_ir.Ir_error.Timeout_error "deadline",
        Qir_error.Timeout, Qir_error.Permanent, 5 );
      ( Runtime.Runtime_error "bad result pointer",
        Qir_error.Exec, Qir_error.Permanent, 4 );
    ]
  in
  List.iter
    (fun (exn, kind, sev, code) ->
      match Qir_error.of_exn exn with
      | None -> Alcotest.fail "expected classification"
      | Some e ->
        check bool_t "kind" true (e.Qir_error.kind = kind);
        check bool_t "severity" true (e.Qir_error.severity = sev);
        check int_t "exit code" code (Qir_error.exit_code e))
    cases;
  check bool_t "unknown exceptions stay unclassified" true
    (Qir_error.of_exn Exit = None);
  check bool_t "only injected faults are transient" true
    (Qir_error.is_transient
       (Qsim.Sim_error.Backend_fault
          { fault = Qsim.Sim_error.Crash; op = "x" })
    && not (Qir_error.is_transient (Runtime.Runtime_error "x")))

let test_backoff_delay_bounds () =
  let p =
    {
      Resilience.default with
      Resilience.base_backoff = 0.010;
      backoff_factor = 2.0;
      max_backoff = 0.050;
      jitter = 0.5;
    }
  in
  let rng = Rng.create 42 in
  for attempt = 0 to 9 do
    let d = Resilience.backoff_delay p rng ~attempt in
    let ceiling =
      Float.min (0.010 *. (2.0 ** float_of_int attempt)) 0.050
    in
    check bool_t "delay within [ceiling/2, ceiling]" true
      (d >= (ceiling /. 2.0) -. 1e-9 && d <= ceiling +. 1e-9)
  done

let test_with_retries_counts () =
  let rng = Rng.create 1 in
  let p = { (policy ~retries:5 ()) with Resilience.base_backoff = 0.0 } in
  let calls = ref 0 in
  let f ~attempt =
    incr calls;
    if attempt < 3 then
      Qsim.Sim_error.fault ~op:"t" Qsim.Sim_error.Gate_fault
    else "ok"
  in
  (match Resilience.with_retries p rng f with
  | Ok (v, retries) ->
    check Alcotest.string "value" "ok" v;
    check int_t "retries used" 3 retries
  | Error _ -> Alcotest.fail "expected success after 3 retries");
  check int_t "calls" 4 !calls;
  (* permanent errors never retry *)
  let calls = ref 0 in
  let g ~attempt:_ =
    incr calls;
    raise (Runtime.Runtime_error "permanent")
  in
  (match Resilience.with_retries p rng g with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error (e, attempts) ->
    check bool_t "permanent" true
      (e.Qir_error.severity = Qir_error.Permanent);
    check int_t "single attempt" 1 attempts);
  check int_t "no retry on permanent" 1 !calls

let test_spec_parsing () =
  (match Qsim.Faulty.spec_of_string "gate=0.05,measure=0.01,seed=7" with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    check (Alcotest.float 1e-12) "gate" 0.05 s.Qsim.Faulty.gate_rate;
    check (Alcotest.float 1e-12) "measure" 0.01 s.Qsim.Faulty.measure_rate;
    check int_t "seed" 7 s.Qsim.Faulty.fault_seed);
  (match Qsim.Faulty.spec_of_string "0.09" with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    check (Alcotest.float 1e-12) "bare rate splits" 0.03
      s.Qsim.Faulty.gate_rate);
  (match Qsim.Faulty.spec_of_string "inner=stabilizer" with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    check bool_t "inner backend" true (s.Qsim.Faulty.inner = `Stabilizer));
  check bool_t "bad rate rejected" true
    (Result.is_error (Qsim.Faulty.spec_of_string "gate=1.5"));
  check bool_t "unknown key rejected" true
    (Result.is_error (Qsim.Faulty.spec_of_string "bogus=1"));
  (* round trip through the printer *)
  match Qsim.Faulty.spec_of_string "gate=0.05,stall=0.001,seed=3" with
  | Error msg -> Alcotest.fail msg
  | Ok s -> (
    match Qsim.Faulty.spec_of_string (Qsim.Faulty.spec_to_string s) with
    | Error msg -> Alcotest.fail msg
    | Ok s' -> check bool_t "round trip" true (s = s'))

let suite =
  [
    Alcotest.test_case "recover from gate faults" `Quick
      test_recover_gate_faults;
    Alcotest.test_case "recover from measure faults" `Quick
      test_recover_measure_faults;
    Alcotest.test_case "recover from crashes" `Quick
      test_recover_crash_faults;
    Alcotest.test_case "recover from stalls" `Quick
      test_recover_stall_faults;
    Alcotest.test_case "recover on stabilizer inner" `Quick
      test_recover_mixed_on_stabilizer;
    Alcotest.test_case "no retries -> backend error" `Quick
      test_no_retries_fails_with_backend_error;
    Alcotest.test_case "exhausted budget raises" `Quick
      test_exhausted_budget_raises;
    Alcotest.test_case "expired total deadline degrades" `Quick
      test_total_deadline_already_expired;
    Alcotest.test_case "shot deadline stops spin" `Quick
      test_shot_deadline_stops_spinning_program;
    Alcotest.test_case "generous deadline completes" `Quick
      test_generous_deadline_not_degraded;
    Alcotest.test_case "interp deadline raises" `Quick
      test_interp_deadline_raises_timeout;
    Alcotest.test_case "batch fallback histogram" `Quick
      test_batch_fallback_identical_histogram;
    Alcotest.test_case "pool fallback histogram" `Quick
      test_pool_fallback_identical_histogram;
    Alcotest.test_case "error classification" `Quick
      test_error_classification;
    Alcotest.test_case "backoff delay bounds" `Quick
      test_backoff_delay_bounds;
    Alcotest.test_case "with_retries accounting" `Quick
      test_with_retries_counts;
    Alcotest.test_case "fault spec parsing" `Quick test_spec_parsing;
  ]
