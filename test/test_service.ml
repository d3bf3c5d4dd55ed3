(* Tests for the multi-tenant execution service (lib/service): the
   stride scheduler's weighted fairness, admission control against the
   memory budget, per-tenant circuit breakers, deadline handling
   (queue-expiry shedding and mid-run partial results), the graceful
   degradation ladder, cache-coldest-first load shedding, progress
   streaming — and the central correctness property: a job is one
   executor call, so its histogram is *bit-identical* to a direct
   Executor call at the tier its result reports, at every load level. *)

open Qcircuit
open Qir
open Qruntime
open Qservice

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let hist_t = Alcotest.(list (pair string int))

let bell () = Qir_builder.build (Generate.bell ())
let ghz n = Qir_builder.build (Generate.ghz n)

(* An entry point that never terminates, for deterministic deadline
   tests (as in test_resilience.ml). *)
let spin_src =
  "define void @main() \"entry_point\" {\nentry:\n  br label %l\nl:\n  br \
   label %l\n}"

(* A module whose declared register (28 qubits = a 4 GiB statevector)
   dwarfs any test budget without ever being executed. *)
let big_src =
  "define void @main() #0 {\nentry:\n  ret void\n}\nattributes #0 = { \
   \"entry_point\" \"required_num_qubits\"=\"28\" }"

let parse src = Llvm_ir.Parser.parse_module src

let faulty_gate =
  `Faulty { Qsim.Faulty.default with Qsim.Faulty.gate_rate = 1.0 }

(* A service wired to an event recorder; tests never sleep out backoff. *)
let recording ?(config = Service.default_config) () =
  let events = ref [] in
  let svc =
    Service.create
      ~config:{ config with Service.sleep = false }
      ~emit:(fun ev -> events := ev :: !events)
      ()
  in
  (svc, fun () -> List.rev !events)

let results events =
  List.filter_map
    (function
      | Service.Result { tenant; result; tier; _ } ->
        Some (tenant, result, tier)
      | _ -> None)
    events

let rejections events =
  List.filter_map
    (function
      | Service.Rejected { id; error; shed; _ } -> Some (id, error, shed)
      | _ -> None)
    events

(* ------------------------------------------------------------------ *)
(* Jsonx                                                                *)

let test_jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("op", Jsonx.Str "submit");
        ("shots", Jsonx.Num 100.);
        ("nested", Jsonx.Arr [ Jsonx.Bool true; Jsonx.Null; Jsonx.Num 2.5 ]);
        ("esc", Jsonx.Str "line\n\"quote\"\tunicode \xc3\xa9");
        ( "floats",
          Jsonx.Arr [ Jsonx.Num (1. /. 3.); Jsonx.Num 0.1234567890123456 ] );
      ]
  in
  (match Jsonx.parse (Jsonx.to_string v) with
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e)
  | Ok v' ->
    check bool_t "round-trips" true (v = v');
    check (Alcotest.option int_t) "int accessor" (Some 100)
      (Jsonx.mem_int "shots" v'));
  (* JSON has no NaN or infinity: they print as null, so the output
     stays parsable. *)
  let non_finite =
    Jsonx.Arr
      (List.map (fun f -> Jsonx.Num f)
         [ Float.nan; Float.infinity; Float.neg_infinity ])
  in
  check string_t "non-finite prints null" "[null, null, null]"
    (Jsonx.to_string non_finite);
  check bool_t "1e400 re-prints as null" true
    (Result.map Jsonx.to_string (Jsonx.parse "1e400") = Ok "null")

let test_jsonx_rejects_garbage () =
  let bad s =
    match Jsonx.parse s with Ok _ -> false | Error _ -> true
  in
  check bool_t "trailing garbage" true (bad "{\"a\": 1} x");
  check bool_t "unterminated string" true (bad "\"abc");
  check bool_t "bare word" true (bad "flse");
  check bool_t "unicode escape parses" true
    (Jsonx.parse "\"\\u00e9\"" = Ok (Jsonx.Str "\xc3\xa9"));
  (* a surrogate pair, as Python's json.dumps escapes non-BMP text, is
     one 4-byte character; a lone surrogate becomes U+FFFD *)
  let str s = Jsonx.parse ("\"" ^ s ^ "\"") in
  check bool_t "surrogate pair -> U+1F600" true
    (str "\\ud83d\\ude00" = Ok (Jsonx.Str "\xf0\x9f\x98\x80"));
  check bool_t "lone high surrogate" true
    (str "\\ud83dx" = Ok (Jsonx.Str "\xef\xbf\xbdx"));
  check bool_t "high surrogate before a non-surrogate escape" true
    (str "\\ud83d\\u0041" = Ok (Jsonx.Str "\xef\xbf\xbdA"));
  check bool_t "lone low surrogate" true
    (str "\\ude00" = Ok (Jsonx.Str "\xef\xbf\xbd"))

(* The one layout rule: a container stays on one line when it fits in
   [Jsonx.width] columns, else one member per line. *)
let test_jsonx_pretty () =
  let small = Jsonx.Obj [ ("a", Jsonx.int 1); ("b", Jsonx.Arr []) ] in
  check string_t "fits: one line" (Jsonx.to_string small) (Jsonx.pretty small);
  let long = Jsonx.Str (String.make Jsonx.width 'x') in
  let doc = Jsonx.Obj [ ("small", small); ("long", Jsonx.Arr [ long; Jsonx.Null ]) ] in
  check string_t "too wide: broken"
    (String.concat "\n"
       [
         "{";
         "  \"small\": {\"a\": 1, \"b\": []},";
         "  \"long\": [";
         "    " ^ Jsonx.to_string long ^ ",";
         "    null";
         "  ]";
         "}";
       ])
    (Jsonx.pretty doc);
  check bool_t "pretty round-trips" true (Jsonx.parse (Jsonx.pretty doc) = Ok doc)

(* The checked-in BENCH files, and BENCHMARK.json (only read), are
   JSON [Jsonx] accepts. *)
let test_bench_files_parse () =
  let files =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f ->
           f = "BENCHMARK.json"
           || (String.starts_with ~prefix:"BENCH_" f
              && Filename.check_suffix f ".json"))
  in
  check bool_t "found the BENCH files" true (List.length files >= 9);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat ".." f) In_channel.input_all in
      match Jsonx.parse text with
      | Ok (Jsonx.Obj (_ :: _)) -> ()
      | Ok _ -> Alcotest.fail (f ^ ": not a JSON object")
      | Error e -> Alcotest.fail (f ^ ": " ^ e))
    files

(* Every document the toolchain emits parses back to the value it was
   built from: lint diagnostics, the call graph, the resource
   certificate, qir-run's stats line and each protocol event. *)
let test_emitted_documents_parse () =
  let parses name text v =
    match Jsonx.parse text with
    | Ok v' -> check bool_t (name ^ " parses to its value") true (v = v')
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
  in
  let rendered pp x = Format.asprintf "%a" pp x in
  let m =
    parse
      "define void @main() \"entry_point\" {\nentry:\n  %q = call ptr \
       @__quantum__rt__qubit_allocate()\n  call void \
       @__quantum__rt__qubit_release(ptr %q)\n  call void \
       @__quantum__qis__h__body(ptr %q)\n  call void @helper()\n  ret \
       void\n}\ndefine void @helper() {\nentry:\n  ret void\n}\ndeclare ptr \
       @__quantum__rt__qubit_allocate()\ndeclare void \
       @__quantum__rt__qubit_release(ptr)\ndeclare void \
       @__quantum__qis__h__body(ptr)"
  in
  let open Qir_analysis in
  let a = Analyses.of_module m in
  let ds = Lint.run a in
  check bool_t "the module has findings" true (ds <> []);
  parses "diagnostics"
    (rendered (Diagnostic.render_json ~module_name:"m \"quoted\".ll") ds)
    (Diagnostic.json_document ~module_name:"m \"quoted\".ll" ds);
  let cg = Call_graph.build m in
  parses "call graph" (rendered Call_graph.render_json cg) (Call_graph.to_json cg);
  let cert = Resource.certify a in
  parses "certificate"
    (rendered (Resource.render_json ~diagnostics:ds) cert)
    (Resource.to_json ~diagnostics:ds cert);
  let session = Executor.Session.create () in
  let r = Executor.run_shots_resilient ~session ~shots:20 (bell ()) in
  let stats_line =
    Jsonx.Obj
      (Executor.shots_result_fields r
      @ Executor.Session.cache_stats_fields (Executor.Session.cache_stats session))
  in
  parses "stats line" (Jsonx.to_string stats_line) stats_line;
  let error =
    Qir_error.make ~kind:Qir_error.Overload ~layer:Qir_error.L_service
      "over budget: \"x\"\n"
  in
  List.iter
    (fun ev ->
      parses "event" (Protocol.event_line ev) (Protocol.event_json ev))
    [
      Service.Accepted { id = "a"; tenant = "t"; note = None };
      Service.Accepted { id = "a"; tenant = "t"; note = Some "capped" };
      Service.Rejected { id = "b"; tenant = "t"; error; shed = true };
      Service.Progress { id = "a"; tenant = "t"; completed = 5; requested = 20 };
      Service.Result
        {
          id = "a";
          tenant = "t";
          result = r;
          tier = `Batched;
          wait_s = 0.1234567890123456;
          run_s = 1e-7;
        };
      Service.Failed { id = "c"; tenant = "t"; error };
    ];
  let svc, _ = recording () in
  parses "stats event"
    (Protocol.stats_line (Service.stats svc))
    (Protocol.stats_json (Service.stats svc));
  parses "error event" (Protocol.error_line error) (Protocol.error_json error)

(* ------------------------------------------------------------------ *)
(* Protocol                                                             *)

let submit_line fields =
  Printf.sprintf "{\"op\":\"submit\",\"tenant\":\"t\",\"program\":\"p\"%s}"
    fields

(* A present "shots" or "seed" must be an integer an IEEE double holds
   exactly; anything else is the client's error, not a silent 1. *)
let test_protocol_rejects_bad_ints () =
  List.iter
    (fun fields ->
      match Protocol.parse_request (submit_line fields) with
      | Ok _ -> Alcotest.failf "accepted %s" fields
      | Error e ->
        check string_t (fields ^ ": kind") "usage"
          (Qir_error.kind_name e.Qir_error.kind))
    [
      ",\"shots\":\"1000\""; ",\"shots\":2.5"; ",\"shots\":null";
      ",\"shots\":true"; ",\"shots\":1e300"; ",\"shots\":-1e19";
      ",\"seed\":\"7\""; ",\"seed\":0.5"; ",\"seed\":9007199254740994";
    ]

(* A present field of the wrong type is a usage error (exit code 7),
   never a silent default: no deadline, the statevector backend or an
   auto id. *)
let test_protocol_rejects_mistyped_fields () =
  List.iter
    (fun fields ->
      match Protocol.parse_request (submit_line fields) with
      | Ok _ -> Alcotest.failf "accepted %s" fields
      | Error e ->
        check int_t (fields ^ ": exit code") 7 (Qir_error.exit_code e))
    [
      ",\"timeout\":\"5\""; ",\"timeout\":-1"; ",\"timeout\":1e999";
      ",\"timeout\":null"; ",\"backend\":3"; ",\"id\":5";
      ",\"file\":true";
    ];
  match Protocol.parse_request (submit_line ",\"id\":\"j\",\"timeout\":0") with
  | Ok (Protocol.Submit { id = Some "j"; timeout = Some 0.0; _ }) -> ()
  | Ok _ -> Alcotest.fail "id or timeout lost"
  | Error e -> Alcotest.fail e.Qir_error.message

let test_protocol_reads_ints () =
  let shots_seed fields =
    match Protocol.parse_request (submit_line fields) with
    | Ok (Protocol.Submit { shots; seed; _ }) -> (shots, seed)
    | Ok _ -> Alcotest.fail "not a submit"
    | Error e -> Alcotest.fail e.Qir_error.message
  in
  let pair_t = Alcotest.(pair int int) in
  check pair_t "defaults" (1, 1) (shots_seed "");
  check pair_t "integral numbers" (1000, -3)
    (shots_seed ",\"shots\":1000,\"seed\":-3.0");
  check pair_t "2^53 is exact" (1, 9007199254740992)
    (shots_seed ",\"seed\":9007199254740992");
  (* "engine" is no longer a request field: ignored like any unknown key *)
  check pair_t "engine key ignored" (5, 1)
    (shots_seed ",\"shots\":5,\"engine\":\"turbo\"")

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)

let test_scheduler_weighted_fairness () =
  let s = Scheduler.create () in
  for i = 1 to 12 do
    ignore (Scheduler.push s ~tenant:"heavy" ~weight:2 i);
    ignore (Scheduler.push s ~tenant:"light" ~weight:1 i)
  done;
  for _ = 1 to 9 do
    ignore (Scheduler.pop s)
  done;
  (* stride scheduling: over 9 pops, weight 2 gets exactly 2/3 *)
  check int_t "heavy served 6 of 9" 6 (Scheduler.served_of s "heavy");
  check int_t "light served 3 of 9" 3 (Scheduler.served_of s "light");
  check int_t "queue accounting" 15 (Scheduler.length s)

let test_scheduler_idle_rejoin () =
  let s = Scheduler.create () in
  for i = 1 to 4 do
    ignore (Scheduler.push s ~tenant:"a" ~weight:1 i)
  done;
  for _ = 1 to 4 do
    ignore (Scheduler.pop s)
  done;
  (* b was idle the whole time; on rejoin it must not replay the idle
     period as credit and starve a *)
  for i = 1 to 2 do
    ignore (Scheduler.push s ~tenant:"b" ~weight:1 i);
    ignore (Scheduler.push s ~tenant:"a" ~weight:1 (10 + i))
  done;
  let order =
    List.init 4 (fun _ ->
        match Scheduler.pop s with Some (t, _) -> t | None -> "?")
  in
  check
    Alcotest.(list string_t)
    "fair alternation after rejoin" [ "b"; "a"; "b"; "a" ] order

(* Cost-weighted strides: at equal weight, fair shares are of served
   *cost*, not job count — a tenant of cost-3 jobs clears a hundred of
   them in the time a tenant of cost-300 jobs clears one. *)
let test_scheduler_cost_weighted_fairness () =
  let s = Scheduler.create () in
  for i = 1 to 200 do
    ignore (Scheduler.push s ~cost:3.0 ~tenant:"cheap" ~weight:1 i)
  done;
  for i = 1 to 10 do
    ignore (Scheduler.push s ~cost:300.0 ~tenant:"pricey" ~weight:1 i)
  done;
  for _ = 1 to 101 do
    ignore (Scheduler.pop s)
  done;
  check int_t "cheap cleared 100 jobs" 100 (Scheduler.served_of s "cheap");
  check int_t "pricey cleared 1 job" 1 (Scheduler.served_of s "pricey");
  (* ...and the *cost* each received is balanced to within one stride *)
  check bool_t "served cost balanced" true
    (Float.abs
       (Scheduler.served_cost_of s "cheap"
       -. Scheduler.served_cost_of s "pricey")
    <= 300.0)

(* Weight still scales the cost share: weight 2 earns twice the served
   cost of weight 1 over any backlogged window. *)
let test_scheduler_cost_respects_weights () =
  let s = Scheduler.create () in
  for i = 1 to 30 do
    ignore (Scheduler.push s ~cost:10.0 ~tenant:"heavy" ~weight:2 i);
    ignore (Scheduler.push s ~cost:10.0 ~tenant:"light" ~weight:1 i)
  done;
  for _ = 1 to 9 do
    ignore (Scheduler.pop s)
  done;
  check int_t "heavy got 2/3 of equal-cost pops" 6
    (Scheduler.served_of s "heavy");
  check bool_t "served cost ratio is 2:1" true
    (Scheduler.served_cost_of s "heavy"
    = 2.0 *. Scheduler.served_cost_of s "light")

(* An idle tenant rejoining under cost strides joins at the current
   virtual time — it cannot replay its idle period as credit even when
   the busy tenant has been charged heavy costs meanwhile. *)
let test_scheduler_cost_idle_rejoin () =
  let s = Scheduler.create () in
  ignore (Scheduler.push s ~cost:10.0 ~tenant:"b" ~weight:1 0);
  for i = 1 to 20 do
    ignore (Scheduler.push s ~cost:10.0 ~tenant:"a" ~weight:1 i)
  done;
  (* b clears its one job and goes idle; a keeps being served *)
  for _ = 1 to 15 do
    ignore (Scheduler.pop s)
  done;
  for i = 1 to 3 do
    ignore (Scheduler.push s ~cost:10.0 ~tenant:"b" ~weight:1 (100 + i))
  done;
  let order =
    List.init 6 (fun _ ->
        match Scheduler.pop s with Some (t, _) -> t | None -> "?")
  in
  check string_t "rejoiner is served promptly" "b" (List.hd order);
  check int_t "fair half of the window, no replayed credit" 3
    (List.length (List.filter (( = ) "b") order))

let test_scheduler_drop_last () =
  let s = Scheduler.create () in
  ignore (Scheduler.push s ~tenant:"a" ~weight:1 "a1");
  ignore (Scheduler.push s ~tenant:"a" ~weight:1 "a2");
  ignore (Scheduler.push s ~tenant:"b" ~weight:1 "b1");
  check
    Alcotest.(option string_t)
    "newest overall" (Some "b1")
    (Scheduler.drop_last s (fun _ -> true));
  check
    Alcotest.(option string_t)
    "newest matching" (Some "a2")
    (Scheduler.drop_last s (fun j -> j.[0] = 'a'));
  check int_t "two dropped" 1 (Scheduler.length s)

(* Shedding under cost strides: a dropped job's cost is never charged —
   only cleared jobs advance a tenant's pass and served cost, so the
   survivors rejoin the stride sequence exactly where they left it. *)
let test_scheduler_drop_last_cost () =
  let s = Scheduler.create () in
  ignore (Scheduler.push s ~cost:5.0 ~tenant:"a" ~weight:1 "a1");
  ignore (Scheduler.push s ~cost:500.0 ~tenant:"a" ~weight:1 "a2");
  ignore (Scheduler.push s ~cost:5.0 ~tenant:"b" ~weight:1 "b1");
  check
    Alcotest.(option string_t)
    "newest matching a job shed" (Some "a2")
    (Scheduler.drop_last s (fun j -> j.[0] = 'a'));
  let order =
    List.init 2 (fun _ ->
        match Scheduler.pop s with
        | Some (t, j) -> t ^ ":" ^ j
        | None -> "?")
  in
  check
    Alcotest.(list string_t)
    "stride order unaffected by the shed cost" [ "a:a1"; "b:b1" ] order;
  check bool_t "served cost excludes the shed job" true
    (Scheduler.served_cost_of s "a" = 5.0)

(* ------------------------------------------------------------------ *)
(* Breaker                                                              *)

let busy_wait seconds =
  let until = Resilience.Deadline.now () +. seconds in
  while Resilience.Deadline.now () < until do
    ignore (Sys.opaque_identity ())
  done

let test_breaker_lifecycle () =
  let b = Breaker.create ~threshold:2 ~cooldown:0.02 () in
  check bool_t "admits when closed" true (Breaker.admit b);
  Breaker.record_failure b;
  check bool_t "below threshold still admits" true (Breaker.admit b);
  Breaker.record_failure b;
  check bool_t "tripped open" false (Breaker.admit b);
  check int_t "one trip" 1 (Breaker.trips b);
  busy_wait 0.025;
  check string_t "half-open after cooldown" "half-open" (Breaker.state_name b);
  check bool_t "half-open admits a probe" true (Breaker.admit b);
  Breaker.record_failure b;
  check bool_t "failed probe re-opens" false (Breaker.admit b);
  check int_t "second trip" 2 (Breaker.trips b);
  busy_wait 0.025;
  Breaker.record_success b;
  check string_t "success closes" "closed" (Breaker.state_name b)

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)

let test_admission_memory_budget () =
  let m = parse big_src in
  check int_t "declared qubits" 28
    (Admission.evaluate ~backend:`Statevector m).Admission.v_qubits;
  (match Admission.check ~budget:(1 lsl 30) ~backend:`Statevector m with
  | Ok _ -> Alcotest.fail "4 GiB statevector admitted under a 1 GiB budget"
  | Error e ->
    check int_t "overload exit code" Qir_error.exit_overload
      (Qir_error.exit_code e));
  (* the tableau footprint for the same register is a few hundred bytes *)
  check bool_t "stabilizer backend fits easily" true
    (Result.is_ok (Admission.check ~budget:(1 lsl 20) ~backend:`Stabilizer m));
  check bool_t "small statevector fits" true
    (Result.is_ok (Admission.check ~budget:1024 ~backend:`Statevector (bell ())))

(* The shot-branching footprint: a 26-qubit program (1 GiB per state)
   whose qubit 0 is measured and reused three times has k = 3 branch
   points, so 100 shots hold min(3, 6) + 1 = 4 states. Under a budget
   that fits 2 states the job is admitted capped at the tape tier (one
   state per shot); under one that fits 4 it is charged all 4; under one
   that fits none it is rejected. Nothing here is executed. *)
let branching_26q () =
  let b = Circuit.Build.create ~num_qubits:26 ~num_clbits:4 () in
  Circuit.Build.gate b Gate.Cx [ 0; 25 ];
  for j = 0 to 3 do
    Circuit.Build.gate b Gate.H [ 0 ];
    Circuit.Build.measure b 0 j
  done;
  Qir_builder.build (Circuit.Build.finish b)

let test_admission_branching_footprint () =
  let m = branching_26q () in
  let state = 1 lsl 30 in
  let accepted_notes events =
    List.filter_map
      (function
        | Service.Accepted { id; note; _ } -> Some (id, note)
        | _ -> None)
      events
  in
  (* 2 states fit: capped at tape, charged one state *)
  let svc, events =
    recording ~config:{ Service.default_config with Service.mem_budget = 2 * state } ()
  in
  let plan, _, _ = Executor.Session.plan_of (Service.session svc) m in
  check int_t "three branch points" 3
    (Qsim.Sampler.branch_points (Option.get plan));
  Service.submit svc ~tenant:"t" ~id:"j1" ~shots:100 m;
  Service.submit svc ~tenant:"t" ~id:"j2" ~shots:100 m;
  (match accepted_notes (events ()) with
  | [ ("j1", Some note); ("j2", Some _) ] ->
    check bool_t "capped at the tape tier" true
      (Astring.String.is_infix ~affix:"capped at the tape tier" note);
    check bool_t "names the 4-state need" true
      (Astring.String.is_infix ~affix:"needs 4 states" note)
  | _ -> Alcotest.fail "expected two capped admissions");
  check int_t "nothing rejected" 0 (List.length (rejections (events ())));
  (* 4 states fit: charged all four, so a second in-flight copy is over *)
  let svc, events =
    recording ~config:{ Service.default_config with Service.mem_budget = 4 * state } ()
  in
  Service.submit svc ~tenant:"t" ~id:"k1" ~shots:100 m;
  Service.submit svc ~tenant:"t" ~id:"k2" ~shots:100 m;
  (match accepted_notes (events ()), rejections (events ()) with
  | [ ("k1", None) ], [ ("k2", e, false) ] ->
    check bool_t "tenant in-flight footprint" true
      (Astring.String.is_infix ~affix:"in-flight" e.Qir_error.message)
  | _ -> Alcotest.fail "expected k1 admitted uncapped, k2 rejected in flight");
  (* one shot never branches: charged one state *)
  Service.submit svc ~tenant:"u" ~id:"single" ~shots:1 m;
  check int_t "single-shot job admitted" 2 (Service.stats svc).Service.accepted;
  (* under one state: rejected *)
  match Admission.check ~budget:(state / 2) ~backend:`Statevector m with
  | Ok _ -> Alcotest.fail "1 GiB state admitted under 512 MiB"
  | Error e ->
    check int_t "overload exit code" Qir_error.exit_overload (Qir_error.exit_code e)

(* Satellite fix: a proof that shows a higher peak than the declaration
   must win — admission charges max(declared, proven) and surfaces the
   discrepancy as a QR003 note. *)
let underdeclared_src =
  "%Qubit = type opaque\n\
   declare void @__quantum__qis__h__body(%Qubit*)\n\
   define void @main() #0 {\n\
   entry:\n\
  \  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 2 to %Qubit*))\n\
  \  ret void\n\
   }\n\
   attributes #0 = { \"entry_point\" \"required_num_qubits\"=\"1\" }"

let test_admission_proof_beats_declaration () =
  let m = parse underdeclared_src in
  let cert = Qir_analysis.(Resource.certify (Analyses.of_module m)) in
  let v = Admission.evaluate ~cert ~backend:`Statevector m in
  check int_t "charged the proven peak, not the declared 1" 3
    v.Admission.v_qubits;
  (match v.Admission.v_qr003 with
  | Some note ->
    check bool_t "note names QR003" true
      (String.length note >= 5 && String.sub note 0 5 = "QR003")
  | None -> Alcotest.fail "expected a QR003 note");
  (* the service surfaces the note on the Accepted event *)
  let svc, events = recording () in
  Service.submit svc ~tenant:"t" ~shots:2 m;
  let note =
    List.find_map
      (function Service.Accepted { note; _ } -> note | _ -> None)
      (events ())
  in
  check bool_t "Accepted event carries the QR003 note" true (note <> None)

(* A module whose *lower* bound is proven huge: a gate on static qubit
   index 27 forces a 28-qubit register on every path, so admission can
   reject before anything is compiled. *)
let provably_big_src =
  "%Qubit = type opaque\n\
   declare void @__quantum__qis__h__body(%Qubit*)\n\
   define void @main() #0 {\n\
   entry:\n\
  \  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 27 to \
   %Qubit*))\n\
  \  ret void\n\
   }\n\
   attributes #0 = { \"entry_point\" \"required_num_qubits\"=\"0\" }"

let test_admission_lower_bound_rejects_before_compile () =
  let m = parse provably_big_src in
  let cert = Qir_analysis.(Resource.certify (Analyses.of_module m)) in
  check int_t "proven lower bound" 28 (Qir_analysis.Resource.qubits_lower cert);
  match Admission.check ~cert ~budget:(1 lsl 30) ~backend:`Statevector m with
  | Ok _ -> Alcotest.fail "proven 4 GiB lower bound admitted under 1 GiB"
  | Error e ->
    check int_t "exit 8" Qir_error.exit_overload (Qir_error.exit_code e);
    check bool_t "rejection happened before compile" true
      (let msg = e.Qir_error.message in
       let needle = "before compile" in
       let n = String.length needle and l = String.length msg in
       let rec scan i =
         i + n <= l && (String.sub msg i n = needle || scan (i + 1))
       in
       scan 0)

(* Per-tenant accounting: two 4 GiB jobs fit a 5 GiB budget one at a
   time, but not together in flight. *)
let test_admission_tenant_inflight_accounting () =
  let svc, events =
    recording
      ~config:{ Service.default_config with Service.mem_budget = 5 * (1 lsl 30) }
      ()
  in
  let m = parse big_src in
  Service.submit svc ~tenant:"greedy" ~id:"first" ~shots:1 m;
  Service.submit svc ~tenant:"greedy" ~id:"second" ~shots:1 m;
  (* no drain: the 28-qubit jobs must never actually execute *)
  check int_t "first accepted" 1 (Service.stats svc).Service.accepted;
  (match rejections (events ()) with
  | [ (id, e, shed) ] ->
    check string_t "second rejected" "second" id;
    check bool_t "not a shed" false shed;
    check int_t "exit 8" Qir_error.exit_overload (Qir_error.exit_code e)
  | evs -> Alcotest.failf "expected one rejection, saw %d" (List.length evs));
  check bool_t "in-flight bytes charged" true
    (Service.inflight_bytes svc "greedy" >= 1 lsl 32)

let test_service_rejects_at_admission () =
  let svc, events =
    recording
      ~config:{ Service.default_config with Service.mem_budget = 1 lsl 20 }
      ()
  in
  Service.submit svc ~tenant:"alice" ~shots:10 (parse big_src);
  Service.drain svc;
  match rejections (events ()) with
  | [ (_, e, shed) ] ->
    check int_t "exit 8" Qir_error.exit_overload (Qir_error.exit_code e);
    check bool_t "not a shed" false shed;
    check int_t "nothing ran" 0 (Service.stats svc).Service.completed
  | evs -> Alcotest.failf "expected one rejection, saw %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Fair scheduling under contention                                     *)

let test_service_fairness_under_contention () =
  let svc, events =
    recording
      ~config:
        {
          Service.default_config with
          Service.tenant_weights = [ ("heavy", 2); ("light", 1) ];
        }
      ()
  in
  let m = bell () in
  for _ = 1 to 9 do
    Service.submit svc ~tenant:"heavy" ~shots:4 m;
    Service.submit svc ~tenant:"light" ~shots:4 m
  done;
  Service.drain svc;
  let order = List.map (fun (t, _, _) -> t) (results (events ())) in
  check int_t "all jobs completed" 18 (List.length order);
  let first9 = List.filteri (fun i _ -> i < 9) order in
  check int_t "heavy got 2/3 of the first nine slots" 6
    (List.length (List.filter (( = ) "heavy") first9));
  check int_t "heavy vs light served" 9 (Service.served_of svc "heavy")

(* Heterogeneous certified costs at equal weight: the cheap tenant's
   1-shot jobs clear while a single 50-shot job of the same circuit is
   charged 50x the stride, so cost-fair WFQ drains the cheap backlog
   early. [cost_fair = false] restores job-count alternation. *)
let test_service_cost_fair_scheduling () =
  let m = bell () in
  let run cost_fair =
    let svc, events =
      recording
        ~config:{ Service.default_config with Service.cost_fair }
        ()
    in
    for _ = 1 to 6 do
      Service.submit svc ~tenant:"cheap" ~shots:1 m;
      Service.submit svc ~tenant:"pricey" ~shots:50 m
    done;
    Service.drain svc;
    (svc, List.map (fun (t, _, _) -> t) (results (events ())))
  in
  let svc, order = run true in
  check int_t "all completed" 12 (List.length order);
  let first7 = List.filteri (fun i _ -> i < 7) order in
  check int_t "cost-fair: cheap backlog drains while one pricey job runs" 6
    (List.length (List.filter (( = ) "cheap") first7));
  check bool_t "pricey was charged more served cost" true
    (Service.served_cost_of svc "pricey" > Service.served_cost_of svc "cheap");
  let _, order2 = run false in
  let first6 = List.filteri (fun i _ -> i < 6) order2 in
  check int_t "job-fair: strict alternation" 3
    (List.length (List.filter (( = ) "cheap") first6))

(* ------------------------------------------------------------------ *)
(* Circuit breaker at the service level                                 *)

let test_service_breaker_trips_and_recovers () =
  let svc, events =
    recording
      ~config:
        {
          Service.default_config with
          Service.retries = 0;
          breaker_threshold = 2;
          breaker_cooldown = 0.02;
        }
      ()
  in
  let m = bell () in
  (* two jobs against an always-faulting backend: both fail, tripping
     the tenant's breaker *)
  Service.submit svc ~tenant:"chaos" ~shots:3 ~backend:faulty_gate m;
  Service.drain svc;
  Service.submit svc ~tenant:"chaos" ~shots:3 ~backend:faulty_gate m;
  Service.drain svc;
  check string_t "breaker open" "open" (Service.breaker_state svc "chaos");
  (* fast rejection while open — the simulator is never touched *)
  Service.submit svc ~tenant:"chaos" ~shots:3 m;
  (match rejections (events ()) with
  | [ (_, e, _) ] ->
    check int_t "breaker rejection is exit 8" Qir_error.exit_overload
      (Qir_error.exit_code e)
  | evs -> Alcotest.failf "expected one rejection, saw %d" (List.length evs));
  let s = Service.stats svc in
  check int_t "two failures recorded" 2 s.Service.failed;
  check int_t "one trip recorded" 1 s.Service.breaker_trips;
  (* after the cooldown a half-open probe that succeeds closes it *)
  busy_wait 0.025;
  check string_t "half-open probe window" "half-open"
    (Service.breaker_state svc "chaos");
  Service.submit svc ~tenant:"chaos" ~shots:3 m;
  Service.drain svc;
  check string_t "success closes the breaker" "closed"
    (Service.breaker_state svc "chaos");
  check int_t "probe job completed" 1 (Service.stats svc).Service.completed

(* ------------------------------------------------------------------ *)
(* Deadlines                                                            *)

let test_service_sheds_queue_expired_jobs () =
  let svc, events = recording () in
  Service.submit svc ~tenant:"t" ~shots:10 ~timeout:0.0 (bell ());
  Service.drain svc;
  match rejections (events ()) with
  | [ (_, e, shed) ] ->
    check bool_t "shed, not plain rejection" true shed;
    check int_t "exit 8" Qir_error.exit_overload (Qir_error.exit_code e);
    check int_t "no simulator time spent" 0
      (Service.stats svc).Service.completed
  | evs -> Alcotest.failf "expected one shed, saw %d" (List.length evs)

let test_service_deadline_yields_partial_result () =
  let svc, events = recording () in
  Service.submit svc ~tenant:"t" ~shots:10 ~timeout:0.05 (parse spin_src);
  Service.drain svc;
  match results (events ()) with
  | [ (_, r, _) ] ->
    check bool_t "degraded partial result" true r.Executor.degraded;
    check int_t "requested preserved" 10 r.Executor.requested;
    check bool_t "not all shots completed" true (r.Executor.completed < 10);
    check int_t "still a success for the breaker" 0
      (Service.stats svc).Service.failed
  | evs -> Alcotest.failf "expected one result, saw %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Histogram parity with direct Executor runs                           *)

(* Normal load: the batched fast path, exactly as a direct call. *)
let test_parity_batched () =
  let m = bell () in
  let svc, events = recording () in
  Service.submit svc ~tenant:"t" ~shots:97 ~seed:5 m;
  Service.drain svc;
  let direct =
    Executor.run_shots_resilient
      ~session:(Executor.Session.create ())
      ~seed:5 ~shots:97 m
  in
  match results (events ()) with
  | [ (_, r, tier) ] ->
    check string_t "ran batched" "batched" (Executor.tier_name tier);
    check hist_t "histogram identical to direct batched run"
      direct.Executor.histogram r.Executor.histogram
  | evs -> Alcotest.failf "expected one result, saw %d" (List.length evs)

(* Elevated load caps at the tape tier and chunks; the merged chunked
   histogram must equal one direct tape-capped call. *)
let test_parity_tape_chunked () =
  let m = bell () in
  let svc, events =
    recording
      ~config:
        {
          Service.default_config with
          Service.overload_depth = 1;
          chunk = 7;
        }
      ()
  in
  Service.submit svc ~tenant:"t" ~shots:23 ~seed:11 m;
  Service.submit svc ~tenant:"filler" ~shots:2 m;
  Service.drain svc;
  let direct =
    Executor.run_shots_resilient
      ~session:(Executor.Session.create ())
      ~seed:11 ~max_tier:`Tape ~shots:23 m
  in
  check bool_t "direct comparison run used the tape" true
    direct.Executor.tape;
  match results (events ()) with
  | (_, r, tier) :: _ ->
    check string_t "service capped at tape" "tape" (Executor.tier_name tier);
    check int_t "all shots completed" 23 r.Executor.completed;
    check hist_t "chunked tape merge identical to direct run"
      direct.Executor.histogram r.Executor.histogram
  | [] -> Alcotest.fail "expected results"

(* A batchable job whose batched attempt falls back reports the tier
   that answered, not the batched cap it ran under, and a direct run at
   that tier reproduces its histogram. *)
let test_batch_fallback_reports_answering_tier () =
  let m = bell () in
  let svc, events = recording () in
  Executor.set_batch_sabotage (fun () ->
      Qsim.Sim_error.error ~op:"test" "sabotaged batch path");
  Fun.protect
    ~finally:(fun () -> Executor.set_batch_sabotage (fun () -> ()))
    (fun () ->
      Service.submit svc ~tenant:"t" ~shots:40 ~seed:8 m;
      Service.drain svc);
  match results (events ()) with
  | [ (_, r, tier) ] ->
    check bool_t "batched attempt fell back" true r.Executor.batch_fallback;
    check bool_t "not reported batched" true (tier <> `Batched);
    check int_t "not counted as a batched run" 0
      (Service.stats svc).Service.batched_runs;
    let direct =
      Executor.run_shots_resilient
        ~session:(Executor.Session.create ())
        ~seed:8 ~max_tier:tier ~shots:40 m
    in
    check hist_t "direct run at the reported tier" direct.Executor.histogram
      r.Executor.histogram
  | evs -> Alcotest.failf "expected one result, saw %d" (List.length evs)

(* Tape and per-shot jobs stream a progress event every [chunk] shots,
   then one result; a batched job streams none. *)
let test_progress_cadence () =
  let m = bell () in
  let svc, events =
    recording
      ~config:
        { Service.default_config with Service.overload_depth = 1; chunk = 7 }
      ()
  in
  Service.submit svc ~tenant:"t" ~id:"tape" ~shots:23 ~seed:11 m;
  Service.submit svc ~tenant:"filler" ~shots:2 m;
  Service.drain svc;
  Service.submit svc ~tenant:"t" ~id:"batched" ~shots:23 ~seed:11 m;
  Service.drain svc;
  let stream id =
    List.filter_map
      (function
        | Service.Progress { id = i; completed; requested; _ } when i = id ->
          check int_t "progress carries the requested shots" 23 requested;
          Some (Printf.sprintf "progress %d" completed)
        | Service.Result { id = i; result; tier; _ } when i = id ->
          Some
            (Printf.sprintf "%s result %d" (Executor.tier_name tier)
               result.Executor.completed)
        | _ -> None)
      (events ())
  in
  check Alcotest.(list string) "tape job streams every 7 shots"
    [ "progress 7"; "progress 14"; "progress 21"; "tape result 23" ]
    (stream "tape");
  check Alcotest.(list string) "batched job streams no progress"
    [ "batched result 23" ] (stream "batched")

(* Critical load drops cold jobs to per-shot interpretation (and
   throttles the pool); parity must still be exact. *)
let test_parity_per_shot_critical () =
  let m = bell () in
  let svc, events =
    recording
      ~config:
        {
          Service.default_config with
          Service.overload_depth = 1;
          chunk = 5;
        }
      ()
  in
  Service.submit svc ~tenant:"t" ~shots:17 ~seed:3 m;
  Service.submit svc ~tenant:"f1" ~shots:2 m;
  Service.submit svc ~tenant:"f2" ~shots:2 m;
  Service.drain svc;
  check bool_t "throttle released after drain" false (Qsim.Dpool.throttled ());
  let direct =
    Executor.run_shots_resilient
      ~session:(Executor.Session.create ())
      ~seed:3 ~max_tier:`Per_shot ~shots:17 m
  in
  match results (events ()) with
  | (_, r, tier) :: _ ->
    check string_t "cold job dropped to per-shot" "per-shot"
      (Executor.tier_name tier);
    check hist_t "chunked per-shot merge identical to direct run"
      direct.Executor.histogram r.Executor.histogram;
    check bool_t "pool was throttled during the run" true
      ((Service.stats svc).Service.throttled_runs >= 1)
  | [] -> Alcotest.fail "expected results"

(* ------------------------------------------------------------------ *)
(* Load shedding prefers cache-cold jobs                                *)

let test_service_sheds_cache_coldest_first () =
  let hot = bell () in
  let cold1 = ghz 3 in
  let cold2 = ghz 4 in
  let cold3 = ghz 5 in
  let svc, events =
    recording
      ~config:{ Service.default_config with Service.max_queue = 2 }
      ()
  in
  (* warm the session's caches with [hot] *)
  Service.submit svc ~tenant:"t" ~id:"warmup" ~shots:4 hot;
  Service.drain svc;
  check bool_t "module is cache-hot" true
    (Executor.Session.is_cached (Service.session svc) hot);
  (* fill the queue with cold work, then offer a hot job *)
  Service.submit svc ~tenant:"t" ~id:"cold1" ~shots:4 cold1;
  Service.submit svc ~tenant:"t" ~id:"cold2" ~shots:4 cold2;
  Service.submit svc ~tenant:"t" ~id:"hot" ~shots:4 hot;
  (* the hot job displaced the newest cold job *)
  (match rejections (events ()) with
  | [ (id, _, shed) ] ->
    check string_t "newest cold job was shed" "cold2" id;
    check bool_t "marked as shed" true shed
  | evs -> Alcotest.failf "expected one shed, saw %d" (List.length evs));
  (* a cold newcomer against a full queue is rejected outright *)
  Service.submit svc ~tenant:"t" ~id:"cold3" ~shots:4 cold3;
  (match rejections (events ()) with
  | [ _; (id, e, shed) ] ->
    check string_t "cold newcomer rejected" "cold3" id;
    check bool_t "not shed (never accepted)" false shed;
    check int_t "exit 8" Qir_error.exit_overload (Qir_error.exit_code e)
  | evs -> Alcotest.failf "expected two rejections, saw %d" (List.length evs));
  Service.drain svc;
  let s = Service.stats svc in
  check int_t "one shed recorded" 1 s.Service.shed;
  check int_t "warmup + cold1 + hot completed" 3 s.Service.completed

(* ------------------------------------------------------------------ *)
(* Program interning                                                    *)

let test_intern_shares_modules_across_jobs () =
  let svc, events = recording () in
  let src = Llvm_ir.Printer.module_to_string (bell ()) in
  let m1 =
    match Service.intern svc ~source:src with
    | Ok m -> m
    | Error e -> Alcotest.fail (Qir_error.to_string e)
  in
  let m2 =
    match Service.intern svc ~source:src with
    | Ok m -> m
    | Error e -> Alcotest.fail (Qir_error.to_string e)
  in
  check bool_t "identical text interns to the same module" true (m1 == m2);
  Service.submit svc ~tenant:"a" ~shots:8 m1;
  Service.submit svc ~tenant:"b" ~shots:8 m2;
  Service.drain svc;
  check int_t "both ran" 2 (List.length (results (events ())));
  let c = (Service.stats svc).Service.cache in
  check bool_t "second job hit the session cache" true
    (c.Executor.Session.plan_hits >= 1);
  check int_t "batched jobs compile no bytecode" 0
    c.Executor.Session.compile_misses;
  match Service.intern svc ~source:"not qir at all" with
  | Ok _ -> Alcotest.fail "garbage interned"
  | Error e ->
    check int_t "parse-kind taxonomy error" Qir_error.exit_parse
      (Qir_error.exit_code e)

(* The hot text outlives a stream of fresh texts: interning lives in the
   session's LRU entries, so each resubmission moves the hot entry to
   the front and the run-once texts evict each other. Under a FIFO
   intern table the hot text was re-parsed into a new module (missing
   every product of the old one) once per [module_cache_limit] fresh
   texts. *)
let test_intern_keeps_hot_text () =
  let svc, _ = recording () in
  let intern source =
    match Service.intern svc ~source with
    | Ok m -> m
    | Error e -> Alcotest.fail (Qir_error.to_string e)
  in
  let hot_src = Llvm_ir.Printer.module_to_string (bell ()) in
  let fresh = ref 0 in
  let cold () =
    incr fresh;
    ignore (intern (Printf.sprintf "%s\n; cold program %d\n" hot_src !fresh))
  in
  let hot = intern hot_src in
  for round = 1 to 40 do
    cold ();
    if intern hot_src != hot then
      Alcotest.failf "round %d: the hot text was re-parsed" round
  done;
  (* serve-mix's arrival pattern: three hot arrivals, then a fresh text *)
  let reparsed = ref 0 and current = ref hot in
  for arrival = 1 to 3000 do
    if arrival mod 4 = 0 then cold ()
    else begin
      let m = intern hot_src in
      if m != !current then begin
        incr reparsed;
        current := m
      end
    end
  done;
  check int_t "hot text re-parsed" 0 !reparsed

(* Malformed numeric literals in submitted text are parse-coded
   rejections, never an exception out of the service: the next job
   still completes. *)
let test_malformed_literal_rejected () =
  let svc, events = recording () in
  List.iter
    (fun lit ->
      let src =
        Printf.sprintf "define void @main() {\nentry:\n  %%x = add i64 %s, 1\n  ret void\n}\n"
          lit
      in
      match Service.intern svc ~source:src with
      | Ok _ -> Alcotest.failf "%s: interned" lit
      | Error e ->
        check int_t (lit ^ ": parse exit code") Qir_error.exit_parse (Qir_error.exit_code e)
      | exception e -> Alcotest.failf "%s: intern raised %s" lit (Printexc.to_string e))
    [ "-"; "-x"; "1.5e"; "0x"; "0x11112222333344445"; "99999999999999999999" ];
  (match Service.intern svc ~source:"attributes #99999999999999999999 = { }" with
  | Error e -> check int_t "attribute group: parse exit code" Qir_error.exit_parse (Qir_error.exit_code e)
  | Ok _ -> Alcotest.fail "attribute group: interned");
  match Service.intern svc ~source:(Llvm_ir.Printer.module_to_string (bell ())) with
  | Error e -> Alcotest.fail (Qir_error.to_string e)
  | Ok m ->
    Service.submit svc ~tenant:"a" ~shots:8 m;
    Service.drain svc;
    check int_t "the next job completed" 1 (List.length (results (events ())))

(* Malformed programs at intake: verifier violations are rejected with
   the verify exit code before any analysis runs, a verifier-clean
   program the runtime refuses fails with a taxonomy code, and neither
   stops the service from completing the next job. *)
let test_malformed_programs_keep_serving () =
  let svc, events = recording () in
  let program body =
    "declare ptr @__quantum__rt__qubit_allocate_array(i64)\n\
     declare ptr @__quantum__rt__qubit_allocate()\n\
     declare void @__quantum__qis__h__body(ptr)\n\
     define void @main() #0 {\nentry:\n" ^ body
    ^ "\n}\nattributes #0 = { \"entry_point\" }\n"
  in
  List.iter
    (fun (what, body) ->
      match Service.intern svc ~source:(program body) with
      | Ok _ -> Alcotest.failf "%s: interned" what
      | Error e ->
        check int_t (what ^ ": verify exit code") Qir_error.exit_verify
          (Qir_error.exit_code e))
    [
      ("missing block", "  call void @__quantum__qis__h__body(ptr null)\n  br label %nowhere");
      ( "missing branch target",
        "  %c = icmp eq i64 1, 1\n  br i1 %c, label %nowhere, label %done\ndone:\n  ret void" );
    ];
  (match
     Service.intern svc
       ~source:
         (program
            "  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 -3)\n\
            \  %q = call ptr @__quantum__rt__qubit_allocate()\n\
            \  call void @__quantum__qis__h__body(ptr %q)\n  ret void")
   with
  | Error e -> Alcotest.fail (Qir_error.to_string e)
  | Ok m -> Service.submit svc ~tenant:"a" ~id:"neg" ~shots:4 m);
  (match Service.intern svc ~source:(Llvm_ir.Printer.module_to_string (bell ())) with
  | Error e -> Alcotest.fail (Qir_error.to_string e)
  | Ok m -> Service.submit svc ~tenant:"a" ~id:"good" ~shots:8 m);
  Service.drain svc;
  let failed =
    List.filter_map
      (function
        | Service.Failed { id; error; _ } -> Some (id, Qir_error.exit_code error)
        | _ -> None)
      (events ())
  in
  check Alcotest.(list (pair string int)) "negative size fails at run time"
    [ ("neg", Qir_error.exit_exec) ] failed;
  check int_t "the next job completed" 1 (List.length (results (events ())))

(* N concurrent drain loops vs 1: the loops claim jobs from the shared
   stride scheduler in a nondeterministic order, but seeding is
   per-job, so every job's histogram must be bit-identical either
   way. The kernel pool is pinned to one domain so the executor
   Domains are the only concurrency under test. *)
let test_multi_executor_parity () =
  let saved_domains = Qsim.Dpool.domains () in
  Qsim.Dpool.set_domains 1;
  Fun.protect ~finally:(fun () -> Qsim.Dpool.set_domains saved_domains)
  @@ fun () ->
  let jobs =
    List.init 10 (fun i ->
        (Printf.sprintf "j%d" i, ghz (2 + (i mod 3)), 31 + i))
  in
  let run executors =
    let svc, events = recording () in
    List.iter
      (fun (id, m, seed) ->
        Service.submit svc ~tenant:"t" ~id ~shots:16 ~seed m)
      jobs;
    Service.drain_parallel ~executors svc;
    List.filter_map
      (function
        | Service.Result { id; result; _ } ->
          Some (id, result.Executor.histogram, result.Executor.completed)
        | _ -> None)
      (events ())
    |> List.sort compare
  in
  let single = run 1 in
  let multi = run 4 in
  check int_t "all jobs completed under 4 executors" (List.length jobs)
    (List.length multi);
  List.iter2
    (fun (ida, ha, ca) (idb, hb, cb) ->
      check string_t "same job order after sort" ida idb;
      check int_t (Printf.sprintf "job %s: completed shots" ida) ca cb;
      check hist_t (Printf.sprintf "job %s: histogram parity" ida) ha hb)
    single multi

let suite =
  [
    Alcotest.test_case "jsonx: round-trip" `Quick test_jsonx_roundtrip;
    Alcotest.test_case "jsonx: rejects garbage" `Quick
      test_jsonx_rejects_garbage;
    Alcotest.test_case "jsonx: pretty layout rule" `Quick test_jsonx_pretty;
    Alcotest.test_case "jsonx: every emitted document parses" `Quick
      test_emitted_documents_parse;
    Alcotest.test_case "jsonx: checked-in BENCH files parse" `Quick
      test_bench_files_parse;
    Alcotest.test_case "protocol: malformed shots/seed are usage errors"
      `Quick test_protocol_rejects_bad_ints;
    Alcotest.test_case "protocol: mistyped fields are usage errors" `Quick
      test_protocol_rejects_mistyped_fields;
    Alcotest.test_case "protocol: integer shots/seed, unknown keys ignored"
      `Quick test_protocol_reads_ints;
    Alcotest.test_case "scheduler: weighted fairness" `Quick
      test_scheduler_weighted_fairness;
    Alcotest.test_case "scheduler: idle tenants rejoin fairly" `Quick
      test_scheduler_idle_rejoin;
    Alcotest.test_case "scheduler: drop_last picks the newest match" `Quick
      test_scheduler_drop_last;
    Alcotest.test_case "scheduler: cost-weighted fairness" `Quick
      test_scheduler_cost_weighted_fairness;
    Alcotest.test_case "scheduler: cost strides respect weights" `Quick
      test_scheduler_cost_respects_weights;
    Alcotest.test_case "scheduler: idle rejoin under cost strides" `Quick
      test_scheduler_cost_idle_rejoin;
    Alcotest.test_case "scheduler: drop_last never charges shed cost" `Quick
      test_scheduler_drop_last_cost;
    Alcotest.test_case "breaker: trip, half-open, reset" `Quick
      test_breaker_lifecycle;
    Alcotest.test_case "admission: memory budget" `Quick
      test_admission_memory_budget;
    Alcotest.test_case "admission: branching footprint caps at tape" `Quick
      test_admission_branching_footprint;
    Alcotest.test_case "admission: proof beats declaration (QR003)" `Quick
      test_admission_proof_beats_declaration;
    Alcotest.test_case "admission: lower bound rejects before compile" `Quick
      test_admission_lower_bound_rejects_before_compile;
    Alcotest.test_case "admission: per-tenant in-flight accounting" `Quick
      test_admission_tenant_inflight_accounting;
    Alcotest.test_case "service: rejects at admission with exit 8" `Quick
      test_service_rejects_at_admission;
    Alcotest.test_case "service: weighted fairness under contention" `Quick
      test_service_fairness_under_contention;
    Alcotest.test_case "service: cost-fair scheduling across tenants" `Quick
      test_service_cost_fair_scheduling;
    Alcotest.test_case "service: breaker trips and recovers" `Quick
      test_service_breaker_trips_and_recovers;
    Alcotest.test_case "service: sheds queue-expired jobs" `Quick
      test_service_sheds_queue_expired_jobs;
    Alcotest.test_case "service: deadline yields a partial result" `Quick
      test_service_deadline_yields_partial_result;
    Alcotest.test_case "service: batched parity with direct run" `Quick
      test_parity_batched;
    Alcotest.test_case "service: chunked tape parity with direct run" `Quick
      test_parity_tape_chunked;
    Alcotest.test_case "service: per-shot parity under critical load" `Quick
      test_parity_per_shot_critical;
    Alcotest.test_case "service: batch fallback reports the answering tier"
      `Quick test_batch_fallback_reports_answering_tier;
    Alcotest.test_case "service: progress every chunk, none when batched"
      `Quick test_progress_cadence;
    Alcotest.test_case "service: sheds cache-coldest first" `Quick
      test_service_sheds_cache_coldest_first;
    Alcotest.test_case "service: malformed literal is a parse rejection" `Quick
      test_malformed_literal_rejected;
    Alcotest.test_case "service: malformed programs keep it serving" `Quick
      test_malformed_programs_keep_serving;
    Alcotest.test_case "service: interning shares session caches" `Quick
      test_intern_shares_modules_across_jobs;
    Alcotest.test_case "service: the hot text stays interned" `Quick
      test_intern_keeps_hot_text;
    Alcotest.test_case "service: multi-executor drain parity" `Quick
      test_multi_executor_parity;
  ]
