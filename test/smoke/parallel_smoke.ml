(* Parallel-drain smoke: the multi-Domain service execution path under
   2x overload with injected backend faults.

   The same job set — cache-hot jobs, cache-cold fuzzed circuits, a
   transient-fault chaos tenant, an always-failing tenant and jobs
   whose budget is already expired — is submitted to two identically
   configured services at twice the queue capacity, then one is
   drained by a single loop and the other by four Domain drain loops
   claiming from the shared stride scheduler concurrently.

   Hard gates, any violation fails the run:
   - zero non-taxonomy errors: concurrent claiming/bookkeeping never
     lets a raw exception or an unstable error code onto the wire
     (every rejection/failure carries exit code 2..8);
   - per-job histograms bit-identical between 1 and 4 executors.
     Seeding is per job, but batched and tape/per-shot runs of one job
     draw different histograms, and a job's tier follows the queue
     depth and cache state when it is claimed, which claim
     interleaving can change. On this job set every job claims the
     same tier in both runs (the depths sit away from the overload
     thresholds), so a divergence here is either a result that is not
     a function of (job, tier) or a tier that moved; the next gate
     tells the two apart;
   - every completed result of both runs equals one direct
     [Executor.run_shots_resilient] run at the tier its result event
     reports, under the service's retry budget;
   - bookkeeping closes under contention: accepted = completed +
     failed + shed, the queue is empty, and no tenant leaks in-flight
     certified bytes (every charge is released exactly once even when
     four Domains race on completion);
   - the overload is real: rejections happened in both runs.

   Used by CI:  dune exec test/smoke/parallel_smoke.exe *)

open Qcircuit
open Qservice

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "parallel_smoke: %s\n" msg)
    fmt

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

let cold_module seed =
  let n = 2 + (seed mod 4) in
  let gates = 8 + (seed mod 3 * 8) in
  Qir.Qir_builder.build
    (with_measurements (Generate.random ~seed ~parametric:false ~gates n))

let chaos_spec rate seed =
  `Faulty
    {
      Qsim.Faulty.default with
      Qsim.Faulty.gate_rate = rate;
      fault_seed = seed;
    }

let hot = Qir.Qir_builder.build (Generate.bell ())

let tenants = [ "hot"; "cold"; "chaos"; "badbot" ]

(* Submit the deterministic 2x-overload job set: the queue caps at 16,
   and ~32 jobs arrive before anything drains. Admission decisions are
   made in submission order, so both services accept and shed the same
   jobs; only the drain differs. *)
let submit_all svc =
  let jobs = Hashtbl.create 64 in
  let submit ~tenant ~id ~shots ?(seed = 1) ?(backend = `Statevector) ?timeout
      m =
    Hashtbl.replace jobs id (m, seed, shots, backend);
    Service.submit svc ~tenant ~id ~shots ~seed ~backend ?timeout m
  in
  for wave = 0 to 7 do
    for i = 0 to 1 do
      let id = Printf.sprintf "hot-%d-%d" wave i in
      submit ~tenant:"hot" ~id ~shots:24 ~seed:(100 + (wave * 7) + i) hot
    done;
    let id = Printf.sprintf "cold-%d" wave in
    let seed = 1000 + (wave * 3) in
    submit ~tenant:"cold" ~id ~shots:10 ~seed (cold_module seed);
    let id = Printf.sprintf "chaos-%d" wave in
    submit ~tenant:"chaos" ~id ~shots:6 ~seed:(2000 + wave)
      ~backend:(chaos_spec 0.02 (3000 + wave))
      hot;
    if wave mod 3 = 0 then begin
      let id = Printf.sprintf "badbot-%d" wave in
      submit ~tenant:"badbot" ~id ~shots:4 ~backend:(chaos_spec 1.0 wave) hot
    end;
    if wave mod 4 = 0 then begin
      let id = Printf.sprintf "rushed-%d" wave in
      submit ~tenant:"cold" ~id ~shots:4 ~timeout:0.0
        (cold_module (5000 + wave))
    end
  done;
  jobs

let config =
  {
    Service.default_config with
    Service.max_queue = 16;
    max_tenant_queue = 16;
    overload_depth = 5;
    chunk = 7;
    retries = 6;
    breaker_threshold = 3;
    breaker_cooldown = 0.05;
    sleep = false;
  }

let run executors =
  let events = ref [] in
  let svc =
    Service.create ~config ~emit:(fun ev -> events := ev :: !events) ()
  in
  let jobs = submit_all svc in
  (try Service.drain_parallel ~executors svc
   with e ->
     fail "%d-executor drain raised a non-taxonomy exception: %s" executors
       (Printexc.to_string e));
  (svc, jobs, List.rev !events, Service.stats svc)

(* Completed results checked against a direct executor run, both runs. *)
let direct_checked = ref 0

let check_gates label (svc, jobs, events, stats) =
  (* gate 1: only taxonomy-coded errors on the wire *)
  List.iter
    (fun ev ->
      let check_error where (e : Qruntime.Qir_error.t) =
        let code = Qruntime.Qir_error.exit_code e in
        if code < 2 || code > 8 then
          fail "%s: %s carries a non-taxonomy exit code %d (%s)" label where
            code e.Qruntime.Qir_error.message
      in
      match ev with
      | Service.Rejected { id; error; _ } ->
        check_error ("rejection of " ^ id) error
      | Service.Failed { id; error; _ } ->
        check_error ("failure of " ^ id) error
      | _ -> ())
    events;
  (* gate 3: bookkeeping closes and no in-flight bytes leak *)
  if stats.Service.queue_depth <> 0 then
    fail "%s: queue not drained: %d left" label stats.Service.queue_depth;
  if
    stats.Service.accepted
    <> stats.Service.completed + stats.Service.failed + stats.Service.shed
  then
    fail "%s: bookkeeping leak: accepted %d <> completed %d + failed %d + \
          shed %d"
      label stats.Service.accepted stats.Service.completed
      stats.Service.failed stats.Service.shed;
  if stats.Service.rejected = 0 then
    fail "%s: a 2x-overload run rejected nothing; overload never happened"
      label;
  List.iter
    (fun tenant ->
      let leaked = Service.inflight_bytes svc tenant in
      if leaked <> 0 then
        fail "%s: tenant %s leaked %d in-flight bytes after the drain" label
          tenant leaked)
    tenants;
  (* gate 4: every completed result equals one direct executor run at
     the tier its result event reports, under the service's retry
     budget *)
  let policy =
    {
      Qruntime.Resilience.default with
      Qruntime.Resilience.max_retries = config.Service.retries;
      sleep = false;
    }
  in
  List.iter
    (function
      | Service.Result { id; result; tier; _ }
        when not result.Qruntime.Executor.degraded ->
        let m, seed, shots, backend = Hashtbl.find jobs id in
        let direct =
          Qruntime.Executor.run_shots_resilient
            ~session:(Qruntime.Executor.Session.create ())
            ~policy ~seed ~backend ~max_tier:tier ~shots m
        in
        incr direct_checked;
        if
          direct.Qruntime.Executor.histogram
          <> result.Qruntime.Executor.histogram
        then
          fail "%s: %s differs from a direct run at tier %s" label id
            (Qruntime.Executor.tier_name tier)
      | _ -> ())
    events;
  (* index results by job id for the cross-run parity gate *)
  List.filter_map
    (function
      | Service.Result { id; result; _ } ->
        Some
          ( id,
            ( result.Qruntime.Executor.histogram,
              result.Qruntime.Executor.completed ) )
      | _ -> None)
    events
  |> List.sort compare

let () =
  let single = check_gates "1-executor" (run 1) in
  let multi = check_gates "4-executor" (run 4) in
  (* gate 2: same completed job set, bit-identical per-job histograms *)
  if List.length single <> List.length multi then
    fail "result sets differ: %d jobs under 1 executor, %d under 4"
      (List.length single) (List.length multi)
  else
    List.iter2
      (fun (ida, (ha, ca)) (idb, (hb, cb)) ->
        if ida <> idb then fail "result id mismatch: %s vs %s" ida idb
        else if ha <> hb || ca <> cb then
          fail "histogram divergence on %s between 1 and 4 executors" ida)
      single multi;
  if !direct_checked = 0 then
    fail "no completed result was checked against a direct executor run";
  Printf.printf
    "parallel smoke: %d jobs completed under 1 and 4 executor Domains, %d \
     checked against direct runs, %d divergences\n"
    (List.length multi) !direct_checked !failures;
  if !failures > 0 then exit 1
