(* Chaos smoke for the multi-tenant execution service: concurrent
   tenants submit at roughly twice the service rate (hot cache-friendly
   jobs, a stream of cache-cold fuzzed circuits, a faulty-backend chaos
   tenant, an always-failing tenant that must trip its breaker, and
   injected Domain-pool worker failures), while the queue is drained at
   a deliberately slower pace so the service spends most of the run in
   its Elevated/Critical degradation levels.

   Hard gates, any violation fails the run:
   - zero non-taxonomy errors: nothing escapes submit/run_once as a
     raw exception, and every rejection/failure event carries a stable
     taxonomy exit code (2..8);
   - zero histogram divergences: every completed, non-degraded result
     from a deterministic tenant is re-executed directly against the
     Executor at the tier its result reports and must match bit for bit —
     degradation may defer or shed work, never corrupt it;
   - bookkeeping closes: accepted = completed + failed + shed, and
     rejections happened (the run is actually overloaded);
   - the always-failing tenant's breaker tripped, and the Domain pool
     throttle is released once the queue drains;
   - interning keeps the hot program: the hot and cold tenants submit
     program text through [Service.intern], as qir-serve does, with more
     fresh cold texts than [module_cache_limit] interleaved, and every
     hot submission must map to the same physical module.

   Used by CI:  dune exec test/smoke/service_smoke.exe *)

open Qcircuit
open Qservice

let shots_hot = 24
let shots_cold = 10
let waves = 20

(* Terminal measurements on every qubit so execution produces output
   (same shape as fault_smoke.ml). *)
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

let cold_text seed =
  let n = 2 + (seed mod 4) in
  let gates = 8 + (seed mod 3 * 8) in
  Qir.Qir_builder.to_string
    (with_measurements (Generate.random ~seed ~parametric:false ~gates n))

let () =
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.eprintf "service_smoke: %s\n" msg)
      fmt
  in
  let events = ref [] in
  let config =
    {
      Service.default_config with
      Service.max_queue = 24;
      max_tenant_queue = 20;
      overload_depth = 6;
      chunk = 7;
      retries = 6;
      breaker_threshold = 3;
      breaker_cooldown = 0.05;
      tenant_weights = [ ("hot", 2) ];
      sleep = false;
    }
  in
  let svc =
    Service.create ~config ~emit:(fun ev -> events := ev :: !events) ()
  in
  let intern what source =
    match Service.intern svc ~source with
    | Ok m -> m
    | Error e ->
      fail "%s: interning refused: %s" what (Qruntime.Qir_error.to_string e);
      exit 1
  in
  let hot_text = Qir.Qir_builder.to_string (Generate.bell ()) in
  let hot = intern "hot" hot_text in
  let hot_interns = ref 0 and hot_moved = ref 0 and cold_interns = ref 0 in
  let intern_hot () =
    incr hot_interns;
    let m = intern "hot" hot_text in
    if m != hot then incr hot_moved;
    m
  in
  let intern_cold seed =
    incr cold_interns;
    intern "cold" (cold_text seed)
  in
  (* id -> (module, seed, shots) for deterministic-tenant parity *)
  let deterministic : (string, Llvm_ir.Ir_module.t * int * int) Hashtbl.t =
    Hashtbl.create 128
  in
  let chaos_spec rate seed =
    `Faulty
      {
        Qsim.Faulty.default with
        Qsim.Faulty.gate_rate = rate;
        fault_seed = seed;
      }
  in
  let guarded label f =
    try f ()
    with e -> fail "%s raised a non-taxonomy exception: %s" label
                (Printexc.to_string e)
  in
  (* ---- the chaos run: submit at ~2x the drain rate ---------------- *)
  for wave = 0 to waves - 1 do
    (* hot tenant: the same text every time, interned (cache-hot) *)
    for i = 0 to 3 do
      let id = Printf.sprintf "hot-%d-%d" wave i in
      let seed = 100 + (wave * 7) + i in
      let m = intern_hot () in
      Hashtbl.replace deterministic id (m, seed, shots_hot);
      guarded id (fun () ->
          Service.submit svc ~tenant:"hot" ~id ~shots:shots_hot ~seed m)
    done;
    (* cold tenant: a fresh fuzzed text per job (always cache-cold) *)
    for i = 0 to 2 do
      let id = Printf.sprintf "cold-%d-%d" wave i in
      let seed = 1000 + (wave * 3) + i in
      let m = intern_cold seed in
      Hashtbl.replace deterministic id (m, seed, shots_cold);
      guarded id (fun () ->
          Service.submit svc ~tenant:"cold" ~id ~shots:shots_cold ~seed m)
    done;
    (* chaos tenant: transient faults the retry policy must absorb *)
    for i = 0 to 1 do
      let id = Printf.sprintf "chaos-%d-%d" wave i in
      guarded id (fun () ->
          Service.submit svc ~tenant:"chaos" ~id ~shots:6
            ~seed:(2000 + wave)
            ~backend:(chaos_spec 0.02 (3000 + (wave * 2) + i))
            hot)
    done;
    (* an always-failing tenant: must trip its breaker, not the pool *)
    if wave mod 4 = 0 then
      for i = 0 to 2 do
        let id = Printf.sprintf "badbot-%d-%d" wave i in
        guarded id (fun () ->
            Service.submit svc ~tenant:"badbot" ~id ~shots:4
              ~backend:(chaos_spec 1.0 wave) hot)
      done;
    (* a sprinkling of jobs whose budget expires while queued *)
    if wave mod 5 = 0 then begin
      let id = Printf.sprintf "rushed-%d" wave in
      guarded id (fun () ->
          Service.submit svc ~tenant:"cold" ~id ~shots:4 ~timeout:0.0
            (intern_cold (5000 + wave)))
    end;
    (* injected worker failures for one wave in four: parallel sweeps
       must degrade to sequential, never to a wrong histogram *)
    Qsim.Dpool.force_spawn_failure (wave mod 4 = 1);
    (* drain slower than the arrival rate: ~5 services per ~10 arrivals *)
    for _ = 0 to 4 do
      guarded "run_once" (fun () -> ignore (Service.run_once svc))
    done
  done;
  Qsim.Dpool.force_spawn_failure false;
  guarded "drain" (fun () -> Service.drain svc);
  let events = List.rev !events in
  let stats = Service.stats svc in

  (* ---- gate 1: only taxonomy-coded errors on the wire ------------- *)
  List.iter
    (fun ev ->
      let check_error where (e : Qruntime.Qir_error.t) =
        let code = Qruntime.Qir_error.exit_code e in
        if code < 2 || code > 8 then
          fail "%s carries a non-taxonomy exit code %d (%s)" where code
            e.Qruntime.Qir_error.message
      in
      match ev with
      | Service.Rejected { id; error; _ } ->
        check_error ("rejection of " ^ id) error
      | Service.Failed { id; error; _ } ->
        check_error ("failure of " ^ id) error
      | _ -> ())
    events;

  (* ---- gate 2: zero histogram divergences ------------------------- *)
  let parity_checked = ref 0 in
  List.iter
    (function
      | Service.Result { id; result; tier; _ }
        when Hashtbl.mem deterministic id ->
        if
          (not result.Qruntime.Executor.degraded)
          && result.Qruntime.Executor.completed
             = result.Qruntime.Executor.requested
        then begin
          let m, seed, shots = Hashtbl.find deterministic id in
          let direct =
            Qruntime.Executor.run_shots_resilient
              ~session:(Qruntime.Executor.Session.create ())
              ~policy:
                {
                  Qruntime.Resilience.default with
                  Qruntime.Resilience.sleep = false;
                }
              ~seed ~max_tier:tier ~shots m
          in
          incr parity_checked;
          if direct.Qruntime.Executor.histogram
             <> result.Qruntime.Executor.histogram
          then
            fail "histogram divergence on %s (tier %s)" id
              (Qruntime.Executor.tier_name tier)
        end
      | _ -> ())
    events;
  if !parity_checked < 20 then
    fail "only %d parity checks ran; the smoke lost its teeth"
      !parity_checked;

  (* ---- gate 3: bookkeeping closes under load shedding ------------- *)
  if stats.Service.queue_depth <> 0 then
    fail "queue not drained: %d left" stats.Service.queue_depth;
  if
    stats.Service.accepted
    <> stats.Service.completed + stats.Service.failed + stats.Service.shed
  then
    fail "bookkeeping leak: accepted %d <> completed %d + failed %d + shed %d"
      stats.Service.accepted stats.Service.completed stats.Service.failed
      stats.Service.shed;
  if stats.Service.submitted <> stats.Service.accepted + (stats.Service.rejected - stats.Service.shed)
  then
    fail "admission leak: submitted %d <> accepted %d + turned-away %d"
      stats.Service.submitted stats.Service.accepted
      (stats.Service.rejected - stats.Service.shed);
  if stats.Service.rejected = 0 then
    fail "a 2x-overload run rejected nothing; overload never happened";
  if stats.Service.throttled_runs = 0 then
    fail "critical load never throttled the pool";

  (* ---- gate 4: the hostile tenant tripped its breaker ------------- *)
  if stats.Service.breaker_trips = 0 then
    fail "badbot never tripped a circuit breaker";
  if Qsim.Dpool.throttled () then
    fail "pool throttle left engaged after drain";

  (* ---- gate 5: the hot text stayed interned ----------------------- *)
  if !cold_interns <= config.Service.module_cache_limit then
    fail "only %d cold texts for a limit of %d; interning was never pressed"
      !cold_interns config.Service.module_cache_limit;
  if !hot_moved > 0 then
    fail "the hot text was re-parsed into a new module %d times" !hot_moved;

  Printf.printf
    "service smoke OK: %d submitted, %d accepted, %d completed (%d \
     degraded), %d failed, %d shed, %d rejected, %d breaker trips, %d \
     throttled runs, %d parity checks, 0 divergences\n"
    stats.Service.submitted stats.Service.accepted stats.Service.completed
    stats.Service.degraded_results stats.Service.failed stats.Service.shed
    stats.Service.rejected stats.Service.breaker_trips
    stats.Service.throttled_runs !parity_checked;
  Printf.printf
    "service smoke interning: %d hot + %d cold texts, the hot text \
     re-parsed %d times\n"
    !hot_interns !cold_interns !hot_moved;
  if !failures > 0 then begin
    Printf.eprintf "service smoke FAILED: %d violations\n" !failures;
    exit 1
  end
