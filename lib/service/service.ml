(* The multi-tenant QIR execution service: admission control, per-tenant
   quotas and circuit breakers, weighted fair scheduling, streaming
   execution and graceful overload degradation, over the
   session-based {!Qruntime.Executor}.

   The paper's Ex. 5 argues QIR's value is a stable execution boundary
   many front-ends and backends share; this module is that boundary as
   a *service contract*. Robustness before raw speed:

   - {b admission control} rejects fast — with the stable [Overload]
     taxonomy code (exit 8) — when a job's statevector footprint or a
     queue-depth budget would be breached, instead of letting one
     30-qubit job OOM the whole process ({!Admission});
   - {b per-tenant quotas and deadlines}: shot ceilings, queue-depth
     caps and total wall-clock budgets that include queue wait, reusing
     {!Qruntime.Resilience.Deadline} (monotonic clock);
   - {b circuit breakers} per tenant trip on repeated backend/exec
     failures so a hostile or broken workload stops consuming simulator
     time ({!Breaker});
   - {b weighted fair scheduling} across tenants via stride scheduling
     ({!Scheduler});
   - {b graceful degradation}: under overload the service walks the
     executor's tier ladder downward — batched -> tape -> per-shot —
     with cache-hot jobs (whose compiled module / tape verdict are
     nearly free) kept on the tape tier, throttles the Domain pool to
     sequential sweeps, and sheds queued load cache-coldest-first;
   - {b streaming}: tape and per-shot jobs emit a progress event every
     [chunk] shots, and a deadline that expires mid-job yields the
     completed shots as a degraded-but-correct partial result instead
     of losing them.

   Correctness contract: a job is exactly one
   [Executor.run_shots_resilient] call — the service chooses the tier
   cap, the Domain-pool throttle and the progress cadence, nothing
   else. Its histogram is therefore bit-identical to a direct call at
   the tier reported in its [Result] event (the tier whose flag the
   result carries, which is below the cap when a tier falls back), and
   a degraded job returns a prefix of that run's shots, never
   different ones.

   The core is deterministic and Domain-safe: every piece of mutable
   service state (scheduler, breakers, in-flight accounting, counters,
   event emission) is guarded by one internal mutex, while simulator
   execution runs outside it — so [drain_parallel ~executors:n] can run
   one drain loop per Domain against the shared reentrant
   {!Executor.Session}, and per-job results stay bit-identical to a
   single-threaded [drain] because seeding is per-job, not per-loop.
   Tests drive [submit]/[run_once] directly; the daemon in
   bin/qir_serve.ml owns the sockets and threads around it. *)

open Qruntime

type job = {
  id : string;
  tenant : string;
  m : Llvm_ir.Ir_module.t;
  shots : int;
  seed : int;
  backend : Executor.backend_kind;
  deadline : Resilience.Deadline.t; (* absolute; includes queue wait *)
  submitted_at : float; (* Deadline.now instant *)
  bytes : int; (* certified footprint charged against the tenant *)
  cap : Executor.tier; (* admission's tier cap: [`Tape] when branching won't fit *)
}

type config = {
  mem_budget : int; (* bytes of statevector one job may require *)
  max_queue : int; (* global queued-job ceiling *)
  max_tenant_queue : int; (* per-tenant queued-job ceiling *)
  max_shots : int; (* per-job shot quota *)
  default_timeout : float option; (* per-job budget when none given *)
  retries : int; (* transient-fault retries per shot *)
  breaker_threshold : int; (* consecutive failures that trip *)
  breaker_cooldown : float; (* seconds open before a probe *)
  overload_depth : int; (* queue depth where degradation starts *)
  chunk : int; (* shots between progress events *)
  tenant_weights : (string * int) list; (* default weight 1 *)
  module_cache_limit : int; (* session entries: programs and their products *)
  sleep : bool; (* wait out retry backoff? (off in tests) *)
  cost_fair : bool; (* stride by certified cost, not job count *)
}

let default_config =
  {
    mem_budget = 1 lsl 34 (* 16 GiB: everything the simulator can hold *);
    max_queue = 64;
    max_tenant_queue = 32;
    max_shots = 1_000_000;
    default_timeout = None;
    retries = 3;
    breaker_threshold = 5;
    breaker_cooldown = 1.0;
    overload_depth = 8;
    chunk = 64;
    tenant_weights = [];
    module_cache_limit = 32;
    sleep = true;
    cost_fair = true;
  }

type event =
  | Accepted of { id : string; tenant : string; note : string option }
  | Rejected of {
      id : string;
      tenant : string;
      error : Qir_error.t;
      shed : bool; (* true: evicted from the queue under overload *)
    }
  | Progress of {
      id : string;
      tenant : string;
      completed : int;
      requested : int;
    }
  | Result of {
      id : string;
      tenant : string;
      result : Executor.shots_result;
      tier : Executor.tier; (* the tier that answered: [result]'s flag *)
      wait_s : float; (* queue wait *)
      run_s : float; (* execution wall clock *)
    }
  | Failed of { id : string; tenant : string; error : Qir_error.t }

type stats = {
  submitted : int;
  accepted : int;
  rejected : int; (* admission/quota/breaker rejections, incl. shed *)
  shed : int; (* of [rejected]: evicted after acceptance *)
  completed : int;
  failed : int;
  degraded_results : int; (* partial histograms due to deadlines *)
  batched_runs : int;
  tape_runs : int;
  per_shot_runs : int;
  throttled_runs : int; (* ran with the Domain pool throttled *)
  breaker_trips : int;
  queue_depth : int;
  cache : Executor.Session.cache_stats;
}

type t = {
  config : config;
  lock : Mutex.t; (* guards every mutable field below and [emit] *)
  session : Executor.Session.t;
  sched : job Scheduler.t;
  breakers : (string, Breaker.t) Hashtbl.t;
  inflight : (string, int) Hashtbl.t; (* tenant -> certified bytes queued+running *)
  emit : event -> unit;
  mutable submitted : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable shed : int;
  mutable completed : int;
  mutable failed : int;
  mutable degraded_results : int;
  mutable batched_runs : int;
  mutable tape_runs : int;
  mutable per_shot_runs : int;
  mutable throttled_runs : int;
}

let create ?(config = default_config) ~emit () =
  {
    config;
    lock = Mutex.create ();
    session = Executor.Session.create ~cache_limit:config.module_cache_limit ();
    sched = Scheduler.create ();
    breakers = Hashtbl.create 8;
    inflight = Hashtbl.create 8;
    emit;
    submitted = 0;
    accepted = 0;
    rejected = 0;
    shed = 0;
    completed = 0;
    failed = 0;
    degraded_results = 0;
    batched_runs = 0;
    tape_runs = 0;
    per_shot_runs = 0;
    throttled_runs = 0;
  }

(* Domain-safety: one mutex serializes access to the scheduler, the
   breaker/in-flight tables, the stats counters and [emit]; simulator
   execution itself always runs with the lock released, so concurrent
   drain loops only contend on bookkeeping. *)
let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let session t = t.session
let queue_depth t = locked t (fun () -> Scheduler.length t.sched)
let served_of t tenant = Scheduler.served_of t.sched tenant
let served_cost_of t tenant = Scheduler.served_cost_of t.sched tenant

(* Per-tenant in-flight certified footprint: charged at acceptance,
   released when the job leaves the system (result, failure or shed).
   Admission sums this against the budget so a tenant cannot queue ten
   near-budget jobs and rely on serialization to hide the aggregate. *)
let inflight_bytes t tenant =
  Option.value ~default:0 (Hashtbl.find_opt t.inflight tenant)

let charge t tenant bytes =
  Hashtbl.replace t.inflight tenant (inflight_bytes t tenant + bytes)

let release t (job : job) =
  Hashtbl.replace t.inflight job.tenant
    (max 0 (inflight_bytes t job.tenant - job.bytes))

let breaker t tenant =
  match Hashtbl.find_opt t.breakers tenant with
  | Some b -> b
  | None ->
    let b =
      Breaker.create ~threshold:t.config.breaker_threshold
        ~cooldown:t.config.breaker_cooldown ()
    in
    Hashtbl.add t.breakers tenant b;
    b

let breaker_state t tenant = Breaker.state_name (breaker t tenant)

let stats t =
  locked t @@ fun () ->
  {
    submitted = t.submitted;
    accepted = t.accepted;
    rejected = t.rejected;
    shed = t.shed;
    completed = t.completed;
    failed = t.failed;
    degraded_results = t.degraded_results;
    batched_runs = t.batched_runs;
    tape_runs = t.tape_runs;
    per_shot_runs = t.per_shot_runs;
    throttled_runs = t.throttled_runs;
    breaker_trips =
      Hashtbl.fold (fun _ b acc -> acc + Breaker.trips b) t.breakers 0;
    queue_depth = Scheduler.length t.sched;
    cache = Executor.Session.cache_stats t.session;
  }

(* ------------------------------------------------------------------ *)
(* Program interning: identical program text resubmitted by any tenant
   maps to the *same* Ir_module.t value, so the session's
   identity-keyed products actually hit across jobs. The session keeps
   the text's digest in the module's entry ({!Executor.Session.intern}),
   so a text stays interned exactly as long as its module's products
   stay cached. *)

let intern t ~source = Executor.Session.intern t.session ~source

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)

let overload fmt =
  Format.kasprintf
    (fun message ->
      Qir_error.make ~kind:Qir_error.Overload ~layer:Qir_error.L_service
        message)
    fmt

let reject ?(shed = false) t ~id ~tenant error =
  t.rejected <- t.rejected + 1;
  if shed then t.shed <- t.shed + 1;
  t.emit (Rejected { id; tenant; error; shed })

let cache_cold t job = not (Executor.Session.is_cached t.session job.m)

let submit t ~tenant ?id ?(shots = 1) ?(seed = 1)
    ?(backend : Executor.backend_kind = `Statevector) ?timeout
    (m : Llvm_ir.Ir_module.t) : unit =
  locked t @@ fun () ->
  t.submitted <- t.submitted + 1;
  let id =
    match id with Some s -> s | None -> Printf.sprintf "job-%d" t.submitted
  in
  let fail e = reject t ~id ~tenant e in
  if shots < 1 then
    fail
      (Qir_error.make ~kind:Qir_error.Usage ~layer:Qir_error.L_service
         (Printf.sprintf "job %s: need at least one shot" id))
  else if shots > t.config.max_shots then
    fail
      (overload "tenant %s quota: %d shots exceeds the per-job quota of %d"
         tenant shots t.config.max_shots)
  else if not (Breaker.admit (breaker t tenant)) then
    fail
      (overload
         "circuit breaker open for tenant %s after repeated failures; \
          resubmit after the cooldown"
         tenant)
  else begin
    (* Certify once — the session cache makes resubmissions of the same
       interned module free — and let admission size the footprint from
       the strongest proof available (certificate, cached tape,
       declaration). A proven lower bound over budget rejects here,
       before any compilation. *)
    let cert, _, _ = Executor.Session.cert_of t.session m in
    match
      Admission.check
        ?tape:(Executor.Session.cached_tape t.session m)
        ~cert ~session:t.session ~shots ~budget:t.config.mem_budget ~backend m
    with
    | Error e -> fail e
    | Ok v -> (
      match
        Admission.check_tenant ~budget:t.config.mem_budget ~tenant
          ~inflight_bytes:(inflight_bytes t tenant)
          ~bytes:v.Admission.v_bytes
      with
      | Error e -> fail e
      | Ok () ->
        if Scheduler.queued_of t.sched tenant >= t.config.max_tenant_queue
        then
          fail
            (overload "tenant %s quota: %d jobs already queued (limit %d)"
               tenant
               (Scheduler.queued_of t.sched tenant)
               t.config.max_tenant_queue)
        else begin
          let job =
            {
              id;
              tenant;
              m;
              shots;
              seed;
              backend;
              deadline =
                Resilience.Deadline.after
                  (match timeout with
                  | Some _ -> timeout
                  | None -> t.config.default_timeout);
              submitted_at = Resilience.Deadline.now ();
              bytes = v.Admission.v_bytes;
              cap = (if v.Admission.v_capped = None then `Batched else `Tape);
            }
          in
          let admit () =
            let weight =
              Option.value ~default:1
                (List.assoc_opt tenant t.config.tenant_weights)
            in
            let cost =
              if t.config.cost_fair then
                Qir_analysis.Resource.cost_weight cert ~shots
              else 1.0
            in
            ignore (Scheduler.push ~cost t.sched ~tenant ~weight job);
            charge t tenant job.bytes;
            t.accepted <- t.accepted + 1;
            let note =
              match List.filter_map Fun.id [ v.Admission.v_qr003; v.Admission.v_capped ] with
              | [] -> None
              | notes -> Some (String.concat "; " notes)
            in
            t.emit (Accepted { id; tenant; note })
          in
          if Scheduler.length t.sched < t.config.max_queue then admit ()
          else if cache_cold t job then
            (* Queue full and the newcomer is cold: compiling it would
               cost the most for the least queue relief — reject it. *)
            fail
              (overload
                 "queue full (%d jobs) and job %s is cache-cold; resubmit \
                  later"
                 (Scheduler.length t.sched) id)
          else begin
            (* Queue full but the newcomer is cache-hot (nearly free):
               shed the newest cache-cold queued job to make room. *)
            match Scheduler.drop_last t.sched (cache_cold t) with
            | Some victim ->
              release t victim;
              reject ~shed:true t ~id:victim.id ~tenant:victim.tenant
                (overload
                   "shed under overload: queue full and job %s is \
                    cache-cold; displaced by a cache-hot job"
                   victim.id);
              admit ()
            | None ->
              fail
                (overload "queue full (%d jobs); resubmit later"
                   (Scheduler.length t.sched))
          end
        end)
  end

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)

type load = Normal | Elevated | Critical

let load_level t =
  let depth = Scheduler.length t.sched in
  if depth >= 2 * t.config.overload_depth then Critical
  else if depth >= t.config.overload_depth then Elevated
  else Normal

let remaining_of (job : job) =
  Option.map
    (fun at -> Float.max 0. (at -. Resilience.Deadline.now ()))
    job.deadline

let policy_for t rem =
  {
    Resilience.default with
    Resilience.max_retries = t.config.retries;
    total_timeout = rem;
    sleep = t.config.sleep;
  }

(* Run one popped job to completion (or degradation), streaming
   progress. Bookkeeping and event emission take the service lock;
   the executor call itself runs with the lock released, so other
   drain loops keep claiming and running jobs concurrently. *)
let run_job t (job : job) =
  let start = Resilience.Deadline.now () in
  let wait_s = start -. job.submitted_at in
  let level = locked t (fun () -> load_level t) in
  let hot = Executor.Session.is_cached t.session job.m in
  (* The degradation ladder. Cache-hot jobs keep the batched tier at
     every load level: a warm compile+tape cache makes the fused
     batched run the cheapest possible way to clear a job, so slowing
     the hot path down would only deepen the queue (this is the same
     principle as shedding cache-coldest-first). Cold jobs walk the
     ladder: Elevated caps them at the tape tier — tape and per-shot
     runs stream progress, so no cold job runs silently for a whole
     batched run — and Critical drops them to per-shot interpretation
     while the Domain pool runs sequentially. Admission's own cap (a
     branching footprint over the memory budget) is the ceiling at
     every level. *)
  let cap : Executor.tier =
    match hot, level with
    | false, Elevated -> `Tape
    | false, Critical -> `Per_shot
    | _ -> job.cap
  in
  let throttle = level = Critical in
  Qsim.Dpool.set_throttle throttle;
  if throttle then locked t (fun () -> t.throttled_runs <- t.throttled_runs + 1);
  let chunk_size =
    match level with
    | Normal | Elevated -> t.config.chunk
    | Critical -> max 1 (t.config.chunk / 4)
  in
  let progress completed =
    if completed mod chunk_size = 0 && completed < job.shots then
      locked t (fun () ->
          t.emit
            (Progress
               {
                 id = job.id;
                 tenant = job.tenant;
                 completed;
                 requested = job.shots;
               }))
  in
  try
    let result =
      Executor.run_shots_resilient ~session:t.session
        ~policy:(policy_for t (remaining_of job))
        ~seed:job.seed ~backend:job.backend ~max_tier:cap ~progress
        ~shots:job.shots job.m
    in
    let tier : Executor.tier =
      if result.Executor.batched then `Batched
      else if result.Executor.tape then `Tape
      else `Per_shot
    in
    let run_s = Resilience.Deadline.now () -. start in
    locked t @@ fun () ->
    release t job;
    (match tier with
    | `Batched -> t.batched_runs <- t.batched_runs + 1
    | `Tape -> t.tape_runs <- t.tape_runs + 1
    | `Per_shot -> t.per_shot_runs <- t.per_shot_runs + 1);
    if result.Executor.degraded then
      t.degraded_results <- t.degraded_results + 1;
    t.completed <- t.completed + 1;
    Breaker.record_success (breaker t job.tenant);
    t.emit
      (Result { id = job.id; tenant = job.tenant; result; tier; wait_s; run_s })
  with e ->
    let error = Qir_error.wrap_exn e in
    locked t (fun () ->
        release t job;
        t.failed <- t.failed + 1;
        (match error.Qir_error.kind with
        | Qir_error.Backend_failure | Qir_error.Exec ->
          Breaker.record_failure (breaker t job.tenant)
        | _ -> ());
        t.emit (Failed { id = job.id; tenant = job.tenant; error }))

(* One scheduling quantum: claim the fair-queue head under the lock,
   then run it with the lock released (or shed it if its deadline
   already expired while queued). [false] when the queue is empty. *)
let run_once t =
  let claimed =
    locked t (fun () ->
        match Scheduler.pop t.sched with
        | None ->
          Qsim.Dpool.set_throttle false;
          None
        | Some (_, job) -> Some job)
  in
  match claimed with
  | None -> false
  | Some job ->
    (match job.deadline with
    | Some at when Resilience.Deadline.now () >= at ->
      (* expired while queued: taxonomy-coded shed, no simulator time *)
      locked t (fun () ->
          release t job;
          reject ~shed:true t ~id:job.id ~tenant:job.tenant
            (overload
               "shed under overload: job %s's deadline expired after %.3f s \
                in the queue"
               job.id
               (Resilience.Deadline.now () -. job.submitted_at)))
    | _ -> run_job t job);
    true

let drain t =
  while run_once t do
    ()
  done;
  Qsim.Dpool.set_throttle false

(* One drain loop per Domain. Each loop claims jobs from the shared
   stride scheduler under the service lock and executes them against
   the shared reentrant session with the lock released. Per-job
   histograms are bit-identical to a single-threaded [drain] — seeding
   is per-job — but cross-job scheduling order (and therefore
   load-level transitions) depends on claim interleaving, exactly as
   it would with real concurrent tenants. *)
let drain_parallel ?(executors = 1) t =
  if executors < 1 then
    invalid_arg "Service.drain_parallel: need at least one executor";
  if executors = 1 then drain t
  else begin
    let loop () =
      while run_once t do
        ()
      done
    in
    let workers = Array.init (executors - 1) (fun _ -> Domain.spawn loop) in
    loop ();
    Array.iter Domain.join workers;
    Qsim.Dpool.set_throttle false
  end
