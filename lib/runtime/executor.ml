(* End-to-end execution of QIR programs: interpreter (the lli stand-in)
   plus the quantum runtime over a chosen simulator backend. Supports
   single runs and shot loops with histogram collection.

   Resilience (threaded through every entry point via
   {!Resilience.policy}):
   - transient backend faults (injected by the [`Faulty] backend) are
     retried per shot with exponential backoff — each retry re-runs the
     shot with the identical quantum seed but a fresh fault stream, so
     recovered runs reproduce the fault-free outcomes exactly;
   - per-shot and total wall-clock deadlines abort cleanly: completed
     shots are kept and the result is flagged [degraded] instead of
     being lost;
   - the batched (shot-branching) fast path falls back to per-shot
     execution if the fused simulation fails mid-run, and the Domain
     pool falls back to sequential sweeps if workers cannot be spawned —
     both fallbacks are counted in {!shots_result}. *)

open Llvm_ir

type backend_kind =
  [ `Statevector | `Stabilizer | `Faulty of Qsim.Faulty.spec ]

type run_result = {
  output : string; (* the recorded-output bitstring, clbit order *)
  results : (int64 * bool) list; (* all measured results, by address *)
  interp_stats : Interp.stats;
  runtime_stats : Runtime.stats;
  compile_s : float; (* bytecode compile time (0 on cache hit / oracle) *)
  qubits : int; (* simulator register size at the end of the shot *)
}

(* The sampling plan behind the batched tier: the QIR program parsed
   back into a circuit (Ex. 3), its clbits renumbered to recorded-output
   order, prepared for shot-branching sampling.

   Key compatibility: the per-shot histogram is keyed by the recorded
   output (result_record_output call order), or by results in address
   order when nothing is recorded; the key reads the recorded positions
   of {!Qir.Qir_parser.remap_output_order}. Programs it refuses, that
   read an unmeasured result in a condition, or mix static addresses
   with dynamic allocation (the parser numbers both from qubit 0) have
   no plan. *)
let sampling_plan (m : Ir_module.t) =
  match Runtime.addressing m with
  | true, true -> None
  | _ -> (
    match Qir.Qir_parser.parse_with_output m with
    | Ok (c, []) -> Some (Qsim.Sampler.prepare c)
    | Ok (c, recorded) ->
      let key = List.init (List.length recorded) Fun.id in
      Option.map (Qsim.Sampler.prepare ~key)
        (Qir.Qir_parser.remap_output_order c recorded)
    | Error _ -> None)

(* ------------------------------------------------------------------ *)
(* Sessions: the reentrant, handle-based home for everything computed
   from a program and reused across its runs — one LRU list of
   per-module entries keyed by module *identity* (physical equality),
   plus hit/miss counters the service tier and qir-run --stats read.
   An entry holds the module, the digest of the text {!intern} parsed
   it from, one lazily built analyses record, and the four products:
   bytecode, gate-tape verdict, resource certificate and sampling plan,
   each with the seconds computing it took. The certificate and the
   tape read the one analyses record, so their solves are shared. A
   long-running daemon creates one session per logical cache domain;
   callers that never mention sessions share [Session.default].

   A mutex guards the list and every computation on an entry (the
   analyses record is not thread-safe). The list is LRU, not FIFO: a
   use moves the entry to the front, so under a service workload — one
   long-lived hot module among a stream of run-once cold ones — the
   run-once modules evict each other, not the hot entry, which would
   otherwise turn the cheapest jobs in the queue into the most
   expensive ones. *)

module Session = struct
  type cache_stats = {
    compile_hits : int;
    compile_misses : int;
    tape_hits : int;
    tape_misses : int;
    cert_hits : int;
    cert_misses : int;
    plan_hits : int;
    plan_misses : int;
  }

  (* A product, once computed: the value and its compute seconds. *)
  type 'a slot = { mutable value : ('a * float) option }

  type entry = {
    m : Ir_module.t;
    digest : Digest.t option; (* of the text [intern] parsed [m] from *)
    analyses : Qir_analysis.Analyses.t Lazy.t;
    compiled : Bytecode.program slot;
    tape : Gate_tape.t option slot;
    cert : Qir_analysis.Resource.t slot;
    plan : Qsim.Sampler.plan option slot;
    mutable warm : bool; (* has an execution, not just admission, asked? *)
  }

  type counter = { mutable hits : int; mutable misses : int }

  type t = {
    lock : Mutex.t;
    limit : int;
    mutable entries : entry list; (* most recently used first *)
    compiles : counter;
    tapes : counter;
    certs : counter;
    plans : counter;
  }

  let create ?(cache_limit = 8) () =
    if cache_limit < 1 then
      invalid_arg "Executor.Session.create: need a positive cache limit";
    let counter () = { hits = 0; misses = 0 } in
    {
      lock = Mutex.create ();
      limit = cache_limit;
      entries = [];
      compiles = counter ();
      tapes = counter ();
      certs = counter ();
      plans = counter ();
    }

  (* The process-wide session behind the session-less API. *)
  let default = create ()

  let locked s f =
    Mutex.lock s.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

  let find s (m : Ir_module.t) = List.find_opt (fun e -> e.m == m) s.entries

  (* [e], used now: moved (or added) to the front, evicting the least
     recently used entry beyond [limit]. *)
  let use s e =
    let rest = List.filter (fun x -> x != e) s.entries in
    s.entries <- e :: List.filteri (fun i _ -> i < s.limit - 1) rest;
    e

  let entry ?digest s m =
    use s
      (match find s m with
      | Some e -> e
      | None ->
        {
          m;
          digest;
          analyses = lazy (Qir_analysis.Analyses.of_module m);
          compiled = { value = None };
          tape = { value = None };
          cert = { value = None };
          plan = { value = None };
          warm = false;
        })

  (* Program interning: identical text maps to the *same* module, so
     its products hit across jobs and tenants. A miss parses and
     verifies the text; only verifier-clean modules are kept, since the
     analyses behind admission assume them. *)
  let intern s ~source : (Ir_module.t, Qir_error.t) result =
    let digest = Some (Digest.string source) in
    locked s (fun () ->
        match List.find_opt (fun e -> e.digest = digest) s.entries with
        | Some e -> Ok (use s e).m
        | None -> (
          match Parser.parse_module_result ~source_name:"<job>" source with
          | Error msg ->
            Error
              (Qir_error.make ~kind:Qir_error.Parse ~layer:Qir_error.L_parser
                 msg)
          | Ok m -> (
            match Verifier.check_module m with
            | v :: _ -> Error (Qir_error.of_verifier_violation v)
            | [] -> Ok (entry ?digest s m).m)))

  (* [m]'s [slot] product, or compute, time and keep it: the value, its
     compute seconds (the original computation's on a hit), and whether
     it was a hit. [warm] marks the entry warm for {!is_cached}. *)
  let lookup ?(warm = true) s counter slot compute m =
    locked s (fun () ->
        let e = entry s m in
        let slot = slot e in
        let hit = Option.is_some slot.value in
        if hit then counter.hits <- counter.hits + 1
        else begin
          let t0 = Unix.gettimeofday () in
          let value = compute e in
          slot.value <- Some (value, Unix.gettimeofday () -. t0);
          counter.misses <- counter.misses + 1
        end;
        if warm then e.warm <- true;
        let value, seconds = Option.get slot.value in
        (value, seconds, hit))

  let compiled s m =
    lookup s s.compiles (fun e -> e.compiled) (fun e -> Bytecode.compile e.m) m

  let tape_of s m =
    lookup s s.tapes (fun e -> e.tape)
      (fun e -> Gate_tape.extract (Lazy.force e.analyses)) m

  (* The certificate ({!Qir_analysis.Resource}) is what admission
     control and the cost-fair scheduler charge, so a hot module is
     certified once, not per submission. Sizing a job is not running
     it: certifying leaves the entry cold. *)
  let cert_of s m =
    lookup ~warm:false s s.certs (fun e -> e.cert)
      (fun e -> Qir_analysis.Resource.certify (Lazy.force e.analyses)) m

  (* The QIR-to-circuit parse, output-order remap and fusion plan
     behind the batched tier, or the proved [None], so hot runs skip
     all three. Admission control asks with [~warm:false] (it needs
     the branch-point count before anything runs). *)
  let plan_of ?warm s m =
    lookup ?warm s s.plans (fun e -> e.plan) (fun e -> sampling_plan e.m) m

  let cache_stats s =
    locked s (fun () ->
        {
          compile_hits = s.compiles.hits;
          compile_misses = s.compiles.misses;
          tape_hits = s.tapes.hits;
          tape_misses = s.tapes.misses;
          cert_hits = s.certs.hits;
          cert_misses = s.certs.misses;
          plan_hits = s.plans.hits;
          plan_misses = s.plans.misses;
        })

  let cache_stats_fields c =
    [
      ("compile_cache_hits", Jsonx.int c.compile_hits);
      ("compile_cache_misses", Jsonx.int c.compile_misses);
      ("tape_cache_hits", Jsonx.int c.tape_hits);
      ("tape_cache_misses", Jsonx.int c.tape_misses);
      ("cert_cache_hits", Jsonx.int c.cert_hits);
      ("cert_cache_misses", Jsonx.int c.cert_misses);
      ("plan_cache_hits", Jsonx.int c.plan_hits);
      ("plan_cache_misses", Jsonx.int c.plan_misses);
    ]

  (* Has an execution warmed this module — compiled it, analysed its
     tape, or sampled from its plan? Admission control and the
     load-shedding policy treat cache-hot jobs as nearly free. *)
  let is_cached s m =
    locked s (fun () -> List.exists (fun e -> e.m == m && e.warm) s.entries)

  (* The kept tape verdict, if the analysis already ran — a peek that
     never triggers the (expensive) analysis itself. *)
  let cached_tape s m =
    locked s (fun () -> Option.bind (find s m) (fun e -> Option.bind e.tape.value fst))
end

let backend_of_kind ?seed ?attempt (kind : backend_kind) n :
    Qsim.Backend.instance =
  match kind with
  | (`Statevector | `Stabilizer) as k -> Qsim.Backend.create_instance ?seed k n
  | `Faulty spec -> Qsim.Faulty.create_instance ?seed ?attempt spec n

(* One shot: backend, runtime, deadline and entry point are set up here
   once for both interpreters; [interpret ~fuel ~deadline ~externals
   entry] runs the entry and returns its stats and compile seconds.
   [qubits] is the initial register size ({!Runtime.initial_qubits}). *)
let run_with ?(seed = 1) ?(backend : backend_kind = `Statevector) ?fuel
    ?deadline ?attempt ~qubits (m : Ir_module.t) interpret : run_result =
  let inst = backend_of_kind ~seed ?attempt backend qubits in
  let rt = Runtime.create inst in
  let deadline = Resilience.Deadline.to_check deadline in
  let externals = Runtime.externals rt in
  let entry =
    match Ir_module.entry_point m with
    | Some f -> f.Func.name
    | None -> raise (Runtime.Runtime_error "module has no entry point")
  in
  let interp_stats, compile_s = interpret ~fuel ~deadline ~externals entry in
  let results =
    Hashtbl.fold (fun addr b acc -> (addr, b) :: acc) rt.Runtime.results []
    |> List.sort compare
  in
  {
    output = Runtime.recorded_output rt;
    results;
    interp_stats;
    runtime_stats = Runtime.stats rt;
    compile_s;
    qubits = Qsim.Backend.instance_num_qubits inst;
  }

(* One shot of [prog], [m] compiled, whose compile took [compile_s]. *)
let run_bytecode ?seed ?backend ?fuel ?deadline ?attempt ~qubits ~compile_s
    prog (m : Ir_module.t) : run_result =
  run_with ?seed ?backend ?fuel ?deadline ?attempt ~qubits m
    (fun ~fuel ~deadline ~externals entry ->
      let st = Bc_exec.create ?fuel ?deadline ~externals prog in
      let _ = Bc_exec.run_function st entry [] in
      (Bc_exec.stats st, compile_s))

let run ?(session = Session.default) ?seed ?backend ?fuel ?deadline ?attempt
    (m : Ir_module.t) : run_result =
  let prog, dt, cached = Session.compiled session m in
  run_bytecode ?seed ?backend ?fuel ?deadline ?attempt
    ~qubits:(Runtime.initial_qubits m)
    ~compile_s:(if cached then 0. else dt)
    prog m

(* The tree-walking interpreter as the differential oracle for [run]:
   same setup, same observable results, no production path reaches it. *)
module Reference = struct
  let run ?seed ?backend ?fuel ?deadline ?attempt (m : Ir_module.t) :
      run_result =
    run_with ?seed ?backend ?fuel ?deadline ?attempt
      ~qubits:(Runtime.initial_qubits m) m
      (fun ~fuel ~deadline ~externals entry ->
        let st = Interp.create ?fuel ?deadline ~externals m in
        let _ = Interp.run_function st entry [] in
        (Interp.stats st, 0.))
end

(* One shot under a policy: retries transient faults with backoff,
   bounds wall-clock by the shot timeout, and classifies failures into
   the taxonomy. *)
let run_resilient ?session ?(policy = Resilience.default) ?(seed = 1)
    ?(backend : backend_kind = `Statevector) (m : Ir_module.t) :
    (run_result, Qir_error.t) result =
  let rng = Qcircuit.Rng.create (seed lxor 0x5bd1e995) in
  let deadline =
    Resilience.Deadline.(
      earliest (after policy.shot_timeout) (after policy.total_timeout))
  in
  match
    Resilience.with_retries policy rng (fun ~attempt ->
        run ?session ~seed ~backend ?fuel:policy.Resilience.fuel ?deadline
          ~attempt m)
  with
  | Ok (r, _) -> Ok r
  | Error (e, _) -> Error e

(* The shot key: the recorded output when the program records one, else
   the concatenation of all results in address order. *)
let shot_key r =
  if String.length r.output > 0 then r.output
  else
    String.concat ""
      (List.map (fun (_, b) -> if b then "1" else "0") r.results)

(* The execution-tier ladder, fastest first: [`Batched] (shot-branching
   sampling: one fused simulation per measurement branch, every shot of
   a branch drawn from its final distribution), [`Tape] (proved-static
   gate sequence replayed per shot), [`Per_shot] (full interpretation
   per shot). Capping the tier walks the ladder downward — the service
   tier degrades under overload by capping cold or contended jobs at
   [`Tape] or [`Per_shot], whose shot loop reports progress as it runs
   (see [run_shots_resilient]'s [progress]). *)
type tier = [ `Batched | `Tape | `Per_shot ]

let tier_name : tier -> string = function
  | `Batched -> "batched"
  | `Tape -> "tape"
  | `Per_shot -> "per-shot"

(* ------------------------------------------------------------------ *)
(* Shot loops                                                           *)

type shots_result = {
  histogram : (string * int) list;
  completed : int; (* shots that produced an outcome *)
  requested : int;
  degraded : bool; (* a deadline expired; histogram is partial *)
  retries : int; (* transient-fault retries across all shots *)
  batched : bool; (* histogram came from the batched fast path *)
  batch_fallback : bool; (* batched path failed mid-run; fell back *)
  pool_fallbacks : int; (* parallel sweeps degraded to sequential *)
  tape : bool; (* histogram came from gate-tape replay *)
  compile_s : float; (* bytecode compile time (0 on cache hit) *)
  analysis_s : float; (* tape-eligibility static analysis time *)
  branches : int; (* fused simulations the batched tier ran; 0 off it *)
}

(* The run counters of a shots result, as the JSON fields both
   qir-run's stats line and the service's result event carry. *)
let shots_result_fields r =
  [
    ("completed", Jsonx.int r.completed);
    ("requested", Jsonx.int r.requested);
    ("retries", Jsonx.int r.retries);
    ("batched", Jsonx.Bool r.batched);
    ("batch_fallback", Jsonx.Bool r.batch_fallback);
    ("pool_fallbacks", Jsonx.int r.pool_fallbacks);
    ("tape", Jsonx.Bool r.tape);
    ("branches", Jsonx.int r.branches);
    ("degraded", Jsonx.Bool r.degraded);
  ]

(* Test hook: raised inside the batched path to exercise the
   batch -> per-shot fallback without a contrived failing circuit. *)
let batch_sabotage : (unit -> unit) ref = ref (fun () -> ())
let set_batch_sabotage f = batch_sabotage := f

let sorted_histogram tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

exception Deadline_hit

let run_shots_resilient ?(session = Session.default)
    ?(policy = Resilience.default) ?(seed = 1)
    ?(backend : backend_kind = `Statevector) ?(max_tier : tier = `Batched)
    ?(progress = fun (_ : int) -> ()) ~shots (m : Ir_module.t) : shots_result =
  let total_deadline = Resilience.Deadline.after policy.total_timeout in
  let expired () = Resilience.Deadline.expired total_deadline in
  let pool_fallbacks0 = Qsim.Dpool.sequential_fallbacks () in
  let finish r =
    {
      r with
      pool_fallbacks = Qsim.Dpool.sequential_fallbacks () - pool_fallbacks0;
    }
  in
  let empty =
    {
      histogram = [];
      completed = 0;
      requested = shots;
      degraded = false;
      retries = 0;
      batched = false;
      batch_fallback = false;
      pool_fallbacks = 0;
      tape = false;
      compile_s = 0.;
      analysis_s = 0.;
      branches = 0;
    }
  in
  (* The batched tier applies only to the plain statevector backend: the
     stabilizer backend cannot expose amplitudes, and the faulty backend
     must execute per shot so faults actually flow through the runtime
     and its recovery paths. The plan comes from the session cache; a
     deadline that expires at a branch point ends the run with no shots
     (a partial branching run would be a biased sample). *)
  let batched_attempt =
    if max_tier = `Batched && shots > 1 && backend = `Statevector
       && not (expired ())
    then
      match Session.plan_of session m with
      | None, _, _ -> `Not_batchable
      | Some plan, _, _ -> (
        try
          !batch_sabotage ();
          `Batched (Qsim.Sampler.run ~seed ~stop:expired ~shots plan)
        with
        | Qsim.Sampler.Stopped -> `Stopped
        | e when Qir_error.of_exn e <> None -> `Fallback)
    else `Not_batchable
  in
  match batched_attempt with
  | `Batched (histogram, stats) ->
    finish
      {
        empty with
        histogram;
        completed = shots;
        batched = true;
        branches = stats.Qsim.Sampler.branches;
      }
  | `Stopped -> finish { empty with degraded = true; batched = true }
  | (`Not_batchable | `Fallback) as outcome ->
    let r = { empty with batch_fallback = outcome = `Fallback } in
    (* Over budget before the first shot: no tape analysis, no compile. *)
    if expired () then finish { r with degraded = true }
    else begin
      (* Pick the one-shot function once. The gate-tape tier: when the
         cap allows it and the analyses prove the entry is straight-line
         static quantum code, replay the extracted tape instead of
         interpreting. Fuel and per-shot timeouts are interpreter
         concepts, so any policy that sets them keeps the interpreter in
         the loop. Otherwise compile once (and time it); every retry and
         shot below hits the cache. *)
      let tape, analysis_s =
        if
          max_tier <> `Per_shot && shots > 1
          && (backend = `Statevector || backend = `Stabilizer)
          && policy.Resilience.fuel = None
          && policy.Resilience.shot_timeout = None
        then
          let tape, dt, cache_hit = Session.tape_of session m in
          (tape, if cache_hit then 0. else dt)
        else (None, 0.)
      in
      let qubits = Runtime.initial_qubits m in
      let one_shot, compile_s =
        match tape with
        | Some tape ->
          ( (fun ~seed ~deadline:_ ~attempt ->
              Gate_tape.replay tape
                (backend_of_kind ~seed ~attempt backend qubits)),
            0. )
        | None ->
          let prog, dt, cached = Session.compiled session m in
          ( (fun ~seed ~deadline ~attempt ->
              shot_key
                (run_bytecode ~seed ~backend ?fuel:policy.Resilience.fuel
                   ?deadline ~attempt ~qubits ~compile_s:0. prog m)),
            if cached then 0. else dt )
      in
      (* The one shot loop: shot [i] runs with seed [seed + i*7919]. *)
      let tbl = Hashtbl.create 16 in
      let completed = ref 0 in
      let retries = ref 0 in
      let degraded = ref false in
      let rng = Qcircuit.Rng.create (seed lxor 0x27d4eb2d) in
      (try
         for shot = 0 to shots - 1 do
           if expired () then raise Deadline_hit;
           let deadline =
             Resilience.Deadline.(
               earliest total_deadline (after policy.shot_timeout))
           in
           match
             Resilience.with_retries
               ~on_retry:(fun _ ~attempt:_ -> incr retries)
               policy rng
               (one_shot ~seed:(seed + (shot * 7919)) ~deadline)
           with
           | Ok (key, _) ->
             Hashtbl.replace tbl key
               (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key));
             incr completed;
             progress !completed
           | Error (e, _) when e.Qir_error.kind = Qir_error.Timeout ->
             (* deadline expiry keeps completed shots instead of losing
                them *)
             raise Deadline_hit
           | Error (e, _) -> raise (Qir_error.Error e)
         done
       with Deadline_hit -> degraded := true);
      finish
        {
          r with
          histogram = sorted_histogram tbl;
          completed = !completed;
          degraded = !degraded;
          retries = !retries;
          tape = tape <> None;
          compile_s;
          analysis_s;
        }
    end

let pp_histogram ppf hist =
  List.iter
    (fun (key, count) ->
      Format.fprintf ppf "%s: %d@\n" (if key = "" then "(empty)" else key) count)
    hist
