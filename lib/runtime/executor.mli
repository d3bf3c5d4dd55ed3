(** End-to-end execution of QIR programs: the interpreter (the [lli]
    stand-in) plus the quantum runtime over a chosen simulator backend
    (Sec. III-C), with a resilience layer — retry/backoff for transient
    backend faults, wall-clock deadlines with graceful degradation, and
    counted fallbacks from the batched and parallel fast paths. *)

type backend_kind =
  [ `Stabilizer | `Statevector | `Faulty of Qsim.Faulty.spec ]
(** [`Faulty spec] wraps the backend named by [spec.inner] in the
    fault injector ({!Qsim.Faulty}); its transient faults exercise the
    retry machinery. *)

(** {1 Sessions}

    A session is one LRU list of per-module entries, keyed by module
    identity ([==]). An entry holds six things derived from the module:
    the digest of the text {!Session.intern} parsed it from, one
    {!Qir_analysis.Analyses.t} that the certificate and the tape share,
    the bytecode, the gate-tape verdict, the resource certificate and
    the sampling plan, plus hit/miss counters per product (a product
    missing from the entry is a miss). Every run entry point takes
    [?session]; callers that omit it share {!Session.default}. A
    long-running service creates one session per logical cache domain,
    interns program text through it and probes it for cache-hot jobs.
    All operations are thread-safe. *)
module Session : sig
  type t

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

  val create : ?cache_limit:int -> unit -> t
  (** A fresh session holding at most [cache_limit] (default 8) module
      entries; a new one evicts the least recently used. *)

  val default : t
  (** The process-wide session behind the session-less API. *)

  val intern :
    t -> source:string -> (Llvm_ir.Ir_module.t, Qir_error.t) result
  (** The module of this exact text: the same value while its entry
      stays (a hit is a use). A miss parses and verifies the text;
      parse and verifier failures are [Parse]/[Verify] errors. *)

  val compiled : t -> Llvm_ir.Ir_module.t -> Llvm_ir.Bytecode.program * float * bool
  (** The compile-once product: the program, the compile wall-clock
      seconds, and whether it was a cache hit (in which case the time is
      the original compile's). *)

  val tape_of : t -> Llvm_ir.Ir_module.t -> Gate_tape.t option * float * bool
  (** The gate-tape verdict, shaped like {!compiled}; the verdict is
      [None] for tape-ineligible modules. *)

  val cert_of : t -> Llvm_ir.Ir_module.t -> Qir_analysis.Resource.t * float * bool
  (** The resource certificate, shaped like {!compiled}: the static
      bounds ({!Qir_analysis.Resource.certify}) that admission control
      and the cost-fair scheduler charge; it leaves the entry cold. *)

  val plan_of :
    ?warm:bool -> t -> Llvm_ir.Ir_module.t -> Qsim.Sampler.plan option * float * bool
  (** The sampling plan behind the batched tier, shaped like
      {!compiled}: the program parsed back into a circuit
      ({!Qir.Qir_parser.parse_with_output}), its clbits renumbered to
      recorded-output order, prepared by {!Qsim.Sampler.prepare} — or
      [None] when the program has no such circuit. [warm] (default true)
      marks the module warm for {!is_cached}; admission control passes
      [false], since sizing a job is not running it. *)

  val cache_stats : t -> cache_stats

  val cache_stats_fields : cache_stats -> (string * Jsonx.t) list
  (** The counters as JSON fields ([compile_cache_hits], ...), shared by
      qir-run's stats line and the service's stats event. *)

  val is_cached : t -> Llvm_ir.Ir_module.t -> bool
  (** Has an execution warmed the module's entry — a compile, a tape
      lookup or a warm plan lookup? Admission control and load shedding
      treat cache-hot jobs as nearly free. *)

  val cached_tape : t -> Llvm_ir.Ir_module.t -> Gate_tape.t option
  (** The cached tape verdict if the analysis already ran; never
      triggers the analysis itself. *)
end

(** {1 Execution tiers} *)

type tier = [ `Batched | `Tape | `Per_shot ]
(** The execution-tier ladder, fastest first: shot-branching batched
    sampling ({!Qsim.Sampler}: one fused simulation per measurement
    branch), proved-static gate-tape replay, full per-shot
    interpretation. Capping the tier (see {!run_shots_resilient})
    walks the ladder downward — the service tier degrades under
    overload by capping jobs at [`Tape] or [`Per_shot]. *)

val tier_name : tier -> string

type run_result = {
  output : string;  (** recorded-output bitstring, clbit order *)
  results : (int64 * bool) list;  (** every measured result, by address *)
  interp_stats : Llvm_ir.Interp.stats;
  runtime_stats : Runtime.stats;
  compile_s : float;  (** bytecode compile seconds; 0 on cache hit *)
  qubits : int;  (** simulator register size at the end of the shot *)
}

val run :
  ?session:Session.t ->
  ?seed:int ->
  ?backend:backend_kind ->
  ?fuel:int ->
  ?deadline:float ->
  ?attempt:int ->
  Llvm_ir.Ir_module.t ->
  run_result
(** One shot on the compile-once bytecode engine ({!Llvm_ir.Bytecode},
    {!Llvm_ir.Bc_exec}). [deadline] is an absolute {!Resilience.Deadline.now}
    (monotonic-clock) instant;
    past it the interpreter aborts with
    {!Llvm_ir.Ir_error.Timeout_error}. [attempt] perturbs only the
    faulty backend's fault stream (retries re-run with the identical
    quantum seed). {!Reference.run} is observably identical — same
    outputs, stats, fuel accounting and error strings. Raises
    {!Runtime.Runtime_error}, {!Llvm_ir.Ir_error.Exec_error},
    {!Llvm_ir.Ir_error.Timeout_error} or
    {!Qsim.Sim_error.Backend_fault} on bad programs, expired deadlines
    and backend faults. *)

(** The tree-walking interpreter ({!Llvm_ir.Interp}), kept as the
    differential oracle for {!run} — no production path reaches it. *)
module Reference : sig
  val run :
    ?seed:int ->
    ?backend:backend_kind ->
    ?fuel:int ->
    ?deadline:float ->
    ?attempt:int ->
    Llvm_ir.Ir_module.t ->
    run_result
  (** {!run} with the AST interpreter in place of the bytecode engine:
      identical backend, runtime and deadline setup; [compile_s] is 0. *)
end

val run_resilient :
  ?session:Session.t ->
  ?policy:Resilience.policy ->
  ?seed:int ->
  ?backend:backend_kind ->
  Llvm_ir.Ir_module.t ->
  (run_result, Qir_error.t) result
(** One shot under a policy: transient faults are retried with backoff
    up to [policy.max_retries]; failures come back classified instead
    of raised. *)

(** {1 Shot loops} *)

type shots_result = {
  histogram : (string * int) list;
  completed : int;  (** shots that produced an outcome *)
  requested : int;
  degraded : bool;  (** a deadline expired; the histogram is partial *)
  retries : int;  (** transient-fault retries across all shots *)
  batched : bool;  (** histogram came from the batched fast path *)
  batch_fallback : bool;  (** batched path failed mid-run; fell back *)
  pool_fallbacks : int;  (** parallel sweeps degraded to sequential *)
  tape : bool;  (** histogram came from the gate-tape fast path *)
  compile_s : float;  (** bytecode compile seconds; 0 on cache hit *)
  analysis_s : float;  (** gate-tape eligibility analysis seconds *)
  branches : int;
      (** fused simulations the batched tier ran (leaves of the
          measurement-branch tree; 1 for terminal-measurement programs),
          0 when another tier answered *)
}

val shots_result_fields : shots_result -> (string * Jsonx.t) list
(** The run counters (every field but the histogram and the timings) as
    JSON fields, shared by qir-run's stats line and the service's result
    event. *)

val run_shots_resilient :
  ?session:Session.t ->
  ?policy:Resilience.policy ->
  ?seed:int ->
  ?backend:backend_kind ->
  ?max_tier:tier ->
  ?progress:(int -> unit) ->
  shots:int ->
  Llvm_ir.Ir_module.t ->
  shots_result
(** Histogram over [shots] runs under a {!Resilience.policy}, keyed by
    the recorded output (or, when the program records nothing, by all
    results in address order), sorted by key. This is the one shot loop:
    the tape and per-shot tiers share it, shot [i] running with seed
    [seed + i * 7919].

    Per shot, transient backend faults are retried with backoff; each
    retry re-runs the shot with the identical quantum seed but a fresh
    fault stream, so a recovered run's histogram equals the fault-free
    one exactly. Expiry of the per-shot or total deadline stops the
    loop and returns the completed shots with [degraded = true]; a
    total deadline already expired when the call starts returns no
    shots without analysing or compiling anything. Permanent errors
    (and exhausted retry budgets) raise {!Qir_error.Error}.

    [progress] is called with the count of completed shots after every
    shot of the tape and per-shot tiers; the batched tier never calls
    it.

    The batched tier is shot-branching sampling ({!Qsim.Sampler}) over
    the session's cached plan ({!Session.plan_of}): every program the
    QIR-to-circuit parser accepts — mid-circuit measurements, resets,
    classically conditioned operations, static or dynamic addressing —
    runs at most [min(2^k, shots)] fused simulations for [k] branch
    points ([branches] reports how many), on the plain statevector
    backend. If it fails mid-run the loop falls back to per-shot
    execution ([batch_fallback = true]); a total deadline that expires
    at a branch point returns no shots, [degraded = true]. The faulty
    backend always executes per shot, so injected faults flow through
    the runtime's recovery paths. Only the per-shot tier compiles
    bytecode.

    Below the batched tier sits the gate-tape tier ({!Gate_tape}):
    with no fuel and no per-shot timeout, on the statevector or
    stabilizer backend, a proved-static entry point is extracted once
    and replayed per shot ([tape = true]) with bit-identical
    histograms. The eligibility verdict is cached per module identity
    ([analysis_s] is 0 on a hit), mirroring the bytecode compile cache,
    which the per-shot tier fills before its first shot.

    [max_tier] (default [`Batched]) caps the ladder explicitly:
    [`Tape] skips the batched sampler but keeps gate-tape replay, whose
    per-shot seeding is identical to the per-shot tier's;
    [`Per_shot] forces full interpretation. *)

val pp_histogram : Format.formatter -> (string * int) list -> unit

(** {1 Test hooks} *)

val set_batch_sabotage : (unit -> unit) -> unit
(** Installs a thunk run at the top of the batched fast path; raising a
    taxonomy exception from it exercises the batch -> per-shot fallback
    deterministically. Reset with [(fun () -> ())]. *)
