(* Admission control: reject a job *before* it touches the simulator
   when its statevector memory footprint would breach the configured
   budget. At 30 qubits the sharded statevector is 16 GiB of amplitudes
   (2^30 x two float64 arrays); a service that discovers that mid-run
   has already lost — the whole point is to fail fast with a stable
   taxonomy code ([Overload], exit 8) while the queue is still healthy.

   Footprint sizing consults every proof available, strongest first:

   - the *resource certificate* ({!Qir_analysis.Resource}) carries
     static upper and lower register bounds. A finite upper bound
     replaces the declared footprint; a lower bound over budget rejects
     the job before anything is compiled — no execution can fit, so no
     cycle should be spent on it.
   - a cached gate-tape proof pins the exact register requirement;
   - the entry point's "required_num_qubits" attribute is the declared
     requirement — the tenant's claim, trusted only when nothing proves
     more. When a proof shows a *higher* peak than the declaration the
     proof wins and the discrepancy is surfaced as a QR003 note.

   A job the shot-branching batched tier will run (plain statevector,
   more than one shot, a sampling plan with k branch points) holds up to
   min(k, floor(log2 shots)) + 1 states at once and is charged that
   many. When that exceeds the budget but one state fits, the job is
   admitted capped at the tape tier — one state per shot — instead of
   being rejected.

   Stabilizer-backed jobs use the tableau's quadratic footprint, which
   is negligible at any qubit count this toolchain accepts. Modules
   that declare nothing (registers grow on demand) are admitted at the
   minimum footprint — the budget protects against the proven and
   declared giants, and the dynamic growth path is still bounded by
   {!Qsim.Statevector.max_qubits}. *)

let bytes_per_amplitude = 16 (* re + im, float64 each *)

(* 2^q amplitudes without overflowing 63-bit ints for absurd declared
   qubit counts. *)
let statevector_bytes q =
  if q >= 58 then max_int else bytes_per_amplitude * (1 lsl max 0 q)

let stabilizer_bytes q =
  (* (2n+1) generator rows of 2n+1 bits, stored bytewise *)
  let n = max 1 q in
  ((2 * n) + 1) * (((2 * n) + 8) / 8)

let inner_backend (backend : Qruntime.Executor.backend_kind) =
  match backend with
  | (`Statevector | `Stabilizer) as b -> b
  | `Faulty spec -> (spec.Qsim.Faulty.inner :> [ `Statevector | `Stabilizer ])

let backend_bytes ~(backend : Qruntime.Executor.backend_kind) q =
  match inner_backend backend with
  | `Statevector -> statevector_bytes q
  | `Stabilizer -> stabilizer_bytes q

(* What the admission decision was sized from. *)
type verdict = {
  v_qubits : int;  (* register requirement charged *)
  v_bytes : int;  (* footprint charged (per the backend model, per live state) *)
  v_source : [ `Declared | `Tape | `Certificate ];
  v_qr003 : string option;  (* set when a proof beats the declaration *)
  v_capped : string option;
      (* set when the branching footprint is over budget and the job
         must run capped at the tape tier *)
}

(* The register requirement the footprint is sized from: the declared
   attribute, upgraded by the exact tape proof and by a finite
   certified upper bound — the strongest proof wins, never the
   weakest claim. *)
let evaluate ?tape ?cert ~(backend : Qruntime.Executor.backend_kind)
    (m : Llvm_ir.Ir_module.t) : verdict =
  let declared =
    match Llvm_ir.Ir_module.entry_point m with
    | Some f -> Names.declared_qubits f
    | None -> 0
  in
  let tape_q = Option.map Qruntime.Gate_tape.qubits tape in
  let cert_q = Option.bind cert Qir_analysis.Resource.qubits_upper in
  (* an unbounded certificate still proves its lower bound *)
  let cert_floor =
    match (cert_q, cert) with
    | None, Some c -> Some (Qir_analysis.Resource.qubits_lower c)
    | _ -> None
  in
  let candidates =
    (declared, `Declared)
    :: List.filter_map
         (fun (q, src) -> Option.map (fun q -> (q, src)) q)
         [ (tape_q, `Tape); (cert_q, `Certificate); (cert_floor, `Certificate) ]
  in
  let v_qubits, v_source =
    List.fold_left
      (fun (bq, bs) (q, s) -> if q > bq then (q, s) else (bq, bs))
      (declared, `Declared) candidates
  in
  let v_qr003 =
    if declared > 0 && v_qubits > declared && v_source <> `Declared then
      Some
        (Printf.sprintf
           "QR003: declared qubit count %d is below the %s peak %d; charging \
            the proven bound"
           declared
           (match v_source with `Tape -> "tape-proven" | _ -> "certified")
           v_qubits)
    else None
  in
  {
    v_qubits;
    v_bytes = backend_bytes ~backend v_qubits;
    v_source;
    v_qr003;
    v_capped = None;
  }

let pp_bytes ppf bytes =
  let b = float_of_int bytes in
  if b < 1024. then Format.fprintf ppf "%d B" bytes
  else if b < 1024. ** 2. then Format.fprintf ppf "%.1f KiB" (b /. 1024.)
  else if b < 1024. ** 3. then Format.fprintf ppf "%.1f MiB" (b /. (1024. ** 2.))
  else Format.fprintf ppf "%.1f GiB" (b /. (1024. ** 3.))

let bytes_to_string bytes = Format.asprintf "%a" pp_bytes bytes

let overload fmt =
  Format.kasprintf
    (fun message ->
      Error
        (Qruntime.Qir_error.make ~kind:Qruntime.Qir_error.Overload
           ~layer:Qruntime.Qir_error.L_service message))
    fmt

(* Statevectors live at once when the branching tier runs [shots] shots
   over [k] branch points. *)
let branching_states ~k ~shots =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  min k (log2 shots) + 1

(* [check ~budget ~backend m] admits or rejects the job on memory
   grounds. [Error] carries an [Overload]-kind taxonomy error (stable
   exit code 8) so the rejection flows through the same reporting path
   as every other failure.

   With a certificate, the *proven lower bound* is tested first: when
   even the cheapest execution breaches the budget the job is rejected
   before any compilation — that rejection costs one static analysis,
   not a bytecode compile plus a doomed simulation.

   [session] is the cache whose sampling plan sizes the shot-branching
   footprint; callers omit it when the job cannot run on the batched
   tier. The plan (a QIR parse and a fusion plan) is only looked up
   once one state fits. *)
let check ?tape ?cert ?session ?(shots = 1) ~budget
    ~(backend : Qruntime.Executor.backend_kind) (m : Llvm_ir.Ir_module.t) :
    (verdict, Qruntime.Qir_error.t) result =
  let lower_reject =
    match cert with
    | Some c ->
      let q_lo = Qir_analysis.Resource.qubits_lower c in
      let bytes_lo = backend_bytes ~backend q_lo in
      if bytes_lo > budget then Some (q_lo, bytes_lo) else None
    | None -> None
  in
  match lower_reject with
  | Some (q_lo, bytes_lo) ->
    overload
      "admission rejected before compile: proven %d-qubit lower bound needs \
       %s, over the %s memory budget"
      q_lo (bytes_to_string bytes_lo) (bytes_to_string budget)
  | None ->
    let v = evaluate ?tape ?cert ~backend m in
    if v.v_bytes > budget then
      overload
        "admission rejected: %d-qubit statevector footprint %s exceeds the \
         %s memory budget"
        v.v_qubits (bytes_to_string v.v_bytes) (bytes_to_string budget)
    else
      let plan =
        match session with
        | Some s when backend = `Statevector && shots > 1 ->
          let plan, _, _ = Qruntime.Executor.Session.plan_of ~warm:false s m in
          plan
        | _ -> None
      in
      match plan with
      | Some plan ->
        let states = branching_states ~k:(Qsim.Sampler.branch_points plan) ~shots in
        if v.v_bytes <= budget / states then Ok { v with v_bytes = states * v.v_bytes }
        else
          Ok
            {
              v with
              v_capped =
                Some
                  (Printf.sprintf
                     "branching tier needs %d states (%s) over the %s memory \
                      budget; capped at the tape tier"
                     states
                     (bytes_to_string (states * v.v_bytes))
                     (bytes_to_string budget));
            }
      | None -> Ok v

(* Per-tenant memory accounting: the certified footprints of a tenant's
   in-flight jobs must fit the budget *together*, not just one at a
   time — a tenant cannot queue ten 15 GiB jobs under a 16 GiB budget
   and rely on serialization to hide the aggregate claim. *)
let check_tenant ~budget ~tenant ~inflight_bytes ~bytes :
    (unit, Qruntime.Qir_error.t) result =
  if inflight_bytes > 0 && inflight_bytes + bytes > budget then
    overload
      "admission rejected: tenant %s in-flight certified footprint %s + %s \
       exceeds the %s memory budget"
      tenant
      (bytes_to_string inflight_bytes)
      (bytes_to_string bytes) (bytes_to_string budget)
  else Ok ()
