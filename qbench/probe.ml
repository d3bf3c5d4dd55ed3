(* The probe pass: the executor's batched tier, taken apart by calling
   the same public functions on the same inputs from outside —
   Qir_parser.parse_with_output, Fusion.plan, the Statevector kernels
   one plan step at a time, and Sampler.sample. Each program's times
   are weighted by how many times the timed loop ran it. *)

open Qcircuit

type t = {
  mutable qir_parser_s : float;
  mutable plan_s : float;
  mutable mat1_s : float;
  mutable mat2_s : float;
  mutable cluster_s : float;
  mutable op_s : float;
  mutable sweeps : float;
  mutable bytes : float;  (** computed: 32 bytes per amplitude per sweep *)
  mutable ops_in : float;
  mutable steps_out : float;
  mutable clustered : float;
  mutable sampler_self_s : float;
}

let create () =
  {
    qir_parser_s = 0.; plan_s = 0.; mat1_s = 0.; mat2_s = 0.; cluster_s = 0.;
    op_s = 0.; sweeps = 0.; bytes = 0.; ops_in = 0.; steps_out = 0.;
    clustered = 0.; sampler_self_s = 0.;
  }

(* [add t ~weight p] adds [weight] copies of probe [p] to [t]. *)
let add t ~weight p =
  t.qir_parser_s <- t.qir_parser_s +. (weight *. p.qir_parser_s);
  t.plan_s <- t.plan_s +. (weight *. p.plan_s);
  t.mat1_s <- t.mat1_s +. (weight *. p.mat1_s);
  t.mat2_s <- t.mat2_s +. (weight *. p.mat2_s);
  t.cluster_s <- t.cluster_s +. (weight *. p.cluster_s);
  t.op_s <- t.op_s +. (weight *. p.op_s);
  t.sweeps <- t.sweeps +. (weight *. p.sweeps);
  t.bytes <- t.bytes +. (weight *. p.bytes);
  t.ops_in <- t.ops_in +. (weight *. p.ops_in);
  t.steps_out <- t.steps_out +. (weight *. p.steps_out);
  t.clustered <- t.clustered +. (weight *. p.clustered);
  t.sampler_self_s <- t.sampler_self_s +. (weight *. p.sampler_self_s)

let kernel_s t = t.mat1_s +. t.mat2_s +. t.cluster_s +. t.op_s

(* Everything the probe accounts for inside the executor. *)
let accounted t = t.qir_parser_s +. t.plan_s +. kernel_s t +. t.sampler_self_s

(* [parse_only] adds the QIR-to-circuit parse the executor runs on every
   batched-tier attempt, [parses] times. *)
let parse_only t ~parses m =
  let _, dt = Util.time (fun () -> Qir.Qir_parser.parse_with_output m) in
  t.qir_parser_s <- t.qir_parser_s +. (float_of_int parses *. dt)

(* One batched run of module [m], counted [weight] times: plan, the
   kernels step by step, and the sampler's own share — Sampler.sample
   minus the fused simulation it wraps. *)
let batched t ~weight ~seed ~shots m =
  let w = float_of_int weight in
  match Qir.Qir_parser.parse_with_output m with
  | Error _ -> ()
  | Ok (c, _) ->
    let prefix = Qsim.Sampler.strip_measurements c in
    let (steps, stats), plan_s = Util.time (fun () -> Qsim.Fusion.plan prefix) in
    let st = Qsim.Statevector.create ~seed c.Circuit.num_qubits in
    let amps = float_of_int (Qsim.Statevector.dim st) in
    let clbits = Array.make (max c.Circuit.num_clbits 1) false in
    let sim_s = ref plan_s in
    List.iter
      (fun step ->
        let (), dt = Util.time (fun () -> Qsim.Fusion.apply_plan st clbits [ step ]) in
        sim_s := !sim_s +. dt;
        let wdt = w *. dt in
        (match step with
        | Qsim.Fusion.Mat1 _ -> t.mat1_s <- t.mat1_s +. wdt
        | Qsim.Fusion.Mat2 _ -> t.mat2_s <- t.mat2_s +. wdt
        | Qsim.Fusion.Cluster _ -> t.cluster_s <- t.cluster_s +. wdt
        | Qsim.Fusion.Op _ -> t.op_s <- t.op_s +. wdt);
        t.sweeps <- t.sweeps +. w;
        t.bytes <- t.bytes +. (w *. 32. *. amps))
      steps;
    let _, sample_s = Util.time (fun () -> Qsim.Sampler.sample ~seed ~shots c) in
    t.plan_s <- t.plan_s +. (w *. plan_s);
    t.ops_in <- t.ops_in +. (w *. float_of_int stats.Qsim.Fusion.ops_in);
    t.steps_out <- t.steps_out +. (w *. float_of_int stats.Qsim.Fusion.steps_out);
    t.clustered <- t.clustered +. (w *. float_of_int stats.Qsim.Fusion.clustered_gates);
    t.sampler_self_s <- t.sampler_self_s +. (w *. Float.max 0. (sample_s -. !sim_s))

let metrics t ~copy_bytes_per_s =
  let bytes_per_s = Util.ratio t.bytes (kernel_s t) in
  [
    ("qir_parser.busy_s", t.qir_parser_s);
    ("fusion.plan_busy_s", t.plan_s);
    ("fusion.steps_per_op", Util.ratio t.steps_out t.ops_in);
    ("fusion.clustered_gate_ratio", Util.ratio t.clustered t.ops_in);
    ("statevector.mat1_s", t.mat1_s);
    ("statevector.mat2_s", t.mat2_s);
    ("statevector.cluster_s", t.cluster_s);
    ("statevector.sweeps", t.sweeps);
    ("statevector.bytes_per_s", bytes_per_s);
    ("statevector.bandwidth_ratio", Util.ratio bytes_per_s copy_bytes_per_s);
    ("sampler.self_s", t.sampler_self_s);
  ]
