(* Shard/cluster differential smoke: the Bigarray-backed storage
   layout, its sharding and the cluster-fusion pass must be observably
   invisible. 100 fuzzed circuits (random and feedback workloads,
   parametric and Clifford) execute per shot under seven engine
   configurations with identical seeds — specialized-flat,
   reference-flat, cluster-fused flat, cluster-fused sharded,
   specialized sharded, reference sharded (the two-level slice
   addressing of the oracle itself) and specialized sharded with
   checked accesses (every unsafe Bigarray index re-asserted against
   the slice bounds) — and every histogram must match bit for bit. The
   shot-branching sampler must also draw bit-identical histograms from
   flat and sharded states, feedback circuits (which branch) included. A
   capstone case allocates a 28-qubit sharded register end to end
   (create, in-shard and cross-shard gates, measurement, teardown) and
   checks the ceiling itself rejects 31.

   Used by CI as the sharding gate:
     dune exec test/smoke/shard_smoke.exe *)

open Qcircuit
module Sv = Qsim.Statevector

let circuits = 100
let shots = 12
let sampler_shots = 200
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "shard-smoke: %s\n" msg)
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

(* Measurement into clbit [cl] becomes measurement into [m - 1 - cl]. *)
let reverse_clbits (c : Circuit.t) =
  let m = c.Circuit.num_clbits in
  {
    c with
    Circuit.ops =
      List.map
        (fun (op : Circuit.op) ->
          match op.Circuit.kind with
          | Circuit.Measure (q, cl) -> { op with Circuit.kind = Circuit.Measure (q, m - 1 - cl) }
          | _ -> op)
        c.Circuit.ops;
  }

let with_local_bits bits f =
  let b0 = Sv.max_local_bits () in
  Sv.set_max_local_bits bits;
  Fun.protect f ~finally:(fun () -> Sv.set_max_local_bits b0)

let with_checked_access f =
  let c0 = Sv.checked_access () in
  Sv.set_checked_access true;
  Fun.protect f ~finally:(fun () -> Sv.set_checked_access c0)

(* Per-shot histogram over clbit strings: works for every workload,
   including feedback circuits the batched sampler rejects, and
   consumes the RNG identically in every engine configuration. *)
let histogram (run : ?seed:int -> Circuit.t -> Sv.t * bool array) c seed =
  let tbl = Hashtbl.create 16 in
  for shot = 0 to shots - 1 do
    let _, clbits = run ~seed:(seed + shot) c in
    let key =
      String.init (Array.length clbits) (fun i ->
          if clbits.(i) then '1' else '0')
    in
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  done;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

let hist_to_string h =
  String.concat ";" (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) h)

(* ------------------------------------------------------------------ *)
(* 1. fuzzed corpus under five engine configurations                     *)

let fuzzed_corpus () =
  for i = 0 to circuits - 1 do
    let seed = 6000 + (i * 100) in
    let n = 2 + (i mod 7) in
    let c =
      if i mod 9 = 0 then Generate.feedback_rounds ~rounds:(1 + (i mod 3)) n
      else
        with_measurements
          (Generate.random ~seed ~parametric:(i mod 2 = 0)
             ~two_qubit_fraction:0.35
             ~gates:(10 + (i mod 4 * 10))
             n)
    in
    let k = 2 + (i mod 5) in
    let lb = 2 + (i mod 3) in
    try
      let base = histogram Sv.run_circuit c seed in
      let checks =
        [
          ("reference-flat", histogram Sv.Reference.run_circuit c seed);
          ("clustered-flat", histogram (Qsim.Fusion.run_circuit ~k) c seed);
          ( "clustered-sharded",
            with_local_bits lb (fun () ->
                histogram (Qsim.Fusion.run_circuit ~k) c seed) );
          ( "specialized-sharded",
            with_local_bits lb (fun () -> histogram Sv.run_circuit c seed) );
          ( "reference-sharded",
            with_local_bits lb (fun () ->
                histogram Sv.Reference.run_circuit c seed) );
          ( "checked-sharded",
            with_checked_access (fun () ->
                with_local_bits lb (fun () ->
                    histogram Sv.run_circuit c seed)) );
        ]
      in
      List.iter
        (fun (name, h) ->
          if h <> base then
            fail "circuit %d (seed %d, k=%d, lb=%d): %s histogram %s <> %s" i
              seed k lb name (hist_to_string h) (hist_to_string base))
        checks;
      (* the shot-branching sampler (state copies, marginals), with the
         clbit order as built and reversed (the lookup-table marginal) *)
      List.iter
        (fun c ->
          let sampled () = Qsim.Sampler.sample ~seed ~shots:sampler_shots c in
          let flat = sampled () in
          let sharded = with_local_bits lb sampled in
          if sharded <> flat then
            fail "circuit %d (seed %d, lb=%d): branching sampler sharded %s <> flat %s"
              i seed lb (hist_to_string sharded) (hist_to_string flat))
        [ c; reverse_clbits c ]
    with e ->
      fail "circuit %d (seed %d): raised %s" i seed (Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* 2. the qubit ceiling: a 28-qubit register allocates, shards, takes   *)
(*    in-shard and cross-shard gates, measures and tears down            *)

let ceiling () =
  (try
     let st = Sv.create ~seed:9 28 in
     if Sv.shard_count st < 2 then
       fail "28-qubit register did not shard (local_bits %d)"
         (Sv.local_bits st);
     Sv.apply st Gate.H [ 0 ];
     Sv.apply st Gate.Cx [ 0; 27 ] (* cross-shard entangler *);
     let p = Sv.prob_one st 27 in
     if Float.abs (p -. 0.5) > 1e-9 then
       fail "28-qubit GHZ pair: prob_one(27) = %g, expected 0.5" p;
     let a = Sv.measure st 0 in
     let b = Sv.measure st 27 in
     if a <> b then fail "28-qubit GHZ pair measured unequal bits";
     ignore (Sys.opaque_identity st)
   with e -> fail "28-qubit check raised %s" (Printexc.to_string e));
  Gc.compact ();
  (* the cap itself: 31 qubits must be rejected at creation *)
  match Sv.create 31 with
  | _ -> fail "create 31 succeeded; expected rejection at max_qubits = 30"
  | exception Qsim.Sim_error.Error _ -> ()

let () =
  fuzzed_corpus ();
  ceiling ();
  Printf.printf
    "shard smoke: %d fuzzed circuits x %d shots x 7 configurations + \
     branching sampler flat/sharded x %d shots + 28-qubit ceiling, %d \
     divergences\n"
    circuits shots sampler_shots !failures;
  if !failures > 0 then exit 1
