(* A variational quantum eigensolver loop — the "quantum circuit as part
   of a larger classical optimization loop" workload the paper gives as
   the near-term motivation for hybrid programs (Sec. II-B).

   Hamiltonian: H = Z0 Z1 + h (X0 + X1), a 2-qubit transverse-field Ising
   term (ground-state energy -sqrt(1 + 4 h^2)). Each energy evaluation
   builds a parametrized circuit, compiles it to QIR, and executes it on
   the runtime — one measurement setting for the ZZ term and one
   (Hadamard-rotated) for the X terms. A derivative-free coordinate
   descent drives the parameters.

   Run with: dune exec examples/vqe_loop.exe *)

open Qcircuit

let h_field = 0.5
let shots = 800

(* Ansatz: Ry(t0) q0; Ry(t1) q1; CX; Ry(t2) q1. *)
let ansatz (t0, t1, t2) =
  let b = Circuit.Build.create ~num_qubits:2 ~num_clbits:0 () in
  Circuit.Build.gate b (Gate.Ry t0) [ 0 ];
  Circuit.Build.gate b (Gate.Ry t1) [ 1 ];
  Circuit.Build.gate b Gate.Cx [ 0; 1 ];
  Circuit.Build.gate b (Gate.Ry t2) [ 1 ];
  b

let rotate_for_basis b = function
  | `Z -> ()
  | `X ->
    Circuit.Build.gate b Gate.H [ 0 ];
    Circuit.Build.gate b Gate.H [ 1 ]

let measured_circuit basis params =
  let b = ansatz params in
  rotate_for_basis b basis;
  Circuit.Build.measure b 0 0;
  Circuit.Build.measure b 1 1;
  Circuit.Build.finish b

let unmeasured_circuit basis params =
  let b = ansatz params in
  rotate_for_basis b basis;
  Circuit.Build.finish b

(* <O> from a histogram: O = product of Z eigenvalues over [bits]. *)
let expectation hist bits =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  let signed =
    List.fold_left
      (fun acc (key, n) ->
        let sign =
          List.fold_left
            (fun s bit -> if key.[bit] = '1' then -s else s)
            1 bits
        in
        acc + (sign * n))
      0 hist
  in
  float_of_int signed /. float_of_int total

(* Shot-based estimate through the full QIR path. *)
let energy ~seed params =
  let run basis =
    let m = Qir.Qir_builder.build (measured_circuit basis params) in
    (Qruntime.Executor.run_shots_resilient ~seed ~shots m).histogram
  in
  let z = run `Z in
  let x = run `X in
  expectation z [ 0; 1 ]
  +. (h_field *. (expectation x [ 0 ] +. expectation x [ 1 ]))

(* Exact expectation via the statevector, for reporting. *)
let exact_energy params =
  let stz, _ = Qsim.Statevector.run_circuit (unmeasured_circuit `Z params) in
  let stx, _ = Qsim.Statevector.run_circuit (unmeasured_circuit `X params) in
  let p = Qsim.Statevector.probabilities stz in
  let zz = p.(0) -. p.(1) -. p.(2) +. p.(3) in
  zz
  +. h_field
     *. (Qsim.Statevector.expectation_z stx 0
        +. Qsim.Statevector.expectation_z stx 1)

(* The best the ansatz can reach, by exact coarse-to-fine search. *)
let ansatz_minimum () =
  let best = ref infinity in
  let pi = Float.pi in
  let steps = 16 in
  for i = 0 to steps - 1 do
    for j = 0 to steps - 1 do
      for k = 0 to steps - 1 do
        let t c = -.pi +. (2.0 *. pi *. float_of_int c /. float_of_int steps) in
        let e = exact_energy (t i, t j, t k) in
        if e < !best then best := e
      done
    done
  done;
  !best

(* Coordinate descent from one starting point; re-evaluates the incumbent
   each round so a lucky shot-noise draw cannot lock the search. *)
let descend ~seed start =
  let params = ref start in
  let counter = ref seed in
  let eval p =
    incr counter;
    energy ~seed:!counter p
  in
  let best = ref (eval !params) in
  let step = ref 0.9 in
  for _round = 1 to 10 do
    best := eval !params;
    for coord = 0 to 2 do
      let t0, t1, t2 = !params in
      let tweak delta =
        match coord with
        | 0 -> (t0 +. delta, t1, t2)
        | 1 -> (t0, t1 +. delta, t2)
        | _ -> (t0, t1, t2 +. delta)
      in
      List.iter
        (fun delta ->
          let candidate = tweak delta in
          let e = eval candidate in
          if e < !best then begin
            best := e;
            params := candidate
          end)
        [ !step; -. !step ]
    done;
    step := !step *. 0.75
  done;
  (!params, !best)

let () =
  let starts =
    [ (0.4, 0.8, -0.3); (2.0, -1.0, 1.0); (-1.5, 1.5, 2.5) ]
  in
  let candidates =
    List.mapi
      (fun i start ->
        let params, e = descend ~seed:(1000 + (i * 10_000)) start in
        Format.printf "start %d: E = %+.4f@\n%!" i e;
        (params, e))
      starts
  in
  let params, best =
    List.fold_left
      (fun (bp, be) (p, e) -> if e < be then (p, e) else (bp, be))
      (List.hd candidates) (List.tl candidates)
  in
  let params = ref params and best = ref best in
  let exact = exact_energy !params in
  let reachable = ansatz_minimum () in
  let e0 = -.sqrt (1.0 +. (4.0 *. h_field *. h_field)) in
  Format.printf "@\nfinal shot-estimated energy:      %+.4f@\n" !best;
  Format.printf "exact energy at these parameters: %+.4f@\n" exact;
  Format.printf "best energy the ansatz can reach: %+.4f@\n" reachable;
  Format.printf "true ground-state energy:         %+.4f@\n" e0;
  if exact -. reachable < 0.2 then
    print_endline "VQE converged to (near) the ansatz optimum."
  else begin
    print_endline "VQE did not converge.";
    exit 1
  end
