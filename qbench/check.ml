(* Output oracles, run outside the timed regions. None compares exact
   histogram digests: a sampler that draws in another order is still
   correct. *)

open Qcircuit

let total hist = List.fold_left (fun acc (_, n) -> acc + n) 0 hist

(* Key character j is clbit j. *)
let outcome key =
  let o = ref 0 in
  String.iteri (fun j c -> if c = '1' then o := !o lor (1 lsl j)) key;
  !o

let shots_exact ~shots (r : Qruntime.Executor.shots_result) =
  r.completed = shots && r.requested = shots && total r.histogram = shots
  && not r.degraded

(* qir-batch: the executor's histogram against the exact distribution
   of the Reference statevector (the naive kernels). Three tests, each
   at six standard deviations: every drawn outcome has positive
   probability; each bit's frequency matches its marginal; and the mean
   probability of the drawn outcomes matches its expectation sum p^2,
   which a sampler drawing from the wrong distribution misses. *)
let batch_exact (c : Circuit.t) hist =
  let st, _ = Qsim.Statevector.Reference.run_circuit (Qsim.Sampler.strip_measurements c) in
  let p = Qsim.Statevector.probabilities st in
  let n = c.Circuit.num_qubits in
  let shots = float_of_int (total hist) in
  let support = List.for_all (fun (k, _) -> p.(outcome k) > 1e-14) hist in
  let marginals =
    List.for_all
      (fun j ->
        let exact = ref 0. in
        Array.iteri (fun i pi -> if i land (1 lsl j) <> 0 then exact := !exact +. pi) p;
        let seen =
          float_of_int
            (List.fold_left (fun acc (k, m) -> if k.[j] = '1' then acc + m else acc) 0 hist)
          /. shots
        in
        let sd = sqrt (Float.max 0. (!exact *. (1. -. !exact)) /. shots) in
        Float.abs (seen -. !exact) <= (6. *. sd) +. (1. /. shots))
      (List.init n Fun.id)
  in
  let p2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. p in
  let p3 = Array.fold_left (fun acc x -> acc +. (x *. x *. x)) 0. p in
  let mean =
    List.fold_left (fun acc (k, m) -> acc +. (float_of_int m *. p.(outcome k))) 0. hist
    /. shots
  in
  let sd = sqrt (Float.max 0. (p3 -. (p2 *. p2)) /. shots) in
  let mean_ok = Float.abs (mean -. p2) <= (6. *. sd) +. 1e-12 in
  if not (support && marginals && mean_ok) then
    Printf.eprintf
      "exact-distribution check failed: support %b, marginals %b, mean probability %g vs %g (sd %g)\n%!"
      support marginals mean p2 sd;
  support && marginals && mean_ok

(* Per-shot Reference runs of a circuit: the histogram over [shots]
   independently seeded runs, keyed like the executor's. *)
let reference_shots (c : Circuit.t) ~shots ~seed =
  let tbl = Hashtbl.create 64 in
  for s = 0 to shots - 1 do
    let _, bits = Qsim.Statevector.Reference.run_circuit ~seed:(seed + (s * 7919)) c in
    let key = String.init c.Circuit.num_clbits (fun j -> if bits.(j) then '1' else '0') in
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* Frequency of outcomes whose bits [js] are all 1. *)
let freq hist js =
  let hit k = List.for_all (fun j -> k.[j] = '1') js in
  float_of_int (List.fold_left (fun acc (k, m) -> if hit k then acc + m else acc) 0 hist)
  /. float_of_int (total hist)

(* qir-adaptive: distribution-level agreement of two sampled
   histograms. Every single-bit frequency, and every joint frequency of
   the mid-circuit bit with another bit, must agree within six standard
   deviations of the two-sample difference. *)
let agree ~mid a b =
  let na = float_of_int (total a) and nb = float_of_int (total b) in
  let width = match a with (k, _) :: _ -> String.length k | [] -> 0 in
  let events =
    List.init width (fun j -> [ j ])
    @ List.filter_map (fun j -> if j = mid then None else Some [ mid; j ]) (List.init width Fun.id)
  in
  List.for_all
    (fun js ->
      let fa = freq a js and fb = freq b js in
      let pbar = ((fa *. na) +. (fb *. nb)) /. (na +. nb) in
      let sd = sqrt (pbar *. (1. -. pbar) *. ((1. /. na) +. (1. /. nb))) in
      Float.abs (fa -. fb) <= (6. *. sd) +. (2. /. Float.min na nb))
    events
