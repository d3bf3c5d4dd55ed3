(* Differential tests for the Bigarray-backed statevector storage
   (lib/simulator/statevector.ml).

   The storage migration's contract is *bit-identity*, not closeness:
   float64 Bigarray slices hold exactly the same IEEE doubles as the
   old [float array] pairs, and every kernel performs the same
   arithmetic on each amplitude in an order-independent way, so no
   result may move by even one ulp. Three angles:

   - [Oracle] is the seed engine's full-scan arithmetic kept on plain
     [float array] storage — the pre-migration representation,
     re-implemented here so the old layout stays testable after the
     library dropped it. A QCheck suite checks amplitudes, classical
     bits and shot histograms of random measured circuits are
     bit-identical between the oracle and {!Statevector.Reference}.
   - The same property with the register forced into small Bigarray
     shards, which exercises the two-level shard addressing.
   - Shard-exchange invariance: the stride-aware cross-shard kernels
     reorder traversal, never arithmetic, so the fast engine and the
     fused engine must produce bit-identical states under every
     [set_max_local_bits] setting. *)

open Qcircuit
open Qsim

let check = Alcotest.check
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* The old storage: seed-engine arithmetic over [float array] pairs    *)

module Oracle = struct
  type t = { n : int; re : float array; im : float array; rng : Rng.t }

  let create ?(seed = 1) n =
    let size = 1 lsl n in
    let re = Array.make size 0.0 and im = Array.make size 0.0 in
    re.(0) <- 1.0;
    { n; re; im; rng = Rng.create seed }

  let amplitude st i = { Complex.re = st.re.(i); im = st.im.(i) }

  let apply_1q st (u : Complex.t array array) q =
    let bit = 1 lsl q in
    let size = 1 lsl st.n in
    let u00 = u.(0).(0) and u01 = u.(0).(1) in
    let u10 = u.(1).(0) and u11 = u.(1).(1) in
    let re = st.re and im = st.im in
    let i = ref 0 in
    while !i < size do
      if !i land bit = 0 then begin
        let i0 = !i in
        let i1 = !i lor bit in
        let a_re = re.(i0) and a_im = im.(i0) in
        let b_re = re.(i1) and b_im = im.(i1) in
        re.(i0) <-
          (u00.Complex.re *. a_re) -. (u00.Complex.im *. a_im)
          +. (u01.Complex.re *. b_re) -. (u01.Complex.im *. b_im);
        im.(i0) <-
          (u00.Complex.re *. a_im) +. (u00.Complex.im *. a_re)
          +. (u01.Complex.re *. b_im) +. (u01.Complex.im *. b_re);
        re.(i1) <-
          (u10.Complex.re *. a_re) -. (u10.Complex.im *. a_im)
          +. (u11.Complex.re *. b_re) -. (u11.Complex.im *. b_im);
        im.(i1) <-
          (u10.Complex.re *. a_im) +. (u10.Complex.im *. a_re)
          +. (u11.Complex.re *. b_im) +. (u11.Complex.im *. b_re)
      end;
      incr i
    done

  let apply_2q st (u : Complex.t array array) qa qb =
    let ba = 1 lsl qa and bb = 1 lsl qb in
    let size = 1 lsl st.n in
    let tmp_re = Array.make 4 0.0 and tmp_im = Array.make 4 0.0 in
    let idx = Array.make 4 0 in
    let re = st.re and im = st.im in
    let i = ref 0 in
    while !i < size do
      if !i land ba = 0 && !i land bb = 0 then begin
        idx.(0) <- !i;
        idx.(1) <- !i lor bb;
        idx.(2) <- !i lor ba;
        idx.(3) <- !i lor ba lor bb;
        for k = 0 to 3 do
          let sr = ref 0.0 and si = ref 0.0 in
          for l = 0 to 3 do
            let m = u.(k).(l) in
            let vr = re.(idx.(l)) and vi = im.(idx.(l)) in
            sr := !sr +. ((m.Complex.re *. vr) -. (m.Complex.im *. vi));
            si := !si +. ((m.Complex.re *. vi) +. (m.Complex.im *. vr))
          done;
          tmp_re.(k) <- !sr;
          tmp_im.(k) <- !si
        done;
        for k = 0 to 3 do
          re.(idx.(k)) <- tmp_re.(k);
          im.(idx.(k)) <- tmp_im.(k)
        done
      end;
      incr i
    done

  let apply_ccx st c1 c2 tgt =
    let b1 = 1 lsl c1 and b2 = 1 lsl c2 and bt = 1 lsl tgt in
    let size = 1 lsl st.n in
    let re = st.re and im = st.im in
    let i = ref 0 in
    while !i < size do
      if !i land b1 <> 0 && !i land b2 <> 0 && !i land bt = 0 then begin
        let j = !i lor bt in
        let tr = re.(!i) and ti = im.(!i) in
        re.(!i) <- re.(j);
        im.(!i) <- im.(j);
        re.(j) <- tr;
        im.(j) <- ti
      end;
      incr i
    done

  let apply_cswap st c a b =
    let bc = 1 lsl c and ba = 1 lsl a and bb = 1 lsl b in
    let size = 1 lsl st.n in
    let re = st.re and im = st.im in
    let i = ref 0 in
    while !i < size do
      if !i land bc <> 0 && !i land ba <> 0 && !i land bb = 0 then begin
        let j = (!i lxor ba) lor bb in
        let tr = re.(!i) and ti = im.(!i) in
        re.(!i) <- re.(j);
        im.(!i) <- im.(j);
        re.(j) <- tr;
        im.(j) <- ti
      end;
      incr i
    done

  let apply st (g : Gate.t) qubits =
    match Gate.num_qubits g, qubits with
    | 1, [ q ] -> apply_1q st (Gate.matrix_1q g) q
    | 2, [ a; b ] -> apply_2q st (Gate.matrix_2q g) a b
    | 3, [ a; b; c ] -> (
      match g with
      | Gate.Ccx -> apply_ccx st a b c
      | Gate.Cswap -> apply_cswap st a b c
      | _ -> assert false)
    | _ -> assert false

  (* Measurement replicates the engine byte for byte: the bit-set-half
     enumeration of [prob_one], its clamp, the degenerate-branch guard
     of [measure] and the collapse normalization — all on the same
     splitmix64 stream. *)
  let prob_one st q =
    let bit = 1 lsl q in
    let half = 1 lsl (st.n - 1) in
    let acc = ref 0.0 in
    for k = 0 to half - 1 do
      let i1 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) lor bit in
      let r = st.re.(i1) and m = st.im.(i1) in
      acc := !acc +. (r *. r) +. (m *. m)
    done;
    Float.min 1.0 (Float.max 0.0 !acc)

  let collapse st q outcome prob =
    let bit = 1 lsl q in
    let size = 1 lsl st.n in
    let prob = if Float.is_nan prob || prob < 1e-300 then 1e-300 else prob in
    let norm = 1.0 /. sqrt prob in
    for i = 0 to size - 1 do
      let is_one = i land bit <> 0 in
      if is_one = outcome then begin
        st.re.(i) <- st.re.(i) *. norm;
        st.im.(i) <- st.im.(i) *. norm
      end
      else begin
        st.re.(i) <- 0.0;
        st.im.(i) <- 0.0
      end
    done

  let measure st q =
    let p1 = prob_one st q in
    let outcome = Rng.float st.rng < p1 in
    let prob = if outcome then p1 else 1.0 -. p1 in
    let outcome, prob =
      if prob <= 0.0 then (not outcome, 1.0 -. prob) else (outcome, prob)
    in
    collapse st q outcome prob;
    outcome

  let run_circuit ?(seed = 1) (c : Circuit.t) =
    let st = create ~seed c.Circuit.num_qubits in
    let clbits = Array.make (max c.Circuit.num_clbits 1) false in
    List.iter
      (fun (op : Circuit.op) ->
        if Statevector.cond_holds clbits op.Circuit.cond then
          match op.Circuit.kind with
          | Circuit.Gate (g, qs) -> apply st g qs
          | Circuit.Measure (q, cl) -> clbits.(cl) <- measure st q
          | Circuit.Reset q ->
            let one = measure st q in
            if one then apply st Gate.X [ q ]
          | Circuit.Barrier _ -> ())
      c.Circuit.ops;
    (st, clbits)
end

(* ------------------------------------------------------------------ *)
(* Workload: random circuits with mid-circuit and final measurements   *)

let measured_random ~seed ~gates n =
  let c = Generate.random ~seed ~parametric:true ~gates n in
  let split = gates / 2 in
  let pre = List.filteri (fun i _ -> i < split) c.Circuit.ops in
  let post = List.filteri (fun i _ -> i >= split) c.Circuit.ops in
  let mid = [ Circuit.measure 0 0; Circuit.reset (n - 1) ] in
  let finals = List.init n (fun q -> Circuit.measure q q) in
  { c with Circuit.num_clbits = n; ops = pre @ mid @ post @ finals }

let bits_of = Int64.bits_of_float

let clbits_key bits =
  String.concat "" (List.map (fun b -> if b then "1" else "0")
                      (Array.to_list bits))

(* Exact per-amplitude comparison: raw IEEE bit patterns, not a
   tolerance. Returns the first diverging index, if any. *)
let first_divergence n get_a get_b =
  let rec go i =
    if i >= 1 lsl n then None
    else
      let a = get_a i and b = get_b i in
      if
        bits_of a.Complex.re <> bits_of b.Complex.re
        || bits_of a.Complex.im <> bits_of b.Complex.im
      then Some i
      else go (i + 1)
  in
  go 0

let with_local_bits lb f =
  let saved = Statevector.max_local_bits () in
  Statevector.set_max_local_bits lb;
  Fun.protect ~finally:(fun () -> Statevector.set_max_local_bits saved) f

(* ------------------------------------------------------------------ *)
(* QCheck: Bigarray Reference vs the float-array oracle                *)

let check_against_oracle ~lb (seed, n) =
  let c = measured_random ~seed ~gates:(5 * n) n in
  (* amplitudes and classical bits of one run, bit for bit *)
  let st_o, cl_o = Oracle.run_circuit ~seed c in
  let st_b, cl_b =
    with_local_bits lb (fun () -> Statevector.Reference.run_circuit ~seed c)
  in
  (match
     first_divergence n (Oracle.amplitude st_o) (Statevector.amplitude st_b)
   with
  | Some i ->
    QCheck2.Test.fail_reportf
      "seed %d, %dq, lb %d: amplitude %d differs from the float-array \
       oracle"
      seed n lb i
  | None -> ());
  if cl_o <> cl_b then
    QCheck2.Test.fail_reportf "seed %d, %dq, lb %d: classical bits differ"
      seed n lb;
  (* shot histograms over reseeded runs *)
  let histogram run =
    let tbl = Hashtbl.create 8 in
    for shot = 0 to 5 do
      let _, cl = run ~seed:(seed + (shot * 7919)) c in
      let key = clbits_key cl in
      Hashtbl.replace tbl key
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
    done;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
  in
  let h_o = histogram (fun ~seed c -> Oracle.run_circuit ~seed c) in
  let h_b =
    histogram (fun ~seed c ->
        with_local_bits lb (fun () ->
            Statevector.Reference.run_circuit ~seed c))
  in
  if h_o <> h_b then
    QCheck2.Test.fail_reportf "seed %d, %dq, lb %d: histograms differ" seed n
      lb;
  true

let prop_bigarray_vs_float_array =
  QCheck2.Test.make ~count:30
    ~name:"bigarray storage is bit-identical to float-array storage"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 2 14))
    (check_against_oracle ~lb:24)

let prop_bigarray_sharded_vs_float_array =
  QCheck2.Test.make ~count:20
    ~name:"sharded bigarray storage is bit-identical to float-array storage"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 4 10))
    (check_against_oracle ~lb:3)

(* ------------------------------------------------------------------ *)
(* Shard-exchange invariance across --local-bits settings              *)

(* The stride-aware exchange only reorders which Domain touches which
   amplitude pair; the per-pair arithmetic is the flat kernels'. So
   the final state may not move by an ulp as the shard size shrinks
   and more gates cross the shard boundary. *)
let invariance_engines =
  [
    ("unfused", fun ~seed c -> Statevector.run_circuit ~seed c);
    ("fused", fun ~seed c -> Fusion.run_circuit ~seed c);
  ]

let test_local_bits_invariance () =
  List.iter
    (fun (ename, run) ->
      List.iter
        (fun (seed, n, gates) ->
          let c = measured_random ~seed ~gates n in
          let flat, cl_flat = with_local_bits 24 (fun () -> run ~seed c) in
          List.iter
            (fun lb ->
              let sharded, cl_sh =
                with_local_bits lb (fun () -> run ~seed c)
              in
              (match
                 first_divergence n
                   (Statevector.amplitude flat)
                   (Statevector.amplitude sharded)
               with
              | Some i ->
                Alcotest.failf
                  "%s engine, seed %d, lb %d: amplitude %d differs from \
                   the flat run"
                  ename seed lb i
              | None -> ());
              check (Alcotest.array Alcotest.bool)
                (Printf.sprintf "%s engine, seed %d, lb %d: classical bits"
                   ename seed lb)
                cl_flat cl_sh)
            [ 7; 5; 3; 2 ])
        [ (3, 9, 80); (17, 8, 60) ])
    invariance_engines

let test_ghz_shard_permutation () =
  (* GHZ's CX ladder reaches the pure shard-permutation fast path
     (all involved bits at or above the boundary) at small lb. *)
  let c = Generate.ghz 10 in
  let flat, _ = with_local_bits 24 (fun () -> Statevector.run_circuit ~seed:5 c) in
  List.iter
    (fun lb ->
      let sharded, _ =
        with_local_bits lb (fun () -> Statevector.run_circuit ~seed:5 c)
      in
      match
        first_divergence 10
          (Statevector.amplitude flat)
          (Statevector.amplitude sharded)
      with
      | Some i ->
        Alcotest.failf "ghz, lb %d: amplitude %d differs from the flat run" lb
          i
      | None -> ())
    [ 6; 4; 2; 1 ]

let test_shard_slice_layout () =
  (* sanity: forcing lb below n really shards the register *)
  with_local_bits 3 (fun () ->
      let st = Statevector.create 6 in
      check int_t "shard count" 8 (Statevector.shard_count st);
      check int_t "local bits" 3 (Statevector.local_bits st))

let suite =
  [
    Alcotest.test_case "local-bits invariance (bit-identical)" `Quick
      test_local_bits_invariance;
    Alcotest.test_case "ghz shard-permutation fast path" `Quick
      test_ghz_shard_permutation;
    Alcotest.test_case "forced sharding layout" `Quick test_shard_slice_layout;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_bigarray_vs_float_array; prop_bigarray_sharded_vs_float_array ]
