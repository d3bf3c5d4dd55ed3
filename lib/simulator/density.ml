(* Exact density-matrix simulator: the state is a 2^n x 2^n Hermitian
   matrix rho, gates act as rho -> U rho U+, and noise channels apply
   exactly (no trajectory sampling) — the reference against which the
   stochastic {!Noise} model is validated, and a third backend
   demonstrating the runtime's backend-agnosticism on mixed states.

   Memory is 2 * (2^n)^2 doubles: practical to ~10 qubits. Row-major
   storage; index (r, c) of the matrix over basis states, qubit [q] is
   bit [q] of a basis index (as in {!Statevector}). *)

open Qcircuit

type t = {
  mutable n : int;
  mutable re : float array; (* dim * dim *)
  mutable im : float array;
  rng : Rng.t;
}

let dim st = 1 lsl st.n

let create ?(seed = 1) n =
  if n < 0 || n > 12 then
    Sim_error.error ~op:"Density.create" "0 <= n <= 12 required, got %d" n;
  let d = 1 lsl n in
  let re = Array.make (d * d) 0.0 and im = Array.make (d * d) 0.0 in
  re.(0) <- 1.0;
  { n; re; im; rng = Rng.create seed }

let num_qubits st = st.n

let check_qubit st q =
  if q < 0 || q >= st.n then
    Sim_error.error ~op:"Density" "qubit %d out of range [0, %d)" q st.n

let entry st r c = { Complex.re = st.re.((r * dim st) + c); im = st.im.((r * dim st) + c) }

(* Trace(rho) — should stay 1 for trace-preserving evolutions. *)
let trace st =
  let acc = ref 0.0 in
  for k = 0 to dim st - 1 do
    acc := !acc +. st.re.((k * dim st) + k)
  done;
  !acc

(* Probability of basis state [i]: the diagonal entry. *)
let probability st i = st.re.((i * dim st) + i)

(* Direct fill along the diagonal: one stride-(dim+1) walk instead of a
   closure call re-deriving the diagonal index per entry. *)
let probabilities st =
  let d = dim st in
  let out = Array.make d 0.0 in
  let re = st.re in
  let idx = ref 0 in
  for i = 0 to d - 1 do
    Array.unsafe_set out i (Array.unsafe_get re !idx);
    idx := !idx + d + 1
  done;
  out

(* ------------------------------------------------------------------ *)
(* Unitary application: rho -> U rho U+ where U acts on [qs].
   Implemented by applying U to the rows (left multiply) and U+ to the
   columns. We reuse a generic routine over index groups. *)

let apply_matrix st (u : Complex.t array array) qs =
  List.iter (check_qubit st) qs;
  let k = List.length qs in
  let sub = 1 lsl k in
  if Array.length u <> sub then
    Sim_error.error ~op:"Density.apply_matrix" "matrix size %d <> 2^%d"
      (Array.length u) k;
  let d = dim st in
  let bits = Array.of_list qs in
  (* matrix-basis bit (k-1-j) pairs with qubit bits.(j): operand 0 is the
     most significant sub-index bit, matching Gate.matrix *)
  let masks = Array.init k (fun j -> 1 lsl bits.(j)) in
  let expand base subidx =
    let idx = ref base in
    for j = 0 to k - 1 do
      if subidx land (1 lsl (k - 1 - j)) <> 0 then idx := !idx lor masks.(j)
    done;
    !idx
  in
  let all_mask = Array.fold_left ( lor ) 0 masks in
  let tmp_re = Array.make sub 0.0 and tmp_im = Array.make sub 0.0 in
  (* left multiply: rows *)
  for col = 0 to d - 1 do
    let base = ref 0 in
    while !base < d do
      if !base land all_mask = 0 then begin
        for s = 0 to sub - 1 do
          let sr = ref 0.0 and si = ref 0.0 in
          for t = 0 to sub - 1 do
            let m = u.(s).(t) in
            let row = expand !base t in
            let vr = st.re.((row * d) + col) and vi = st.im.((row * d) + col) in
            sr := !sr +. ((m.Complex.re *. vr) -. (m.Complex.im *. vi));
            si := !si +. ((m.Complex.re *. vi) +. (m.Complex.im *. vr))
          done;
          tmp_re.(s) <- !sr;
          tmp_im.(s) <- !si
        done;
        for s = 0 to sub - 1 do
          let row = expand !base s in
          st.re.((row * d) + col) <- tmp_re.(s);
          st.im.((row * d) + col) <- tmp_im.(s)
        done
      end;
      incr base
    done
  done;
  (* right multiply by U+: columns *)
  for row = 0 to d - 1 do
    let base = ref 0 in
    while !base < d do
      if !base land all_mask = 0 then begin
        for s = 0 to sub - 1 do
          let sr = ref 0.0 and si = ref 0.0 in
          for t = 0 to sub - 1 do
            (* (rho U+)(row, s) = sum_t rho(row, t) * conj(U(s, t)) *)
            let m = u.(s).(t) in
            let col = expand !base t in
            let vr = st.re.((row * d) + col) and vi = st.im.((row * d) + col) in
            sr := !sr +. ((m.Complex.re *. vr) +. (m.Complex.im *. vi));
            si := !si +. ((m.Complex.re *. vi) -. (m.Complex.im *. vr))
          done;
          tmp_re.(s) <- !sr;
          tmp_im.(s) <- !si
        done;
        for s = 0 to sub - 1 do
          let col = expand !base s in
          st.re.((row * d) + col) <- tmp_re.(s);
          st.im.((row * d) + col) <- tmp_im.(s)
        done
      end;
      incr base
    done
  done

let rec apply st (g : Gate.t) qs =
  match Gate.num_qubits g, qs with
  | 1, [ _ ] -> apply_matrix st (Gate.matrix g) qs
  | 2, [ _; _ ] -> apply_matrix st (Gate.matrix g) qs
  | 3, [ a; b; c ] ->
    (* decompose 3q gates into the base set *)
    List.iter
      (fun (g', qs') -> apply st g' qs')
      (let open Gate in
       match g with
       | Ccx ->
         (* standard Toffoli decomposition *)
         [ (H, [ c ]); (Cx, [ b; c ]); (Tdg, [ c ]); (Cx, [ a; c ]);
           (T, [ c ]); (Cx, [ b; c ]); (Tdg, [ c ]); (Cx, [ a; c ]);
           (T, [ b ]); (T, [ c ]); (H, [ c ]); (Cx, [ a; b ]); (T, [ a ]);
           (Tdg, [ b ]); (Cx, [ a; b ]) ]
       | Cswap ->
         [ (Cx, [ c; b ]); (Ccx, [ a; b; c ]); (Cx, [ c; b ]) ]
       | _ -> Sim_error.error ~op:"Density.apply" "unsupported 3q gate")
  | _ -> Sim_error.error ~op:"Density.apply" "arity mismatch"

(* ------------------------------------------------------------------ *)
(* Channels                                                             *)

(* Depolarizing channel on qubit [q] with error probability [p]:
   rho -> (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z).
   Applied exactly by summing the four branches. *)
let depolarize st q p =
  check_qubit st q;
  if p > 0.0 then begin
    let d = dim st in
    let size = d * d in
    let acc_re = Array.make size 0.0 and acc_im = Array.make size 0.0 in
    let save_re = Array.copy st.re and save_im = Array.copy st.im in
    let add scale =
      for k = 0 to size - 1 do
        acc_re.(k) <- acc_re.(k) +. (scale *. st.re.(k));
        acc_im.(k) <- acc_im.(k) +. (scale *. st.im.(k))
      done
    in
    add (1.0 -. p);
    List.iter
      (fun g ->
        Array.blit save_re 0 st.re 0 size;
        Array.blit save_im 0 st.im 0 size;
        apply st g [ q ];
        add (p /. 3.0))
      [ Gate.X; Gate.Y; Gate.Z ];
    Array.blit acc_re 0 st.re 0 size;
    Array.blit acc_im 0 st.im 0 size
  end

(* Probability of measuring 1 on [q]: sum of diagonal entries with the
   bit set. *)
let prob_one st q =
  check_qubit st q;
  let bit = 1 lsl q in
  let acc = ref 0.0 in
  for i = 0 to dim st - 1 do
    if i land bit <> 0 then acc := !acc +. probability st i
  done;
  !acc

(* Projective measurement with collapse. *)
let measure st q =
  let p1 = prob_one st q in
  let outcome = Rng.float st.rng < p1 in
  let prob = if outcome then p1 else 1.0 -. p1 in
  let outcome, prob =
    if prob <= 0.0 then (not outcome, 1.0 -. prob) else (outcome, prob)
  in
  let bit = 1 lsl q in
  let d = dim st in
  for r = 0 to d - 1 do
    for c = 0 to d - 1 do
      let keep = (r land bit <> 0) = outcome && (c land bit <> 0) = outcome in
      if keep then begin
        st.re.((r * d) + c) <- st.re.((r * d) + c) /. prob;
        st.im.((r * d) + c) <- st.im.((r * d) + c) /. prob
      end
      else begin
        st.re.((r * d) + c) <- 0.0;
        st.im.((r * d) + c) <- 0.0
      end
    done
  done;
  outcome

let reset st q = if measure st q then apply st Gate.X [ q ]

(* Purity Tr(rho^2): 1 for pure states, 1/2^n for the maximally mixed. *)
let purity st =
  let d = dim st in
  let acc = ref 0.0 in
  for r = 0 to d - 1 do
    for c = 0 to d - 1 do
      let re = st.re.((r * d) + c) and im = st.im.((r * d) + c) in
      acc := !acc +. (re *. re) +. (im *. im)
    done
  done;
  !acc

(* Runs a circuit, optionally applying exact depolarizing noise after
   each gate (probability p1/p2 per participating qubit by arity). *)
let run_circuit ?(seed = 1) ?noise (c : Circuit.t) =
  let st = create ~seed c.Circuit.num_qubits in
  let clbits = Array.make (max c.Circuit.num_clbits 1) false in
  let cond_holds (cond : Circuit.cond option) =
    match cond with
    | None -> true
    | Some { cbits; value } ->
      let v, _ =
        List.fold_left
          (fun (acc, k) cb ->
            ((acc lor if clbits.(cb) then 1 lsl k else 0), k + 1))
          (0, 0) cbits
      in
      v = value
  in
  List.iter
    (fun (op : Circuit.op) ->
      if cond_holds op.Circuit.cond then
        match op.Circuit.kind with
        | Circuit.Gate (g, qs) ->
          apply st g qs;
          (match noise with
          | Some (p1, p2) ->
            let p = if Gate.num_qubits g >= 2 then p2 else p1 in
            List.iter (fun q -> depolarize st q p) qs
          | None -> ())
        | Circuit.Measure (q, cl) -> clbits.(cl) <- measure st q
        | Circuit.Reset q -> reset st q
        | Circuit.Barrier _ -> ())
    c.Circuit.ops;
  (st, clbits)
