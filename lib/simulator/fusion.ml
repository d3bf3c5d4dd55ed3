(* Gate fusion: a pre-execution pass that collapses runs of adjacent
   gates into fewer, denser kernels before the statevector engine runs
   them — the QDFO/dataflow lever: the cost of a kernel is a sweep over
   2^n amplitudes, so applying one fused matrix instead of five separate
   gates is a ~5x win on the hot path.

   The pass is a cost-aware clustering walk: every gate either joins a
   pending cluster (a unitary over the union of their qubits, capped at
   [k] qubits), or flushes the clusters it touches and starts a new one.
   A merge fires only when the engine-cost model says the merged kernel
   is no more expensive than the kernels it replaces: diagonal cluster
   matrices cost a fraction of a sweep, monomial (permutation-with-
   phases) matrices — any run of X/CX/SWAP/CCX/phase gates — cost one
   sweep regardless of cluster width, and dense matrices pay 2^m
   multiplies per amplitude. So Clifford+T runs collapse into wide
   one-sweep clusters, an H still fuses into a neighboring CNOT (the
   dense 4x4 beats two sweeps), but a dense matrix is never grown past
   what the replaced gates cost.

   A pending cluster is a flat matrix (two unboxed float arrays) with
   its cost computed once, when it forms. A gate joins it by a direct
   product on its bit positions: the gate's left product with the first
   cluster it touches, then right products with any further ones —
   never a gate embedded into a full-width matrix for a general
   product. Each entry still receives its nonzero terms in ascending k,
   summed from 0.0, so plans are float-for-float those of a dense
   product of the embedded matrices. Parameter-free gate matrices come
   from a table built once, indexed by gate and operand order; a
   merge's last product lands in the exact-size matrix the new cluster
   keeps, and its cost is one allocation-free scan.

   Every flushed cluster, a lone source gate included, leaves the
   planner as a prepared {!Statevector.kernel}, classified straight
   from its flat matrix once per emitted step, so a cached plan never
   classifies again: 1-qubit matrices as Mat1, 2-qubit as Mat2,
   anything wider as Cluster.

   Measurements, resets, barriers and classically-conditioned
   operations are fusion barriers for the qubits they touch (a
   conditional gate's applicability is only known at run time). The
   emitted plan preserves operation order per qubit; pending matrices on
   disjoint qubits commute, so flush order between qubits is free. *)

open Qcircuit

type step =
  | Mat1 of Statevector.kernel
  | Mat2 of Statevector.kernel
  | Cluster of Statevector.kernel
  | Op of Circuit.op

type stats = {
  ops_in : int;
  steps_out : int;
  fused_1q : int; (* 1q gates merged into a 1-qubit cluster *)
  absorbed_1q : int; (* 1q gates folded into a wider cluster *)
  fused_2q : int; (* 2q gates merged into a cluster *)
  fused_3q : int; (* 3q gates merged into a cluster *)
  clusters_emitted : int; (* fused Cluster steps (3+ qubits) in the plan *)
  clustered_gates : int; (* source gates inside those Cluster steps *)
  identities_dropped : int;
}

(* ------------------------------------------------------------------ *)
(* Flat complex matrices                                                *)

(* A [d x d] complex matrix as two unboxed row-major float arrays:
   entry (r, c) is [re.(r * d + c)] + i [im.(r * d + c)]. *)
type mat = { d : int; re : float array; im : float array }

(* Where a sub-register sits in a register (qubit arrays, both
   ascending, [sub] a subset of [sup]): [offs.(t)] scatters the bits of
   a sub-register index [t] to the sub-register's positions in [sup],
   [proj.(x)] gathers them back out of a register index [x], and [out]
   masks the other positions. The positions ascend, so [offs] ascends:
   walking [t] upward walks the register indices [base lor offs.(t)]
   upward. *)
type place = { offs : int array; proj : int array; out : int }

(* The place of the positions [pmask] in an [n]-qubit register. *)
let place_of_mask n pmask =
  let dsup = 1 lsl n in
  (* the subsets of [pmask] in ascending order *)
  let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1)) in
  let offs = Array.make (1 lsl popcount pmask) 0 in
  for t = 1 to Array.length offs - 1 do
    offs.(t) <- ((offs.(t - 1) lor lnot pmask) + 1) land pmask
  done;
  let proj = Array.make dsup 0 in
  Array.iteri (fun t x -> proj.(x) <- t) offs;
  for x = 0 to dsup - 1 do
    proj.(x) <- proj.(x land pmask)
  done;
  { offs; proj; out = (dsup - 1) land lnot pmask }

(* Every place in registers of up to 6 qubits (the widest cluster),
   built once: read only afterwards, so planners on several domains
   share it. *)
let places = Array.init 7 (fun n -> Array.init (1 lsl n) (place_of_mask n))

let place (sub : int array) (sup : int array) =
  (* the sub-register's positions in [sup], as a mask *)
  let pmask = ref 0 and j = ref 0 in
  for p = 0 to Array.length sup - 1 do
    if !j < Array.length sub && sub.(!j) = sup.(p) then begin
      pmask := !pmask lor (1 lsl p);
      incr j
    end
  done;
  places.(Array.length sup).(!pmask)

(* The products below write into a caller's buffer [dst] (capacity at
   least d * d) and give every entry exactly what a general product
   [a x b] of the embedded matrices gives: the sum, from [0.0], of the
   products a(i,k) b(k,j) over ascending k, skipping each term with an
   exact-zero factor. An embedded factor is zero off its sub-register's
   structure, so only the k and j the place tables enumerate can
   contribute, and each entry still receives its terms in ascending k.
   Plans built from these matrices are therefore float-for-float those
   of a dense product walk. *)

(* Unchecked indexing: every index below is in range by construction
   (sub-register indices under [d], register indices under [d * d]).
   Concrete-typed and fully applied, so the float accesses compile to
   unboxed loads and stores. *)
let[@inline] ( .!() ) (a : float array) i = Array.unsafe_get a i
let[@inline] ( .!()<- ) (a : float array) i (v : float) = Array.unsafe_set a i v
let[@inline] ( .%() ) (a : int array) i = Array.unsafe_get a i

let clear dst d =
  Array.fill dst.re 0 (d * d) 0.0;
  Array.fill dst.im 0 (d * d) 0.0;
  { dst with d }

(* Both products add (ar + i ai) times row [k] of embed(p at [pp]) into
   row [i] of [dst], for each nonzero (ar, ai) of the left factor. The
   inner loop is written out in each: as a function taking [ar] and
   [ai] it would box both floats per call. *)

(* [g] at [pg] applied after [p] at [pp], both sub-registers of a
   [d]-dimensional register: the left product embed(g) x embed(p). *)
let left_apply dst d g pg p pp =
  let dst = clear dst d in
  for i = 0 to d - 1 do
    let grow = pg.proj.%(i) * g.d and io = i land pg.out in
    for t = 0 to g.d - 1 do
      let ar = g.re.!(grow + t) and ai = g.im.!(grow + t) in
      if ar <> 0.0 || ai <> 0.0 then begin
        let k = io lor pg.offs.%(t) in
        let prow = pp.proj.%(k) * p.d and ko = k land pp.out in
        for s = 0 to p.d - 1 do
          let br = p.re.!(prow + s) and bi = p.im.!(prow + s) in
          if br <> 0.0 || bi <> 0.0 then begin
            let o = (i * d) + (ko lor pp.offs.%(s)) in
            dst.re.!(o) <- dst.re.!(o) +. ((ar *. br) -. (ai *. bi));
            dst.im.!(o) <- dst.im.!(o) +. ((ar *. bi) +. (ai *. br))
          end
        done
      end
    done
  done;
  dst

(* [m] applied after [p] at [pp]: the right product m x embed(p). *)
let right_apply dst m p pp =
  let d = m.d in
  let dst = clear dst d in
  for i = 0 to d - 1 do
    for k = 0 to d - 1 do
      let ar = m.re.!((i * d) + k) and ai = m.im.!((i * d) + k) in
      if ar <> 0.0 || ai <> 0.0 then begin
        let prow = pp.proj.%(k) * p.d and ko = k land pp.out in
        for s = 0 to p.d - 1 do
          let br = p.re.!(prow + s) and bi = p.im.!(prow + s) in
          if br <> 0.0 || bi <> 0.0 then begin
            let o = (i * d) + (ko lor pp.offs.%(s)) in
            dst.re.!(o) <- dst.re.!(o) +. ((ar *. br) -. (ai *. bi));
            dst.im.!(o) <- dst.im.!(o) +. ((ar *. bi) +. (ai *. br))
          end
        done
      end
    done
  done;
  dst

let is_identity m =
  (* max-deviation < t iff no entry deviates by >= t, so bail on the
     first offender: almost every matrix the planner probes is not an
     identity, and the planner probes one per flush. The deviation is
     [Complex.norm], a hypot. *)
  try
    for r = 0 to m.d - 1 do
      for c = 0 to m.d - 1 do
        let i = (r * m.d) + c in
        let expect = if r = c then 1.0 else 0.0 in
        if Float.hypot (m.re.!(i) -. expect) m.im.!(i) >= 1e-14 then raise Exit
      done
    done;
    true
  with Exit -> false

(* ------------------------------------------------------------------ *)
(* Engine-cost model                                                    *)

(* Costs in units of one light-compute sweep over the amplitude arrays.
   These numbers are the calibration of an earlier engine that had a
   dedicated kernel per gate shape (diagonal d0=1 kernels touching half
   the amplitudes, CX/SWAP moving half, CCX a quarter, controlled
   4x4s paying a 16-complex-multiply matvec). They are kept as they are
   so plans, and therefore results, stay bit-identical; re-pricing them
   against the one kernel family waits for measured per-class sweep
   costs. *)
let gate_cost (g : Gate.t) =
  match g with
  | Gate.I -> 0.0
  | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg | Gate.P _ -> 0.5
  | Gate.Cx | Gate.Cy | Gate.Swap -> 0.55
  | Gate.Cz | Gate.Cp _ | Gate.Crz _ -> 0.35
  | Gate.Ccx | Gate.Cswap -> 0.3
  | Gate.Ch | Gate.Crx _ | Gate.Cry _ | Gate.Cu _ -> 1.4
  | _ -> if Gate.num_qubits g = 1 then 1.0 else 1.4

(* A pending cluster's cost if flushed as its own kernel, in units of
   one full-array light sweep, from the same earlier calibration as
   [gate_cost] (kept for the same reason): diagonal and monomial
   (cycle-walking) cluster sweeps cost about one sweep regardless of
   width; a 2-qubit non-monomial matrix was priced at that engine's
   general 4x4 kernel (~1.4); anything wider runs as a CSR matvec whose
   per-amplitude work is the average row density — gather/scatter
   staging makes that roughly 0.55 of a sweep per nonzero-per-row on
   top of a half-sweep of fixed overhead. The effect: Clifford+T runs
   fold into wide one-sweep clusters, a single H still fuses into its
   neighborhood, but sparse clusters stop absorbing gates as soon as
   their rows thicken. *)
let cluster_cost m =
  (* exact zeros are structure: gate matrices carry them, and products
     of structured matrices preserve them. One scan: a matrix is
     monomial when every row has one nonzero and no two rows share its
     column (then every column has exactly one); the columns seen so
     far are a bit set over two ints, as d <= 64. *)
  let d = m.d in
  let nnz = ref 0 and diag = ref true and rows1 = ref true in
  let lo = ref 0 and hi = ref 0 and distinct = ref true in
  for r = 0 to d - 1 do
    let row = ref 0 and last = ref 0 in
    for c = 0 to d - 1 do
      if m.re.!((r * d) + c) <> 0.0 || m.im.!((r * d) + c) <> 0.0 then begin
        incr row;
        last := c;
        if r <> c then diag := false
      end
    done;
    if !row <> 1 then rows1 := false
    else begin
      let set = if !last < 32 then lo else hi in
      let bit = 1 lsl (!last land 31) in
      if !set land bit <> 0 then distinct := false;
      set := !set lor bit
    end;
    nnz := !nnz + !row
  done;
  if !diag then 0.7
  else if !rows1 && !distinct then 1.2
  else if d <= 4 then 1.4
  else 0.5 +. (0.55 *. float_of_int !nnz /. float_of_int d)

(* ------------------------------------------------------------------ *)
(* The clustering walk                                                  *)

type pend = {
  m : mat; (* [re] and [im] hold exactly d * d entries *)
  qs : int array; (* ascending; matrix bit j <-> qs.(j) *)
  gates : int; (* source gates folded in *)
  cost : float; (* gate_cost of the lone source gate, else cluster_cost of [m] *)
}

let default_k =
  lazy
    (match Sys.getenv_opt "QIR_SIM_CLUSTER_K" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v -> max 2 (min 6 v)
      | None -> 4)
    | None -> 4)

(* An operand order as a code: base-4 digits, operand 0 most
   significant, each the operand's rank among the sorted operands. *)
let rec below (q : int) = function [] -> 0 | q' :: r -> Bool.to_int (q' < q) + below q r

let rec code_of all code = function
  | [] -> code
  | q :: rest -> code_of all ((code * 4) + below q all) rest

let order_code qs = code_of qs 0 qs

(* A gate's matrix over its operands in ascending order: local bit j is
   the operand of rank j. [Gate.flat_matrix]'s bit j is operand
   [m - 1 - j], whose rank is digit j of [code]; operands in descending
   order (code 0, 4 or 36) leave every bit in place. *)
let local_of g code =
  let gre, gim = Gate.flat_matrix g in
  let m = Gate.num_qubits g in
  let d = 1 lsl m in
  if code = (match m with 1 -> 0 | 2 -> 4 | _ -> 36) then { d; re = gre; im = gim }
  else begin
    let proj x =
      let t = ref 0 in
      for j = 0 to m - 1 do
        t := !t lor (((x lsr ((code lsr (2 * j)) land 3)) land 1) lsl j)
      done;
      !t
    in
    let re = Array.make (d * d) 0.0 and im = Array.make (d * d) 0.0 in
    for r = 0 to d - 1 do
      for c = 0 to d - 1 do
        let src = (proj r * d) + proj c in
        re.((r * d) + c) <- gre.(src);
        im.((r * d) + c) <- gim.(src)
      done
    done;
    { d; re; im }
  end

(* The parameter-free gates, each built once in every operand order
   ([fixed_local.(i).(order_code qs)] for [fixed.(i)]): read only after
   initialization, so planners on several domains share the table. *)
let fixed = Gate.[| H; X; Y; Z; S; Sdg; T; Tdg; Sx; Sxdg; Cx; Cy; Cz; Ch; Swap; Ccx; Cswap |]

let fixed_local =
  let orders = function
    | 1 -> [ [ 0 ] ]
    | 2 -> [ [ 0; 1 ]; [ 1; 0 ] ]
    | _ -> [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ]; [ 2; 1; 0 ] ]
  in
  Array.map
    (fun g ->
      let tbl = Array.make 64 { d = 0; re = [||]; im = [||] } in
      List.iter
        (fun qs -> tbl.(order_code qs) <- local_of g (order_code qs))
        (orders (Gate.num_qubits g));
      tbl)
    fixed

let local_matrix g qs =
  (* parameter-free gates are constant constructors: physical equality
     finds them, and no parametric gate matches *)
  let i = ref 0 in
  while !i < Array.length fixed && fixed.(!i) != g do
    incr i
  done;
  if !i < Array.length fixed then fixed_local.(!i).(order_code qs)
  else local_of g (order_code qs)

(* The ascending union of two ascending qubit arrays. *)
let merge a b =
  let out = Array.make (Array.length a + Array.length b) 0 in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < Array.length a || !j < Array.length b do
    let q =
      if !j >= Array.length b || (!i < Array.length a && a.(!i) < b.(!j)) then begin
        incr i;
        a.(!i - 1)
      end
      else if !i < Array.length a && a.(!i) = b.(!j) then begin
        incr i;
        incr j;
        a.(!i - 1)
      end
      else begin
        incr j;
        b.(!j - 1)
      end
    in
    out.(!n) <- q;
    incr n
  done;
  Array.sub out 0 !n

(* Sorted operands, or [||] when two coincide. *)
let sorted_operands = function
  | [ a ] -> [| a |]
  | [ a; b ] -> if a < b then [| a; b |] else if b < a then [| b; a |] else [||]
  | qs ->
    let a = Array.of_list qs in
    Array.sort Int.compare a;
    let ok = ref true in
    for i = 0 to Array.length a - 2 do
      if a.(i) = a.(i + 1) then ok := false
    done;
    if !ok then a else [||]

let plan ?k (c : Circuit.t) : step list * stats =
  let k =
    match k with Some v -> max 2 (min 6 v) | None -> Lazy.force default_k
  in
  let nq = max c.Circuit.num_qubits 1 in
  let pending : pend option array = Array.make nq None in
  let rev_steps = ref [] in
  let fused_1q = ref 0
  and absorbed_1q = ref 0
  and fused_2q = ref 0
  and fused_3q = ref 0
  and clusters_emitted = ref 0
  and clustered_gates = ref 0
  and identities = ref 0 in
  let emit s = rev_steps := s :: !rev_steps in
  (* two buffers for the intermediate products, big enough for any
     cluster of this plan *)
  let cap = 1 lsl (2 * min k nq) in
  let buffer () = { d = 0; re = Array.make cap 0.0; im = Array.make cap 0.0 } in
  let ws_a = buffer () and ws_b = buffer () in
  (* a merge's last product lands in an exact-size matrix that the new
     cluster keeps *)
  let result d = { d; re = Array.create_float (d * d); im = Array.create_float (d * d) } in
  let lower p =
    if is_identity p.m then incr identities
    else begin
      let k = Statevector.kernel p.m.re p.m.im p.qs in
      match Array.length p.qs with
      | 1 -> emit (Mat1 k)
      | 2 -> emit (Mat2 k)
      | _ ->
        if p.gates > 1 then begin
          incr clusters_emitted;
          clustered_gates := !clustered_gates + p.gates
        end;
        emit (Cluster k)
    end
  in
  let flush_p p =
    Array.iter (fun q -> pending.(q) <- None) p.qs;
    lower p
  in
  let flush q = match pending.(q) with None -> () | Some p -> flush_p p in
  let flush_all () =
    for q = 0 to nq - 1 do
      flush q
    done
  in
  let start op g gqs gm =
    if Array.length gqs <= k then
      let p = Some { m = gm; qs = gqs; gates = 1; cost = gate_cost g } in
      Array.iter (fun q -> pending.(q) <- p) gqs
    else emit (Op op)
  in
  (* A gate arrives as its local matrix [gm] over sorted qubits [gqs]:
     merge it with every pending cluster it overlaps when the cost
     model approves, otherwise flush those clusters and start fresh. *)
  let handle op g gqs gm =
    let parts =
      Array.fold_left
        (fun acc q ->
          match pending.(q) with
          | Some p when not (List.memq p acc) -> p :: acc
          | _ -> acc)
        [] gqs
    in
    match parts with
    | [] -> start op g gqs gm
    | first :: rest ->
      let union = List.fold_left (fun u p -> merge u p.qs) gqs parts in
      let merged =
        if Array.length union > k then None
        else begin
          (* the gate applies after the pending clusters; clusters on
             disjoint qubits commute, so their product order is free.
             The last product lands in an exact-size matrix, which the
             new cluster keeps. *)
          let d = 1 lsl Array.length union in
          let dst last mm = if last then result d else if mm.re == ws_a.re then ws_b else ws_a in
          let rec product mm = function
            | [] -> mm
            | p :: more -> product (right_apply (dst (more = []) mm) mm p.m (place p.qs union)) more
          in
          let mm =
            product
              (left_apply (dst (rest = []) ws_b) d gm (place gqs union) first.m (place first.qs union))
              rest
          in
          let merged_cost = cluster_cost mm in
          let parts_cost = List.fold_left (fun acc p -> acc +. p.cost) 0.0 parts in
          if merged_cost <= parts_cost +. gate_cost g +. 1e-9 then Some (mm, merged_cost)
          else None
        end
      in
      match merged with
      | Some (m, cost) ->
        (match Gate.num_qubits g, Array.length union with
        | 1, 1 -> incr fused_1q
        | 1, _ -> incr absorbed_1q
        | 2, _ -> incr fused_2q
        | _ -> incr fused_3q);
        let gates = List.fold_left (fun acc p -> acc + p.gates) 1 parts in
        let np = Some { m; qs = union; gates; cost } in
        List.iter (fun p -> Array.iter (fun q -> pending.(q) <- None) p.qs) parts;
        Array.iter (fun q -> pending.(q) <- np) union
      | None ->
        List.iter flush_p parts;
        start op g gqs gm
  in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind, op.Circuit.cond with
      | Circuit.Gate (g, qs), None
        when Gate.num_qubits g = List.length qs && Gate.num_qubits g <= 3 ->
        let gqs = sorted_operands qs in
        if Array.length gqs = 0 then begin
          List.iter flush (Circuit.op_qubits op);
          emit (Op op)
        end
        else if not (Gate.is_identity g) then handle op g gqs (local_matrix g qs)
      | Circuit.Barrier [], _ ->
        flush_all ();
        emit (Op op)
      | _ ->
        (* measure, reset, conditioned ops, barriers: fusion barrier on
           the touched qubits *)
        List.iter flush (Circuit.op_qubits op);
        emit (Op op))
    c.Circuit.ops;
  flush_all ();
  let steps = List.rev !rev_steps in
  ( steps,
    {
      ops_in = List.length c.Circuit.ops;
      steps_out = List.length steps;
      fused_1q = !fused_1q;
      absorbed_1q = !absorbed_1q;
      fused_2q = !fused_2q;
      fused_3q = !fused_3q;
      clusters_emitted = !clusters_emitted;
      clustered_gates = !clustered_gates;
      identities_dropped = !identities;
    } )

(* ------------------------------------------------------------------ *)
(* Plan execution                                                       *)

let apply_plan st clbits steps =
  List.iter
    (fun step ->
      match step with
      | Mat1 k | Mat2 k | Cluster k -> Statevector.apply_kernel st k
      | Op op ->
        if Statevector.cond_holds clbits op.Circuit.cond then (
          match op.Circuit.kind with
          | Circuit.Gate (g, qs) -> Statevector.apply st g qs
          | Circuit.Measure (q, cl) -> clbits.(cl) <- Statevector.measure st q
          | Circuit.Reset q -> Statevector.reset st q
          | Circuit.Barrier _ -> ()))
    steps

(* Drop-in replacement for {!Statevector.run_circuit} that fuses first.
   Measurement sampling consumes the RNG in the same order, so for a
   fixed seed the classical outcomes match the unfused engine (up to
   knife-edge rounding of branch probabilities). *)
let run_circuit ?(seed = 1) ?k (c : Circuit.t) =
  let steps, _stats = plan ?k c in
  let st = Statevector.create ~seed c.Circuit.num_qubits in
  let clbits = Array.make (max c.Circuit.num_clbits 1) false in
  apply_plan st clbits steps;
  (st, clbits)
