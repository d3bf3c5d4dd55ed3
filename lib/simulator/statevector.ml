(* Dense statevector simulator: the stand-in for PennyLane Lightning in
   the paper's Ex. 5. Amplitudes live in unboxed [Bigarray.Array1]
   float64 slices (real/imaginary separately): registers up to
   [max_local_bits] qubits live in one flat pair of slices (the
   historical layout, and still the fastest), larger ones split into
   2^(n - local_bits) contiguous shards that the {!Dpool} Domain pool
   can own wholesale — which is what lifts the register cap to 30
   qubits. The Bigarray buffers sit outside the OCaml heap: kernels
   index them without bounds checks ([Array1.unsafe_get/set]) over
   enumerations that are in bounds by construction, so the hot loops
   compile to flat load/multiply/store sequences the hardware can
   stream (and the GC never scans or moves the amplitudes).

   Qubit [q] indexes bit [q] of the basis-state index (qubit 0 is the
   least-significant bit). The simulator supports growing the register
   one qubit at a time ([add_qubit]) to serve dynamic qubit allocation
   (the paper's Sec. IV-A).

   Engine layering (the hot path of the whole toolchain):
   - every gate, lone or fused, is one prepared kernel: a matrix over m
     qubits, classified once by its structure (a 2x2 block on two
     sub-states, diagonal, monomial or sparse), whose sweep enumerates
     only the groups of 2^m amplitudes it acts on and reconstructs each
     group base by bit insertion — a 1q gate visits size/2 groups, CCX
     size/8 — instead of scanning all 2^n indices and filtering;
   - when the register is large enough, sweeps split their group range
     across a reusable Domain pool ({!Dpool});
   - cross-shard kernels run a stride-aware shard exchange: the
     involved bit positions are split once at the shard boundary, the
     high positions select shard groups, the low positions form a mask
     whose clear-bit offsets are enumerated by mask-increment — one
     pass per shard group over large contiguous runs instead of an
     element-wise two-level gather/scatter. An exchange whose involved
     bits all sit at or above the boundary degenerates to swapping
     shard references: O(1) per shard pair, no amplitude traffic at
     all;
   - the seed's full-scan general kernels survive in {!Reference}
     (re-addressed for the sharded layout, arithmetic untouched) as the
     correctness oracle for tests and the baseline for benchmarks. *)

open Qcircuit

let max_qubits = 30

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> default)
  | None -> default

(* Shard granularity: each shard holds 2^local_bits amplitudes. The
   default keeps registers up to 24 qubits in a single flat pair of
   slices (the fastest layout); larger registers split into
   2^(n - local_bits) contiguous shards so the Domain pool can own
   whole shards. *)
let default_local_bits = 24

let max_local_bits_ref =
  ref (max 1 (min max_qubits (env_int "QIR_SIM_LOCAL_BITS" default_local_bits)))

let max_local_bits () = !max_local_bits_ref

let set_max_local_bits b =
  if b < 1 || b > max_qubits then
    invalid_arg "Statevector.set_max_local_bits: need 1 <= bits <= 30";
  max_local_bits_ref := b

(* Auditability switch for the [Array1.unsafe_get/set] sweeps: when
   set, every index derived from the bit-insertion / mask-increment
   enumerations is re-asserted against the slice bounds before use. *)
let checked_access_ref =
  ref
    (match Sys.getenv_opt "QIR_SIM_CHECKED" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let checked_access () = !checked_access_ref
let set_checked_access b = checked_access_ref := b

(* ------------------------------------------------------------------ *)
(* Storage                                                              *)

module Ba = Bigarray.Array1

(* One shard of amplitudes: unboxed float64, C layout, off-heap. *)
type slice = (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t

let ba_make n : slice =
  let a = Ba.create Bigarray.Float64 Bigarray.C_layout n in
  Ba.fill a 0.0;
  a

(* Concrete-typed, fully-applied wrappers: the [unsafe_get/set]
   primitives compile to direct unboxed float64 loads/stores only when
   applied at a site whose Bigarray kind and layout are statically
   known. An eta-reduced alias ([let bget = Ba.unsafe_get]) degrades
   every access to the generic polymorphic C stub with a boxed result —
   an order-of-magnitude slowdown on the gate sweeps. *)
let[@inline always] bget (a : slice) i : float = Ba.unsafe_get a i
let[@inline always] bset (a : slice) i (v : float) = Ba.unsafe_set a i v

(* Global basis index [i] lives in shard [i lsr lb] at offset
   [i land (2^lb - 1)]. A register with [n <= lb] is a single shard and
   takes the historical flat code paths unchanged. *)
type t = {
  mutable n : int;
  mutable lb : int; (* log2 of the shard size, [min n max_local_bits] *)
  mutable re : slice array;
  mutable im : slice array;
  rng : Rng.t;
}

let create ?(seed = 1) n =
  if n < 0 || n > max_qubits then
    Sim_error.error ~op:"Statevector.create" "0 <= n <= %d required, got %d"
      max_qubits n;
  let lb = min n !max_local_bits_ref in
  let shards = 1 lsl (n - lb) in
  let shard_size = 1 lsl lb in
  let re = Array.init shards (fun _ -> ba_make shard_size) in
  let im = Array.init shards (fun _ -> ba_make shard_size) in
  re.(0).{0} <- 1.0;
  { n; lb; re; im; rng = Rng.create seed }

let num_qubits st = st.n
let dim st = 1 lsl st.n
let local_bits st = st.lb
let shard_count st = Array.length st.re
let sharded st = st.lb < st.n

let amplitude st i =
  let lm = (1 lsl st.lb) - 1 in
  { Complex.re = st.re.(i lsr st.lb).{i land lm};
    im = st.im.(i lsr st.lb).{i land lm} }

let probability st i =
  let lm = (1 lsl st.lb) - 1 in
  let r = st.re.(i lsr st.lb).{i land lm}
  and m = st.im.(i lsr st.lb).{i land lm} in
  (r *. r) +. (m *. m)

(* Direct fill (no closure per element): this sits on the sampler's
   path. Beware: materializes all 2^n probabilities. *)
let probabilities st =
  let out = Array.make (dim st) 0.0 in
  let shard_size = 1 lsl st.lb in
  for s = 0 to shard_count st - 1 do
    let re = st.re.(s) and im = st.im.(s) in
    let base = s lsl st.lb in
    for j = 0 to shard_size - 1 do
      let r = bget re j and m = bget im j in
      Array.unsafe_set out (base + j) ((r *. r) +. (m *. m))
    done
  done;
  out

let check_qubit st q =
  if q < 0 || q >= st.n then
    Sim_error.error ~op:"Statevector" "qubit %d out of range [0, %d)" q st.n

(* The distribution of qubits [qs] — outcome bit [j] is qubit [qs.(j)] —
   summed in ascending basis-index order whatever the shard layout, so
   each outcome's float sum is reproducible. An identity prefix
   ([qs.(j) = j]) masks the index; any other mapping assembles the
   outcome from one 256-entry table per index byte rather than testing
   [m] bits per amplitude: the lowest byte's table for every amplitude,
   the tables of the higher bytes that hold a qubit of [qs] once per 256
   amplitudes (other bytes add no outcome bit). A table entry is the
   entry without its highest bit [lor] that bit's outcome bits, so a
   table fills in 256 steps. Outcomes of disjoint index bits combine by
   [lor]. *)
let marginal st (qs : int array) =
  Array.iter (check_qubit st) qs;
  let m = Array.length qs in
  let out = Array.make (1 lsl m) 0.0 in
  let shard_size = 1 lsl st.lb in
  let identity =
    let ok = ref true in
    Array.iteri (fun j q -> if q <> j then ok := false) qs;
    !ok
  in
  (* the outcome bits of each index bit *)
  let bytes = max 1 ((st.n + 7) / 8) in
  let bits = Array.make (8 * bytes) 0 in
  Array.iteri (fun j q -> bits.(q) <- bits.(q) lor (1 lsl j)) qs;
  let table b =
    let t = Array.make 256 0 in
    for i = 0 to 7 do
      let h = 1 lsl i and o = bits.((8 * b) + i) in
      for v = h to (2 * h) - 1 do
        Array.unsafe_set t v (Array.unsafe_get t (v - h) lor o)
      done
    done;
    t
  in
  let low = table 0 in
  let high =
    List.filter
      (fun b -> Array.exists (fun q -> q lsr 3 = b) qs)
      (List.init (bytes - 1) (fun b -> b + 1))
  in
  let shifts = Array.of_list (List.map (fun b -> 8 * b) high) in
  let tables = Array.of_list (List.map table high) in
  let outcome_high i =
    let o = ref 0 in
    for k = 0 to Array.length tables - 1 do
      o :=
        !o
        lor Array.unsafe_get tables.(k) ((i lsr Array.unsafe_get shifts k) land 255)
    done;
    !o
  in
  let mask = (1 lsl m) - 1 in
  let run = min shard_size 256 in
  for s = 0 to shard_count st - 1 do
    let re = st.re.(s) and im = st.im.(s) in
    let base = s lsl st.lb in
    if identity then
      for j = 0 to shard_size - 1 do
        let r = bget re j and mi = bget im j in
        let o = (base + j) land mask in
        Array.unsafe_set out o
          (Array.unsafe_get out o +. ((r *. r) +. (mi *. mi)))
      done
    else begin
      let hi = low.(base land 255) lor outcome_high base in
      for c = 0 to (shard_size / run) - 1 do
        let h = hi lor outcome_high (c * run) in
        for v = 0 to run - 1 do
          let j = (c * run) + v in
          let r = bget re j and mi = bget im j in
          let o = h lor Array.unsafe_get low v in
          Array.unsafe_set out o
            (Array.unsafe_get out o +. ((r *. r) +. (mi *. mi)))
        done
      done
    end
  done;
  out

(* Basis state [o] takes the uniforms [u] with [prev < u <= sum]:
   [sum] the running probability sum in ascending index order, [prev]
   the one before, and the last state's sum forced to 1 so a draw of
   ~1.0 cannot fall off the end — the first state whose sum is >= u, as
   a binary search over the cumulative sums would find it. [us] ascend,
   so one walk over the amplitudes counts them all; each probability
   is [(re * re) + (im * im)], the float {!marginal} gives. *)
let count_sorted st (us : float array) f =
  let shots = Array.length us in
  let last = dim st - 1 in
  let i = ref 0 and acc = ref 0.0 in
  let shard_size = 1 lsl st.lb in
  for s = 0 to shard_count st - 1 do
    let re = st.re.(s) and im = st.im.(s) in
    let base = s lsl st.lb in
    for j = 0 to shard_size - 1 do
      if !i < shots then begin
        let r = bget re j and m = bget im j in
        acc := !acc +. ((r *. r) +. (m *. m));
        let sum = if base + j = last then 1.0 else !acc in
        let start = !i in
        while !i < shots && not (sum < Array.unsafe_get us !i) do
          incr i
        done;
        if !i > start then f (base + j) (!i - start)
      end
    done
  done

(* Tensors |0> onto the high end of the register. While the register
   fits in one shard this doubles the flat slices (as before); once it
   crosses [max_local_bits] growth appends zero shards — no copy of the
   existing amplitudes at all. *)
let add_qubit st =
  if st.n >= max_qubits then
    Sim_error.error ~op:"Statevector.add_qubit"
      "register limit of %d qubits reached" max_qubits;
  if (not (sharded st)) && st.n < !max_local_bits_ref then begin
    let old_size = dim st in
    let re = ba_make (old_size * 2) and im = ba_make (old_size * 2) in
    Ba.blit st.re.(0) (Ba.sub re 0 old_size);
    Ba.blit st.im.(0) (Ba.sub im 0 old_size);
    st.re <- [| re |];
    st.im <- [| im |];
    st.n <- st.n + 1;
    st.lb <- st.n
  end
  else begin
    let sc = shard_count st in
    let shard_size = 1 lsl st.lb in
    let zeros () = Array.init sc (fun _ -> ba_make shard_size) in
    st.re <- Array.append st.re (zeros ());
    st.im <- Array.append st.im (zeros ());
    st.n <- st.n + 1
  end

let ensure_qubits st n =
  while st.n < n do
    add_qubit st
  done

(* An independent copy: fresh shards of the same layout, and the
   measurement RNG continuing from the same point. *)
let copy st =
  let dup (a : slice) : slice =
    let b = Ba.create Bigarray.Float64 Bigarray.C_layout (Ba.dim a) in
    Ba.blit a b;
    b
  in
  {
    n = st.n;
    lb = st.lb;
    re = Array.map dup st.re;
    im = Array.map dup st.im;
    rng = Rng.copy st.rng;
  }

(* ------------------------------------------------------------------ *)
(* Index enumeration                                                    *)

(* [insert_zero x p] re-spreads [x] so that bit position [p] of the
   result is 0: the k-th index among those with bit p clear. *)
let insert_zero x p = ((x lsr p) lsl (p + 1)) lor (x land ((1 lsl p) - 1))

(* [enum_base msk k]: the k-th smallest index with every bit of [msk]
   clear — a bit insertion at each set bit of [msk], ascending. Sweeps
   call it once per chunk and step on by mask-increment
   (next = ((b lor msk) + 1) land lnot msk, O(1) per group). *)
let enum_base msk k =
  let b = ref k and m = ref msk and p = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then b := insert_zero !b !p;
    m := !m lsr 1;
    incr p
  done;
  !b

let popcount x =
  let n = ref 0 and x = ref x in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr n
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Prepared kernels                                                     *)

(* Every gate, lone or fused, runs as a [2^m x 2^m] matrix over [m]
   qubits: one pass over the amplitudes visits each group of [2^m]
   amplitudes that differ only in those qubits (the sub-states), so a
   1-qubit gate visits size/2 groups, CCX size/8. The matrix is
   classified once, when the kernel is prepared, and the class picks
   the sweep:
   - a matrix that is the identity outside two sub-states — every gate
     of the gate set, and every 1-qubit fusion — runs a pair sweep over
     its 2x2 block, specialised by the block's structure: one or two
     phases (diagonal), an exchange with or without phases (monomial;
     a pure exchange only moves amplitudes), real or complex weights
     (sparse);
   - any other diagonal or monomial (permutation-with-phases) matrix —
     every Clifford+T run without an H, for example — costs a constant
     number of multiplies per amplitude regardless of m;
   - everything else runs as a sparse (CSR) matvec over the matrix's
     exact nonzeros, so the cost scales with the fused matrix's density
     rather than its dimension.
   The zero and unit tests are exact: gate matrices carry exact 0.0 and
   1.0 entries, and products of structured matrices preserve them.

   Sub-state bit [j] corresponds to the kernel's qubit [qs.(j)], least
   significant first. Group bases start from a composed bit insertion
   and step by mask-increment, so every derived index is in bounds by
   construction; the sweeps use [Array1.unsafe_get/set] on that
   strength, and {!set_checked_access} turns the proof back into
   runtime assertions. *)

(* The 2x2 block of a pair kernel on sub-states [a] and [b]; complex
   weights are stored as (re, im) pairs, in row-major order. *)
type block =
  | Phase of float array  (* amp(b) *= z; amp(a) is untouched *)
  | Phases of float array  (* amp(a) *= za, amp(b) *= zb *)
  | Swap  (* exchanges amp(a) and amp(b) *)
  | Antidiag of float array  (* amp(a)' = p * amp(b), amp(b)' = q * amp(a) *)
  | Real of float array  (* real weights aa, ab, ba, bb *)
  | Dense of float array  (* complex weights aa, ab, ba, bb *)

(* A monomial matrix's permutation, compiled into a straight-line move
   program over sub-states: scale the fixed points that carry a phase,
   save each cycle's head, shift the remaining elements one step along
   their cycle ([dst.(j)] <- phase * [src.(j)]), close each cycle
   ([lasts.(w)] <- phase * saved head [w]). The walk touches every
   sub-state once, on disjoint indices, so running all heads, then all
   shifts, then all closes reorders only across disjoint indices: each
   amplitude's arithmetic is that of the per-cycle walk. *)
type moves = {
  fix : int array;
  heads : int array;
  dst : int array;
  src : int array;
  lasts : int array;
  phr : float array;  (* phase of each destination sub-state *)
  phi : float array;
  pure : bool;  (* every phase is 1: the program only moves amplitudes *)
}

(* CSR over the exact nonzeros: row offsets (sub+1), column indices,
   then re/im weights. [uniform2] marks exactly two entries per row —
   the shape of one Hadamard-like gate fused with any number of
   permutation/phase gates, the common non-monomial shape on
   Clifford+T circuits — and [pairs], when present, pairs its rows
   that read the same two columns. *)
type sparse = {
  rows : int array;
  cols : int array;
  wre : float array;
  wim : float array;
  uniform2 : bool;
  pairs : (int array * int array) option;
}

(* Matrices that touch more than two sub-states: every group is swept
   whole. *)
type group =
  | Diag of float array * float array
  | Monomial of moves
  | Sparse of sparse

type kind = Identity | Pair of int * int * block | Group of group

type kernel = {
  kind : kind;
  qs : int array;
  msk : int;  (* the qubits' bits *)
  offs : int array;
      (* group kinds: index offset of sub-state x from its group base *)
}

let moves_of perm phr phi =
  let sub = Array.length perm in
  let fix = ref [] and heads = ref [] and mv = ref [] and lasts = ref [] in
  let seen = Array.make sub false in
  for r0 = 0 to sub - 1 do
    if not seen.(r0) then begin
      seen.(r0) <- true;
      if perm.(r0) = r0 then begin
        (* fixed point: a pure phase; identity phases cost nothing *)
        if phr.(r0) <> 1.0 || phi.(r0) <> 0.0 then fix := r0 :: !fix
      end
      else begin
        heads := r0 :: !heads;
        let r = ref r0 in
        while perm.(!r) <> r0 do
          mv := (!r, perm.(!r)) :: !mv;
          r := perm.(!r);
          seen.(!r) <- true
        done;
        lasts := !r :: !lasts
      end
    end
  done;
  let arr l = Array.of_list (List.rev l) in
  let mv = arr !mv in
  {
    fix = arr !fix;
    heads = arr !heads;
    dst = Array.map fst mv;
    src = Array.map snd mv;
    lasts = arr !lasts;
    phr;
    phi;
    pure = Array.for_all2 (fun r i -> r = 1.0 && i = 0.0) phr phi;
  }

(* Rows of a 2-sparse unitary built from 2-qubit gate products come in
   partner pairs reading the same two columns in the same order;
   pairing them shares the gathered loads between the two rows.
   Detection is exact (same column sequence). *)
let pairs_of cols sub =
  let npair = sub / 2 in
  let pa = Array.make npair 0 and pb = Array.make npair 0 in
  let seen = Array.make (sub * sub) (-1) in
  let np = ref 0 and ok = ref true in
  for r = 0 to sub - 1 do
    let key = (cols.(2 * r) * sub) + cols.((2 * r) + 1) in
    let prev = seen.(key) in
    if prev < 0 then seen.(key) <- r
    else if prev < sub then begin
      if !np < npair then begin
        pa.(!np) <- prev;
        pb.(!np) <- r;
        incr np
      end;
      seen.(key) <- sub + r
    end
    else ok := false (* three rows on one support *)
  done;
  if !ok && !np = npair then Some (pa, pb) else None

(* Unchecked float-array access for the classifier: every index is
   under [sub * sub] by construction. Concrete-typed and fully applied,
   so the loads compile unboxed. *)
let[@inline] ( .!() ) (a : float array) i = Array.unsafe_get a i

(* Classifies the [sub x sub] matrix with entry (r, c) at [re]/[im]
   index [r * sub + c]. One scan over the entries gathers what every
   class needs: the running nonzero count at each row's end (the CSR row
   offsets), the column of each row's last nonzero, and the sub-states
   an off-diagonal nonzero touches. Sub-state [x] is inert when U maps
   |x> to |x> and nothing else onto |x> — a unit diagonal entry and no
   off-diagonal nonzero in its row or column — so no sweep needs to
   touch its amplitude. *)
let classify sub (re : float array) (im : float array) =
  let rows = Array.make (sub + 1) 0 and col = Array.make sub 0 in
  let touched = Bytes.make sub '\000' in
  let nnz = ref 0 in
  for r = 0 to sub - 1 do
    let base = r * sub in
    for c = 0 to sub - 1 do
      if re.!(base + c) <> 0.0 || im.!(base + c) <> 0.0 then begin
        incr nnz;
        Array.unsafe_set col r c;
        if c <> r then begin
          Bytes.unsafe_set touched r '\001';
          Bytes.unsafe_set touched c '\001'
        end
      end
    done;
    Array.unsafe_set rows (r + 1) !nnz
  done;
  (* the first two sub-states that are not inert, and how many are not *)
  let a = ref 0 and b = ref 0 and active = ref 0 in
  for x = 0 to sub - 1 do
    let xx = (x * sub) + x in
    if Bytes.unsafe_get touched x <> '\000' || re.!(xx) <> 1.0 || im.!(xx) <> 0.0
    then begin
      if !active = 0 then a := x else b := x;
      incr active
    end
  done;
  let a = !a and b = !b in
  let ent i j = (i * sub) + j in
  match !active with
  | 0 -> Identity
  | 1 -> Pair (a, a, Phase [| re.(ent a a); im.(ent a a) |])
  | 2 ->
    let aa = ent a a and ab = ent a b and ba = ent b a and bb = ent b b in
    let zero i = re.(i) = 0.0 && im.(i) = 0.0 in
    Pair
      ( a,
        b,
        if zero ab && zero ba then Phases [| re.(aa); im.(aa); re.(bb); im.(bb) |]
        else if zero aa && zero bb then
          if re.(ab) = 1.0 && im.(ab) = 0.0 && re.(ba) = 1.0 && im.(ba) = 0.0 then Swap
          else Antidiag [| re.(ab); im.(ab); re.(ba); im.(ba) |]
        else if im.(aa) = 0.0 && im.(ab) = 0.0 && im.(ba) = 0.0 && im.(bb) = 0.0 then
          Real [| re.(aa); re.(ab); re.(ba); re.(bb) |]
        else
          Dense [| re.(aa); im.(aa); re.(ab); im.(ab); re.(ba); im.(ba); re.(bb); im.(bb) |]
      )
  | _ ->
    (* monomial: one nonzero per row, no column hit twice *)
    let monomial = ref (!nnz = sub) in
    if !monomial then begin
      let seen = Bytes.make sub '\000' in
      for r = 0 to sub - 1 do
        if rows.(r + 1) <> r + 1 || Bytes.get seen col.(r) <> '\000' then
          monomial := false
        else Bytes.set seen col.(r) '\001'
      done
    end;
    if !monomial then begin
      let phr = Array.init sub (fun r -> re.(ent r col.(r))) in
      let phi = Array.init sub (fun r -> im.(ent r col.(r))) in
      let identity = ref true in
      Array.iteri (fun r c -> if r <> c then identity := false) col;
      Group (if !identity then Diag (phr, phi) else Monomial (moves_of col phr phi))
    end
    else begin
      (* CSR over the exact nonzeros, in the scan's order *)
      let cols = Array.make !nnz 0 in
      let wre = Array.make !nnz 0.0 and wim = Array.make !nnz 0.0 in
      let p = ref 0 in
      for i = 0 to (sub * sub) - 1 do
        if re.!(i) <> 0.0 || im.!(i) <> 0.0 then begin
          cols.(!p) <- i land (sub - 1);
          wre.(!p) <- re.!(i);
          wim.(!p) <- im.!(i);
          incr p
        end
      done;
      let uniform2 = ref true in
      Array.iteri (fun r o -> if o <> 2 * r then uniform2 := false) rows;
      let uniform2 = !uniform2 in
      Group
        (Sparse
           { rows; cols; wre; wim; uniform2; pairs = (if uniform2 then pairs_of cols sub else None) })
    end

(* Validates operands (distinct, each in [0, limit)) and returns
   their bit mask. *)
let[@inline] operand_mask op limit (qs : int array) =
  let msk = ref 0 in
  for j = 0 to Array.length qs - 1 do
    let q = qs.(j) in
    if q < 0 || q >= limit then
      Sim_error.error ~op "qubit %d out of range [0, %d)" q limit;
    if !msk land (1 lsl q) <> 0 then Sim_error.error ~op "duplicate qubit %d" q;
    msk := !msk lor (1 lsl q)
  done;
  !msk

(* The index offset of sub-state [x] from its group base: bit [j] of
   [x] selects qubit [qs.(j)]. *)
let[@inline] offset (qs : int array) x =
  let o = ref 0 in
  for j = 0 to Array.length qs - 1 do
    if x land (1 lsl j) <> 0 then o := !o lor (1 lsl qs.(j))
  done;
  !o

let offsets qs = Array.init (1 lsl Array.length qs) (offset qs)

let[@inline] make kind qs msk =
  let offs = match kind with Group _ -> offsets qs | Identity | Pair _ -> [||] in
  { kind; qs; msk; offs }

let kernel (re : float array) (im : float array) (qs : int array) =
  let op = "Statevector.kernel" in
  let m = Array.length qs in
  if m = 0 then Sim_error.error ~op "empty qubit set";
  if m > 8 then Sim_error.error ~op "cluster too large: %d qubits" m;
  let msk = operand_mask op max_qubits qs in
  let sub = 1 lsl m in
  if Array.length re <> sub * sub || Array.length im <> sub * sub then
    Sim_error.error ~op "%d-qubit kernel needs %d matrix entries, got %d" m (sub * sub)
      (Array.length re);
  make (classify sub re im) (Array.copy qs) msk

(* ------------------------------------------------------------------ *)
(* Pair sweeps                                                          *)

(* [count] groups from the one at [base], enumerated over [msk]: the
   block acts on the amplitude at (base lor oa) in slices (r0, m0) and
   the one at (base lor ob) in (r1, m1). Flat states pass one slice
   four times; sharded ones the two shards a group's pair lives in.
   Sums drop the sparse sweep's leading [0.0 +.], which changes only
   the sign of an exact zero. The loops call nothing and keep few
   values live, so ocamlopt holds them all in registers. *)
let pair_sweep blk (r0 : slice) (m0 : slice) (r1 : slice) (m1 : slice) oa ob
    msk base count =
  let o = ref base and n = ref count in
  match blk with
  | Phase z ->
    let zr = z.(0) and zi = z.(1) in
    while !n > 0 do
      let i = !o lor ob in
      let r = bget r1 i and q = bget m1 i in
      bset r1 i ((zr *. r) -. (zi *. q));
      bset m1 i ((zr *. q) +. (zi *. r));
      o := ((!o lor msk) + 1) land lnot msk;
      decr n
    done
  | Phases z ->
    let ar = z.(0) and ai = z.(1) in
    let br = z.(2) and bi = z.(3) in
    while !n > 0 do
      let i0 = !o lor oa and i1 = !o lor ob in
      let r = bget r0 i0 and q = bget m0 i0 in
      bset r0 i0 ((ar *. r) -. (ai *. q));
      bset m0 i0 ((ar *. q) +. (ai *. r));
      let r = bget r1 i1 and q = bget m1 i1 in
      bset r1 i1 ((br *. r) -. (bi *. q));
      bset m1 i1 ((br *. q) +. (bi *. r));
      o := ((!o lor msk) + 1) land lnot msk;
      decr n
    done
  | Swap ->
    while !n > 0 do
      let i0 = !o lor oa and i1 = !o lor ob in
      let tr = bget r0 i0 and ti = bget m0 i0 in
      bset r0 i0 (bget r1 i1);
      bset m0 i0 (bget m1 i1);
      bset r1 i1 tr;
      bset m1 i1 ti;
      o := ((!o lor msk) + 1) land lnot msk;
      decr n
    done
  | Antidiag z ->
    let pr = z.(0) and pi = z.(1) in
    let qr = z.(2) and qi = z.(3) in
    while !n > 0 do
      let i0 = !o lor oa and i1 = !o lor ob in
      let ar = bget r0 i0 and ai = bget m0 i0 in
      let br = bget r1 i1 and bi = bget m1 i1 in
      bset r0 i0 ((pr *. br) -. (pi *. bi));
      bset m0 i0 ((pr *. bi) +. (pi *. br));
      bset r1 i1 ((qr *. ar) -. (qi *. ai));
      bset m1 i1 ((qr *. ai) +. (qi *. ar));
      o := ((!o lor msk) + 1) land lnot msk;
      decr n
    done
  | Real w ->
    let w00 = w.(0) and w01 = w.(1) in
    let w10 = w.(2) and w11 = w.(3) in
    while !n > 0 do
      let i0 = !o lor oa and i1 = !o lor ob in
      let ar = bget r0 i0 and ai = bget m0 i0 in
      let br = bget r1 i1 and bi = bget m1 i1 in
      bset r0 i0 ((w00 *. ar) +. (w01 *. br));
      bset m0 i0 ((w00 *. ai) +. (w01 *. bi));
      bset r1 i1 ((w10 *. ar) +. (w11 *. br));
      bset m1 i1 ((w10 *. ai) +. (w11 *. bi));
      o := ((!o lor msk) + 1) land lnot msk;
      decr n
    done
  | Dense u ->
    let u00r = u.(0) and u00i = u.(1) and u01r = u.(2) and u01i = u.(3) in
    let u10r = u.(4) and u10i = u.(5) and u11r = u.(6) and u11i = u.(7) in
    while !n > 0 do
      let i0 = !o lor oa and i1 = !o lor ob in
      let ar = bget r0 i0 and ai = bget m0 i0 in
      let br = bget r1 i1 and bi = bget m1 i1 in
      bset r0 i0
        (((u00r *. ar) -. (u00i *. ai)) +. ((u01r *. br) -. (u01i *. bi)));
      bset m0 i0
        (((u00r *. ai) +. (u00i *. ar)) +. ((u01r *. bi) +. (u01i *. br)));
      bset r1 i1
        (((u10r *. ar) -. (u10i *. ai)) +. ((u11r *. br) -. (u11i *. bi)));
      bset m1 i1
        (((u10r *. ai) +. (u10i *. ar)) +. ((u11r *. bi) +. (u11i *. br)));
      o := ((!o lor msk) + 1) land lnot msk;
      decr n
    done

(* The first group base of [count] groups from the [k0]-th. Indices
   grow with the group counter, so checking the last pair covers every
   unsafe access of the range. *)
let[@inline] pair_base ~checked (r0 : slice) (r1 : slice) oa ob msk k0 count =
  if checked && count > 0 then begin
    let last = enum_base msk (k0 + count - 1) in
    assert (last lor oa < Ba.dim r0 && last lor ob < Ba.dim r1)
  end;
  enum_base msk k0

(* Flat states split the group range across the pool. Sharded states
   split the kernel's bits once at the shard boundary: bits at or above
   it select shard pairs (one pool task per group of shards), bits
   below it enumerate in-shard offsets — one pass per shard pair over
   large contiguous runs. An exchange whose bits all select shards
   swaps shard references instead: O(1) per shard pair, no amplitude
   traffic (a GHZ chain's high-bit CNOTs on a 28-qubit register cost
   nothing per amplitude). Each pair's arithmetic is the same under
   every layout, so results are bit-identical. *)
let run_pair st ~checked blk msk width oa ob =
  if not (sharded st) then begin
    let re = st.re.(0) and im = st.im.(0) in
    let size = dim st lsr width in
    if Dpool.chunk_count ~size = 1 then
      (* one chunk: sweep inline, without closures through the pool —
         the per-shot and tape tiers apply gates to small registers *)
      let base = pair_base ~checked re re oa ob msk 0 size in
      pair_sweep blk re im re im oa ob msk base size
    else
      Dpool.run ~size (fun lo hi ->
          let base = pair_base ~checked re re oa ob msk lo (hi - lo) in
          pair_sweep blk re im re im oa ob msk base (hi - lo))
  end
  else begin
    let lb = st.lb in
    let lm = (1 lsl lb) - 1 in
    let lows = msk land lm and highs = msk lsr lb in
    let sa = oa lsr lb and sb = ob lsr lb in
    let sgroups = shard_count st lsr popcount highs in
    match blk with
    | Swap when lows = 0 ->
      for g = 0 to sgroups - 1 do
        let sbase = enum_base highs g in
        let s0 = sbase lor sa and s1 = sbase lor sb in
        let tr = st.re.(s0) and ti = st.im.(s0) in
        st.re.(s0) <- st.re.(s1);
        st.im.(s0) <- st.im.(s1);
        st.re.(s1) <- tr;
        st.im.(s1) <- ti
      done
    | _ ->
      let inner = (1 lsl lb) lsr popcount lows in
      let oal = oa land lm and obl = ob land lm in
      Dpool.run_tasks ~count:sgroups (fun g ->
          let sbase = enum_base highs g in
          let s0 = sbase lor sa and s1 = sbase lor sb in
          let r0 = st.re.(s0) and r1 = st.re.(s1) in
          let base = pair_base ~checked r0 r1 oal obl lows 0 inner in
          pair_sweep blk r0 st.im.(s0) r1 st.im.(s1) oal obl lows base inner)
  end

(* ------------------------------------------------------------------ *)
(* Group sweeps                                                         *)

(* [count] groups from the [k0]-th, enumerated over [msk]: sub-state
   [x] of the group at base [b] is the amplitude at (b lor odelta.(x))
   in slices (sre.(x), sim.(x)). Every [odelta.(x)] is a subset of
   [msk], so one per-group assert covers each unsafe access. *)
let group_sweep ~checked grp (sre : slice array) (sim : slice array) odelta
    msk k0 count =
  let sub = Array.length odelta in
  let size = Ba.dim sre.(0) in
  let nmsk = lnot msk in
  let base = ref (enum_base msk k0) in
  match grp with
  | Diag (dre, die) ->
    for _ = 1 to count do
      let b = !base in
      if checked then assert (b >= 0 && b lor msk < size);
      for x = 0 to sub - 1 do
        let dr = Array.unsafe_get dre x and di = Array.unsafe_get die x in
        if dr <> 1.0 || di <> 0.0 then begin
          let i = b lor Array.unsafe_get odelta x in
          let re = Array.unsafe_get sre x and im = Array.unsafe_get sim x in
          let r = bget re i and q = bget im i in
          bset re i ((dr *. r) -. (di *. q));
          bset im i ((dr *. q) +. (di *. r))
        end
      done;
      base := ((b lor msk) + 1) land nmsk
    done
  | Monomial { fix; heads; dst; src; lasts; phr; phi; pure } ->
    let nw = Array.length heads and nmv = Array.length dst in
    let tr = Array.make nw 0.0 and ti = Array.make nw 0.0 in
    for _ = 1 to count do
      let b = !base in
      if checked then assert (b >= 0 && b lor msk < size);
      for f = 0 to Array.length fix - 1 do
        let x = Array.unsafe_get fix f in
        let i = b lor Array.unsafe_get odelta x in
        let re = Array.unsafe_get sre x and im = Array.unsafe_get sim x in
        let pr = Array.unsafe_get phr x and pi = Array.unsafe_get phi x in
        let xr = bget re i and xi = bget im i in
        bset re i ((pr *. xr) -. (pi *. xi));
        bset im i ((pr *. xi) +. (pi *. xr))
      done;
      for w = 0 to nw - 1 do
        let x = Array.unsafe_get heads w in
        let i = b lor Array.unsafe_get odelta x in
        Array.unsafe_set tr w (bget (Array.unsafe_get sre x) i);
        Array.unsafe_set ti w (bget (Array.unsafe_get sim x) i)
      done;
      (* shifts read each source before any later shift overwrites it:
         the program preserves the walk order within every cycle *)
      for j = 0 to nmv - 1 do
        let xs = Array.unsafe_get src j and xd = Array.unsafe_get dst j in
        let is = b lor Array.unsafe_get odelta xs in
        let id = b lor Array.unsafe_get odelta xd in
        let xr = bget (Array.unsafe_get sre xs) is
        and xi = bget (Array.unsafe_get sim xs) is in
        if pure then begin
          bset (Array.unsafe_get sre xd) id xr;
          bset (Array.unsafe_get sim xd) id xi
        end
        else begin
          let pr = Array.unsafe_get phr xd and pi = Array.unsafe_get phi xd in
          bset (Array.unsafe_get sre xd) id ((pr *. xr) -. (pi *. xi));
          bset (Array.unsafe_get sim xd) id ((pr *. xi) +. (pi *. xr))
        end
      done;
      for w = 0 to nw - 1 do
        let x = Array.unsafe_get lasts w in
        let i = b lor Array.unsafe_get odelta x in
        let sr = Array.unsafe_get tr w and si = Array.unsafe_get ti w in
        if pure then begin
          bset (Array.unsafe_get sre x) i sr;
          bset (Array.unsafe_get sim x) i si
        end
        else begin
          let pr = Array.unsafe_get phr x and pi = Array.unsafe_get phi x in
          bset (Array.unsafe_get sre x) i ((pr *. sr) -. (pi *. si));
          bset (Array.unsafe_get sim x) i ((pr *. si) +. (pi *. sr))
        end
      done;
      base := ((b lor msk) + 1) land nmsk
    done
  | Sparse { rows; cols; wre; wim; _ } ->
    let vr = Array.make sub 0.0 and vi = Array.make sub 0.0 in
    for _ = 1 to count do
      let b = !base in
      if checked then assert (b >= 0 && b lor msk < size);
      let acc = ref 0.0 in
      for x = 0 to sub - 1 do
        let i = b lor Array.unsafe_get odelta x in
        let r = bget (Array.unsafe_get sre x) i
        and q = bget (Array.unsafe_get sim x) i in
        Array.unsafe_set vr x r;
        Array.unsafe_set vi x q;
        acc := !acc +. Float.abs r +. Float.abs q
      done;
      (* All-zero groups skip the matvec outright: U x 0 = 0, so the
         scatter would only rewrite zeros. Early sweeps of a circuit run
         on a mostly-unpopulated register and skip nearly every group.
         A skipped group keeps the stored zeros' signs where the matvec
         could have flipped a zero's sign — invisible to probabilities
         and measurements, and every layout applies the same per-group
         rule, so shard layouts stay bit-identical to each other. *)
      if !acc <> 0.0 then
        for row = 0 to sub - 1 do
          let sr = ref 0.0 and si = ref 0.0 in
          for p = Array.unsafe_get rows row
              to Array.unsafe_get rows (row + 1) - 1
          do
            let wr = Array.unsafe_get wre p and wi = Array.unsafe_get wim p in
            let col = Array.unsafe_get cols p in
            let xr = Array.unsafe_get vr col and xi = Array.unsafe_get vi col in
            sr := !sr +. ((wr *. xr) -. (wi *. xi));
            si := !si +. ((wr *. xi) +. (wi *. xr))
          done;
          let i = b lor Array.unsafe_get odelta row in
          bset (Array.unsafe_get sre row) i !sr;
          bset (Array.unsafe_get sim row) i !si
        done;
      base := ((b lor msk) + 1) land nmsk
    done

(* The two-entries-per-row sparse sweep over one slice, groups [lo, hi),
   on a blocked, row-outer schedule: a block of groups is gathered into
   L1-resident scratch, then each row's two weights and column indices
   are loaded once and streamed across the whole block — instead of six
   weight/column loads per row per group. Writes are disjoint, and each
   amplitude's arithmetic and accumulation order (0.0 + first entry +
   second entry) and the all-zero-group rule are those of
   [group_sweep]'s CSR walk, so results stay bit-identical. *)
let sparse2_sweep ~checked { cols; wre; wim; pairs; _ } ~msk ~offs
    (are : slice) (aim : slice) lo hi =
  let size = Ba.dim are in
  let sub = Array.length offs in
  let nmsk = lnot msk in
  (* scratch sized to the chunk: small registers pay no large staging *)
  let blk = max 1 (min (2048 / sub) (hi - lo)) in
  let bases = Array.make blk 0 in
  let svr = Array.make (blk * sub) 0.0 in
  let svi = Array.make (blk * sub) 0.0 in
  let skipg = Bytes.make blk '\000' in
  let base = ref (enum_base msk lo) in
  let g = ref lo in
  while !g < hi do
    let gb = min blk (hi - !g) in
    for gi = 0 to gb - 1 do
      let b = !base in
      if checked then assert (b >= 0 && b lor msk < size);
      Array.unsafe_set bases gi b;
      let sb = gi * sub in
      let acc = ref 0.0 in
      for x = 0 to sub - 1 do
        let i = b lor Array.unsafe_get offs x in
        let r = bget are i and q = bget aim i in
        Array.unsafe_set svr (sb + x) r;
        Array.unsafe_set svi (sb + x) q;
        acc := !acc +. Float.abs r +. Float.abs q
      done;
      Bytes.unsafe_set skipg gi (if !acc = 0.0 then '\001' else '\000');
      base := ((b lor msk) + 1) land nmsk
    done;
    (match pairs with
    | Some (pa, pb) ->
      for pr = 0 to Array.length pa - 1 do
        let ra = Array.unsafe_get pa pr and rb = Array.unsafe_get pb pr in
        let p = 2 * ra in
        let c0 = Array.unsafe_get cols p in
        let c1 = Array.unsafe_get cols (p + 1) in
        let ar0 = Array.unsafe_get wre p and ai0 = Array.unsafe_get wim p in
        let ar1 = Array.unsafe_get wre (p + 1)
        and ai1 = Array.unsafe_get wim (p + 1) in
        let q = 2 * rb in
        let br0 = Array.unsafe_get wre q and bi0 = Array.unsafe_get wim q in
        let br1 = Array.unsafe_get wre (q + 1)
        and bi1 = Array.unsafe_get wim (q + 1) in
        let oa = Array.unsafe_get offs ra and ob = Array.unsafe_get offs rb in
        let sb = ref 0 in
        for gi = 0 to gb - 1 do
          let s = !sb in
          if Bytes.unsafe_get skipg gi = '\000' then begin
            let xr0 = Array.unsafe_get svr (s + c0)
            and xi0 = Array.unsafe_get svi (s + c0) in
            let xr1 = Array.unsafe_get svr (s + c1)
            and xi1 = Array.unsafe_get svi (s + c1) in
            let b = Array.unsafe_get bases gi in
            let sra =
              0.0 +. ((ar0 *. xr0) -. (ai0 *. xi0))
              +. ((ar1 *. xr1) -. (ai1 *. xi1))
            in
            let sia =
              0.0 +. ((ar0 *. xi0) +. (ai0 *. xr0))
              +. ((ar1 *. xi1) +. (ai1 *. xr1))
            in
            let srb =
              0.0 +. ((br0 *. xr0) -. (bi0 *. xi0))
              +. ((br1 *. xr1) -. (bi1 *. xi1))
            in
            let sib =
              0.0 +. ((br0 *. xi0) +. (bi0 *. xr0))
              +. ((br1 *. xi1) +. (bi1 *. xr1))
            in
            let ia = b lor oa in
            bset are ia sra;
            bset aim ia sia;
            let ib = b lor ob in
            bset are ib srb;
            bset aim ib sib
          end;
          sb := s + sub
        done
      done
    | None ->
      for row = 0 to sub - 1 do
        let p = 2 * row in
        let wr0 = Array.unsafe_get wre p and wi0 = Array.unsafe_get wim p in
        let c0 = Array.unsafe_get cols p in
        let wr1 = Array.unsafe_get wre (p + 1)
        and wi1 = Array.unsafe_get wim (p + 1) in
        let c1 = Array.unsafe_get cols (p + 1) in
        let orow = Array.unsafe_get offs row in
        let sb = ref 0 in
        for gi = 0 to gb - 1 do
          let s = !sb in
          if Bytes.unsafe_get skipg gi = '\000' then begin
            let xr0 = Array.unsafe_get svr (s + c0)
            and xi0 = Array.unsafe_get svi (s + c0) in
            let xr1 = Array.unsafe_get svr (s + c1)
            and xi1 = Array.unsafe_get svi (s + c1) in
            let sr =
              0.0 +. ((wr0 *. xr0) -. (wi0 *. xi0))
              +. ((wr1 *. xr1) -. (wi1 *. xi1))
            in
            let si =
              0.0 +. ((wr0 *. xi0) +. (wi0 *. xr0))
              +. ((wr1 *. xi1) +. (wi1 *. xr1))
            in
            let i = Array.unsafe_get bases gi lor orow in
            bset are i sr;
            bset aim i si
          end;
          sb := s + sub
        done
      done);
    g := !g + gb
  done

(* Group kernels on a flat state, or on a sharded one whose bits all
   sit below the shard boundary (every shard is then an independent
   sub-register, one pool task each), sweep one slice at a time; bits
   at or above the boundary split as in [run_pair], with the group's
   sub-state slices pinned once per shard group. *)
let run_group st ~checked grp k =
  let sub = Array.length k.offs in
  let width = Array.length k.qs in
  let sweep_slice (are : slice) aim lo hi =
    match grp with
    | Sparse ({ uniform2 = true; _ } as sp) ->
      sparse2_sweep ~checked sp ~msk:k.msk ~offs:k.offs are aim lo hi
    | _ ->
      group_sweep ~checked grp (Array.make sub are) (Array.make sub aim) k.offs
        k.msk lo (hi - lo)
  in
  if not (sharded st) then
    Dpool.run ~size:(dim st lsr width) (sweep_slice st.re.(0) st.im.(0))
  else begin
    let lb = st.lb in
    let lm = (1 lsl lb) - 1 in
    let lows = k.msk land lm and highs = k.msk lsr lb in
    if highs = 0 then
      Dpool.run_tasks ~count:(shard_count st) (fun s ->
          sweep_slice st.re.(s) st.im.(s) 0 (1 lsl (lb - width)))
    else begin
      let sdelta = Array.map (fun o -> o lsr lb) k.offs in
      let odelta = Array.map (fun o -> o land lm) k.offs in
      let inner = (1 lsl lb) lsr popcount lows in
      Dpool.run_tasks ~count:(shard_count st lsr popcount highs) (fun g ->
          let sbase = enum_base highs g in
          let sre = Array.map (fun d -> st.re.(sbase lor d)) sdelta in
          let sim = Array.map (fun d -> st.im.(sbase lor d)) sdelta in
          group_sweep ~checked grp sre sim odelta lows 0 inner)
    end
  end

let apply_kernel st k =
  if k.msk lsr st.n <> 0 then
    Sim_error.error ~op:"Statevector.apply_kernel"
      "qubit %d out of range [0, %d)" (Array.fold_left max 0 k.qs) st.n;
  let checked = !checked_access_ref in
  match k.kind with
  | Identity -> ()
  | Pair (a, b, blk) ->
    run_pair st ~checked blk k.msk (Array.length k.qs) (offset k.qs a)
      (offset k.qs b)
  | Group grp -> run_group st ~checked grp k

(* ------------------------------------------------------------------ *)
(* Gate dispatch                                                        *)

(* The parameter-free gates are classified once, looked up in
   roughly descending order of frequency; parametric gates classify
   their matrix per call. *)
let fixed_gates =
  Gate.
    [|
      H; X; Cx; T; Tdg; S; Sdg; Z; Cz; Y; Swap; Sx; Sxdg; Cy; Ch; Ccx; Cswap; I;
    |]

let gate_class g =
  let re, im = Gate.flat_matrix g in
  classify (1 lsl Gate.num_qubits g) re im

let fixed_kinds = Array.map gate_class fixed_gates

let gate_kind (g : Gate.t) =
  let n = Array.length fixed_gates in
  let i = ref (match Gate.params g with [] -> 0 | _ :: _ -> n) in
  while !i < n && fixed_gates.(!i) != g do
    incr i
  done;
  if !i < n then fixed_kinds.(!i) else gate_class g

let apply st (g : Gate.t) qubits =
  let op = "Statevector.apply" in
  let m = Gate.num_qubits g in
  (* the gate matrix's operand 0 is its most significant bit, so the
     kernel lists the operands last to first *)
  let qs =
    match qubits with
    | [ a ] when m = 1 -> [| a |]
    | [ a; b ] when m = 2 -> [| b; a |]
    | [ a; b; c ] when m = 3 -> [| c; b; a |]
    | _ ->
      Sim_error.error ~op "%s expects %d qubits, got %d" (Gate.name g) m
        (List.length qubits)
  in
  let msk = operand_mask op st.n qs in
  apply_kernel st (make (gate_kind g) qs msk)

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)

(* Sums only the bit-set half of the index space; the result is clamped
   to [0, 1] so accumulated rounding on long circuits cannot leak an
   out-of-range probability into sampling or collapse. *)
let prob_one st q =
  check_qubit st q;
  let bit = 1 lsl q in
  let half = dim st / 2 in
  let sum =
    if sharded st then begin
      (* same enumeration and chunking as the flat branch, so the
         partial sums combine in the identical order: the result is bit
         for bit the same under either layout *)
      let lb = st.lb in
      let lm = (1 lsl lb) - 1 in
      let re = st.re and im = st.im in
      Dpool.reduce_float ~size:half (fun lo hi ->
          let acc = ref 0.0 in
          for k = lo to hi - 1 do
            let i1 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) lor bit in
            let r = re.(i1 lsr lb).{i1 land lm}
            and m = im.(i1 lsr lb).{i1 land lm} in
            acc := !acc +. (r *. r) +. (m *. m)
          done;
          !acc)
    end
    else begin
      let re = st.re.(0) and im = st.im.(0) in
      Dpool.reduce_float ~size:half (fun lo hi ->
          let acc = ref 0.0 in
          for k = lo to hi - 1 do
            let i1 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) lor bit in
            acc := !acc +. (re.{i1} *. re.{i1}) +. (im.{i1} *. im.{i1})
          done;
          !acc)
    end
  in
  Float.min 1.0 (Float.max 0.0 sum)

(* Projects onto [q] = [outcome] and renormalizes. The probability is
   clamped away from zero (and NaN) so that [1.0 /. sqrt prob] stays
   finite even when a numerically degenerate branch is collapsed —
   without the guard a denormal [prob] turns the whole register into
   infinities/NaNs. *)
let collapse st q outcome prob =
  let bit = 1 lsl q in
  let size = dim st in
  let prob = if Float.is_nan prob || prob < 1e-300 then 1e-300 else prob in
  let norm = 1.0 /. sqrt prob in
  if sharded st then begin
    let lb = st.lb in
    let lm = (1 lsl lb) - 1 in
    let res = st.re and ims = st.im in
    Dpool.run ~size (fun lo hi ->
        for i = lo to hi - 1 do
          let re = res.(i lsr lb) and im = ims.(i lsr lb) in
          let o = i land lm in
          let is_one = i land bit <> 0 in
          if is_one = outcome then begin
            re.{o} <- re.{o} *. norm;
            im.{o} <- im.{o} *. norm
          end
          else begin
            re.{o} <- 0.0;
            im.{o} <- 0.0
          end
        done)
  end
  else begin
    let re = st.re.(0) and im = st.im.(0) in
    Dpool.run ~size (fun lo hi ->
        for i = lo to hi - 1 do
          let is_one = i land bit <> 0 in
          if is_one = outcome then begin
            re.{i} <- re.{i} *. norm;
            im.{i} <- im.{i} *. norm
          end
          else begin
            re.{i} <- 0.0;
            im.{i} <- 0.0
          end
        done)
  end

let measure st q =
  let p1 = prob_one st q in
  let outcome = Rng.float st.rng < p1 in
  let prob = if outcome then p1 else 1.0 -. p1 in
  (* guard the numerically degenerate draw of a zero-probability branch *)
  let outcome, prob =
    if prob <= 0.0 then (not outcome, 1.0 -. prob) else (outcome, prob)
  in
  collapse st q outcome prob;
  outcome

let reset st q =
  let one = measure st q in
  if one then apply st Gate.X [ q ]

(* Z-expectation value of qubit [q] without collapsing. *)
let expectation_z st q = 1.0 -. (2.0 *. prob_one st q)

(* ------------------------------------------------------------------ *)
(* Whole-circuit execution                                              *)

let cond_holds clbits (cond : Circuit.cond option) =
  match cond with
  | None -> true
  | Some { cbits; value } ->
    let v =
      List.fold_left
        (fun (acc, k) c -> ((acc lor if clbits.(c) then 1 lsl k else 0), k + 1))
        (0, 0) cbits
      |> fst
    in
    v = value

let run_circuit ?(seed = 1) (c : Circuit.t) =
  let st = create ~seed c.Circuit.num_qubits in
  let clbits = Array.make (max c.Circuit.num_clbits 1) false in
  List.iter
    (fun (op : Circuit.op) ->
      if cond_holds clbits op.Circuit.cond then
        match op.Circuit.kind with
        | Circuit.Gate (g, qs) -> apply st g qs
        | Circuit.Measure (q, cl) -> clbits.(cl) <- measure st q
        | Circuit.Reset q -> reset st q
        | Circuit.Barrier _ -> ())
    c.Circuit.ops;
  (st, clbits)

(* Inner product <a|b>; |<a|b>|^2 = 1 iff the states coincide. *)
let inner_product a b =
  if a.n <> b.n then
    Sim_error.error ~op:"Statevector.inner_product" "size mismatch: %d <> %d"
      a.n b.n;
  let la = a.lb and lma = (1 lsl a.lb) - 1 in
  let lc = b.lb and lmb = (1 lsl b.lb) - 1 in
  let are = a.re and aim = a.im and bre = b.re and bim = b.im in
  let acc_re, acc_im =
    Dpool.reduce_float2 ~size:(dim a) (fun lo hi ->
        let sr = ref 0.0 and si = ref 0.0 in
        for i = lo to hi - 1 do
          (* conj(a) * b; the two states may be sharded differently *)
          let ar = are.(i lsr la).{i land lma}
          and ai = aim.(i lsr la).{i land lma} in
          let br = bre.(i lsr lc).{i land lmb}
          and bi = bim.(i lsr lc).{i land lmb} in
          sr := !sr +. (ar *. br) +. (ai *. bi);
          si := !si +. (ar *. bi) -. (ai *. br)
        done;
        (!sr, !si))
  in
  { Complex.re = acc_re; im = acc_im }

let fidelity a b = Complex.norm2 (inner_product a b)

(* ------------------------------------------------------------------ *)
(* Reference kernels                                                    *)

(* The seed's naive kernels: full 2^n scans, complex matrix multiply
   for every gate, single-threaded. They are the correctness oracle for
   the kernel sweeps (per gate, fused, flat and sharded) and the baseline
   the benchmarks measure speedups against. The only change from the
   seed is the two-level [shard.{offset}] addressing (for a flat state
   the shard index is always 0); every scan, matrix product and update
   is the seed's, element for element. *)
module Reference = struct
  (* plain bounds-checked accessors — oracle code, kept obviously safe
     rather than fast. Single-shard states (the common oracle case)
     index the one flat slice directly; only genuinely sharded states
     pay the two-level address split. *)
  let[@inline] rget st a i =
    if st.n <= st.lb then a.(0).{i}
    else a.(i lsr st.lb).{i land ((1 lsl st.lb) - 1)}

  let[@inline] rset st a i v =
    if st.n <= st.lb then a.(0).{i} <- v
    else a.(i lsr st.lb).{i land ((1 lsl st.lb) - 1)} <- v

  let apply_1q st (u : Complex.t array array) q =
    check_qubit st q;
    let bit = 1 lsl q in
    let size = dim st in
    let u00 = u.(0).(0) and u01 = u.(0).(1) and u10 = u.(1).(0) and u11 = u.(1).(1) in
    if st.n <= st.lb then begin
      (* single shard: the seed's original flat full scan, verbatim *)
      let re = st.re.(0) and im = st.im.(0) in
      let i = ref 0 in
      while !i < size do
        if !i land bit = 0 then begin
          let i0 = !i in
          let i1 = !i lor bit in
          let a_re = re.{i0} and a_im = im.{i0} in
          let b_re = re.{i1} and b_im = im.{i1} in
          re.{i0} <-
            (u00.Complex.re *. a_re) -. (u00.Complex.im *. a_im)
            +. (u01.Complex.re *. b_re) -. (u01.Complex.im *. b_im);
          im.{i0} <-
            (u00.Complex.re *. a_im) +. (u00.Complex.im *. a_re)
            +. (u01.Complex.re *. b_im) +. (u01.Complex.im *. b_re);
          re.{i1} <-
            (u10.Complex.re *. a_re) -. (u10.Complex.im *. a_im)
            +. (u11.Complex.re *. b_re) -. (u11.Complex.im *. b_im);
          im.{i1} <-
            (u10.Complex.re *. a_im) +. (u10.Complex.im *. a_re)
            +. (u11.Complex.re *. b_im) +. (u11.Complex.im *. b_re)
        end;
        incr i
      done
    end
    else begin
      let re = st.re and im = st.im in
      let i = ref 0 in
      while !i < size do
        if !i land bit = 0 then begin
          let i0 = !i in
          let i1 = !i lor bit in
          let a_re = rget st re i0 and a_im = rget st im i0 in
          let b_re = rget st re i1 and b_im = rget st im i1 in
          rset st re i0
            ((u00.Complex.re *. a_re) -. (u00.Complex.im *. a_im)
            +. (u01.Complex.re *. b_re) -. (u01.Complex.im *. b_im));
          rset st im i0
            ((u00.Complex.re *. a_im) +. (u00.Complex.im *. a_re)
            +. (u01.Complex.re *. b_im) +. (u01.Complex.im *. b_re));
          rset st re i1
            ((u10.Complex.re *. a_re) -. (u10.Complex.im *. a_im)
            +. (u11.Complex.re *. b_re) -. (u11.Complex.im *. b_im));
          rset st im i1
            ((u10.Complex.re *. a_im) +. (u10.Complex.im *. a_re)
            +. (u11.Complex.re *. b_im) +. (u11.Complex.im *. b_re))
        end;
        incr i
      done
    end

  let apply_2q st (u : Complex.t array array) qa qb =
    check_qubit st qa;
    check_qubit st qb;
    if qa = qb then
      Sim_error.error ~op:"Statevector.apply_2q" "identical qubits";
    let ba = 1 lsl qa and bb = 1 lsl qb in
    let size = dim st in
    let tmp_re = Array.make 4 0.0 and tmp_im = Array.make 4 0.0 in
    let idx = Array.make 4 0 in
    if st.n <= st.lb then begin
      (* single shard: the seed's original flat full scan, verbatim *)
      let re = st.re.(0) and im = st.im.(0) in
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
              let vr = re.{idx.(l)} and vi = im.{idx.(l)} in
              sr := !sr +. ((m.Complex.re *. vr) -. (m.Complex.im *. vi));
              si := !si +. ((m.Complex.re *. vi) +. (m.Complex.im *. vr))
            done;
            tmp_re.(k) <- !sr;
            tmp_im.(k) <- !si
          done;
          for k = 0 to 3 do
            re.{idx.(k)} <- tmp_re.(k);
            im.{idx.(k)} <- tmp_im.(k)
          done
        end;
        incr i
      done
    end
    else begin
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
              let vr = rget st re idx.(l) and vi = rget st im idx.(l) in
              sr := !sr +. ((m.Complex.re *. vr) -. (m.Complex.im *. vi));
              si := !si +. ((m.Complex.re *. vi) +. (m.Complex.im *. vr))
            done;
            tmp_re.(k) <- !sr;
            tmp_im.(k) <- !si
          done;
          for k = 0 to 3 do
            rset st re idx.(k) tmp_re.(k);
            rset st im idx.(k) tmp_im.(k)
          done
        end;
        incr i
      done
    end

  let apply_ccx st c1 c2 tgt =
    check_qubit st c1;
    check_qubit st c2;
    check_qubit st tgt;
    let b1 = 1 lsl c1 and b2 = 1 lsl c2 and bt = 1 lsl tgt in
    let size = dim st in
    if st.n <= st.lb then begin
      (* single shard: index the flat slice directly instead of paying
         the two-level address split on every access *)
      let re = st.re.(0) and im = st.im.(0) in
      let i = ref 0 in
      while !i < size do
        if !i land b1 <> 0 && !i land b2 <> 0 && !i land bt = 0 then begin
          let j = !i lor bt in
          let tr = re.{!i} and ti = im.{!i} in
          re.{!i} <- re.{j};
          im.{!i} <- im.{j};
          re.{j} <- tr;
          im.{j} <- ti
        end;
        incr i
      done
    end
    else begin
      let re = st.re and im = st.im in
      let i = ref 0 in
      while !i < size do
        if !i land b1 <> 0 && !i land b2 <> 0 && !i land bt = 0 then begin
          let j = !i lor bt in
          let tr = rget st re !i and ti = rget st im !i in
          rset st re !i (rget st re j);
          rset st im !i (rget st im j);
          rset st re j tr;
          rset st im j ti
        end;
        incr i
      done
    end

  let apply_cswap st c a b =
    check_qubit st c;
    check_qubit st a;
    check_qubit st b;
    let bc = 1 lsl c and ba = 1 lsl a and bb = 1 lsl b in
    let size = dim st in
    if st.n <= st.lb then begin
      (* single shard: direct flat indexing, as in [apply_ccx] *)
      let re = st.re.(0) and im = st.im.(0) in
      let i = ref 0 in
      while !i < size do
        if !i land bc <> 0 && !i land ba <> 0 && !i land bb = 0 then begin
          let j = (!i lxor ba) lor bb in
          let tr = re.{!i} and ti = im.{!i} in
          re.{!i} <- re.{j};
          im.{!i} <- im.{j};
          re.{j} <- tr;
          im.{j} <- ti
        end;
        incr i
      done
    end
    else begin
      let re = st.re and im = st.im in
      let i = ref 0 in
      while !i < size do
        if !i land bc <> 0 && !i land ba <> 0 && !i land bb = 0 then begin
          let j = (!i lxor ba) lor bb in
          let tr = rget st re !i and ti = rget st im !i in
          rset st re !i (rget st re j);
          rset st im !i (rget st im j);
          rset st re j tr;
          rset st im j ti
        end;
        incr i
      done
    end

  let apply st (g : Gate.t) qubits =
    match Gate.num_qubits g, qubits with
    | 1, [ q ] -> apply_1q st (Gate.matrix g) q
    | 2, [ a; b ] -> apply_2q st (Gate.matrix g) a b
    | 3, [ a; b; c ] -> (
      match g with
      | Gate.Ccx -> apply_ccx st a b c
      | Gate.Cswap -> apply_cswap st a b c
      | _ -> assert false)
    | n, qs ->
      Sim_error.error ~op:"Statevector.Reference.apply"
        "%s expects %d qubits, got %d" (Gate.name g) n (List.length qs)

  let run_circuit ?(seed = 1) (c : Circuit.t) =
    let st = create ~seed c.Circuit.num_qubits in
    let clbits = Array.make (max c.Circuit.num_clbits 1) false in
    List.iter
      (fun (op : Circuit.op) ->
        if cond_holds clbits op.Circuit.cond then
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
