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
   - every kernel enumerates only the indices with the target bit(s)
     clear and reconstructs the full index by bit insertion, so a 1q
     kernel visits size/2 loop iterations, a 2q kernel size/4, CCX
     size/8 — instead of scanning all 2^n indices and filtering;
   - structured gates get dedicated kernels: permutations (X, CNOT,
     SWAP, CCX, CSWAP) shuffle amplitudes without arithmetic, diagonal
     gates (Z, S, T, Rz, CZ, CP, ...) multiply phases without touching
     index pairs, and real matrices (H, Ry) skip the imaginary halves of
     the complex multiply; everything else falls back to the general
     2x2 / 4x4 kernel;
   - when the register is large enough, kernels split their index range
     across a reusable Domain pool ({!Dpool});
   - cross-shard gates run a stride-aware shard exchange: the involved
     bit positions are split once at the shard boundary, the high
     positions select shard pairs, the low positions form a mask whose
     clear-bit offsets are enumerated by mask-increment — one pass per
     shard pair over large contiguous runs instead of an element-wise
     two-level gather/scatter. A permutation gate whose involved bits
     all sit at or above the boundary degenerates to swapping shard
     references: O(1) per shard pair, no amplitude traffic at all;
   - whole runs of fused gates execute as one pass via the cluster
     kernel ({!apply_cluster}), with constant-work fast paths for
     diagonal and permutation-shaped cluster matrices;
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
   [m] bits per amplitude. The outcome of a shard's base index and of an
   offset inside the shard occupy disjoint bits, so they combine by [lor]. *)
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
  let bytes = (st.n + 7) / 8 in
  let tables =
    Array.init bytes (fun b ->
        Array.init 256 (fun v ->
            let o = ref 0 in
            Array.iteri
              (fun j q ->
                if q lsr 3 = b && v land (1 lsl (q land 7)) <> 0 then
                  o := !o lor (1 lsl j))
              qs;
            !o))
  in
  let outcome i =
    let o = ref 0 in
    for b = 0 to bytes - 1 do
      o := !o lor Array.unsafe_get tables.(b) ((i lsr (8 * b)) land 255)
    done;
    !o
  in
  let mask = (1 lsl m) - 1 in
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
      let hi = outcome base in
      for j = 0 to shard_size - 1 do
        let r = bget re j and mi = bget im j in
        let o = hi lor outcome j in
        Array.unsafe_set out o
          (Array.unsafe_get out o +. ((r *. r) +. (mi *. mi)))
      done
    end
  done;
  out

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
   result is 0: the k-th index among those with bit p clear. Composing
   insertions in ascending position order enumerates the indices with
   several bits clear. *)
let insert_zero x p = ((x lsr p) lsl (p + 1)) lor (x land ((1 lsl p) - 1))

let sort2 a b = if a < b then (a, b) else (b, a)

let sort3 a b c =
  let a, b = sort2 a b in
  let a, c = sort2 a c in
  let b, c = sort2 b c in
  (a, b, c)

(* [enum_base ps k]: the k-th smallest index among those with every
   (ascending) bit position in [ps] clear. *)
let enum_base ps k =
  let b = ref k in
  for j = 0 to Array.length ps - 1 do
    b := insert_zero !b (Array.unsafe_get ps j)
  done;
  !b

let mask_of ps = Array.fold_left (fun m p -> m lor (1 lsl p)) 0 ps

(* Splits sorted bit positions at the shard boundary: positions below
   [lb] stay in-shard offsets, positions at or above map (shifted down
   by [lb]) to bits of the shard index. *)
let split_low_high lb ps =
  let lows = ref [] and highs = ref [] in
  Array.iter
    (fun p ->
      if p < lb then lows := p :: !lows else highs := (p - lb) :: !highs)
    ps;
  (Array.of_list (List.rev !lows), Array.of_list (List.rev !highs))

(* ------------------------------------------------------------------ *)
(* Stride-aware shard exchange                                          *)

(* Sharded kernels no longer re-split every global index into
   (shard, offset): the gate's involved bit positions are split once at
   the shard boundary. Positions at or above [lb] enumerate shard
   groups (bit insertion over the shard index), positions below [lb]
   form a mask whose clear-bit offsets step by mask-increment
   (next = ((o lor mask) + 1) land lnot mask, O(1) per group) — so each
   shard pair is swept in one pass of large contiguous runs, and the
   per-pair arithmetic is the flat kernels' verbatim. Per-pair work is
   independent, so the changed traversal order leaves every amplitude
   bit-identical to the flat layout. *)

(* [sh_pairs st ~ps ~oa ~ob body]: for every group base [i] (all bits
   in the sorted positions [ps] clear) the gate touches the pair
   (i lor oa, i lor ob). [body] receives the two shard slices, the two
   in-shard offset deltas, the low-bit mask and the number of offsets
   to enumerate, and sweeps one shard pair. *)
let sh_pairs st ~ps ~oa ~ob body =
  let lb = st.lb in
  let lm = (1 lsl lb) - 1 in
  let lows, highs = split_low_high lb ps in
  let lmsk = mask_of lows in
  let inner = (1 lsl lb) lsr Array.length lows in
  let sa = oa lsr lb and sb = ob lsr lb in
  let oal = oa land lm and obl = ob land lm in
  let res = st.re and ims = st.im in
  let sgroups = Array.length res lsr Array.length highs in
  Dpool.run_tasks ~count:sgroups (fun g ->
      let sbase = enum_base highs g in
      let s0 = sbase lor sa and s1 = sbase lor sb in
      body res.(s0) ims.(s0) res.(s1) ims.(s1) oal obl lmsk inner)

(* Scales every amplitude at (group base lor off) by (zr + i*zi): the
   diagonal-gate building block. When [off]'s bits all sit above the
   shard boundary this is a contiguous whole-shard multiply. *)
let sh_scale st ~ps ~off ~zr ~zi =
  let lb = st.lb in
  let lm = (1 lsl lb) - 1 in
  let lows, highs = split_low_high lb ps in
  let lmsk = mask_of lows in
  let nmsk = lnot lmsk in
  let inner = (1 lsl lb) lsr Array.length lows in
  let so = off lsr lb and ol = off land lm in
  let res = st.re and ims = st.im in
  let checked = !checked_access_ref in
  let sgroups = Array.length res lsr Array.length highs in
  Dpool.run_tasks ~count:sgroups (fun g ->
      let s = enum_base highs g lor so in
      let re = res.(s) and im = ims.(s) in
      let o = ref 0 in
      for _ = 1 to inner do
        let i = !o lor ol in
        if checked then assert (i >= 0 && i < Ba.dim re);
        let r = bget re i and m = bget im i in
        bset re i ((zr *. r) -. (zi *. m));
        bset im i ((zr *. m) +. (zi *. r));
        o := ((!o lor lmsk) + 1) land nmsk
      done)

(* Pure permutation gates (X, CX, SWAP, CCX, CSWAP): when every
   involved bit sits at or above the shard boundary the gate permutes
   whole shards — swap the slice references, O(1) per shard pair, no
   amplitude traffic (a GHZ chain's high-bit CNOTs on a 28q register
   cost nothing per amplitude). Otherwise sweep shard pairs with the
   swap body. *)
let sh_perm st ~ps ~oa ~ob =
  let lb = st.lb in
  let lows, highs = split_low_high lb ps in
  if Array.length lows = 0 then begin
    let sa = oa lsr lb and sb = ob lsr lb in
    let sgroups = Array.length st.re lsr Array.length highs in
    for g = 0 to sgroups - 1 do
      let sbase = enum_base highs g in
      let s0 = sbase lor sa and s1 = sbase lor sb in
      let tr = st.re.(s0) in
      st.re.(s0) <- st.re.(s1);
      st.re.(s1) <- tr;
      let ti = st.im.(s0) in
      st.im.(s0) <- st.im.(s1);
      st.im.(s1) <- ti
    done
  end
  else begin
    let checked = !checked_access_ref in
    sh_pairs st ~ps ~oa ~ob (fun r0 m0 r1 m1 oal obl lmsk inner ->
        let nmsk = lnot lmsk in
        let o = ref 0 in
        for _ = 1 to inner do
          let o0 = !o lor oal and o1 = !o lor obl in
          if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
          let tr = bget r0 o0 and ti = bget m0 o0 in
          bset r0 o0 (bget r1 o1);
          bset m0 o0 (bget m1 o1);
          bset r1 o1 tr;
          bset m1 o1 ti;
          o := ((!o lor lmsk) + 1) land nmsk
        done)
  end

(* Y-shaped exchange (Y, CY): a0' = -i*a1, a1' = i*a0. *)
let sh_y st ~ps ~oa ~ob =
  let checked = !checked_access_ref in
  sh_pairs st ~ps ~oa ~ob (fun r0 m0 r1 m1 oal obl lmsk inner ->
      let nmsk = lnot lmsk in
      let o = ref 0 in
      for _ = 1 to inner do
        let o0 = !o lor oal and o1 = !o lor obl in
        if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
        let ar = bget r0 o0 and ai = bget m0 o0 in
        let br = bget r1 o1 and bi = bget m1 o1 in
        bset r0 o0 bi;
        bset m0 o0 (-.br);
        bset r1 o1 (-.ai);
        bset m1 o1 ar;
        o := ((!o lor lmsk) + 1) land nmsk
      done)

(* ------------------------------------------------------------------ *)
(* Specialized 1-qubit kernels                                          *)

(* Permutation: X swaps each (i0, i1) pair. *)
let apply_x st q =
  check_qubit st q;
  if sharded st then sh_perm st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let tr = bget re i0 and ti = bget im i0 in
          bset re i0 (bget re i1);
          bset im i0 (bget im i1);
          bset re i1 tr;
          bset im i1 ti
        done)
  end

(* Y = [[0, -i]; [i, 0]]: a0' = -i*a1, a1' = i*a0. *)
let apply_y st q =
  check_qubit st q;
  if sharded st then sh_y st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let ar = bget re i0 and ai = bget im i0 in
          let br = bget re i1 and bi = bget im i1 in
          bset re i0 bi;
          bset im i0 (-.br);
          bset re i1 (-.ai);
          bset im i1 ar
        done)
  end

(* Diagonal: amp(i0) *= d0, amp(i1) *= d1, no pair shuffle. The common
   d0 = 1 case (Z, S, T, P) touches only the bit-set half. *)
let apply_diag1 st ~d0re ~d0im ~d1re ~d1im q =
  check_qubit st q;
  if sharded st then begin
    if d0re = 1.0 && d0im = 0.0 then
      sh_scale st ~ps:[| q |] ~off:(1 lsl q) ~zr:d1re ~zi:d1im
    else begin
      let checked = !checked_access_ref in
      sh_pairs st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
        (fun r0 m0 r1 m1 oal obl lmsk inner ->
          let nmsk = lnot lmsk in
          let o = ref 0 in
          for _ = 1 to inner do
            let o0 = !o lor oal and o1 = !o lor obl in
            if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
            let a = bget r0 o0 and b = bget m0 o0 in
            bset r0 o0 ((d0re *. a) -. (d0im *. b));
            bset m0 o0 ((d0re *. b) +. (d0im *. a));
            let a = bget r1 o1 and b = bget m1 o1 in
            bset r1 o1 ((d1re *. a) -. (d1im *. b));
            bset m1 o1 ((d1re *. b) +. (d1im *. a));
            o := ((!o lor lmsk) + 1) land nmsk
          done)
    end
  end
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    if d0re = 1.0 && d0im = 0.0 then
      Dpool.run ~size:half (fun lo hi ->
          if checked && hi > lo then begin
            let kx = hi - 1 in
            assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                    < Ba.dim re)
          end;
          for k = lo to hi - 1 do
            let i1 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) lor bit in
            let r = bget re i1 and m = bget im i1 in
            bset re i1 ((d1re *. r) -. (d1im *. m));
            bset im i1 ((d1re *. m) +. (d1im *. r))
          done)
    else
      Dpool.run ~size:half (fun lo hi ->
          if checked && hi > lo then begin
            let kx = hi - 1 in
            assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                    < Ba.dim re)
          end;
          for k = lo to hi - 1 do
            let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
            let i1 = i0 lor bit in
            let r0 = bget re i0 and m0 = bget im i0 in
            bset re i0 ((d0re *. r0) -. (d0im *. m0));
            bset im i0 ((d0re *. m0) +. (d0im *. r0));
            let r1 = bget re i1 and m1 = bget im i1 in
            bset re i1 ((d1re *. r1) -. (d1im *. m1));
            bset im i1 ((d1re *. m1) +. (d1im *. r1))
          done)
  end

(* Anti-diagonal [[0, b]; [c, 0]]: a0' = b*a1, a1' = c*a0 (X up to
   phases — e.g. Y, or fused X-conjugated diagonals). *)
let apply_antidiag1 st ~bre ~bim ~cre ~cim q =
  check_qubit st q;
  if sharded st then begin
    let checked = !checked_access_ref in
    sh_pairs st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
      (fun r0 m0 r1 m1 oal obl lmsk inner ->
        let nmsk = lnot lmsk in
        let o = ref 0 in
        for _ = 1 to inner do
          let o0 = !o lor oal and o1 = !o lor obl in
          if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
          let ar = bget r0 o0 and ai = bget m0 o0 in
          let br = bget r1 o1 and bi = bget m1 o1 in
          bset r0 o0 ((bre *. br) -. (bim *. bi));
          bset m0 o0 ((bre *. bi) +. (bim *. br));
          bset r1 o1 ((cre *. ar) -. (cim *. ai));
          bset m1 o1 ((cre *. ai) +. (cim *. ar));
          o := ((!o lor lmsk) + 1) land nmsk
        done)
  end
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let ar = bget re i0 and ai = bget im i0 in
          let br = bget re i1 and bi = bget im i1 in
          bset re i0 ((bre *. br) -. (bim *. bi));
          bset im i0 ((bre *. bi) +. (bim *. br));
          bset re i1 ((cre *. ar) -. (cim *. ai));
          bset im i1 ((cre *. ai) +. (cim *. ar))
        done)
  end

(* Real 2x2 matrix (H, Ry): halves the multiply count of the general
   kernel — real and imaginary parts never mix. *)
let apply_real1q st ~u00 ~u01 ~u10 ~u11 q =
  check_qubit st q;
  if sharded st then begin
    let checked = !checked_access_ref in
    sh_pairs st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
      (fun r0 m0 r1 m1 oal obl lmsk inner ->
        let nmsk = lnot lmsk in
        let o = ref 0 in
        for _ = 1 to inner do
          let o0 = !o lor oal and o1 = !o lor obl in
          if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
          let ar = bget r0 o0 and ai = bget m0 o0 in
          let br = bget r1 o1 and bi = bget m1 o1 in
          bset r0 o0 ((u00 *. ar) +. (u01 *. br));
          bset m0 o0 ((u00 *. ai) +. (u01 *. bi));
          bset r1 o1 ((u10 *. ar) +. (u11 *. br));
          bset m1 o1 ((u10 *. ai) +. (u11 *. bi));
          o := ((!o lor lmsk) + 1) land nmsk
        done)
  end
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let ar = bget re i0 and ai = bget im i0 in
          let br = bget re i1 and bi = bget im i1 in
          bset re i0 ((u00 *. ar) +. (u01 *. br));
          bset im i0 ((u00 *. ai) +. (u01 *. bi));
          bset re i1 ((u10 *. ar) +. (u11 *. br));
          bset im i1 ((u10 *. ai) +. (u11 *. bi))
        done)
  end

(* General single-qubit unitary on qubit [q]: enumerates only the
   bit-clear half of the index space. *)
let apply_general1q st ~u00re ~u00im ~u01re ~u01im ~u10re ~u10im ~u11re
    ~u11im q =
  check_qubit st q;
  if sharded st then begin
    let checked = !checked_access_ref in
    sh_pairs st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
      (fun r0 m0 r1 m1 oal obl lmsk inner ->
        let nmsk = lnot lmsk in
        let o = ref 0 in
        for _ = 1 to inner do
          let o0 = !o lor oal and o1 = !o lor obl in
          if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
          let ar = bget r0 o0 and ai = bget m0 o0 in
          let br = bget r1 o1 and bi = bget m1 o1 in
          bset r0 o0
            ((u00re *. ar) -. (u00im *. ai) +. (u01re *. br) -. (u01im *. bi));
          bset m0 o0
            ((u00re *. ai) +. (u00im *. ar) +. (u01re *. bi) +. (u01im *. br));
          bset r1 o1
            ((u10re *. ar) -. (u10im *. ai) +. (u11re *. br) -. (u11im *. bi));
          bset m1 o1
            ((u10re *. ai) +. (u10im *. ar) +. (u11re *. bi) +. (u11im *. br));
          o := ((!o lor lmsk) + 1) land nmsk
        done)
  end
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let ar = bget re i0 and ai = bget im i0 in
          let br = bget re i1 and bi = bget im i1 in
          bset re i0
            ((u00re *. ar) -. (u00im *. ai) +. (u01re *. br) -. (u01im *. bi));
          bset im i0
            ((u00re *. ai) +. (u00im *. ar) +. (u01re *. bi) +. (u01im *. br));
          bset re i1
            ((u10re *. ar) -. (u10im *. ai) +. (u11re *. br) -. (u11im *. bi));
          bset im i1
            ((u10re *. ai) +. (u10im *. ar) +. (u11re *. bi) +. (u11im *. br))
        done)
  end

(* Structure dispatch for an arbitrary 2x2 matrix. The zero tests are
   exact: gate matrices carry exact 0.0 entries and matrix products of
   structured matrices preserve them. *)
let apply_mat1 st (u : Complex.t array array) q =
  let u00 = u.(0).(0) and u01 = u.(0).(1) and u10 = u.(1).(0) and u11 = u.(1).(1) in
  let zero (z : Complex.t) = z.Complex.re = 0.0 && z.Complex.im = 0.0 in
  let r (z : Complex.t) = z.Complex.re and i (z : Complex.t) = z.Complex.im in
  if zero u01 && zero u10 then
    apply_diag1 st ~d0re:(r u00) ~d0im:(i u00) ~d1re:(r u11) ~d1im:(i u11) q
  else if zero u00 && zero u11 then
    apply_antidiag1 st ~bre:(r u01) ~bim:(i u01) ~cre:(r u10) ~cim:(i u10) q
  else if i u00 = 0.0 && i u01 = 0.0 && i u10 = 0.0 && i u11 = 0.0 then
    apply_real1q st ~u00:(r u00) ~u01:(r u01) ~u10:(r u10) ~u11:(r u11) q
  else
    apply_general1q st ~u00re:(r u00) ~u00im:(i u00) ~u01re:(r u01)
      ~u01im:(i u01) ~u10re:(r u10) ~u10im:(i u10) ~u11re:(r u11)
      ~u11im:(i u11) q

(* ------------------------------------------------------------------ *)
(* Specialized 2-qubit kernels                                          *)

let check_pair st qa qb =
  check_qubit st qa;
  check_qubit st qb;
  if qa = qb then Sim_error.error ~op:"Statevector" "identical qubits (%d)" qa

(* CNOT: for indices with control set, swap the target pair. *)
let apply_cx st c t =
  check_pair st c t;
  let bc = 1 lsl c and bt = 1 lsl t in
  let p_lo, p_hi = sort2 c t in
  if sharded st then
    sh_perm st ~ps:[| p_lo; p_hi |] ~oa:bc ~ob:(bc lor bt)
  else begin
    let quarter = dim st / 4 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:quarter (fun lo hi ->
        (* monotone in [k]: the chunk's last index bounds every access *)
        if checked && hi > lo then begin
          let i = insert_zero (insert_zero (hi - 1) p_lo) p_hi in
          assert (i lor bc lor bt < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i = insert_zero (insert_zero k p_lo) p_hi in
          let i0 = i lor bc in
          let i1 = i0 lor bt in
          let tr = bget re i0 and ti = bget im i0 in
          bset re i0 (bget re i1);
          bset im i0 (bget im i1);
          bset re i1 tr;
          bset im i1 ti
        done)
  end

let apply_cy st c t =
  check_pair st c t;
  let bc = 1 lsl c and bt = 1 lsl t in
  let p_lo, p_hi = sort2 c t in
  if sharded st then sh_y st ~ps:[| p_lo; p_hi |] ~oa:bc ~ob:(bc lor bt)
  else begin
    let quarter = dim st / 4 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:quarter (fun lo hi ->
        (* monotone in [k]: the chunk's last index bounds every access *)
        if checked && hi > lo then begin
          let i = insert_zero (insert_zero (hi - 1) p_lo) p_hi in
          assert (i lor bc lor bt < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i = insert_zero (insert_zero k p_lo) p_hi in
          let i0 = i lor bc in
          let i1 = i0 lor bt in
          let ar = bget re i0 and ai = bget im i0 in
          let br = bget re i1 and bi = bget im i1 in
          bset re i0 bi;
          bset im i0 (-.br);
          bset re i1 (-.ai);
          bset im i1 ar
        done)
  end

let apply_swap st a b =
  check_pair st a b;
  let ba = 1 lsl a and bb = 1 lsl b in
  let p_lo, p_hi = sort2 a b in
  if sharded st then sh_perm st ~ps:[| p_lo; p_hi |] ~oa:ba ~ob:bb
  else begin
    let quarter = dim st / 4 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:quarter (fun lo hi ->
        (* monotone in [k]: the chunk's last index bounds every access *)
        if checked && hi > lo then begin
          let i = insert_zero (insert_zero (hi - 1) p_lo) p_hi in
          assert (i lor ba lor bb < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i = insert_zero (insert_zero k p_lo) p_hi in
          let i0 = i lor ba in
          let i1 = i lor bb in
          let tr = bget re i0 and ti = bget im i0 in
          bset re i0 (bget re i1);
          bset im i0 (bget im i1);
          bset re i1 tr;
          bset im i1 ti
        done)
  end

(* Diagonal 4x4: phase multiply per basis pattern, no pair shuffle.
   [d] is indexed by the 2-bit pattern (bit of qa, bit of qb) with qa
   the most significant — the {!Gate.matrix_2q} convention. Unit
   entries are skipped (each sub-state's amplitudes are disjoint, so
   the sharded per-sub-state sweeps match the flat interleaved loop
   bit for bit). *)
let apply_diag2 st (d : Complex.t array) qa qb =
  check_pair st qa qb;
  let ba = 1 lsl qa and bb = 1 lsl qb in
  let p_lo, p_hi = sort2 qa qb in
  let one (z : Complex.t) = z.re = 1.0 && z.im = 0.0 in
  if sharded st then begin
    let ps = [| p_lo; p_hi |] in
    let offs = [| 0; bb; ba; ba lor bb |] in
    for x = 0 to 3 do
      if not (one d.(x)) then
        sh_scale st ~ps ~off:offs.(x) ~zr:d.(x).Complex.re ~zi:d.(x).Complex.im
    done
  end
  else begin
    let quarter = dim st / 4 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    let mul (z : Complex.t) i =
      if checked then assert (i < Ba.dim re);
      let r = bget re i and m = bget im i in
      bset re i ((z.re *. r) -. (z.im *. m));
      bset im i ((z.re *. m) +. (z.im *. r))
    in
    let s0 = one d.(0) and s1 = one d.(1) and s2 = one d.(2) and s3 = one d.(3) in
    Dpool.run ~size:quarter (fun lo hi ->
        for k = lo to hi - 1 do
          let i = insert_zero (insert_zero k p_lo) p_hi in
          if not s0 then mul d.(0) i;
          if not s1 then mul d.(1) (i lor bb);
          if not s2 then mul d.(2) (i lor ba);
          if not s3 then mul d.(3) (i lor ba lor bb)
        done)
  end

(* Stride-aware sharded general 4x4: the four sub-state slices of a
   shard group are pinned once, then the offsets enumerate by
   mask-increment — same gather/matvec/scatter arithmetic as the flat
   kernel below. *)
let sh_general2q st (u : Complex.t array array) qa qb =
  let lb = st.lb in
  let lm = (1 lsl lb) - 1 in
  let ba = 1 lsl qa and bb = 1 lsl qb in
  let p_lo, p_hi = sort2 qa qb in
  let lows, highs = split_low_high lb [| p_lo; p_hi |] in
  let lmsk = mask_of lows in
  let nmsk = lnot lmsk in
  let inner = (1 lsl lb) lsr Array.length lows in
  let offs = [| 0; bb; ba; ba lor bb |] in
  let sdelta = Array.map (fun o -> o lsr lb) offs in
  let odelta = Array.map (fun o -> o land lm) offs in
  let res = st.re and ims = st.im in
  let checked = !checked_access_ref in
  let sgroups = Array.length res lsr Array.length highs in
  Dpool.run_tasks ~count:sgroups (fun g ->
      let sbase = enum_base highs g in
      let sre = Array.map (fun d -> res.(sbase lor d)) sdelta in
      let sim = Array.map (fun d -> ims.(sbase lor d)) sdelta in
      let tmp_re = Array.make 4 0.0 and tmp_im = Array.make 4 0.0 in
      let o = ref 0 in
      for _ = 1 to inner do
        for row = 0 to 3 do
          let sr = ref 0.0 and si = ref 0.0 in
          for col = 0 to 3 do
            let m = u.(row).(col) in
            let j = !o lor Array.unsafe_get odelta col in
            let slr = Array.unsafe_get sre col in
            if checked then assert (j < Ba.dim slr);
            let vr = bget slr j and vi = bget (Array.unsafe_get sim col) j in
            sr := !sr +. ((m.Complex.re *. vr) -. (m.Complex.im *. vi));
            si := !si +. ((m.Complex.re *. vi) +. (m.Complex.im *. vr))
          done;
          tmp_re.(row) <- !sr;
          tmp_im.(row) <- !si
        done;
        for row = 0 to 3 do
          let j = !o lor Array.unsafe_get odelta row in
          bset (Array.unsafe_get sre row) j (Array.unsafe_get tmp_re row);
          bset (Array.unsafe_get sim row) j (Array.unsafe_get tmp_im row)
        done;
        o := ((!o lor lmsk) + 1) land nmsk
      done)

(* General two-qubit unitary on qubits [qa] (most significant in the
   matrix basis) and [qb]: enumerates the quarter of the index space
   with both bits clear. *)
let apply_general2q st (u : Complex.t array array) qa qb =
  check_pair st qa qb;
  if sharded st then sh_general2q st u qa qb
  else begin
    let ba = 1 lsl qa and bb = 1 lsl qb in
    let p_lo, p_hi = sort2 qa qb in
    let quarter = dim st / 4 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:quarter (fun lo hi ->
        (* per-chunk scratch: kernels may run concurrently *)
        let tmp_re = Array.make 4 0.0 and tmp_im = Array.make 4 0.0 in
        let idx = Array.make 4 0 in
        for k = lo to hi - 1 do
          let i = insert_zero (insert_zero k p_lo) p_hi in
          idx.(0) <- i;
          idx.(1) <- i lor bb;
          idx.(2) <- i lor ba;
          idx.(3) <- i lor ba lor bb;
          if checked then assert (i lor ba lor bb < Ba.dim re);
          for row = 0 to 3 do
            let sr = ref 0.0 and si = ref 0.0 in
            for col = 0 to 3 do
              let m = u.(row).(col) in
              let j = Array.unsafe_get idx col in
              let vr = bget re j and vi = bget im j in
              sr := !sr +. ((m.Complex.re *. vr) -. (m.Complex.im *. vi));
              si := !si +. ((m.Complex.re *. vi) +. (m.Complex.im *. vr))
            done;
            tmp_re.(row) <- !sr;
            tmp_im.(row) <- !si
          done;
          for row = 0 to 3 do
            let j = Array.unsafe_get idx row in
            bset re j (Array.unsafe_get tmp_re row);
            bset im j (Array.unsafe_get tmp_im row)
          done
        done)
  end

(* ------------------------------------------------------------------ *)
(* Cluster kernel                                                       *)

(* A fused cluster is a 2^m x 2^m unitary over m qubits (m up to
   {!Fusion}'s clustering bound). One pass over the amplitudes
   gathers each group's 2^m-amplitude subvector, applies the matrix,
   and scatters the result — one sweep of memory for a whole run of
   gates. The matrix is classified once per application: diagonal and
   monomial (permutation-with-phases) clusters — every Clifford+T run
   without an H, for example — cost a constant number of multiplies
   per amplitude regardless of m, and everything else runs as a sparse
   (CSR) matvec over the matrix's exact nonzeros, so the cost scales
   with the fused matrix's density rather than its dimension.

   Sub-state bit [j] of the matrix basis corresponds to [qs.(j)]
   (LSB first — note this is the opposite of {!apply_2q}'s operand
   order). Group bases start from a composed bit insertion and step by
   mask-increment, so every derived index is in bounds by construction;
   the sweeps use [Array1.unsafe_get/set] on that strength, and
   {!set_checked_access} turns the proof back into runtime
   assertions. *)

type cluster_kind =
  | Cl_diag of float array * float array
  | Cl_monomial of int array array * float array * float array
      (* permutation as its cycles (each walked in apply order:
         new[r] = phase[r] * old[perm r], with cycle.(t+1) = perm
         cycle.(t)), so the sweep moves amplitudes along each cycle
         holding a single saved pair — no staging buffers. *)
  | Cl_sparse of int array * int array * float array * float array
      (* CSR over the exact nonzeros: row offsets (sub+1), column
         indices, then re/im weights. Fused Clifford+T matrices are
         mostly zeros (a CX-and-H product has 2-4 nonzeros per 32-wide
         row), so skipping them is the difference between a 2^m matvec
         and a near-constant number of multiplies per amplitude. *)

let classify_cluster (u : Complex.t array array) sub =
  let zero (z : Complex.t) = z.Complex.re = 0.0 && z.Complex.im = 0.0 in
  let perm = Array.make sub 0 in
  let monomial =
    try
      for r = 0 to sub - 1 do
        let c = ref (-1) in
        for j = 0 to sub - 1 do
          if not (zero u.(r).(j)) then
            if !c < 0 then c := j else raise Exit
        done;
        if !c < 0 then raise Exit;
        perm.(r) <- !c
      done;
      let seen = Array.make sub false in
      Array.iter
        (fun c -> if seen.(c) then raise Exit else seen.(c) <- true)
        perm;
      true
    with Exit -> false
  in
  if monomial then begin
    let phr = Array.init sub (fun r -> u.(r).(perm.(r)).Complex.re) in
    let phi = Array.init sub (fun r -> u.(r).(perm.(r)).Complex.im) in
    let diag = ref true in
    Array.iteri (fun r c -> if r <> c then diag := false) perm;
    if !diag then Cl_diag (phr, phi)
    else begin
      let seen = Array.make sub false in
      let cycles = ref [] in
      for r0 = 0 to sub - 1 do
        if not seen.(r0) then begin
          let cyc = ref [ r0 ] in
          seen.(r0) <- true;
          let r = ref perm.(r0) in
          while !r <> r0 do
            seen.(!r) <- true;
            cyc := !r :: !cyc;
            r := perm.(!r)
          done;
          (* reverse so that cycle.(t+1) = perm cycle.(t) *)
          cycles := Array.of_list (List.rev !cyc) :: !cycles
        end
      done;
      Cl_monomial (Array.of_list (List.rev !cycles), phr, phi)
    end
  end
  else begin
    let nnz = ref 0 in
    for r = 0 to sub - 1 do
      for c = 0 to sub - 1 do
        if not (zero u.(r).(c)) then incr nnz
      done
    done;
    let rows = Array.make (sub + 1) 0 in
    let cols = Array.make !nnz 0 in
    let wre = Array.make !nnz 0.0 and wim = Array.make !nnz 0.0 in
    let p = ref 0 in
    for r = 0 to sub - 1 do
      rows.(r) <- !p;
      for c = 0 to sub - 1 do
        if not (zero u.(r).(c)) then begin
          cols.(!p) <- c;
          wre.(!p) <- u.(r).(c).Complex.re;
          wim.(!p) <- u.(r).(c).Complex.im;
          incr p
        end
      done
    done;
    rows.(sub) <- !p;
    Cl_sparse (rows, cols, wre, wim)
  end

(* One pass over a flat amplitude slice for group indices [lo, hi).
   [ps] = cluster bit positions sorted ascending, [offs.(x)] = index
   offset of sub-state [x] relative to a group base. The group base for
   [lo] comes from composed bit insertion; successive bases step by
   mask-increment (O(1) per group instead of O(m)). *)
let cluster_sweep_flat ~checked ~kind ~ps ~offs ~sub (are : slice)
    (aim : slice) lo hi =
  let size = Ba.dim are in
  let msk = mask_of ps in
  let nmsk = lnot msk in
  match kind with
  | Cl_diag (dre, die) ->
    let base = ref (enum_base ps lo) in
    for _ = lo to hi - 1 do
      let b = !base in
      (* every in-group index is b lor off with off subset of msk, so
         one per-group assert covers each unsafe access below *)
      if checked then assert (b >= 0 && b lor msk < size);
      for x = 0 to sub - 1 do
        let dr = Array.unsafe_get dre x and di = Array.unsafe_get die x in
        if dr <> 1.0 || di <> 0.0 then begin
          let i = b lor Array.unsafe_get offs x in
          let r = bget are i and q = bget aim i in
          bset are i ((dr *. r) -. (di *. q));
          bset aim i ((dr *. q) +. (di *. r))
        end
      done;
      base := ((b lor msk) + 1) land nmsk
    done
  | Cl_monomial (cycles, phr, phi) ->
    (* The cycle walk touches every sub-state exactly once, on disjoint
       indices, so it flattens into a straight-line move program
       compiled once per sweep: save each cycle's head, shift the
       remaining elements one step along the cycle, close each cycle
       from its saved head. Running all heads, then all shifts, then
       all closes reorders only across disjoint indices — the
       per-amplitude arithmetic (and therefore the result, bit for
       bit) is that of the per-cycle walk, without the per-group
       pointer chase through the cycle arrays. *)
    let ncyc = Array.length cycles in
    let nfix = ref 0 and nmv = ref 0 and nwalk = ref 0 in
    for ci = 0 to ncyc - 1 do
      let len = Array.length cycles.(ci) in
      if len = 1 then begin
        let r0 = cycles.(ci).(0) in
        (* fixed point: a pure phase; identity phases cost nothing *)
        if phr.(r0) <> 1.0 || phi.(r0) <> 0.0 then incr nfix
      end
      else begin
        incr nwalk;
        nmv := !nmv + (len - 1)
      end
    done;
    let fx_off = Array.make (max 1 !nfix) 0 in
    let fx_pr = Array.make (max 1 !nfix) 0.0 in
    let fx_pi = Array.make (max 1 !nfix) 0.0 in
    let hd_off = Array.make (max 1 !nwalk) 0 in
    let cl_off = Array.make (max 1 !nwalk) 0 in
    let cl_pr = Array.make (max 1 !nwalk) 0.0 in
    let cl_pi = Array.make (max 1 !nwalk) 0.0 in
    let mv_dst = Array.make (max 1 !nmv) 0 in
    let mv_src = Array.make (max 1 !nmv) 0 in
    let mv_pr = Array.make (max 1 !nmv) 0.0 in
    let mv_pi = Array.make (max 1 !nmv) 0.0 in
    let tr = Array.make (max 1 !nwalk) 0.0 in
    let ti = Array.make (max 1 !nwalk) 0.0 in
    let fi = ref 0 and wi = ref 0 and mi = ref 0 in
    for ci = 0 to ncyc - 1 do
      let cyc = cycles.(ci) in
      let len = Array.length cyc in
      let r0 = cyc.(0) in
      if len = 1 then begin
        if phr.(r0) <> 1.0 || phi.(r0) <> 0.0 then begin
          fx_off.(!fi) <- offs.(r0);
          fx_pr.(!fi) <- phr.(r0);
          fx_pi.(!fi) <- phi.(r0);
          incr fi
        end
      end
      else begin
        hd_off.(!wi) <- offs.(r0);
        for t = 0 to len - 2 do
          let r = cyc.(t) in
          mv_dst.(!mi) <- offs.(r);
          mv_src.(!mi) <- offs.(cyc.(t + 1));
          mv_pr.(!mi) <- phr.(r);
          mv_pi.(!mi) <- phi.(r);
          incr mi
        done;
        let r = cyc.(len - 1) in
        cl_off.(!wi) <- offs.(r);
        cl_pr.(!wi) <- phr.(r);
        cl_pi.(!wi) <- phi.(r);
        incr wi
      end
    done;
    let nfix = !nfix and nmv = !nmv and nwalk = !nwalk in
    let base = ref (enum_base ps lo) in
    for _ = lo to hi - 1 do
      let b = !base in
      if checked then assert (b >= 0 && b lor msk < size);
      for f = 0 to nfix - 1 do
        let i = b lor Array.unsafe_get fx_off f in
        let pr = Array.unsafe_get fx_pr f and pi = Array.unsafe_get fx_pi f in
        let xr = bget are i and xi = bget aim i in
        bset are i ((pr *. xr) -. (pi *. xi));
        bset aim i ((pr *. xi) +. (pi *. xr))
      done;
      for w = 0 to nwalk - 1 do
        let i = b lor Array.unsafe_get hd_off w in
        Array.unsafe_set tr w (bget are i);
        Array.unsafe_set ti w (bget aim i)
      done;
      (* shifts read each source before any later shift overwrites it:
         the program preserves the walk order within every cycle *)
      for j = 0 to nmv - 1 do
        let isrc = b lor Array.unsafe_get mv_src j in
        let xr = bget are isrc and xi = bget aim isrc in
        let pr = Array.unsafe_get mv_pr j and pi = Array.unsafe_get mv_pi j in
        let idst = b lor Array.unsafe_get mv_dst j in
        bset are idst ((pr *. xr) -. (pi *. xi));
        bset aim idst ((pr *. xi) +. (pi *. xr))
      done;
      for w = 0 to nwalk - 1 do
        let i = b lor Array.unsafe_get cl_off w in
        let pr = Array.unsafe_get cl_pr w and pi = Array.unsafe_get cl_pi w in
        let sr = Array.unsafe_get tr w and si = Array.unsafe_get ti w in
        bset are i ((pr *. sr) -. (pi *. si));
        bset aim i ((pr *. si) +. (pi *. sr))
      done;
      base := ((b lor msk) + 1) land nmsk
    done
  | Cl_sparse (rows, cols, wre, wim) ->
    let vr = Array.make sub 0.0 and vi = Array.make sub 0.0 in
    (* Clusters built from one Hadamard-like gate and any number of
       permutation/phase gates put exactly two entries in every row —
       the overwhelmingly common non-monomial shape on Clifford+T
       circuits — so that case gets a branch-free inner loop. The
       accumulation order matches the generic CSR walk (0.0 + first
       entry + second entry), keeping results bit-identical. *)
    let uniform2 = ref true in
    for r = 0 to sub do
      if Array.unsafe_get rows r <> 2 * r then uniform2 := false
    done;
    if !uniform2 then begin
      (* Blocked, row-outer schedule: a block of groups is gathered
         into L1-resident scratch, then each row's two weights and
         column indices are loaded ONCE and streamed across the whole
         block — instead of six weight/column loads per row per group.
         Writes are disjoint and every amplitude's arithmetic (and
         accumulation order: 0.0 + first entry + second entry) is that
         of the per-group walk, so results stay bit-identical. *)
      let blk = max 1 (2048 / sub) in
      let bases = Array.make blk 0 in
      let svr = Array.make (blk * sub) 0.0 in
      let svi = Array.make (blk * sub) 0.0 in
      (* Rows of a 2-sparse unitary built from 2-qubit gate products
         come in partner pairs reading the same two columns in the
         same order; pairing them shares the scratch loads and the
         output-base load between the two rows. Detection is exact
         (same column sequence), with the row-at-a-time scatter kept
         as the fallback. *)
      let npair = sub / 2 in
      let pa = Array.make (max npair 1) 0 and pb = Array.make (max npair 1) 0 in
      let paired =
        if 2 * npair <> sub then false
        else begin
          let seen = Array.make (sub * sub) (-1) in
          let np = ref 0 and ok = ref true in
          for r = 0 to sub - 1 do
            let c0 = Array.unsafe_get cols (2 * r)
            and c1 = Array.unsafe_get cols ((2 * r) + 1) in
            let key = (c0 * sub) + c1 in
            let prev = Array.unsafe_get seen key in
            if prev < 0 then Array.unsafe_set seen key r
            else if prev < sub then begin
              if !np < npair then begin
                pa.(!np) <- prev;
                pb.(!np) <- r;
                incr np
              end;
              Array.unsafe_set seen key (sub + r)
            end
            else ok := false (* three rows on one support *)
          done;
          !ok && !np = npair
        end
      in
      (* All-zero groups skip the matvec outright: U x 0 = 0, so the
         scatter would only rewrite zeros. Early sweeps of a circuit
         run on a mostly-unpopulated register and skip nearly every
         group; the detector costs one |v| accumulation per gathered
         value. A skipped group keeps the stored zeros' signs where
         the matvec could have flipped a zero's sign — invisible to
         probabilities and measurements, and the sharded sweep applies
         the identical per-group rule, so shard layouts stay
         bit-identical to each other. *)
      let skipg = Bytes.make blk '\000' in
      let base = ref (enum_base ps lo) in
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
        if paired then
          for pr = 0 to npair - 1 do
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
            let oa = Array.unsafe_get offs ra
            and ob = Array.unsafe_get offs rb in
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
        else
          for row = 0 to sub - 1 do
            let p = 2 * row in
            let wr0 = Array.unsafe_get wre p
            and wi0 = Array.unsafe_get wim p in
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
          done;
        g := !g + gb
      done
    end
    else begin
      let base = ref (enum_base ps lo) in
      for _ = lo to hi - 1 do
        let b = !base in
        if checked then assert (b >= 0 && b lor msk < size);
        let acc = ref 0.0 in
        for x = 0 to sub - 1 do
          let i = b lor Array.unsafe_get offs x in
          let r = bget are i and q = bget aim i in
          Array.unsafe_set vr x r;
          Array.unsafe_set vi x q;
          acc := !acc +. Float.abs r +. Float.abs q
        done;
        (* all-zero groups skip the matvec; same rule as the uniform2
           path and the sharded sweep *)
        if !acc <> 0.0 then
          for row = 0 to sub - 1 do
            let sr = ref 0.0 and si = ref 0.0 in
            for p = Array.unsafe_get rows row
                to Array.unsafe_get rows (row + 1) - 1
            do
              let wr = Array.unsafe_get wre p
              and wi = Array.unsafe_get wim p in
              let col = Array.unsafe_get cols p in
              let xr = Array.unsafe_get vr col
              and xi = Array.unsafe_get vi col in
              sr := !sr +. ((wr *. xr) -. (wi *. xi));
              si := !si +. ((wr *. xi) +. (wi *. xr))
            done;
            let i = b lor Array.unsafe_get offs row in
            bset are i !sr;
            bset aim i !si
          done;
        base := ((b lor msk) + 1) land nmsk
      done
    end

(* Stride-aware sharded cluster exchange: clusters with a bit at or
   above the shard boundary split their positions there — the high
   positions enumerate shard groups (one {!Dpool} task each), the
   sub-state slices of a group are pinned once, and the low positions
   enumerate in-shard offsets by mask-increment. Each amplitude is
   read/written exactly once per sweep, so the result is bit-identical
   to the flat enumeration. *)
let cluster_sweep_sharded st ~checked ~kind ~ps ~offs ~sub =
  let lb = st.lb in
  let lm = (1 lsl lb) - 1 in
  let lows, highs = split_low_high lb ps in
  let lmsk = mask_of lows in
  let nmsk = lnot lmsk in
  let inner = (1 lsl lb) lsr Array.length lows in
  let sdelta = Array.map (fun o -> o lsr lb) offs in
  let odelta = Array.map (fun o -> o land lm) offs in
  let res = st.re and ims = st.im in
  let ssize = 1 lsl lb in
  let sgroups = Array.length res lsr Array.length highs in
  Dpool.run_tasks ~count:sgroups (fun g ->
      let sbase = enum_base highs g in
      let sre = Array.map (fun d -> res.(sbase lor d)) sdelta in
      let sim = Array.map (fun d -> ims.(sbase lor d)) sdelta in
      match kind with
      | Cl_diag (dre, die) ->
        let o = ref 0 in
        for _ = 1 to inner do
          for x = 0 to sub - 1 do
            let dr = Array.unsafe_get dre x and di = Array.unsafe_get die x in
            if dr <> 1.0 || di <> 0.0 then begin
              let i = !o lor Array.unsafe_get odelta x in
              if checked then assert (i < ssize);
              let re = Array.unsafe_get sre x and im = Array.unsafe_get sim x in
              let r = bget re i and q = bget im i in
              bset re i ((dr *. r) -. (di *. q));
              bset im i ((dr *. q) +. (di *. r))
            end
          done;
          o := ((!o lor lmsk) + 1) land nmsk
        done
      | Cl_monomial (cycles, phr, phi) ->
        let vr = Array.make sub 0.0 and vi = Array.make sub 0.0 in
        let ncyc = Array.length cycles in
        let o = ref 0 in
        for _ = 1 to inner do
          for x = 0 to sub - 1 do
            let i = !o lor Array.unsafe_get odelta x in
            if checked then assert (i < ssize);
            Array.unsafe_set vr x (bget (Array.unsafe_get sre x) i);
            Array.unsafe_set vi x (bget (Array.unsafe_get sim x) i)
          done;
          for ci = 0 to ncyc - 1 do
            let cyc = Array.unsafe_get cycles ci in
            let len = Array.length cyc in
            for t = 0 to len - 1 do
              let r = Array.unsafe_get cyc t in
              let c = Array.unsafe_get cyc ((t + 1) mod len) in
              let xr = Array.unsafe_get vr c and xi = Array.unsafe_get vi c in
              let pr = Array.unsafe_get phr r and pi = Array.unsafe_get phi r in
              let i = !o lor Array.unsafe_get odelta r in
              bset (Array.unsafe_get sre r) i ((pr *. xr) -. (pi *. xi));
              bset (Array.unsafe_get sim r) i ((pr *. xi) +. (pi *. xr))
            done
          done;
          o := ((!o lor lmsk) + 1) land nmsk
        done
      | Cl_sparse (rows, cols, wre, wim) ->
        let vr = Array.make sub 0.0 and vi = Array.make sub 0.0 in
        let o = ref 0 in
        for _ = 1 to inner do
          let acc = ref 0.0 in
          for x = 0 to sub - 1 do
            let i = !o lor Array.unsafe_get odelta x in
            if checked then assert (i < ssize);
            let r = bget (Array.unsafe_get sre x) i
            and q = bget (Array.unsafe_get sim x) i in
            Array.unsafe_set vr x r;
            Array.unsafe_set vi x q;
            acc := !acc +. Float.abs r +. Float.abs q
          done;
          (* all-zero groups skip the matvec — the same per-group rule
             as the flat sweep, so every shard layout makes the same
             decision and the layouts stay bit-identical *)
          if !acc <> 0.0 then
            for row = 0 to sub - 1 do
              let sr = ref 0.0 and si = ref 0.0 in
              for p = Array.unsafe_get rows row
                  to Array.unsafe_get rows (row + 1) - 1 do
                let wr = Array.unsafe_get wre p
                and wi = Array.unsafe_get wim p in
                let col = Array.unsafe_get cols p in
                let xr = Array.unsafe_get vr col
                and xi = Array.unsafe_get vi col in
                sr := !sr +. ((wr *. xr) -. (wi *. xi));
                si := !si +. ((wr *. xi) +. (wi *. xr))
              done;
              let i = !o lor Array.unsafe_get odelta row in
              bset (Array.unsafe_get sre row) i !sr;
              bset (Array.unsafe_get sim row) i !si
            done;
          o := ((!o lor lmsk) + 1) land nmsk
        done)

let apply_cluster st (u : Complex.t array array) (qs : int array) =
  let op = "Statevector.apply_cluster" in
  let m = Array.length qs in
  if m = 0 then Sim_error.error ~op "empty qubit set";
  if m > 8 then Sim_error.error ~op "cluster too large: %d qubits" m;
  Array.iter (check_qubit st) qs;
  let sub = 1 lsl m in
  if Array.length u <> sub then
    Sim_error.error ~op "%d-qubit cluster needs a %dx%d matrix, got %dx%d" m
      sub sub (Array.length u) (Array.length u);
  let ps = Array.copy qs in
  Array.sort compare ps;
  for j = 0 to m - 2 do
    if ps.(j) = ps.(j + 1) then Sim_error.error ~op "duplicate qubit %d" ps.(j)
  done;
  let offs = Array.make sub 0 in
  for x = 0 to sub - 1 do
    let o = ref 0 in
    for j = 0 to m - 1 do
      if x land (1 lsl j) <> 0 then o := !o lor (1 lsl qs.(j))
    done;
    offs.(x) <- !o
  done;
  let kind = classify_cluster u sub in
  let checked = !checked_access_ref in
  if not (sharded st) then begin
    let groups = dim st lsr m in
    let are = st.re.(0) and aim = st.im.(0) in
    Dpool.run ~size:groups
      (cluster_sweep_flat ~checked ~kind ~ps ~offs ~sub are aim)
  end
  else if ps.(m - 1) < st.lb then begin
    (* all cluster bits below the shard boundary: every shard is an
       independent lb-qubit sub-register — run the flat sweep per
       shard, one task per shard across the pool *)
    let lgroups = 1 lsl (st.lb - m) in
    Dpool.run_tasks ~count:(shard_count st) (fun s ->
        cluster_sweep_flat ~checked ~kind ~ps ~offs ~sub st.re.(s)
          st.im.(s) 0 lgroups)
  end
  else cluster_sweep_sharded st ~checked ~kind ~ps ~offs ~sub

let is_diag4 (u : Complex.t array array) =
  let ok = ref true in
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i <> j && not (u.(i).(j).Complex.re = 0.0 && u.(i).(j).Complex.im = 0.0)
      then ok := false
    done
  done;
  !ok

let is_monomial4 (u : Complex.t array array) =
  let zero (z : Complex.t) = z.Complex.re = 0.0 && z.Complex.im = 0.0 in
  let ok = ref true in
  for i = 0 to 3 do
    let row = ref 0 and col = ref 0 in
    for j = 0 to 3 do
      if not (zero u.(i).(j)) then incr row;
      if not (zero u.(j).(i)) then incr col
    done;
    if !row <> 1 || !col <> 1 then ok := false
  done;
  !ok

let apply_mat2 st (u : Complex.t array array) qa qb =
  if is_diag4 u then
    apply_diag2 st [| u.(0).(0); u.(1).(1); u.(2).(2); u.(3).(3) |] qa qb
  else if is_monomial4 u then
    (* permutation-with-phases (fused CX/SWAP chains): 4 multiplies per
       group via the monomial cluster path instead of the 16-complex-
       multiply general kernel. apply_2q's first operand is the most
       significant matrix bit; the cluster convention is LSB first. *)
    apply_cluster st u [| qb; qa |]
  else apply_general2q st u qa qb

(* Compatibility aliases for the historical general-kernel API. *)
let apply_1q = apply_mat1
let apply_2q = apply_mat2

(* ------------------------------------------------------------------ *)
(* Three-qubit permutation kernels                                      *)

(* Toffoli: swap the target pair where both controls are set; visits
   size/8 loop iterations. *)
let apply_ccx st c1 c2 tgt =
  check_qubit st c1;
  check_qubit st c2;
  check_qubit st tgt;
  if c1 = c2 || c1 = tgt || c2 = tgt then
    Sim_error.error ~op:"Statevector.apply_ccx" "identical qubits";
  let b1 = 1 lsl c1 and b2 = 1 lsl c2 and bt = 1 lsl tgt in
  let p0, p1, p2 = sort3 c1 c2 tgt in
  if sharded st then
    sh_perm st ~ps:[| p0; p1; p2 |] ~oa:(b1 lor b2) ~ob:(b1 lor b2 lor bt)
  else begin
    let eighth = dim st / 8 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:eighth (fun lo hi ->
        for k = lo to hi - 1 do
          let i = insert_zero (insert_zero (insert_zero k p0) p1) p2 in
          let i0 = i lor b1 lor b2 in
          let i1 = i0 lor bt in
          if checked then assert (i1 < Ba.dim re);
          let tr = bget re i0 and ti = bget im i0 in
          bset re i0 (bget re i1);
          bset im i0 (bget im i1);
          bset re i1 tr;
          bset im i1 ti
        done)
  end

(* Fredkin: swap amplitudes of |..a=1,b=0..> and |..a=0,b=1..> when the
   control is set. *)
let apply_cswap st c a b =
  check_qubit st c;
  check_qubit st a;
  check_qubit st b;
  if c = a || c = b || a = b then
    Sim_error.error ~op:"Statevector.apply_cswap" "identical qubits";
  let bc = 1 lsl c and ba = 1 lsl a and bb = 1 lsl b in
  let p0, p1, p2 = sort3 c a b in
  if sharded st then
    sh_perm st ~ps:[| p0; p1; p2 |] ~oa:(bc lor ba) ~ob:(bc lor bb)
  else begin
    let eighth = dim st / 8 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:eighth (fun lo hi ->
        for k = lo to hi - 1 do
          let i = insert_zero (insert_zero (insert_zero k p0) p1) p2 in
          let i0 = i lor bc lor ba in
          let i1 = i lor bc lor bb in
          if checked then assert (i0 < Ba.dim re && i1 < Ba.dim re);
          let tr = bget re i0 and ti = bget im i0 in
          bset re i0 (bget re i1);
          bset im i0 (bget im i1);
          bset re i1 tr;
          bset im i1 ti
        done)
  end

(* ------------------------------------------------------------------ *)
(* Gate dispatch                                                        *)

let expi_pair t = (cos t, sin t)

let apply st (g : Gate.t) qubits =
  match g, qubits with
  | Gate.I, [ q ] -> check_qubit st q
  | Gate.X, [ q ] -> apply_x st q
  | Gate.Y, [ q ] -> apply_y st q
  | Gate.Z, [ q ] -> apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re:(-1.0) ~d1im:0.0 q
  | Gate.S, [ q ] -> apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re:0.0 ~d1im:1.0 q
  | Gate.Sdg, [ q ] ->
    apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re:0.0 ~d1im:(-1.0) q
  | Gate.T, [ q ] ->
    let d1re, d1im = expi_pair (Float.pi /. 4.0) in
    apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re ~d1im q
  | Gate.Tdg, [ q ] ->
    let d1re, d1im = expi_pair (-.Float.pi /. 4.0) in
    apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re ~d1im q
  | Gate.P t, [ q ] ->
    let d1re, d1im = expi_pair t in
    apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re ~d1im q
  | Gate.Rz t, [ q ] ->
    let d0re, d0im = expi_pair (-.t /. 2.0) in
    let d1re, d1im = expi_pair (t /. 2.0) in
    apply_diag1 st ~d0re ~d0im ~d1re ~d1im q
  | Gate.H, [ q ] ->
    let s = 1.0 /. sqrt 2.0 in
    apply_real1q st ~u00:s ~u01:s ~u10:s ~u11:(-.s) q
  | Gate.Ry t, [ q ] ->
    let ct = cos (t /. 2.0) and stn = sin (t /. 2.0) in
    apply_real1q st ~u00:ct ~u01:(-.stn) ~u10:stn ~u11:ct q
  | (Gate.Sx | Gate.Sxdg | Gate.Rx _ | Gate.U _), [ q ] ->
    apply_mat1 st (Gate.matrix_1q g) q
  | Gate.Cx, [ c; t ] -> apply_cx st c t
  | Gate.Cy, [ c; t ] -> apply_cy st c t
  | Gate.Swap, [ a; b ] -> apply_swap st a b
  | (Gate.Cz | Gate.Cp _ | Gate.Crz _), [ a; b ] ->
    apply_mat2 st (Gate.matrix_2q g) a b
  | (Gate.Ch | Gate.Crx _ | Gate.Cry _ | Gate.Cu _), [ a; b ] ->
    apply_general2q st (Gate.matrix_2q g) a b
  | Gate.Ccx, [ a; b; c ] -> apply_ccx st a b c
  | Gate.Cswap, [ a; b; c ] -> apply_cswap st a b c
  | g, qs ->
    Sim_error.error ~op:"Statevector.apply" "%s expects %d qubits, got %d"
      (Gate.name g) (Gate.num_qubits g) (List.length qs)

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
   the specialized/fused/clustered/sharded fast paths and the baseline
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
    | 1, [ q ] -> apply_1q st (Gate.matrix_1q g) q
    | 2, [ a; b ] -> apply_2q st (Gate.matrix_2q g) a b
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
