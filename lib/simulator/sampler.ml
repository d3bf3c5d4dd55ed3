(* Shot-branching sampling: simulate each distinct measurement history
   once instead of re-simulating the whole circuit per shot.

   A measurement is *terminal* when it is unconditioned and no later
   operation touches its qubit or its clbit (writes it, or reads it in a
   condition). Terminal measurements commute to the end of the circuit,
   so they are drawn from the final distribution. Every other
   measurement, and every reset, is a *branch point*: the walker
   computes the probability of outcome 1, splits the branch's shot
   count between the two outcomes with the seeded RNG, and continues
   each non-empty branch depth-first with its clbits fixed, so
   classically conditioned operations resolve per branch. At each leaf
   it draws that leaf's shots from the distribution of the
   terminal-measured qubits.

   Cost: at most min(2^k, shots) fused simulations for k branch points.
   A state is copied only when both children have shots; the smaller
   child runs first on the copy and the larger one reuses the parent's
   buffer, so at most min(k, floor(log2 shots)) + 1 states are live.

   With no branch point (k = 0) the whole run is one fused simulation
   and one draw loop over the RNG stream [Rng.create seed], exactly the
   historical batched sampler.

   Histogram keys are bitstrings over the measured clbits in ascending
   clbit order (or over an explicit list of clbits) — the key format of
   the per-shot executor when clbits follow the recorded-output order. *)

open Qcircuit

type plan = {
  steps : Fusion.step list;  (* the circuit without its terminal measurements *)
  num_qubits : int;
  num_clbits : int;
  terminal_qubits : int array;  (* terminal measurements by ascending clbit *)
  key : (int, int) Either.t array;
      (* key bit j: [Left r] is outcome bit r of the leaf draw, [Right cl]
         the branch's clbit [cl] *)
  branch_points : int;
}

type stats = { branches : int; peak_states : int }

(* Marks each op of [ops] terminal or not, walking backwards with the
   sets of qubits and clbits a later op touches. Barriers touch nothing. *)
let terminal_flags (c : Circuit.t) =
  let ops = Array.of_list c.Circuit.ops in
  let later_q = Hashtbl.create 16 and later_cl = Hashtbl.create 16 in
  let flags = Array.make (Array.length ops) false in
  for i = Array.length ops - 1 downto 0 do
    let op = ops.(i) in
    (match op.Circuit.kind, op.Circuit.cond with
    | Circuit.Measure (q, cl), None ->
      flags.(i) <- not (Hashtbl.mem later_q q || Hashtbl.mem later_cl cl)
    | _ -> ());
    match op.Circuit.kind with
    | Circuit.Barrier _ -> ()
    | _ ->
      List.iter (fun q -> Hashtbl.replace later_q q ()) (Circuit.op_qubits op);
      List.iter (fun cl -> Hashtbl.replace later_cl cl ()) (Circuit.op_clbits op);
      Option.iter
        (fun (cd : Circuit.cond) ->
          List.iter (fun cl -> Hashtbl.replace later_cl cl ()) cd.Circuit.cbits)
        op.Circuit.cond
  done;
  (ops, flags)

let plan_with ?key ~fuse (c : Circuit.t) =
  let ops, flags = terminal_flags c in
  let kept = ref [] and terminal = ref [] and measured = Hashtbl.create 16 in
  let branch_points = ref 0 in
  Array.iteri
    (fun i (op : Circuit.op) ->
      (match op.Circuit.kind with
      | Circuit.Measure (_, cl) -> Hashtbl.replace measured cl ()
      | _ -> ());
      match op.Circuit.kind with
      | Circuit.Measure (q, cl) when flags.(i) -> terminal := (q, cl) :: !terminal
      | Circuit.Measure _ | Circuit.Reset _ ->
        incr branch_points;
        kept := op :: !kept
      | _ -> kept := op :: !kept)
    ops;
  let prefix = { c with Circuit.ops = List.rev !kept } in
  let steps =
    if fuse then fst (Fusion.plan prefix)
    else List.map (fun op -> Fusion.Op op) prefix.Circuit.ops
  in
  let terminal = Array.of_list (List.sort (fun (_, a) (_, b) -> compare a b) !terminal) in
  let rank = Hashtbl.create 16 in
  Array.iteri (fun r (_, cl) -> Hashtbl.replace rank cl r) terminal;
  let key_clbits =
    match key with
    | Some key -> key
    | None -> List.sort compare (Hashtbl.fold (fun cl () acc -> cl :: acc) measured [])
  in
  {
    steps;
    num_qubits = c.Circuit.num_qubits;
    num_clbits = c.Circuit.num_clbits;
    terminal_qubits = Array.map fst terminal;
    key =
      Array.of_list
        (List.map
           (fun cl ->
             match Hashtbl.find_opt rank cl with
             | Some r -> Either.Left r
             | None -> Either.Right cl)
           key_clbits);
    branch_points = !branch_points;
  }

let prepare ?key c = plan_with ?key ~fuse:true c
let branch_points p = p.branch_points

let strip_measurements (c : Circuit.t) =
  {
    c with
    Circuit.ops =
      List.filter
        (fun (op : Circuit.op) ->
          match op.Circuit.kind with
          | Circuit.Measure _ -> false
          | _ -> true)
        c.Circuit.ops;
  }

(* Binomial(shots, p) as a count of Bernoulli draws. *)
let binomial rng shots p =
  let n = ref 0 in
  for _ = 1 to shots do
    if Rng.float rng < p then incr n
  done;
  !n

exception Stopped

let[@inline] ( .!() ) (a : float array) i = Array.unsafe_get a i
let[@inline] ( .!()<- ) (a : float array) i (v : float) = Array.unsafe_set a i v

(* Ascending in-place sort of uniforms in [0, 1): a counting pass over
   [n] buckets of equal width, a scatter, then one insertion pass that
   orders each bucket (about one element). Linear in expectation and
   specialised to floats: no comparison closure, few mispredicted
   branches — a comparison sort of fresh uniforms pays one per
   comparison. Bucketing is monotone in [u], so the buckets ascend. *)
let sort_uniforms (a : float array) =
  let n = Array.length a in
  let scale = float_of_int n in
  let start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let b = min (n - 1) (int_of_float (a.!(i) *. scale)) in
    start.(b + 1) <- start.(b + 1) + 1
  done;
  for b = 1 to n do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let src = Array.copy a in
  for i = 0 to n - 1 do
    let u = src.!(i) in
    let b = min (n - 1) (int_of_float (u *. scale)) in
    a.!(start.(b)) <- u;
    start.(b) <- start.(b) + 1
  done;
  for i = 1 to n - 1 do
    let v = a.!(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.!(!j) > v do
      a.!(!j + 1) <- a.!(!j);
      decr j
    done;
    a.!(!j + 1) <- v
  done

(* Draws a leaf's [shots] outcomes into [counts], one uniform per shot
   from the branch's RNG stream (none when the terminal qubits have a
   single outcome); each uniform selects the first outcome whose
   cumulative probability, with the last forced to 1 (so a draw of
   ~1.0 cannot fall off the end), is >= it. When the terminal qubits
   are the whole register in order, the uniforms are sorted and counted
   in one walk over the amplitudes ({!Statevector.count_sorted}), with
   no [2^n] array; any other map binary-searches the marginal's
   cumulative sums per shot. Both give every outcome the same count. *)
let draw_leaf p rng st clbits shots counts =
  let add o n =
    if n > 0 then begin
      let key =
        String.init (Array.length p.key) (fun j ->
            let bit =
              match p.key.(j) with
              | Either.Left r -> o land (1 lsl r) <> 0
              | Either.Right cl -> clbits.(cl)
            in
            if bit then '1' else '0')
      in
      Hashtbl.replace counts key (n + Option.value ~default:0 (Hashtbl.find_opt counts key))
    end
  in
  let qs = p.terminal_qubits in
  let m = Array.length qs in
  let whole =
    let ok = ref (m = Statevector.num_qubits st) in
    Array.iteri (fun j q -> if q <> j then ok := false) qs;
    !ok
  in
  if m = 0 then add 0 shots
  else if whole then begin
    let us = Array.create_float shots in
    for s = 0 to shots - 1 do
      us.!(s) <- Rng.float rng
    done;
    sort_uniforms us;
    Statevector.count_sorted st us add
  end
  else begin
    (* the marginal, summed in place into cumulative sums *)
    let cumulative = Statevector.marginal st qs in
    let outcomes = Array.length cumulative in
    for o = 1 to outcomes - 1 do
      cumulative.!(o) <- cumulative.!(o - 1) +. cumulative.!(o)
    done;
    cumulative.!(outcomes - 1) <- 1.0;
    let hits = Array.make outcomes 0 in
    for _ = 1 to shots do
      let u = Rng.float rng in
      (* first outcome with cumulative >= u *)
      let lo = ref 0 and hi = ref (outcomes - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cumulative.!(mid) < u then lo := mid + 1 else hi := mid
      done;
      hits.(!lo) <- hits.(!lo) + 1
    done;
    Array.iteri add hits
  end

let run ?(seed = 1) ?(stop = fun () -> false) ~shots p =
  if shots < 0 then
    Sim_error.error ~op:"Sampler.run" "negative shot count %d" shots;
  let rng = Rng.create seed in
  let counts = Hashtbl.create 64 in
  let branches = ref 0 and live = ref 1 and peak = ref 1 in
  (* Settles a branch point on [outcome]: projection, the reset's
     correction, the measured clbit. *)
  let settle st clbits (op : Circuit.op) outcome prob =
    match op.Circuit.kind with
    | Circuit.Measure (q, cl) ->
      Statevector.collapse st q outcome prob;
      clbits.(cl) <- outcome
    | Circuit.Reset q ->
      Statevector.collapse st q outcome prob;
      if outcome then Statevector.apply st Gate.X [ q ]
    | _ -> assert false
  in
  let rec walk st clbits steps shots =
    match steps with
    | [] ->
      incr branches;
      if shots > 0 then draw_leaf p rng st clbits shots counts
    | Fusion.Op ({ Circuit.kind = Circuit.Measure (q, _) | Circuit.Reset q; _ } as op)
      :: rest
      when Statevector.cond_holds clbits op.Circuit.cond ->
      if stop () then raise Stopped;
      let p1 = Statevector.prob_one st q in
      let n1 = binomial rng shots p1 in
      let n0 = shots - n1 in
      let prob o = if o then p1 else 1.0 -. p1 in
      let large = n1 > n0 in
      if min n0 n1 > 0 then begin
        (* both outcomes have shots: the smaller runs first, on a copy *)
        let child = Statevector.copy st and child_clbits = Array.copy clbits in
        incr live;
        peak := max !peak !live;
        settle child child_clbits op (not large) (prob (not large));
        walk child child_clbits rest (min n0 n1);
        decr live
      end;
      settle st clbits op large (prob large);
      walk st clbits rest (max n0 n1)
    | step :: rest ->
      Fusion.apply_plan st clbits [ step ];
      walk st clbits rest shots
  in
  let st = Statevector.create ~seed p.num_qubits in
  walk st (Array.make (max p.num_clbits 1) false) p.steps shots;
  let histogram =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (histogram, { branches = !branches; peak_states = !peak })

let sample ?seed ?(fuse = true) ~shots (c : Circuit.t) =
  fst (run ?seed ~shots (plan_with ~fuse c))
