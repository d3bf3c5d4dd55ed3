(* The circuit optimizer: identity gates are dropped, and two inverse
   (or mergeable) gates on the same qubits are combined when they are
   adjacent or separated only by operations they commute with, e.g.

     x q1; cx q0, q1; x q1      ->  cx q0, q1
     rz q0; cx q0, q1; rz q0    ->  cx q0, q1; rz(sum) q0

   The commutation table is conservative: diagonal gates commute
   through control roles and with each other; X-axis gates commute
   through CX targets. Conditioned operations, measurements, resets and
   barriers never commute with anything. This is the circuit-level
   counterpart of the classical optimizations QIR inherits from LLVM
   (benchmark E8 contrasts the two). [scan] is the one commute-or-stop
   loop: [optimize] runs it over qubits, the QIR dataflow optimizer
   ([Qdf_opt]) over each block's numbered wires. *)

(* Diagonal in the computational basis. *)
let is_diagonal (g : Gate.t) =
  match g with
  | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg | Gate.Rz _ | Gate.P _
  | Gate.Cz | Gate.Cp _ | Gate.Crz _ | Gate.I ->
    true
  | _ -> false

(* X-axis single-qubit gates. *)
let is_x_axis (g : Gate.t) =
  match g with
  | Gate.X | Gate.Rx _ | Gate.Sx | Gate.Sxdg | Gate.I -> true
  | _ -> false

(* Does the single-qubit gate [g] on [q] commute with [g2] on [qs2]
   (which touches [q])? *)
let commutes_1q (g : Gate.t) q (g2 : Gate.t) qs2 =
  if is_diagonal g && is_diagonal g2 then true
  else
    match g2, qs2 with
    | Gate.Cx, [ ctrl; tgt ] ->
      (is_diagonal g && q = ctrl) || (is_x_axis g && q = tgt)
    | Gate.Ccx, [ c1; c2; tgt ] ->
      (is_diagonal g && (q = c1 || q = c2)) || (is_x_axis g && q = tgt)
    | (Gate.Crx _ | Gate.Cry _ | Gate.Cu _), [ ctrl; _ ] ->
      is_diagonal g && q = ctrl
    | _ -> false

(* Does CX (or CZ/CP) on [qs] commute with [g2] on [qs2]? Conservative. *)
let commutes_2q (g : Gate.t) qs (g2 : Gate.t) qs2 =
  match g, qs with
  | Gate.Cx, [ ctrl; tgt ] -> (
    match g2, qs2 with
    | Gate.Cx, [ ctrl2; tgt2 ] ->
      (* share only controls or only targets *)
      (ctrl = ctrl2 && tgt <> tgt2 && ctrl <> tgt2 && tgt <> ctrl2)
      || (tgt = tgt2 && ctrl <> ctrl2 && ctrl <> tgt2 && tgt <> ctrl2)
    | _, _ ->
      let shared = List.filter (fun q -> List.mem q qs2) qs in
      List.for_all
        (fun q ->
          match Gate.num_qubits g2, qs2 with
          | 1, [ _ ] ->
            (is_diagonal g2 && q = ctrl) || (is_x_axis g2 && q = tgt)
          | _ -> false)
        shared
      && shared <> [])
  | (Gate.Cz | Gate.Cp _), [ _; _ ] -> (
    match g2, qs2 with
    | _, [ _ ] ->
      (* CZ/CP are diagonal: commute with diagonal 1q gates anywhere *)
      is_diagonal g2
    | (Gate.Cz | Gate.Cp _ | Gate.Crz _), _ -> true
    | _ -> false)
  | _ -> false

(* The one commutation table, over bare (gate, qubits) pairs; the QIR
   dataflow optimizer ({!Qir_analysis.Qdf}) asks it with wire numbers
   for qubits. *)
let gate_commutes (g : Gate.t) qs (g2 : Gate.t) qs2 =
  match qs with
  | [ q ] -> commutes_1q g q g2 qs2
  | [ _; _ ] -> commutes_2q g qs g2 qs2
  | _ -> false

let commutes (g : Gate.t) qs (op : Circuit.op) =
  match op.Circuit.cond, op.Circuit.kind with
  | None, Circuit.Gate (g2, qs2) -> gate_commutes g qs g2 qs2
  | Some _, _
  | None, (Circuit.Measure _ | Circuit.Reset _ | Circuit.Barrier _) ->
    false

type combined = Cancel | Identity | Merged of Gate.t

(* The one combine rule, shared with the QIR dataflow optimizer. *)
let combine (g : Gate.t) (g2 : Gate.t) =
  if Gate.equal g2 (Gate.inverse g) then Some Cancel
  else
    match Gate.merge g g2 with
    | Some m when Gate.is_identity m -> Some Identity
    | Some m -> Some (Merged m)
    | None -> None

type stats = { cancelled : int; merged : int; removed_identities : int }

let no_stats = { cancelled = 0; merged = 0; removed_identities = 0 }

(* The one commute-or-stop scan (see the interface). [by_wire.(w)] is
   the ascending list of ops that may touch wire [w]: the forward
   def-use edges. *)
let scan ?(note = fun _ _ _ _ -> ()) ~wires ~own ~start ~commutes ~write alive
    (on : int list array) =
  let by_wire = Array.make (max wires 1) [] in
  for j = Array.length on - 1 downto 0 do
    List.iter (fun w -> by_wire.(w) <- j :: by_wire.(w)) on.(j)
  done;
  let by_wire = Array.map Array.of_list by_wire in
  (* per wire, the first slot past the current start op *)
  let cursor = Array.make (max wires 1) 0 in
  let cancelled = ref 0 and merged = ref 0 and identities = ref 0 in
  let scan_from i g =
    let qs = own.(i) in
    let ws = Array.of_list qs in
    let pos =
      Array.map
        (fun q ->
          let a = by_wire.(q) in
          while cursor.(q) < Array.length a && a.(cursor.(q)) <= i do
            cursor.(q) <- cursor.(q) + 1
          done;
          cursor.(q))
        ws
    in
    let walking = ref true in
    while !walking do
      (* the next op after [i] on a wire of [qs]: a merge of the
         per-wire arrays, advanced only as far as the walk reads *)
      let j = ref max_int in
      for k = 0 to Array.length ws - 1 do
        let a = by_wire.(ws.(k)) in
        if pos.(k) < Array.length a && a.(pos.(k)) < !j then j := a.(pos.(k))
      done;
      let j = !j in
      for k = 0 to Array.length ws - 1 do
        let a = by_wire.(ws.(k)) in
        if pos.(k) < Array.length a && a.(pos.(k)) = j then pos.(k) <- pos.(k) + 1
      done;
      if j = max_int then walking := false
      else if alive.(j) then
        match start j with
        | Some g2 when own.(j) = qs -> (
          match combine g g2 with
          | Some ((Cancel | Identity) as c) ->
            alive.(i) <- false;
            alive.(j) <- false;
            if c = Cancel then incr cancelled else (incr merged; incr identities);
            note i g g2 c;
            walking := false
          | Some (Merged m as c) when write j m ->
            alive.(i) <- false;
            incr merged;
            note i g g2 c;
            walking := false
          | Some (Merged _) | None -> walking := commutes g qs j)
        | _ -> walking := commutes g qs j
    done
  in
  for i = 0 to Array.length on - 1 do
    if alive.(i) then
      match start i with Some g -> scan_from i g | None -> ()
  done;
  { cancelled = !cancelled; merged = !merged; removed_identities = !identities }

let optimize (c : Circuit.t) : Circuit.t * stats =
  let current = Array.of_list c.Circuit.ops in
  (* lone identities go first, so they block no pair *)
  let alive =
    Array.map
      (fun (op : Circuit.op) ->
        match op.Circuit.kind, op.Circuit.cond with
        | Circuit.Gate (g, _), None -> not (Gate.is_identity g)
        | _ -> true)
      current
  in
  let lone = Array.fold_left (fun k a -> if a then k else k + 1) 0 alive in
  let start j =
    match current.(j) with
    | { Circuit.kind = Circuit.Gate (g, _); cond = None } -> Some g
    | _ -> None
  in
  let qubits = Array.map Circuit.op_qubits current in
  let write j m =
    current.(j) <- Circuit.gate m qubits.(j);
    true
  in
  let s =
    scan ~wires:c.Circuit.num_qubits ~own:qubits ~start
      ~commutes:(fun g qs j -> commutes g qs current.(j))
      ~write alive qubits
  in
  let remaining = ref [] in
  for i = Array.length current - 1 downto 0 do
    if alive.(i) then remaining := current.(i) :: !remaining
  done;
  ( { c with Circuit.ops = !remaining },
    { s with removed_identities = lone + s.removed_identities } )

let optimize_fixpoint ?(max_rounds = 16) c =
  let rec go c acc round =
    if round >= max_rounds then (c, acc)
    else begin
      let c', s = optimize c in
      if s = no_stats then (c, acc)
      else
        go c'
          { cancelled = acc.cancelled + s.cancelled;
            merged = acc.merged + s.merged;
            removed_identities = acc.removed_identities + s.removed_identities }
          (round + 1)
    end
  in
  go c no_stats 0
