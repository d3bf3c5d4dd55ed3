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
   (benchmark E8 contrasts the two). *)

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
   dataflow optimizer ({!Qir_analysis.Qdf}) shares it. *)
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

let optimize (c : Circuit.t) : Circuit.t * stats =
  let ops = Array.of_list c.Circuit.ops in
  let n = Array.length ops in
  let alive = Array.make n true in
  let current = Array.copy ops in
  let cancelled = ref 0 and merged = ref 0 and removed = ref 0 in
  (* lone identities go first, so they block no pair *)
  Array.iteri
    (fun i (op : Circuit.op) ->
      match op.Circuit.kind, op.Circuit.cond with
      | Circuit.Gate (g, _), None when Gate.is_identity g ->
        alive.(i) <- false;
        incr removed
      | _ -> ())
    ops;
  (* per-qubit op indices, ascending *)
  let by_qubit = Array.make (max c.Circuit.num_qubits 1) [] in
  Array.iteri
    (fun i op ->
      List.iter (fun q -> by_qubit.(q) <- i :: by_qubit.(q)) (Circuit.op_qubits op))
    ops;
  let by_qubit = Array.map (fun l -> Array.of_list (List.rev l)) by_qubit in
  (* first slot of the ascending array [a] holding an index > i *)
  let after (a : int array) i =
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) <= i then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let try_combine i =
    match current.(i) with
    | { Circuit.kind = Circuit.Gate (g, qs); cond = None } ->
      let lists = Array.of_list (List.map (fun q -> by_qubit.(q)) qs) in
      let pos = Array.map (fun a -> after a i) lists in
      (* the next live op after [i] touching a qubit of [qs]: a merge of
         the per-qubit arrays, advanced only as far as the scan reads *)
      let rec next () =
        let j = ref max_int in
        Array.iteri
          (fun k (a : int array) ->
            if pos.(k) < Array.length a && a.(pos.(k)) < !j then j := a.(pos.(k)))
          lists;
        if !j = max_int then None
        else begin
          Array.iteri
            (fun k (a : int array) ->
              if pos.(k) < Array.length a && a.(pos.(k)) = !j then
                pos.(k) <- pos.(k) + 1)
            lists;
          if alive.(!j) then Some !j else next ()
        end
      in
      let rec scan () =
        match next () with
        | None -> ()
        | Some j -> (
          match current.(j) with
          | { Circuit.kind = Circuit.Gate (g2, qs2); cond = None }
            when qs2 = qs -> (
            match combine g g2 with
            | Some Cancel ->
              alive.(i) <- false;
              alive.(j) <- false;
              incr cancelled
            | Some Identity ->
              alive.(i) <- false;
              alive.(j) <- false;
              incr merged;
              incr removed
            | Some (Merged m) ->
              alive.(i) <- false;
              incr merged;
              current.(j) <- { Circuit.kind = Circuit.Gate (m, qs); cond = None }
            | None -> if commutes g qs current.(j) then scan ())
          | op when commutes g qs op -> scan ()
          | _ -> ())
      in
      scan ()
    | _ -> ()
  in
  for i = 0 to n - 1 do
    if alive.(i) then try_combine i
  done;
  let remaining = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then remaining := current.(i) :: !remaining
  done;
  ( { c with Circuit.ops = !remaining },
    { cancelled = !cancelled; merged = !merged; removed_identities = !removed } )

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
