(* Static resource certification: interprocedural, flow-sensitive
   symbolic bounds on the resources a QIR program can consume — the
   register size it forces, total gate count, T/rotation count, circuit
   depth and loop trip counts — computed without running the program.

   The paper's central claim is that a common IR lets tooling *reason
   about* quantum programs before any backend touches them; this module
   turns that reasoning into a machine-checked contract ("certificate")
   the service tier can trust: admission control rejects on *proven
   lower bounds* before compiling, per-tenant memory accounting sums
   *proven upper bounds*, and the scheduler charges certified cost.

   Every quantity is an interval [lo, hi]:

     - [lo] is a proven lower bound: every complete execution uses at
       least this much.
     - [hi] is a proven upper bound, with [Inf] as the honest top
       element: no execution uses more, or we refuse to claim a bound.

   Soundness model for qubits. The runtime ({!Qruntime.Runtime}) maps a
   static address [a < Names.dynamic_base] to simulator qubit [a], growing
   the register to [a+1] on demand; [rt_qubit_allocate] appends a fresh
   index at the current register size; and both release entry points
   are no-ops — the register never shrinks and indices are never
   reused. The memory-relevant bound is therefore the *final register
   size*, which is path-monotone. Each program fragment denotes a
   register transfer f(R) = max(R + grow, need): [grow] is the net
   dynamic allocation count and [need] the register size the fragment
   forces regardless of what came before (static addresses it touches,
   plus allocations stacked after them). These pairs compose exactly:

     (g1, n1) ; (g2, n2)  =  (g1 + g2, max(n1 + g2, n2))

   and that composition is what [seq] implements on intervals.

   Depth uses the QDF wire view ({!Qdf}): within a block, events
   schedule ASAP on their wires — upper bounds serialize against every
   may-aliasing wire, lower bounds only against provably-equal wires —
   and across blocks depth adds on the hi side and maxes on the lo
   side (parallel wires can hide sequencing, so addition is not a
   sound lower bound).

   Loops take their trip counts from the counted-loop shape
   ({!Passes.Unroll} recognizes the same one): a single-latch natural
   loop whose header tests an affine function of an induction phi
   against a constant. Anything else is [0, Inf] — unbounded is the
   honest top, never a guess. Recursive functions, irreducible control
   flow and unknown quantum callees get opaque summaries so that
   uncertainty *widens* bounds instead of lying. *)

open Llvm_ir
module Gate = Qcircuit.Gate
module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Bounds and intervals                                                *)

type bound = Fin of int | Inf

let badd a b = match (a, b) with Fin x, Fin y -> Fin (x + y) | _ -> Inf

(* 0 * anything = 0, even 0 * Inf: a loop that provably touches nothing
   per iteration touches nothing however often it spins. *)
let bmul a b =
  match (a, b) with
  | Fin 0, _ | _, Fin 0 -> Fin 0
  | Fin x, Fin y -> Fin (x * y)
  | _ -> Inf

let bmax a b = match (a, b) with Fin x, Fin y -> Fin (max x y) | _ -> Inf
let bpred = function Fin n -> Fin (max 0 (n - 1)) | Inf -> Inf
let bound_to_string = function Fin n -> string_of_int n | Inf -> "unbounded"
let finite = function Fin n -> Some n | Inf -> None

type iv = { lo : int; hi : bound }

let exactly n = { lo = n; hi = Fin n }
let zero_iv = exactly 0
let unbounded = { lo = 0; hi = Inf }
let iv_add a b = { lo = a.lo + b.lo; hi = badd a.hi b.hi }
let iv_max a b = { lo = max a.lo b.lo; hi = bmax a.hi b.hi }

(* Control-flow join: either branch may run. *)
let iv_join a b = { lo = min a.lo b.lo; hi = bmax a.hi b.hi }
let iv_scale a t = { lo = a.lo * t.lo; hi = bmul a.hi t.hi }
let is_zero v = v.lo = 0 && v.hi = Fin 0

let pp_iv ppf v =
  if v.hi = Fin v.lo then Format.fprintf ppf "%d" v.lo
  else Format.fprintf ppf "[%d, %s]" v.lo (bound_to_string v.hi)

(* ------------------------------------------------------------------ *)
(* Resource vectors                                                    *)

type cost = {
  gates : iv;  (* unitary gate applications *)
  t_count : iv;  (* non-Clifford gates (T/rotations with unproven angles
                    widen only the upper bound) *)
  measures : iv;
  depth : iv;  (* wire-ASAP critical path *)
  q_grow : iv;  (* net dynamic register growth *)
  q_need : iv;  (* register size forced regardless of entry size *)
}

let zero_cost =
  {
    gates = zero_iv;
    t_count = zero_iv;
    measures = zero_iv;
    depth = zero_iv;
    q_grow = zero_iv;
    q_need = zero_iv;
  }

let top_cost =
  {
    gates = unbounded;
    t_count = unbounded;
    measures = unbounded;
    depth = unbounded;
    q_grow = unbounded;
    q_need = unbounded;
  }

(* [a] then [b]. Depth maxes on the lo side: the two fragments may act
   on disjoint wires, in which case their chains run in parallel. *)
let seq a b =
  {
    gates = iv_add a.gates b.gates;
    t_count = iv_add a.t_count b.t_count;
    measures = iv_add a.measures b.measures;
    depth = { lo = max a.depth.lo b.depth.lo; hi = badd a.depth.hi b.depth.hi };
    q_grow = iv_add a.q_grow b.q_grow;
    q_need = iv_max (iv_add a.q_need b.q_grow) b.q_need;
  }

(* Either branch may run. *)
let join a b =
  {
    gates = iv_join a.gates b.gates;
    t_count = iv_join a.t_count b.t_count;
    measures = iv_join a.measures b.measures;
    depth = iv_join a.depth b.depth;
    q_grow = iv_join a.q_grow b.q_grow;
    q_need = iv_join a.q_need b.q_need;
  }

(* [trip] iterations of [body]. The register requirement of the k-th
   iteration sits on top of the growth of the k-1 before it, so the
   forced size peaks at need + grow * (trip - 1). *)
let loop_scale body trip =
  {
    gates = iv_scale body.gates trip;
    t_count = iv_scale body.t_count trip;
    measures = iv_scale body.measures trip;
    depth =
      {
        lo = (if trip.lo = 0 then 0 else body.depth.lo);
        hi = bmul body.depth.hi trip.hi;
      };
    q_grow = iv_scale body.q_grow trip;
    q_need =
      {
        lo =
          (if trip.lo = 0 then 0
           else body.q_need.lo + (body.q_grow.lo * (trip.lo - 1)));
        hi =
          (match trip.hi with
          | Fin 0 -> Fin 0
          | t -> badd body.q_need.hi (bmul body.q_grow.hi (bpred t)));
      };
  }

(* Zero every lower bound — used when the only terminators are inside
   collapsed loops or the function provably never returns. *)
let zero_lo c =
  let z v = { v with lo = 0 } in
  {
    gates = z c.gates;
    t_count = z c.t_count;
    measures = z c.measures;
    depth = z c.depth;
    q_grow = z c.q_grow;
    q_need = z c.q_need;
  }

let quantum_cost c =
  (not (is_zero c.gates))
  || (not (is_zero c.measures))
  || (not (is_zero c.q_grow))
  || (not (is_zero c.q_need))
  || not (is_zero c.depth)

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)

type loop_info = {
  l_func : string;
  l_header : string;
  l_trip : iv;
  l_quantum : bool;  (* the loop body touches quantum state *)
}

type fsum = {
  fname : string;
  cost : cost;
  opaque : bool;  (* recursive, irreducible, or unknown quantum op *)
  qparams_used : bool array;  (* params gated/measured (transitively) *)
  loops : loop_info list;
}

let opaque_fsum name nparams =
  {
    fname = name;
    cost = top_cost;
    opaque = true;
    qparams_used = Array.make nparams true;
    loops = [];
  }

(* ------------------------------------------------------------------ *)
(* Loop trip counts                                                    *)

(* {!Passes.Unroll}'s recognizer, counting only — certification never
   clones blocks, so the search cap is generous. *)
let max_trip_search = 1 lsl 20

let trip_count (f : Func.t) cfg (loop : Passes.Loop.t) : int option =
  if not (Cfg.is_reachable cfg loop.Passes.Loop.header) then None
  else Passes.Unroll.trip_count ~max_trip:max_trip_search f cfg loop

(* ------------------------------------------------------------------ *)
(* Per-block costs                                                     *)

type flags = { mutable unknown : bool; mutable qp_used : bool array }

let mark_qparam fl i =
  if i >= 0 && i < Array.length fl.qp_used then fl.qp_used.(i) <- true

(* The per-block walker: a mutable accumulator threading the (grow,
   need) register transfer and additive counters, plus a wire → depth
   map for the current straight-line segment. Callee summaries are
   spliced in as barriers that flush the segment. *)
type walker = {
  mutable acc : cost;
  depths : (Qdf.wire, int * int) Hashtbl.t;  (* wire -> (lo, hi) depth *)
  mutable seg_lo : int;
  mutable seg_hi : int;
}

let walker_create () =
  { acc = zero_cost; depths = Hashtbl.create 8; seg_lo = 0; seg_hi = 0 }

let flush w =
  if w.seg_hi > 0 then begin
    w.acc <-
      seq w.acc
        { zero_cost with depth = { lo = w.seg_lo; hi = Fin w.seg_hi } };
    Hashtbl.reset w.depths;
    w.seg_lo <- 0;
    w.seg_hi <- 0
  end

(* One depth-1 event on [wires] ([None] = wholly unresolved: serializes
   against everything on the hi side, against nothing on the lo side). *)
let advance w (wires : Qdf.wire option list) =
  let unresolved = List.exists Option.is_none wires in
  let ws = List.filter_map Fun.id wires in
  let d_hi =
    1
    + Hashtbl.fold
        (fun w' (_, hi) m ->
          if
            unresolved
            || List.exists (fun x -> Qdf.may_alias x w') ws
          then max m hi
          else m)
        w.depths 0
  in
  let d_lo =
    1
    + List.fold_left
        (fun m x ->
          match Hashtbl.find_opt w.depths x with
          | Some (lo, _) -> max m lo
          | None -> m)
        0 ws
  in
  List.iter (fun x -> Hashtbl.replace w.depths x (d_lo, d_hi)) ws;
  w.seg_lo <- max w.seg_lo d_lo;
  w.seg_hi <- max w.seg_hi d_hi

let add w c = w.acc <- seq w.acc c

(* The register-size floor a wire forces when an event executes on it. *)
let wire_floor fl w (wire : Qdf.wire option) =
  match wire with
  | Some (Qdf.WStatic n) when n >= 0L && n < Names.dynamic_base ->
    add w { zero_cost with q_need = exactly (Int64.to_int n + 1) }
  | Some (Qdf.WStatic _) -> () (* dynamic-range constant: no new growth *)
  | Some (Qdf.WAlloc _ | Qdf.WElem _) -> () (* counted at the alloc site *)
  | Some (Qdf.WParam i) -> mark_qparam fl i
  | Some (Qdf.WVal _) | None ->
    (* an unresolved address may name any static qubit *)
    add w { zero_cost with q_need = { lo = 0; hi = Inf } }

let alloc_array_count facts (args : Operand.typed list) =
  match args with
  | [ a ] -> (
    let const =
      match a.Operand.v with
      | Operand.Const c -> Some c
      | Operand.Local id -> Passes.Sccp.const_of facts id
    in
    match Option.bind const (Passes.Const_fold.value_of_const a.Operand.ty) with
    | Some (Interp.VInt (_, n)) when n >= 0L && n <= Int64.of_int max_trip_search
      ->
      Some (Int64.to_int n)
    | _ -> None)
  | _ -> None

let instr_cost env vt facts fl w (i : Instr.t) =
  match i.Instr.op with
  | Instr.Call (_, callee, args) when Names.is_quantum callee -> (
    let first_wire () =
      match args with
      | (a : Operand.typed) :: _ -> Qdf.resolve_qubit vt facts a.Operand.v
      | [] -> None
    in
    match Names.decode callee with
    | Names.Qubit_allocate -> add w { zero_cost with q_grow = exactly 1 }
    | Names.Qubit_allocate_array -> (
      match alloc_array_count facts args with
      | Some n -> add w { zero_cost with q_grow = exactly n }
      | None -> add w { zero_cost with q_grow = unbounded })
    | Names.Qubit_release | Names.Qubit_release_array ->
      () (* releases are no-ops: the register never shrinks *)
    | Names.Mz | Names.M ->
      let q = first_wire () in
      wire_floor fl w q;
      advance w [ q ];
      add w { zero_cost with measures = exactly 1 }
    | Names.Reset ->
      let q = first_wire () in
      wire_floor fl w q;
      advance w [ q ]
    | Names.Fail -> ()
    | Names.Gate { shape; doubles; qubits } -> (
      (* unlike {!Qdf.classify_call}, keep the gate even when its wires
         stay unresolved: the count is knowable when the wire is not *)
      match Qdf.gate_operands vt facts ~shape ~doubles ~qubits args with
      | Some (exact, wires) ->
        List.iter (wire_floor fl w) wires;
        advance w wires;
        let t_iv =
          match exact with
          | Some g -> if Gate.is_clifford g then zero_iv else exactly 1
          | None -> { lo = 0; hi = Fin 1 } (* unproven angle: maybe T *)
        in
        add w { zero_cost with gates = exactly 1; t_count = t_iv }
      | None -> fl.unknown <- true)
    | call ->
      if not (Qdf.classically_transparent call) then
        fl.unknown <- true (* unknown quantum operation *))
  | Instr.Call (_, callee, args) -> (
    (* defined or foreign classical callee: splice its summary *)
    flush w;
    let callee_sum = SMap.find_opt callee env in
    let used pos =
      match callee_sum with
      | Some fs when not fs.opaque ->
        pos < Array.length fs.qparams_used && fs.qparams_used.(pos)
      | _ -> true (* opaque/unknown: assume every pointer is gated *)
    in
    List.iteri
      (fun pos (a : Operand.typed) ->
        if a.Operand.ty = Ty.Ptr && used pos then
          match Qdf.resolve_qubit vt facts a.Operand.v with
          | Some (Qdf.WStatic n) when n >= 0L && n < Names.dynamic_base ->
            (* the callee gates this address: upper-bound floor only —
               nothing proves the gate is reached on every path *)
            add w
              {
                zero_cost with
                q_need = { lo = 0; hi = Fin (Int64.to_int n + 1) };
              }
          | Some (Qdf.WParam i) -> mark_qparam fl i
          | Some (Qdf.WAlloc _ | Qdf.WElem _) | Some (Qdf.WStatic _) -> ()
          | Some (Qdf.WVal _) | None -> (
            match callee_sum with
            | Some fs when not fs.opaque ->
              add w { zero_cost with q_need = { lo = 0; hi = Inf } }
            | _ -> () (* opaque summaries are already top *)))
      args;
    match callee_sum with
    | Some fs -> add w fs.cost
    | None -> add w top_cost (* external code we cannot see *))
  | _ -> () (* classical instructions consume no quantum resources *)

let block_cost env vt facts fl (b : Block.t) : cost =
  let w = walker_create () in
  List.iter (instr_cost env vt facts fl w) b.Block.instrs;
  flush w;
  w.acc

(* ------------------------------------------------------------------ *)
(* Per-function analysis: loop condensation + DAG path bounds          *)

exception Bail

(* Path bounds over a region of the condensed graph: max-path on hi,
   min-path on lo. The region's nodes are walked in reverse postorder of
   a depth-first walk from [entry] (then from any node it missed), which
   is a topological order unless the region has a cycle, and then the
   walk meets an edge back into its own stack: [Bail]. Each node joins
   what its predecessors pushed, adds its own cost and pushes the sum
   to its successors. [edges_of] gives a node's edges inside the region.
   Returns the accumulated cost of every node reachable from [entry]. *)
let dag_acc nodes entry edges_of cost =
  let state = Hashtbl.create 16 and order = ref [] in
  let visit root =
    if not (Hashtbl.mem state root) then begin
      Hashtbl.replace state root `Open;
      let stack = ref [ (root, edges_of root) ] in
      while !stack <> [] do
        match !stack with
        | (u, v :: vs) :: rest -> (
          stack := (u, vs) :: rest;
          match Hashtbl.find_opt state v with
          | Some `Open -> raise Bail
          | Some `Done -> ()
          | None ->
            Hashtbl.replace state v `Open;
            stack := (v, edges_of v) :: !stack)
        | (u, []) :: rest ->
          Hashtbl.replace state u `Done;
          order := u :: !order;
          stack := rest
        | [] -> ()
      done
    end
  in
  visit entry;
  List.iter visit nodes;
  let inc = Hashtbl.create 16 and acc = Hashtbl.create 16 in
  Hashtbl.replace inc entry zero_cost;
  List.iter
    (fun u ->
      match Hashtbl.find_opt inc u with
      | None -> () (* unreachable within the region *)
      | Some c ->
        let a = seq c (cost u) in
        Hashtbl.replace acc u a;
        List.iter
          (fun v ->
            Hashtbl.replace inc v
              (match Hashtbl.find_opt inc v with
              | Some c -> join c a
              | None -> a))
          (edges_of u))
    !order;
  acc

(* Loops are condensed innermost first into their headers; the bounds
   are then path bounds over the resulting DAG. Per-node state is
   indexed by {!Cfg}'s numbering of the reachable blocks: a node is
   alive while it has a cost, and a block condensed into a header
   finds it through [repr]. *)
let analyze_func a env (f : Func.t) : fsum =
  let vt = Analyses.value_track a f and facts = Analyses.sccp a f in
  let cfg = Cfg.of_func f in
  let n = Cfg.size cfg in
  let fl =
    { unknown = false; qp_used = Array.make (List.length f.Func.params) false }
  in
  let cost =
    Array.init n (fun i ->
        Some (block_cost env vt facts fl (Cfg.block_at cfg i)))
  in
  let succs = Array.init n (fun i -> Array.to_list (Cfg.succ cfg i)) in
  (* blocks that end the program: returns and aborts *)
  let terminal =
    Array.init n (fun i ->
        match (Cfg.block_at cfg i).Block.term with
        | Instr.Ret _ | Instr.Unreachable -> true
        | _ -> false)
  in
  let repr = Array.init n Fun.id in
  let rec find i = if repr.(i) = i then i else find repr.(i) in
  (* the live node standing for a block, if the block is reachable *)
  let node_of label =
    match Cfg.index cfg label with
    | Some i when i < n -> Some (find i)
    | _ -> None
  in
  let cost_of u = Option.get cost.(u) in
  let edges_of u = List.map find succs.(u) in
  let loop_infos = ref [] in
  let result =
    try
      (* innermost loops first: smaller bodies collapse before the loops
         that contain them *)
      let loops =
        List.sort
          (fun (a : Passes.Loop.t) b ->
            compare
              (Passes.Loop.SSet.cardinal a.Passes.Loop.body)
              (Passes.Loop.SSet.cardinal b.Passes.Loop.body))
          (Passes.Loop.find cfg)
      in
      List.iter
        (fun (loop : Passes.Loop.t) ->
          let header = loop.Passes.Loop.header in
          match Cfg.index cfg header with
          | Some h when h < n && find h = h && Option.is_some cost.(h) ->
            let body = Hashtbl.create 16 in
            Passes.Loop.SSet.iter
              (fun l ->
                Option.iter (fun r -> Hashtbl.replace body r ()) (node_of l))
              loop.Passes.Loop.body;
            let latches =
              List.sort_uniq compare
                (List.filter_map
                   (fun l ->
                     Option.bind (node_of l) (fun r ->
                         if Hashtbl.mem body r then Some r else None))
                   loop.Passes.Loop.latches)
            in
            if latches = [] then raise Bail;
            let in_body u =
              List.filter (fun v -> v <> h && Hashtbl.mem body v) (edges_of u)
            in
            let nodes = Hashtbl.fold (fun u () l -> u :: l) body [] in
            let acc = dag_acc nodes h in_body cost_of in
            let iter_cost =
              match List.filter_map (Hashtbl.find_opt acc) latches with
              | [] -> raise Bail
              | c :: cs -> List.fold_left join c cs
            in
            let has_term =
              Passes.Loop.SSet.exists
                (fun l ->
                  match Cfg.index cfg l with
                  | Some i -> i < n && terminal.(i)
                  | None -> false)
                loop.Passes.Loop.body
            in
            let trip =
              match trip_count f cfg loop with
              | Some t -> { lo = (if has_term then 0 else t); hi = Fin t }
              | None -> unbounded
            in
            loop_infos :=
              {
                l_func = f.Func.name;
                l_header = header;
                l_trip = trip;
                l_quantum = quantum_cost iter_cost;
              }
              :: !loop_infos;
            (* the final, failing header evaluation can replay up to one
               more partial iteration on the hi side *)
            let trip' = { trip with hi = badd trip.hi (Fin 1) } in
            (* exit targets outside the body become the node's succs *)
            succs.(h) <-
              List.sort_uniq compare
                (List.filter_map
                   (fun (_, target) ->
                     Option.bind (node_of target) (fun r ->
                         if Hashtbl.mem body r then None else Some r))
                   (Passes.Loop.exits cfg loop));
            cost.(h) <- Some (loop_scale iter_cost trip');
            Hashtbl.iter
              (fun u () ->
                if u <> h then begin
                  repr.(u) <- h;
                  cost.(u) <- None;
                  succs.(u) <- [];
                  if terminal.(u) then begin
                    terminal.(u) <- false;
                    terminal.(h) <- true
                  end
                end)
              body;
            if has_term then terminal.(h) <- true
          | _ -> ())
        loops;
      let nodes =
        List.filter (fun u -> Option.is_some cost.(u)) (List.init n Fun.id)
      in
      let acc = dag_acc nodes (find 0) edges_of cost_of in
      let terms =
        List.filter_map
          (fun u -> if terminal.(u) then Hashtbl.find_opt acc u else None)
          nodes
      in
      match terms with
      | c :: cs -> List.fold_left join c cs
      | [] ->
        (* no reachable terminator: the function never returns *)
        zero_lo
          (Hashtbl.fold (fun _ c a -> join c a) acc zero_cost)
    with Bail ->
      fl.unknown <- true;
      top_cost
  in
  if fl.unknown then
    { (opaque_fsum f.Func.name (List.length f.Func.params)) with
      loops = !loop_infos;
    }
  else
    {
      fname = f.Func.name;
      cost = result;
      opaque = false;
      qparams_used = fl.qp_used;
      loops = !loop_infos;
    }

(* ------------------------------------------------------------------ *)
(* Interprocedural driver                                              *)

(* Bottom-up over the call-graph condensation, like the lifetime
   summaries: non-recursive functions see their callees' finished
   summaries; recursive SCCs get the opaque top. *)
let summarize (a : Analyses.t) : fsum SMap.t =
  let m = Analyses.ir a and cg = Analyses.call_graph a in
  List.fold_left
    (fun env scc ->
      let recursive =
        match scc with
        | [ fname ] -> Call_graph.is_recursive cg fname
        | _ -> true
      in
      List.fold_left
        (fun env fname ->
          match Ir_module.find_func m fname with
          | Some f when not (Func.is_declaration f) ->
            let s =
              if recursive then
                opaque_fsum fname (List.length f.Func.params)
              else analyze_func a env f
            in
            SMap.add fname s env
          | Some _ | None -> env)
        env scc)
    SMap.empty
    (Call_graph.sccs_bottom_up cg)

(* ------------------------------------------------------------------ *)
(* Whole-program certificates                                          *)

type t = {
  module_name : string;
  entry : string option;
  declared : int;  (* required_num_qubits attribute, 0 when absent *)
  qubits : iv;  (* final register size = statevector footprint driver *)
  gates : iv;
  t_count : iv;
  measures : iv;
  depth : iv;
  loops : loop_info list;
  opaque : bool;
  functions : fsum list;
}

(* Certification analyzes a normalized shadow of the module: mem2reg
   promotes alloca-resident induction variables to phis (frontend
   output keeps loop counters in memory, where no trip count is
   recognizable) and constant folding canonicalizes the bounds. Both
   passes are semantics-preserving, so bounds proved on the shadow hold
   for the original program; the caller's module is never mutated. *)
let normalize (m : Ir_module.t) : Ir_module.t =
  Passes.Pass.run_once
    [
      Passes.Pass.of_func_pass Passes.Mem2reg.pass;
      Passes.Pass.of_func_pass Passes.Const_fold.pass;
    ]
    m

let certify (a : Analyses.t) : t =
  let m = normalize (Analyses.ir a) in
  let table = summarize (Analyses.with_module a m) in
  let entry = Ir_module.entry_point m in
  let declared =
    match entry with Some f -> Names.declared_qubits f | None -> 0
  in
  let esum =
    match entry with
    | Some f -> (
      match SMap.find_opt f.Func.name table with
      | Some s -> s
      | None -> opaque_fsum f.Func.name 0)
    | None -> opaque_fsum "?" 0
  in
  let c = esum.cost in
  (* the register starts at [declared] and never shrinks: final size is
     max(declared + growth, forced floor) *)
  let qubits =
    {
      lo = max (declared + c.q_grow.lo) c.q_need.lo;
      hi = bmax (badd (Fin declared) c.q_grow.hi) c.q_need.hi;
    }
  in
  let functions =
    List.sort
      (fun (a : fsum) (b : fsum) -> compare a.fname b.fname)
      (SMap.fold (fun _ s l -> s :: l) table [])
  in
  {
    module_name = m.Ir_module.source_name;
    entry = Option.map (fun (f : Func.t) -> f.Func.name) entry;
    declared;
    qubits;
    gates = c.gates;
    t_count = c.t_count;
    measures = c.measures;
    depth = c.depth;
    loops = List.concat_map (fun (s : fsum) -> List.rev s.loops) functions;
    opaque = esum.opaque;
    functions;
  }

(* Footprint-style helpers for the service tier. *)
let qubits_upper cert = finite cert.qubits.hi
let qubits_lower cert = cert.qubits.lo

(* Certified cost for cost-fair scheduling: gate-bound × shot-bound.
   Unbounded gate counts charge as [unbounded_gate_cost] so an opaque
   module cannot starve bounded tenants by masquerading as free. *)
let unbounded_gate_cost = 1_000_000

let cost_weight cert ~shots =
  let g =
    match cert.gates.hi with
    | Fin n -> max 1 (min n unbounded_gate_cost)
    | Inf -> unbounded_gate_cost
  in
  float_of_int g *. float_of_int (max 1 shots)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let schema_version = Diagnostic.schema_version

let pp_text ppf cert =
  Format.fprintf ppf "resource certificate: %s (schema %d)@\n"
    cert.module_name schema_version;
  Format.fprintf ppf "  entry: %s  declared qubits: %d%s@\n"
    (Option.value ~default:"<none>" cert.entry)
    cert.declared
    (if cert.opaque then "  [opaque]" else "");
  Format.fprintf ppf "  qubits:   %a@\n" pp_iv cert.qubits;
  Format.fprintf ppf "  gates:    %a@\n" pp_iv cert.gates;
  Format.fprintf ppf "  t-count:  %a@\n" pp_iv cert.t_count;
  Format.fprintf ppf "  measures: %a@\n" pp_iv cert.measures;
  Format.fprintf ppf "  depth:    %a@\n" pp_iv cert.depth;
  match cert.loops with
  | [] -> Format.fprintf ppf "  loops: none@."
  | loops ->
    Format.fprintf ppf "  loops:@\n";
    List.iter
      (fun l ->
        Format.fprintf ppf "    @%s %%%s: trip %a%s@\n" l.l_func l.l_header
          pp_iv l.l_trip
          (if l.l_quantum then " (quantum)" else ""))
      loops;
    Format.fprintf ppf "@?"

let json_iv v =
  Jsonx.Obj
    [
      ("lo", Jsonx.int v.lo);
      ("hi", match v.hi with Fin n -> Jsonx.int n | Inf -> Jsonx.Null);
    ]

(* The versioned JSON certificate ({!Diagnostic.schema_version} governs
   the shape; [hi: null] encodes an unbounded upper bound). Optional
   [diagnostics] embeds QR findings so one document carries both the
   bounds and their verdicts. *)
let to_json ?(diagnostics = []) cert =
  let loop l =
    Jsonx.Obj
      [
        ("function", Jsonx.Str l.l_func);
        ("header", Jsonx.Str l.l_header);
        ("trip", json_iv l.l_trip);
        ("quantum", Jsonx.Bool l.l_quantum);
      ]
  in
  let func s =
    Jsonx.Obj
      [
        ("name", Jsonx.Str s.fname);
        ("opaque", Jsonx.Bool s.opaque);
        ("gates", json_iv s.cost.gates);
        ("t_count", json_iv s.cost.t_count);
        ("measures", json_iv s.cost.measures);
        ("depth", json_iv s.cost.depth);
        ("q_grow", json_iv s.cost.q_grow);
        ("q_need", json_iv s.cost.q_need);
      ]
  in
  let certificate =
    Jsonx.Obj
      [
        ("module", Jsonx.Str cert.module_name);
        ( "entry",
          match cert.entry with Some e -> Jsonx.Str e | None -> Jsonx.Null );
        ("declared_qubits", Jsonx.int cert.declared);
        ("opaque", Jsonx.Bool cert.opaque);
        ( "bounds",
          Jsonx.Obj
            [
              ("qubits", json_iv cert.qubits);
              ("gates", json_iv cert.gates);
              ("t_count", json_iv cert.t_count);
              ("measures", json_iv cert.measures);
              ("depth", json_iv cert.depth);
            ] );
        ("loops", Jsonx.Arr (List.map loop cert.loops));
        ("functions", Jsonx.Arr (List.map func cert.functions));
      ]
  in
  Jsonx.Obj
    [
      ("schema_version", Jsonx.int schema_version);
      ("certificate", certificate);
      ( "diagnostics",
        Jsonx.Arr
          (List.map
             (Diagnostic.to_json ~module_name:cert.module_name)
             diagnostics) );
    ]

let render_json ?diagnostics ppf cert =
  Format.fprintf ppf "%s@." (Jsonx.pretty (to_json ?diagnostics cert))
