(* Placement of classical segments (Sec. IV-B): "the question naturally
   arises for a hybrid classical-quantum program ... how to decide which
   part of the code should be executed on the classical hardware and
   which part on the quantum hardware."

   Rule set:
   - classical segments that feed later quantum instructions lie on the
     critical path: placing them on the host costs a round-trip; on the
     controller they must be expressible in controller-supported
     operations and fit the program store;
   - segments that do not feed quantum code can run on the host
     asynchronously (no round-trip on the quantum critical path). *)

open Llvm_ir

type decision = {
  segment : Classify.segment;
  placement : Latency.placement;
  cost_ns : float; (* contribution to the quantum critical path *)
  forced : bool; (* true when only one placement was legal *)
}

type plan = {
  decisions : decision list;
  critical_path_ns : float;
  controller_instrs : int;
}

(* Can the controller execute this instruction? The one rule is
   [Summary.controller_instr_ok]; without summaries no call to a defined
   function counts. *)
let controller_supports ?(summaries : Qir_analysis.Summary.table option)
    (i : Instr.t) =
  Qir_analysis.Summary.controller_instr_ok
    (Option.value summaries ~default:(Hashtbl.create 0))
    i

let segment_controller_ok ?summaries (s : Classify.segment) =
  List.for_all (controller_supports ?summaries) s.Classify.instrs

let plan ?summaries ?(params = Latency.default)
    (segments : Classify.segment list) : plan =
  let controller_budget = ref params.Latency.controller_max_instrs in
  let decisions =
    List.map
      (fun (s : Classify.segment) ->
        match s.Classify.seg_class with
        | `Quantum ->
          { segment = s; placement = Latency.Controller; cost_ns = 0.0;
            forced = true }
        | `Classical ->
          let n = List.length s.Classify.instrs in
          if not s.Classify.feeds_quantum then
            (* off the critical path: host, free of round-trip *)
            { segment = s; placement = Latency.Host; cost_ns = 0.0;
              forced = false }
          else begin
            let can_controller =
              segment_controller_ok ?summaries s && n <= !controller_budget
            in
            let controller_cost =
              Latency.segment_cost params ~instrs:n Latency.Controller
            in
            let host_cost = Latency.segment_cost params ~instrs:n Latency.Host in
            if can_controller && controller_cost <= host_cost then begin
              controller_budget := !controller_budget - n;
              { segment = s; placement = Latency.Controller;
                cost_ns = controller_cost; forced = false }
            end
            else
              { segment = s; placement = Latency.Host; cost_ns = host_cost;
                forced = not can_controller }
          end)
      segments
  in
  let critical_path_ns =
    List.fold_left (fun acc d -> acc +. d.cost_ns) 0.0 decisions
  in
  let controller_instrs =
    List.fold_left
      (fun acc d ->
        match d.placement, d.segment.Classify.seg_class with
        | Latency.Controller, `Classical ->
          acc + List.length d.segment.Classify.instrs
        | _ -> acc)
      0 decisions
  in
  { decisions; critical_path_ns; controller_instrs }

let plan_module ?params (m : Ir_module.t) =
  match Ir_module.entry_point m with
  | Some f when not (Func.is_declaration f) ->
    let summaries =
      Qir_analysis.(Analyses.summaries (Analyses.of_module m))
    in
    plan ~summaries ?params (Classify.segments_of_func ~summaries f)
  | Some _ | None -> invalid_arg "Partition.plan_module: no entry point"

let pp_plan ppf p =
  Format.fprintf ppf "critical path %.0f ns, controller instrs %d@\n"
    p.critical_path_ns p.controller_instrs;
  List.iter
    (fun d ->
      Format.fprintf ppf "  %-9s %-10s %4d instrs %10.0f ns%s@\n"
        (match d.segment.Classify.seg_class with
        | `Quantum -> "quantum"
        | `Classical -> "classical")
        (Latency.placement_name d.placement)
        (List.length d.segment.Classify.instrs)
        d.cost_ns
        (if d.forced then " (forced)" else ""))
    p.decisions
