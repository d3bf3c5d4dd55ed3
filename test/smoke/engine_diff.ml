(* Engine differential smoke: the production executor (bytecode engine)
   must be observably identical to its oracle, the AST interpreter
   behind [Executor.Reference]. 200 fuzzed modules (random circuits,
   both addressing modes, feedback workloads, optimized and not)
   execute per shot on both with identical seeds — histograms and
   interpreter statistics must match bit for bit. A faulty-backend
   subset checks the retry machinery sees the same world from both; a
   counting-deadline case checks mid-shot timeout fires at the
   identical instruction; the checked-in examples (and recursive_bad
   under a fuel ceiling) close the loop on real files, and a missing
   example is a failure. Last, adaptive programs (static and dynamic
   addressing; a mid-circuit measurement reused, reset, or feeding a
   conditioned gate) run on the shot-branching tier and must agree in
   distribution — every bit, and every bit jointly with the
   mid-circuit one — with per-shot oracle runs.

   Used by CI as the engine-parity gate:
     dune exec test/smoke/engine_diff.exe *)

open Qcircuit

let circuits = 200
let shots = 4
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "engine-diff: %s\n" msg)
    fmt

let hist_to_string h =
  String.concat ";" (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) h)

let stats_to_string (s : Llvm_ir.Interp.stats) =
  Printf.sprintf "instr=%d ext=%d int=%d blocks=%d"
    s.Llvm_ir.Interp.instructions s.Llvm_ir.Interp.external_calls
    s.Llvm_ir.Interp.internal_calls s.Llvm_ir.Interp.blocks_entered

let with_measurements (c : Circuit.t) =
  let b =
    Circuit.Build.create ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_qubits ()
  in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Gate (g, qs) -> Circuit.Build.gate b g qs
      | _ -> ())
    c.Circuit.ops;
  for q = 0 to c.Circuit.num_qubits - 1 do
    Circuit.Build.measure b q q
  done;
  Circuit.Build.finish b

let module_of_circuit ~i c =
  let addressing = if i mod 2 = 0 then `Static else `Dynamic in
  let text = Qir.Qir_builder.to_string ~addressing c in
  let m = Llvm_ir.Parser.parse_module text in
  if i mod 3 = 0 then Passes.Pipeline.optimize m else m

(* The production path, capped at the per-shot tier so every shot is
   interpreted (the tape would replay without the interpreter). *)
let run_production ~policy ~seed ~backend m =
  let r =
    Qruntime.Executor.run_shots_resilient ~policy ~seed ~backend
      ~max_tier:`Per_shot ~shots m
  in
  if r.Qruntime.Executor.tape then fail "per-shot cap still ran the tape";
  (r.Qruntime.Executor.histogram, r.Qruntime.Executor.retries,
   r.Qruntime.Executor.completed)

(* The oracle's shot loop, following the per-shot tier's contract: shot
   [i] runs with seed [seed + i * 7919], keyed by its recorded output
   (or its results in address order), and transient faults are retried
   under [policy] with a fresh fault stream per attempt. *)
let run_oracle ~policy ~seed ~backend m =
  let tbl = Hashtbl.create 16 in
  let retries = ref 0 in
  let rng = Qcircuit.Rng.create seed in
  for shot = 0 to shots - 1 do
    match
      Qruntime.Resilience.with_retries
        ~on_retry:(fun _ ~attempt:_ -> incr retries)
        policy rng
        (fun ~attempt ->
          Qruntime.Executor.Reference.run
            ~seed:(seed + (shot * 7919))
            ~backend ?fuel:policy.Qruntime.Resilience.fuel ~attempt m)
    with
    | Ok (r, _) ->
      let key =
        if r.Qruntime.Executor.output <> "" then r.Qruntime.Executor.output
        else
          String.concat ""
            (List.map
               (fun (_, b) -> if b then "1" else "0")
               r.Qruntime.Executor.results)
      in
      Hashtbl.replace tbl key
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
    | Error (e, _) -> raise (Qruntime.Qir_error.Error e)
  done;
  let hist =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])
  in
  (hist, !retries, shots)

(* -------------------------------------------------------------------- *)
(* 1. fuzzed corpus, oracle and production, identical seeds             *)

let fuzzed_corpus () =
  let policy = { Qruntime.Resilience.no_retry with sleep = false } in
  for i = 0 to circuits - 1 do
    let seed = 2000 + i in
    let n = 2 + (i mod 5) in
    let c =
      if i mod 7 = 0 then Generate.feedback_rounds ~rounds:(1 + (i mod 3)) n
      else
        with_measurements
          (Generate.random ~seed ~parametric:(i mod 2 = 0)
             ~gates:(8 + (i mod 4 * 8))
             n)
    in
    try
      let m = module_of_circuit ~i c in
      let a, _, _ = run_oracle ~policy ~seed ~backend:`Statevector m in
      let b, _, _ = run_production ~policy ~seed ~backend:`Statevector m in
      if a <> b then
        fail "circuit %d (seed %d): histogram %s <> %s" i seed
          (hist_to_string a) (hist_to_string b);
      (* single-shot stats must agree instruction for instruction *)
      let ra =
        Qruntime.Executor.Reference.run ~seed ~backend:`Statevector m
      in
      let rb = Qruntime.Executor.run ~seed ~backend:`Statevector m in
      if ra.Qruntime.Executor.output <> rb.Qruntime.Executor.output then
        fail "circuit %d (seed %d): output %S <> %S" i seed
          ra.Qruntime.Executor.output rb.Qruntime.Executor.output;
      if ra.Qruntime.Executor.results <> rb.Qruntime.Executor.results then
        fail "circuit %d (seed %d): results differ" i seed;
      if
        stats_to_string ra.Qruntime.Executor.interp_stats
        <> stats_to_string rb.Qruntime.Executor.interp_stats
      then
        fail "circuit %d (seed %d): stats %s <> %s" i seed
          (stats_to_string ra.Qruntime.Executor.interp_stats)
          (stats_to_string rb.Qruntime.Executor.interp_stats)
    with e ->
      fail "circuit %d (seed %d): raised %s" i seed (Printexc.to_string e)
  done

(* -------------------------------------------------------------------- *)
(* 2. faulty backends: retries and recovered histograms must line up     *)

let faulty_subset () =
  let spec =
    match Qsim.Faulty.spec_of_string "0.02" with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let policy =
    {
      Qruntime.Resilience.default with
      Qruntime.Resilience.max_retries = 20;
      sleep = false;
    }
  in
  for i = 0 to 29 do
    let seed = 4000 + i in
    let c =
      with_measurements
        (Generate.random ~seed ~gates:(10 + (i mod 3 * 10)) (2 + (i mod 4)))
    in
    try
      let m = module_of_circuit ~i c in
      let backend = `Faulty { spec with Qsim.Faulty.fault_seed = seed } in
      let ha, ra, ca = run_oracle ~policy ~seed ~backend m in
      let hb, rb, cb = run_production ~policy ~seed ~backend m in
      if ha <> hb then
        fail "faulty %d (seed %d): histogram %s <> %s" i seed
          (hist_to_string ha) (hist_to_string hb);
      if ra <> rb then
        fail "faulty %d (seed %d): retries %d <> %d" i seed ra rb;
      if ca <> cb then
        fail "faulty %d (seed %d): completed %d <> %d" i seed ca cb
    with e ->
      fail "faulty %d (seed %d): raised %s" i seed (Printexc.to_string e)
  done

(* -------------------------------------------------------------------- *)
(* 3. deadline expiry mid-shot: a deterministic counting deadline must   *)
(*    fire at the identical instruction and produce the identical        *)
(*    Timeout_error from both engines                                    *)

let deadline_parity () =
  (* big enough that the every-128-instructions poll fires > 3 times *)
  let c = with_measurements (Generate.random ~seed:77 ~gates:700 4) in
  let text = Qir.Qir_builder.to_string c in
  let m = Llvm_ir.Parser.parse_module text in
  let timeout_of create run_fn =
    (* trip after 3 polls (the deadline is polled every 128 instrs) *)
    let polls = ref 0 in
    let deadline () =
      incr polls;
      !polls > 3
    in
    let inst = Qsim.Backend.create_instance ~seed:77 `Statevector 4 in
    let rt = Qruntime.Runtime.create inst in
    let st = create ~deadline ~externals:(Qruntime.Runtime.externals rt) in
    match run_fn st with
    | _ -> None
    | exception Llvm_ir.Ir_error.Timeout_error msg -> Some msg
  in
  let a =
    timeout_of
      (fun ~deadline ~externals ->
        Llvm_ir.Interp.create ~deadline ~externals m)
      (fun st -> Llvm_ir.Interp.run_function st "main" [])
  in
  let b =
    let prog, _, _ =
      Qruntime.Executor.(Session.compiled Session.default) m
    in
    timeout_of
      (fun ~deadline ~externals ->
        Llvm_ir.Bc_exec.create ~deadline ~externals prog)
      (fun st -> Llvm_ir.Bc_exec.run_function st "main" [])
  in
  match (a, b) with
  | Some ma, Some mb when ma = mb -> ()
  | Some ma, Some mb -> fail "deadline: %S <> %S" ma mb
  | None, _ | _, None ->
    fail "deadline: expected Timeout_error from both engines (ast=%b bc=%b)"
      (a <> None) (b <> None)

(* -------------------------------------------------------------------- *)
(* 4. checked-in examples, plus recursive_bad under a fuel ceiling       *)

let examples () =
  let dir = "../../../examples" in
  let dir = if Sys.file_exists dir then dir else "examples" in
  let run_file name f =
    let path = Filename.concat dir name in
    if Sys.file_exists path then f path else fail "missing example %s" path
  in
  List.iter
    (fun name ->
      run_file name (fun path ->
          let ic = open_in path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let m = Llvm_ir.Parser.parse_module text in
          let policy = { Qruntime.Resilience.no_retry with sleep = false } in
          let a, _, _ =
            run_oracle ~policy ~seed:11 ~backend:`Statevector m
          in
          let b, _, _ =
            run_production ~policy ~seed:11 ~backend:`Statevector m
          in
          if a <> b then
            fail "%s: histogram %s <> %s" name (hist_to_string a)
              (hist_to_string b)))
    [
      "bell_static.ll"; "bell_dynamic.ll"; "phi_addr.ll";
      "teleport_helpers.ll";
    ];
  (* recursive_bad: the fuel ceiling must trip with the identical error *)
  run_file "recursive_bad.ll" (fun path ->
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let m = Llvm_ir.Parser.parse_module text in
      let msg_of run =
        match run m with
        | _ -> None
        | exception Llvm_ir.Ir_error.Exec_error msg -> Some msg
      in
      match
        ( msg_of (Qruntime.Executor.Reference.run ~seed:5 ~fuel:10),
          msg_of (Qruntime.Executor.run ~seed:5 ~fuel:10) )
      with
      | Some ma, Some mb when ma = mb -> ()
      | Some ma, Some mb -> fail "recursive_bad fuel: %S <> %S" ma mb
      | a, b ->
        fail "recursive_bad fuel: expected Exec_error from both (ast=%b \
              bc=%b)"
          (a <> None) (b <> None))

(* ------------------------------------------------------------------ *)
(* 5. shot-branching tier vs per-shot oracle runs, in distribution      *)

(* [width] qubits of random gates with qubit [m] measured into the extra
   clbit [width] halfway, then reused (H), reset, or used to drive an X
   on its neighbour; terminal measurements of every qubit. *)
let adaptive_circuit ~seed ~width kind =
  let rng = Rng.create seed in
  let body = (Generate.random ~seed ~gates:24 ~parametric:true width).Circuit.ops in
  let m = Rng.int rng width in
  let pre = List.filteri (fun i _ -> i < 12) body in
  let post = List.filteri (fun i _ -> i >= 12) body in
  let mid =
    Circuit.measure m width
    ::
    (match kind with
    | `Mid -> [ Circuit.gate Gate.H [ m ] ]
    | `Reset -> [ Circuit.reset m; Circuit.gate Gate.H [ m ] ]
    | `Feedback ->
      [
        Circuit.gate Gate.H [ m ];
        Circuit.gate
          ~cond:{ Circuit.cbits = [ width ]; value = 1 }
          Gate.X
          [ (m + 1) mod width ];
      ])
  in
  Circuit.create ~num_qubits:width ~num_clbits:(width + 1)
    (pre @ mid @ post @ List.init width (fun q -> Circuit.measure q q))

let branching_shots = 800

(* Two histograms agree when every single-bit frequency, and the joint
   frequency of the mid-circuit bit with every other bit, differ by at
   most six standard deviations of the two-sample difference. *)
let agree ~mid a b =
  let total h = float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 h) in
  let freq h js =
    float_of_int
      (List.fold_left
         (fun acc (k, n) ->
           if List.for_all (fun j -> k.[j] = '1') js then acc + n else acc)
         0 h)
    /. total h
  in
  let na = total a and nb = total b in
  let events =
    List.init (mid + 1) (fun j -> [ j ]) @ List.init mid (fun j -> [ mid; j ])
  in
  List.for_all
    (fun js ->
      let fa = freq a js and fb = freq b js in
      let pbar = ((fa *. na) +. (fb *. nb)) /. (na +. nb) in
      let sd = sqrt (pbar *. (1. -. pbar) *. ((1. /. na) +. (1. /. nb))) in
      Float.abs (fa -. fb) <= (6. *. sd) +. (2. /. Float.min na nb))
    events

let branching_parity () =
  let programs = ref 0 in
  List.iteri
    (fun i (addressing, kind) ->
      List.iter
        (fun width ->
          let seed = 1000 + (10 * i) + width in
          let c = adaptive_circuit ~seed ~width kind in
          let m =
            Llvm_ir.Parser.parse_module (Qir.Qir_builder.to_string ~addressing c)
          in
          let r =
            Qruntime.Executor.run_shots_resilient ~seed ~shots:branching_shots m
          in
          if not r.Qruntime.Executor.batched then
            fail "adaptive program %d/%d did not run on the branching tier" i width;
          let tbl = Hashtbl.create 16 in
          for shot = 0 to branching_shots - 1 do
            let o = Qruntime.Executor.Reference.run ~seed:(seed + 1 + (shot * 7919)) m in
            let key = o.Qruntime.Executor.output in
            Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
          done;
          let reference = Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] in
          incr programs;
          if not (agree ~mid:width r.Qruntime.Executor.histogram reference) then
            fail "adaptive program %d/%d: branching %s disagrees with per-shot %s" i
              width
              (hist_to_string r.Qruntime.Executor.histogram)
              (hist_to_string (List.sort compare reference)))
        [ 3; 5 ])
    [
      (`Static, `Mid); (`Static, `Feedback); (`Static, `Reset);
      (`Dynamic, `Mid); (`Dynamic, `Feedback); (`Dynamic, `Reset);
    ];
  !programs

let () =
  fuzzed_corpus ();
  faulty_subset ();
  deadline_parity ();
  examples ();
  let adaptive = branching_parity () in
  Printf.printf
    "engine diff: %d fuzzed modules x %d shots + 30 faulty + deadline + \
     examples + %d adaptive programs branching vs per-shot oracle, %d \
     divergences\n"
    circuits shots adaptive !failures;
  if !failures > 0 then exit 1
