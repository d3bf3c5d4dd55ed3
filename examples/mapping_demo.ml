(* Hardware mapping end to end (Sec. IV-A): a reset-heavy program whose
   qubits the live-range allocator packs "like registers", then SWAP
   routing onto sparse topologies, and execution of the mapped circuit
   through the QIR runtime.

   Run with: dune exec examples/mapping_demo.exe *)

open Qcircuit

let () =
  (* 8 sequential 3-qubit workers: 24 logical qubits, 3 live at a time *)
  let program = Generate.sequential_workers ~workers:8 ~span:3 3 in
  Format.printf "program: %d logical qubits, %d operations, depth %d@\n"
    program.Circuit.num_qubits (Circuit.size program) (Circuit.depth program);

  let alloc = Qmapping.Allocator.allocate program in
  Format.printf
    "live-range allocation: %d -> %d hardware qubits (%d resets inserted)@\n"
    program.Circuit.num_qubits alloc.Qmapping.Allocator.hw_qubits_used
    alloc.Qmapping.Allocator.resets_inserted;
  Format.printf "assignment (logical -> hardware): %s@\n@\n"
    (String.concat ", "
       (List.map
          (fun (l, h) -> Printf.sprintf "%d->%d" l h)
          (List.filteri (fun i _ -> i < 8) alloc.Qmapping.Allocator.assignment)));

  (* route a QFT onto different topologies and compare *)
  let qft = Generate.qft 9 in
  Format.printf "routing qft-9 onto sparse hardware:@\n";
  List.iter
    (fun hw ->
      let routed, report = Qmapping.Mapper.map ~allocate:false hw qft in
      Format.printf "  %-14s %a@\n" hw.Qmapping.Hardware.hw_name
        Qmapping.Mapper.pp_report report;
      assert (Qmapping.Router.respects_coupling hw routed))
    [
      Qmapping.Hardware.grid 3 3;
      Qmapping.Hardware.ring 9;
      Qmapping.Hardware.linear 9;
      Qmapping.Hardware.fully_connected 9;
    ];

  (* the mapped program still computes the same thing: run a GHZ through
     mapping + QIR and check the outcome structure *)
  let ghz = Generate.ghz 6 in
  let hw = Qmapping.Hardware.grid 2 3 in
  let routed, report = Qmapping.Mapper.map ~allocate:false hw ghz in
  Format.printf "@\nghz-6 on %s: %a@\n" hw.Qmapping.Hardware.hw_name
    Qmapping.Mapper.pp_report report;
  let m = Qir.Qir_builder.build routed in
  let hist =
    (Qruntime.Executor.run_shots_resilient ~seed:21 ~shots:200 m).histogram
  in
  Format.printf "measured (should be only all-0 / all-1):@\n%a"
    Qruntime.Executor.pp_histogram hist;
  let ok =
    List.for_all (fun (k, _) -> k = "000000" || k = "111111") hist
  in
  if not ok then begin
    print_endline "mapping broke the GHZ correlation!";
    exit 1
  end;
  print_endline "mapped execution verified."
