(* Scaling smoke: every per-block layer must stay linear in the number
   of blocks. The probe is a chain of n blocks, each with one [h] and a
   [br] to the next, generated in-process at n = 5 000, 10 000 and
   40 000. Each layer is timed best of 3 rounds, and the run fails when
   any layer's t(40 000) / t(10 000) exceeds 6: linear with margin,
   where a quadratic layer reads 16. The n = 5 000 column is printed,
   not gated.

   Each of a layer's rounds times every size in turn, so drift on a
   shared host reaches all of them. A sample repeats calls for
   [min_sample_s] and averages them. A smaller size is read over as
   many distinct chains, taken in turn, as make up 40 000 blocks, so
   its working set is the largest one's: the ratio measures the
   algorithm, not the step where the data outgrows a cache.

   Used by CI:  dune exec test/smoke/scale_smoke.exe *)

open Llvm_ir

let sizes = [ 5_000; 10_000; 40_000 ]
let small = 10_000
let large = 40_000
let max_ratio = 6.0
let min_sample_s = 0.2

let chain_text n =
  let b = Buffer.create (n * 72) in
  Buffer.add_string b
    "declare void @__quantum__qis__h__body(ptr)\n\n\
     define void @main() #0 {\nentry:\n  br label %b0\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "b%d:\n  call void @__quantum__qis__h__body(ptr null)\n" i;
    if i < n - 1 then Printf.bprintf b "  br label %%b%d\n" (i + 1)
    else Buffer.add_string b "  ret void\n"
  done;
  Buffer.add_string b
    "}\n\nattributes #0 = { \"entry_point\" \"required_num_qubits\"=\"1\" }\n";
  Buffer.contents b

(* Each layer, given a module and its entry, is a closure that runs the
   layer once (what the layer takes as input is built outside it). *)
let layers : (string * (Ir_module.t -> Func.t -> unit -> unit)) list =
  let analyses m = Qir_analysis.Analyses.of_module m in
  [
    ("Cfg.of_func", fun _ f () -> ignore (Cfg.of_func f));
    ( "Dom.compute",
      fun _ f ->
        let cfg = Cfg.of_func f in
        fun () -> ignore (Dom.compute cfg) );
    ( "Loop.find",
      fun _ f ->
        let cfg = Cfg.of_func f in
        fun () -> ignore (Passes.Loop.find cfg) );
    ("Verifier.check_module", fun m _ () -> ignore (Verifier.check_module m));
    ("Sccp.solve", fun _ f () -> ignore (Passes.Sccp.solve f));
    ( "Qir_parser.parse_with_output",
      fun m _ () -> ignore (Qir.Qir_parser.parse_with_output m) );
    ("Simplify_cfg.run", fun m f () -> ignore (Passes.Simplify_cfg.run m f));
    ( "Qdf_opt.notes",
      fun m _ () -> ignore (Qir_analysis.Qdf_opt.notes (analyses m)) );
    ( "Resource.certify",
      fun m _ () -> ignore (Qir_analysis.Resource.certify (analyses m)) );
  ]

(* Seconds per call of [run], after one untimed call. *)
let sample run =
  run ();
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let calls = ref 0 in
  while
    run ();
    incr calls;
    Unix.gettimeofday () -. t0 < min_sample_s
  do
    ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !calls

(* Every layer's closures over [large / n] distinct chains of [n]
   blocks, so every size runs on as many blocks. *)
let chains n =
  List.init (large / n) (fun _ ->
      let m = Parser.parse_module (chain_text n) in
      let f = Option.get (Ir_module.entry_point m) in
      List.map (fun (_, layer) -> layer m f) layers)

let () =
  let sets = List.map (fun n -> (n, chains n)) sizes in
  (* per layer, 3 rounds over every size in turn; seconds per chain,
     best of the rounds *)
  let times =
    List.mapi
      (fun k _ ->
        let runs n = List.map (fun c -> List.nth c k) (List.assoc n sets) in
        let once n =
          sample (fun () -> List.iter (fun run -> run ()) (runs n))
          /. float_of_int (large / n)
        in
        let rounds = List.init 3 (fun _ -> List.map once sizes) in
        List.fold_left (List.map2 Float.min) (List.hd rounds) (List.tl rounds))
      layers
  in
  let at n ts = List.nth ts (Option.get (List.find_index (( = ) n) sizes)) in
  let failures = ref 0 in
  Printf.printf "%-30s" "layer";
  List.iter (fun n -> Printf.printf " %11s" (Printf.sprintf "n=%d ms" n)) sizes;
  Printf.printf " %7s\n" "ratio";
  List.iter2
    (fun (name, _) ts ->
      let t n = at n ts in
      let ratio = t large /. t small in
      let bad = ratio > max_ratio in
      if bad then incr failures;
      Printf.printf "%-30s" name;
      List.iter (fun n -> Printf.printf " %11.3f" (t n *. 1e3)) sizes;
      Printf.printf " %7.2f%s\n" ratio (if bad then "  FAIL" else ""))
    layers times;
  if !failures > 0 then begin
    Printf.printf "scale smoke: %d layer(s) grow faster than %.0fx per 4x blocks\n"
      !failures max_ratio;
    exit 1
  end;
  Printf.printf "scale smoke: %d layers within %.0fx from n=%d to n=%d\n"
    (List.length layers) max_ratio small large
