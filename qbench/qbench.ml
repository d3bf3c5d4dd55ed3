(* qbench: the toolchain's end-to-end benchmark.

     qbench --workload qir-batch|qir-adaptive|serve-mix --seed N
            --seconds S --trace 0|1

   Builds the workload's inputs from the seed (timed as set-up, several
   times, median reported), runs it for S seconds, checks the outputs,
   and prints one JSON object as its last line: correct, attempted,
   failed, and the end-to-end metrics (--trace 0) or the per-layer
   metrics of a traced run (--trace 1) as name/value pairs. Normally
   run through run.py, which builds it first and attaches each metric's
   unit from BENCHMARK.json. *)

let setup_repeats = 5

(* Set-up runs [setup_repeats] times, each after a full major GC so
   earlier repetitions' garbage neither inflates peak RSS nor lands in
   the next one's time; every repetition must regenerate byte-identical
   inputs from the seed. Returns the last one's inputs, the median
   set-up seconds and whether the inputs repeated. *)
let timed_setup make digest =
  let last = ref None in
  let times = Array.make setup_repeats 0. and digests = Array.make setup_repeats "" in
  for i = 0 to setup_repeats - 1 do
    last := None;
    Gc.full_major ();
    let inputs, dt = Util.time make in
    times.(i) <- dt;
    digests.(i) <- digest inputs;
    last := Some inputs
  done;
  ( Option.get !last,
    Util.median times,
    Array.for_all (String.equal digests.(0)) digests,
    digests.(0) )

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "qir-batch | qir-adaptive | serve-mix");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: traced per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "qbench --workload W --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  Trace.enabled := traced;
  let result, setup_s, same, digest =
    match !workload with
    | ("qir-batch" | "qir-adaptive") as w ->
      let kind = if w = "qir-batch" then `Batch else `Adaptive in
      let corpus, setup_s, same, digest =
        timed_setup
          (fun () ->
            match kind with
            | `Batch -> Corpus.batch ~seed ~count:400
            | `Adaptive -> Corpus.adaptive_corpus ~seed ~count:240)
          Corpus.digest
      in
      let period =
        Array.length (if kind = `Batch then Corpus.batch_pattern else Corpus.adaptive_pattern)
      in
      Gc.full_major ();
      (Closed.run ~workload:kind ~seed ~seconds ~period ~traced corpus, setup_s, same, digest)
    | "serve-mix" ->
      let s, setup_s, same, digest =
        timed_setup (fun () -> Serve.setup ~seed ~seconds) Serve.inputs_digest
      in
      Gc.full_major ();
      (Serve.run ~seed ~traced s, setup_s, same, digest)
    | w ->
      prerr_endline ("qbench: unknown workload " ^ w);
      exit 2
  in
  let metrics =
    if traced then
      result.per_layer
      @ [
          ("dpool.domains", float_of_int (Qsim.Dpool.domains ()));
          ("dpool.sequential_fallbacks", float_of_int (Qsim.Dpool.sequential_fallbacks ()));
        ]
    else ("setup_s", setup_s) :: result.end_to_end
  in
  (* Self-check: each metric once, all finite. run.py checks the names
     against BENCHMARK.json. *)
  let names = List.map fst metrics in
  if List.length (List.sort_uniq compare names) <> List.length names
     || List.exists (fun (_, v) -> not (Float.is_finite v)) metrics
  then begin
    prerr_endline "qbench: a metric is repeated or not finite";
    exit 3
  end;
  if traced then begin
    let dir = "qbench/_trace" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Trace.write_chrome (Printf.sprintf "%s/%s-%d.json" dir !workload seed)
  end;
  let cold, hot = result.samples in
  Printf.printf
    "{\"info\":{\"workload\":%S,\"seed\":%d,\"inputs\":%S,\"inputs_repeat\":%b,\"samples_cold\":%d,\"samples_hot\":%d,\"domains\":%d,\"cores\":%d}}\n"
    !workload seed digest same cold hot (Qsim.Dpool.domains ())
    (Domain.recommended_domain_count ());
  let body =
    String.concat ","
      (List.map (fun (name, v) -> Printf.sprintf "%S:%s" name (json_number v)) metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (result.correct && same) result.attempted result.failed body
