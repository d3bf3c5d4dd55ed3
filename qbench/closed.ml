(* The closed-loop workloads, qir-batch and qir-adaptive: one program at
   a time, like a user running qir-run on one file after another. Each
   program runs cold — text parsed, fresh Executor.Session — and is then
   resubmitted hot: its text interned to the same module, the session's
   caches warm. Latency runs from the program text to the histogram.
   The loop runs whole corpus patterns, so every run measures the same
   mix of program classes however far it gets. *)

open Qruntime

(* Traced-run accumulators. *)
type acc = {
  mutable parsed_bytes : float;
  mutable compile_s : float;
  mutable analysis_s : float;
  mutable exec_s : float;
  mutable batched : int;
  mutable tape : int;
  mutable per_shot : int;
  mutable fallbacks : int;
  mutable compile_hits : int;
  mutable compile_misses : int;
  mutable compile_unused : int;
  mutable tape_hits : int;
  mutable tape_misses : int;
  mutable tape_eligible : int;
  mutable shot_s_static : float;
  mutable shots_static : int;
  mutable shot_s_dynamic : float;
  mutable shots_dynamic : int;
}

let acc () =
  {
    parsed_bytes = 0.; compile_s = 0.; analysis_s = 0.; exec_s = 0.; batched = 0;
    tape = 0; per_shot = 0; fallbacks = 0; compile_hits = 0; compile_misses = 0;
    compile_unused = 0; tape_hits = 0; tape_misses = 0; tape_eligible = 0;
    shot_s_static = 0.; shots_static = 0; shot_s_dynamic = 0.; shots_dynamic = 0;
  }

let account a (p : Corpus.program) (r : Executor.shots_result) exec_s =
  a.compile_s <- a.compile_s +. r.compile_s;
  a.analysis_s <- a.analysis_s +. r.analysis_s;
  let self = exec_s -. r.compile_s -. r.analysis_s in
  a.exec_s <- a.exec_s +. exec_s;
  if r.batch_fallback then a.fallbacks <- a.fallbacks + 1;
  if r.batched then a.batched <- a.batched + 1
  else begin
    if r.tape then a.tape <- a.tape + 1 else a.per_shot <- a.per_shot + 1;
    if p.dynamic then begin
      a.shot_s_dynamic <- a.shot_s_dynamic +. self;
      a.shots_dynamic <- a.shots_dynamic + r.completed
    end
    else begin
      a.shot_s_static <- a.shot_s_static +. self;
      a.shots_static <- a.shots_static + r.completed
    end
  end

(* After a program's cold and hot runs: its session's cache counters. *)
let account_session a session m ~all_batched =
  let s = Executor.Session.cache_stats session in
  a.compile_hits <- a.compile_hits + s.compile_hits;
  a.compile_misses <- a.compile_misses + s.compile_misses;
  if all_batched && s.compile_misses > 0 then a.compile_unused <- a.compile_unused + 1;
  a.tape_hits <- a.tape_hits + s.tape_hits;
  a.tape_misses <- a.tape_misses + s.tape_misses;
  if s.tape_misses > 0 && Executor.Session.cached_tape session m <> None then
    a.tape_eligible <- a.tape_eligible + 1

(* Oracle subsets, drawn by the seed from the first corpus block, which
   every run reaches. *)
let batch_subset ~seed corpus =
  let rng = Qcircuit.Rng.create (seed + 17) in
  List.sort_uniq compare (List.init 4 (fun _ -> Qcircuit.Rng.int rng (min 20 (Array.length corpus))))

let adaptive_subset ~seed (corpus : Corpus.program array) =
  let rng = Qcircuit.Rng.create (seed + 19) in
  List.filter_map
    (fun (kind, dynamic) ->
      let pool =
        List.filter
          (fun (p : Corpus.program) -> p.kind = kind && p.dynamic = dynamic && p.width = 5)
          (Array.to_list (Array.sub corpus 0 (min 120 (Array.length corpus))))
      in
      match pool with
      | [] -> None
      | _ -> Some (List.nth pool (Qcircuit.Rng.int rng (List.length pool))).Corpus.idx)
    [ (Corpus.Mid, false); (Corpus.Feedback, false); (Corpus.Mid, true); (Corpus.Feedback, true) ]

let check_adaptive ~seed (p : Corpus.program) =
  let shots = 1024 in
  let m = Llvm_ir.Parser.parse_module p.text in
  let r =
    Executor.run_shots_resilient ~session:(Executor.Session.create ()) ~seed:(seed + p.seed)
      ~shots m
  in
  let reference = Check.reference_shots p.circuit ~shots ~seed:(seed + p.seed + 1) in
  let ok = Check.shots_exact ~shots r && Check.agree ~mid:p.width r.histogram reference in
  if not ok then Printf.eprintf "program %d disagrees with per-shot Reference runs\n%!" p.idx;
  ok

let run ~workload ~seed ~seconds ~period ~traced (corpus : Corpus.program array) =
  let n = Array.length corpus in
  let cold = Util.Samples.create () and hot = Util.Samples.create () in
  let attempted = ref 0 and failed = ref 0 and correct = ref true in
  let a = acc () in
  let kept = Hashtbl.create 8 in
  let subset = if workload = `Batch then batch_subset ~seed corpus else [] in
  let processed = ref [] in
  let one (p : Corpus.program) ~id ~session ~module_of =
    incr attempted;
    let t = Util.now () in
    match
      Trace.span "program" id (fun () ->
          let m = module_of () in
          let r, dt =
            Util.time (fun () ->
                Trace.span "executor" id (fun () ->
                    Executor.run_shots_resilient ~session ~seed:p.seed ~shots:p.shots m))
          in
          (m, r, dt))
    with
    | m, r, exec_s ->
      let lat = Util.now () -. t in
      if traced then account a p r exec_s;
      if not (Check.shots_exact ~shots:p.shots r) then begin
        incr failed;
        correct := false
      end;
      Some (m, r, lat)
    | exception e ->
      Printf.eprintf "program %d failed: %s\n%!" p.idx (Printexc.to_string e);
      incr failed;
      None
  in
  let t0 = Util.now () in
  let stop = t0 +. seconds in
  let i = ref 0 in
  while Util.now () < stop || !i mod period <> 0 do
    let p = corpus.(!i mod n) in
    let id = !i in
    incr i;
    let session = Executor.Session.create () in
    let interned = ref None in
    let parse () =
      Trace.span "parser" id (fun () ->
          let m = Llvm_ir.Parser.parse_module p.text in
          interned := Some (Digest.string p.text, m);
          m)
    in
    let intern () =
      Trace.span "intern" id (fun () ->
          let key, m = Option.get !interned in
          assert (Digest.equal key (Digest.string p.text));
          m)
    in
    match one p ~id ~session ~module_of:parse with
    | None -> ()
    | Some (m, rc, lc) -> (
      Util.Samples.add cold lc;
      if traced then a.parsed_bytes <- a.parsed_bytes +. float_of_int (String.length p.text);
      match one p ~id ~session ~module_of:intern with
      | None -> ()
      | Some (_, rh, lh) ->
        Util.Samples.add hot lh;
        if rh.histogram <> rc.histogram then begin
          Printf.eprintf "program %d: hot and cold histograms differ\n%!" p.idx;
          correct := false
        end;
        if List.mem p.idx subset && not (Hashtbl.mem kept p.idx) then
          Hashtbl.add kept p.idx rc.histogram;
        if traced then begin
          account_session a session m ~all_batched:(rc.batched && rh.batched);
          processed := (p, m, (if rc.batched then 1 else 0) + if rh.batched then 1 else 0) :: !processed
        end)
  done;
  let elapsed = Util.now () -. t0 in
  let peak_rss_mb = Util.peak_rss_mb () in
  (* Oracles, outside the timed loop. *)
  (match workload with
  | `Batch ->
    Hashtbl.iter
      (fun idx hist -> if not (Check.batch_exact corpus.(idx).circuit hist) then correct := false)
      kept;
    if Hashtbl.length kept = 0 then correct := false
  | `Adaptive ->
    List.iter
      (fun idx -> if not (check_adaptive ~seed corpus.(idx)) then correct := false)
      (adaptive_subset ~seed corpus));
  let cold = Util.ms (Util.Samples.to_array cold) and hot = Util.ms (Util.Samples.to_array hot) in
  let all = Array.append cold hot in
  let runs = float_of_int (Array.length all) in
  let end_to_end =
    [
      ("peak_rss_mb", peak_rss_mb);
      ("programs_per_s", runs /. elapsed);
      ("latency_p50_ms", Util.quantile 0.5 all);
      ("hot_p50_ms", Util.quantile 0.5 hot);
      ("cold_p50_ms", Util.quantile 0.5 cold);
    ]
  in
  let per_layer =
    if not traced then []
    else begin
      let spans = !Trace.recorded in
      let span_cost = Trace.span_cost () in
      let copy = Util.copy_bytes_per_s () in
      let probe = Probe.create () in
      List.iter
        (fun ((p : Corpus.program), m, batched_runs) ->
          Probe.parse_only probe ~parses:2 m;
          if batched_runs > 0 then
            Probe.batched probe ~weight:batched_runs ~seed:p.seed ~shots:p.shots m)
        !processed;
      let parser_s = Trace.total "parser" and intern_s = Trace.total "intern" in
      let program_s = Trace.total "program" in
      let exec_self = a.exec_s -. a.compile_s -. a.analysis_s in
      let accounted = Probe.accounted probe in
      let unattributed =
        program_s -. parser_s -. intern_s -. a.compile_s -. a.analysis_s -. accounted
      in
      [
        ("tail.latency_p90_ms", Util.quantile 0.9 all);
        ("tail.hot_p90_ms", Util.quantile 0.9 hot);
        ("tail.cold_p90_ms", Util.quantile 0.9 cold);
        ("parser.busy_s", parser_s);
        ("parser.mb_per_s", Util.ratio (a.parsed_bytes /. 1e6) parser_s);
        ("session.compile_busy_s", a.compile_s);
        ("session.compile_hit_ratio",
          Util.ratio (float_of_int a.compile_hits) (float_of_int (a.compile_hits + a.compile_misses)));
        ("session.compile_unused", float_of_int a.compile_unused);
        ("session.tape_busy_s", a.analysis_s);
        ("session.tape_hit_ratio",
          Util.ratio (float_of_int a.tape_hits) (float_of_int (a.tape_hits + a.tape_misses)));
        ("session.tape_eligible_ratio",
          Util.ratio (float_of_int a.tape_eligible) (float_of_int a.tape_misses));
        ("executor.self_s", exec_self);
        ("executor.batched_runs", float_of_int a.batched);
        ("executor.tape_runs", float_of_int a.tape);
        ("executor.per_shot_runs", float_of_int a.per_shot);
        ("executor.batch_fallbacks", float_of_int a.fallbacks);
        ("executor.shot_us_static", 1e6 *. Util.ratio a.shot_s_static (float_of_int a.shots_static));
        ("executor.shot_us_dynamic", 1e6 *. Util.ratio a.shot_s_dynamic (float_of_int a.shots_dynamic));
        ("probe.executor_coverage", Util.ratio accounted exec_self);
        ("machine.copy_bytes_per_s", copy);
        ("trace.overhead_ratio", Util.ratio (float_of_int spans *. span_cost) program_s);
        ("trace.unattributed_ratio", Util.ratio (Float.abs unattributed) program_s);
      ]
      @ Probe.metrics probe ~copy_bytes_per_s:copy
    end
  in
  {
    Util.attempted = !attempted;
    failed = !failed;
    correct = !correct;
    end_to_end;
    per_layer;
    samples = (Array.length cold, Array.length hot);
  }
