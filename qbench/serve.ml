(* serve-mix: an open loop against the multi-tenant service. Arrivals
   follow one seeded schedule fixed before the run; each is an NDJSON
   submit line that goes through Protocol.parse_request, Service.intern
   and Service.submit, and one drain loop on the same thread runs the
   queue between arrivals. Tenant "hot" (weight 3, three arrivals in
   four) resubmits one 12-qubit program; tenant "cold" sends fresh
   program text every time. Latency runs from an arrival's due time to
   its Result event, so a stall is charged to every job it delays. *)

open Qruntime
open Qservice

(* Offered load, jobs per second: about a fifth of the service's
   measured capacity on this mix. At 190 jobs/s (two fifths) the open
   loop turned every pause of the host into a queue, and even p50 moved
   by a quarter between runs of identical inputs. *)
let rate = 100.
let hot_every = 4 (* arrival k is cold iff k mod 4 = 3 *)

let config =
  {
    Service.default_config with
    max_queue = 4096;
    max_tenant_queue = 4096;
    overload_depth = 2048;
    tenant_weights = [ ("hot", 3) ];
  }

type setup = {
  hot : Corpus.program;
  cold : Corpus.program array;
  json : string array;  (** JSON-escaped program text: hot first, then cold *)
  due : float array;  (** arrival offsets, seconds *)
  svc : Service.t;
  events : (Service.event -> unit) ref;
}

let is_cold k = k mod hot_every = hot_every - 1

(* Arrival k is due at (k + 1/2 + u) / rate with u uniform in
   [-0.4, 0.4): a steady stream whose spacing still varies, so queueing
   comes from the jobs themselves rather than from bursts of arrivals. *)
let schedule ~seed ~seconds =
  let rng = Qcircuit.Rng.create (seed * 7 + 5) in
  Array.init
    (int_of_float (seconds *. rate))
    (fun k -> (float_of_int k +. 0.5 +. (0.8 *. (Qcircuit.Rng.float rng -. 0.5))) /. rate)

(* Arrival k's cold program, by index into [cold]. *)
let cold_index s k = k / hot_every mod Array.length s.cold

let program s k = if is_cold k then s.cold.(cold_index s k) else s.hot

let request s k =
  let tenant, json =
    if is_cold k then ("cold", s.json.(cold_index s k + 1)) else ("hot", s.json.(0))
  in
  let prog = program s k in
  Printf.sprintf
    "{\"op\":\"submit\",\"id\":\"%d\",\"tenant\":\"%s\",\"shots\":%d,\"seed\":%d,\"program\":%s}" k
    tenant prog.Corpus.shots (prog.Corpus.seed + k) json

(* Set-up: emit both tenants' programs, escape them into request
   bodies, create the service and warm the hot tenant with one job. *)
let setup ~seed ~seconds =
  let due = schedule ~seed ~seconds in
  let colds = (Array.length due / hot_every) + 1 in
  let hot = Corpus.serve_hot ~seed in
  let cold = Corpus.serve_cold ~seed ~count:colds in
  let json =
    Array.map
      (fun (p : Corpus.program) -> Jsonx.to_string (Jsonx.Str p.text))
      (Array.append [| hot |] cold)
  in
  let events = ref ignore in
  let svc = Service.create ~config ~emit:(fun ev -> !events ev) () in
  (match Service.intern svc ~source:hot.text with
  | Ok m -> Service.submit svc ~tenant:"hot" ~shots:hot.shots ~seed:hot.seed m
  | Error e -> failwith e.Qir_error.message);
  Service.drain svc;
  { hot; cold; json; due; svc; events }

let inputs_digest s = Corpus.digest (Array.append [| s.hot |] s.cold) ^ Printf.sprintf "/%d" (Array.length s.due)

type job = { k : int; tier : Executor.tier; hist : (string * int) list }

let run ~seed ~traced s =
  let n = Array.length s.due in
  let hot_lat = Util.Samples.create () and cold_lat = Util.Samples.create () in
  let hot_wait = Util.Samples.create () and cold_wait = Util.Samples.create () in
  let hot_run = Util.Samples.create () and cold_run = Util.Samples.create () in
  let failed = ref 0 and correct = ref true and results = ref 0 in
  let t0 = Util.now () +. 0.005 in
  let parity = ref [] in
  let checked k = (k + seed) mod (if is_cold k then 5 else 25) = 0 in
  let compile_s = ref 0. and analysis_s = ref 0. and exec_self = ref 0. in
  let compile_unused = ref 0 and fallbacks = ref 0 in
  let shot_self = ref 0. and shots_run = ref 0 in
  let tiers = Hashtbl.create 4 in
  let cold_programs = Hashtbl.create 64 in
  let last_id = ref (-1) in
  s.events :=
    (function
    | Service.Result { id; result = r; tier; wait_s; run_s; _ } ->
      let k = int_of_string id in
      last_id := k;
      let lat = Util.now () -. (t0 +. s.due.(k)) in
      incr results;
      if not (Check.shots_exact ~shots:(program s k).shots r) then begin
        incr failed;
        correct := false
      end;
      if is_cold k then begin
        Util.Samples.add cold_lat lat;
        Util.Samples.add cold_wait wait_s;
        Util.Samples.add cold_run run_s
      end
      else begin
        Util.Samples.add hot_lat lat;
        Util.Samples.add hot_wait wait_s;
        Util.Samples.add hot_run run_s
      end;
      if checked k then parity := { k; tier; hist = r.histogram } :: !parity;
      if traced then begin
        let self = run_s -. r.compile_s -. r.analysis_s in
        compile_s := !compile_s +. r.compile_s;
        analysis_s := !analysis_s +. r.analysis_s;
        exec_self := !exec_self +. self;
        if r.batch_fallback then incr fallbacks;
        Hashtbl.replace tiers tier (1 + Option.value ~default:0 (Hashtbl.find_opt tiers tier));
        if tier = `Batched && r.compile_s > 0. then incr compile_unused;
        if tier <> `Batched then begin
          shot_self := !shot_self +. self;
          shots_run := !shots_run + r.completed
        end;
        if is_cold k then Hashtbl.replace cold_programs (cold_index s k) tier
      end
    | Service.Rejected { id; error; _ } | Service.Failed { id; error; _ } ->
      Printf.eprintf "job %s: %s\n%!" id error.Qir_error.message;
      last_id := int_of_string id;
      incr failed
    | Service.Accepted _ | Service.Progress _ -> ());
  let session = Service.session s.svc in
  let stats0 = Executor.Session.cache_stats session in
  let busy = ref 0. and idle = ref 0. and max_late = ref 0. and depth_max = ref 0 in
  let protocol_s = ref 0. and intern_s = ref 0. and submit_s = ref 0. and run_s = ref 0. in
  let cert_s = ref 0. and cert_calls = ref 0 and cert_hits = ref 0 in
  let parse_s = ref 0. and parse_bytes = ref 0. in
  let timed acc name id f =
    let v, dt = Util.time (fun () -> Trace.span name id f) in
    acc := !acc +. dt;
    busy := !busy +. dt;
    v
  in
  let submit k =
    let line = request s k in
    max_late := Float.max !max_late (Util.now () -. (t0 +. s.due.(k)));
    match timed protocol_s "protocol" k (fun () -> Protocol.parse_request line) with
    | Ok (Protocol.Submit { id; tenant; program = `Inline source; shots; seed; _ }) -> (
      let before = !intern_s in
      match timed intern_s "intern" k (fun () -> Service.intern s.svc ~source) with
      | Ok m ->
        if is_cold k then begin
          parse_s := !parse_s +. (!intern_s -. before);
          parse_bytes := !parse_bytes +. float_of_int (String.length source)
        end;
        if traced then begin
          let _, _, hit = timed cert_s "cert" k (fun () -> Executor.Session.cert_of session m) in
          incr cert_calls;
          if hit then incr cert_hits
        end;
        timed submit_s "submit" k (fun () -> Service.submit s.svc ~tenant ?id ~shots ~seed m);
        depth_max := max !depth_max (Service.queue_depth s.svc)
      | Error e ->
        Printf.eprintf "job %d: %s\n%!" k e.Qir_error.message;
        incr failed)
    | _ ->
      Printf.eprintf "job %d: request did not parse as an inline submit\n%!" k;
      incr failed
  in
  let next = ref 0 in
  let due () = !next < n && t0 +. s.due.(!next) <= Util.now () in
  let stop = ref false in
  while not !stop do
    if due () then
      while due () do
        submit !next;
        incr next
      done
    else if Service.queue_depth s.svc > 0 then begin
      (* The job's id is known only from the event run_once emits. *)
      let start = Util.now () in
      ignore (Service.run_once s.svc);
      let finish = Util.now () in
      run_s := !run_s +. (finish -. start);
      busy := !busy +. (finish -. start);
      if traced then Trace.record "run" !last_id start finish
    end
    else if !next >= n then stop := true
    else begin
      let t = Util.now () in
      let wait = t0 +. s.due.(!next) -. t in
      if wait > 0.0005 then Unix.sleepf (wait -. 0.0003);
      idle := !idle +. (Util.now () -. t)
    end
  done;
  let elapsed = Util.now () -. t0 in
  let peak_rss_mb = Util.peak_rss_mb () in
  let st = Service.stats s.svc in
  (* Oracles, outside the timed loop: every shot count exact, every job
     answered, and a seeded subset bit-identical to a direct run at the
     tier the job ran under. *)
  if !results + !failed <> n then correct := false;
  List.iter
    (fun j ->
      let p = program s j.k in
      let m = Llvm_ir.Parser.parse_module p.text in
      let direct =
        Executor.run_shots_resilient ~session:(Executor.Session.create ()) ~seed:(p.seed + j.k)
          ~max_tier:j.tier ~shots:p.shots m
      in
      if direct.histogram <> j.hist then begin
        Printf.eprintf "job %d: histogram differs from a direct run\n%!" j.k;
        correct := false
      end)
    !parity;
  let ms xs = Util.ms (Util.Samples.to_array xs) in
  let hot_ms = ms hot_lat and cold_ms = ms cold_lat in
  let all = Array.append hot_ms cold_ms in
  let completed = float_of_int !results in
  let end_to_end =
    [
      ("peak_rss_mb", peak_rss_mb);
      ("programs_per_s", Util.ratio completed !busy);
      ("latency_p50_ms", Util.quantile 0.5 all);
      ("hot_p50_ms", Util.quantile 0.5 hot_ms);
      ("cold_p50_ms", Util.quantile 0.5 cold_ms);
    ]
  in
  let per_layer =
    if not traced then []
    else begin
      let spans = !Trace.recorded in
      let span_cost = Trace.span_cost () in
      let copy = Util.copy_bytes_per_s () in
      let stats1 = Executor.Session.cache_stats session in
      let d f = float_of_int (f stats1 - f stats0) in
      let hit_ratio hits misses = Util.ratio (d hits) (d hits +. d misses) in
      let tier t = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tiers t)) in
      (* Probe: the hot program once per batched hot job (median of five
         probes), every batched cold program once; every job pays one
         QIR-to-circuit parse, batched ones a second. *)
      let probe = Probe.create () in
      let hot_m = Llvm_ir.Parser.parse_module s.hot.text in
      let hot_jobs = Util.Samples.length hot_lat in
      let hot_probes =
        Array.init 5 (fun _ ->
            let one = Probe.create () in
            Probe.parse_only one ~parses:2 hot_m;
            Probe.batched one ~weight:1 ~seed:s.hot.seed ~shots:s.hot.shots hot_m;
            one)
      in
      Array.sort (fun x y -> compare (Probe.accounted x) (Probe.accounted y)) hot_probes;
      Probe.add probe ~weight:(float_of_int hot_jobs) hot_probes.(2);
      Hashtbl.iter
        (fun c tier ->
          let p = s.cold.(c) in
          let m = Llvm_ir.Parser.parse_module p.text in
          if tier = `Batched then begin
            Probe.parse_only probe ~parses:2 m;
            Probe.batched probe ~weight:1 ~seed:p.seed ~shots:p.shots m
          end
          else Probe.parse_only probe ~parses:1 m)
        cold_programs;
      let named = !protocol_s +. !intern_s +. !cert_s +. !submit_s +. !run_s in
      let loop_busy = elapsed -. !idle in
      let hot_cost = Service.served_cost_of s.svc "hot" and cold_cost = Service.served_cost_of s.svc "cold" in
      let ms1 q xs = 1000. *. Util.quantile q (Util.Samples.to_array xs) in
      [
        ("tail.latency_p90_ms", Util.quantile 0.9 all);
        ("tail.hot_p90_ms", Util.quantile 0.9 hot_ms);
        ("tail.cold_p90_ms", Util.quantile 0.9 cold_ms);
        ("parser.busy_s", !parse_s);
        ("parser.mb_per_s", Util.ratio (!parse_bytes /. 1e6) !parse_s);
        ("session.compile_busy_s", !compile_s);
        ("session.compile_hit_ratio",
          hit_ratio (fun (c : Executor.Session.cache_stats) -> c.compile_hits) (fun c -> c.compile_misses));
        ("session.compile_unused", float_of_int !compile_unused);
        ("session.cert_busy_s", !cert_s);
        ("session.cert_hit_ratio", Util.ratio (float_of_int !cert_hits) (float_of_int !cert_calls));
        ("session.tape_busy_s", !analysis_s);
        ("session.tape_hit_ratio", hit_ratio (fun c -> c.tape_hits) (fun c -> c.tape_misses));
        ("session.tape_eligible_ratio", Util.ratio (tier `Tape) (tier `Tape +. tier `Per_shot));
        ("executor.self_s", !exec_self);
        ("executor.batched_runs", tier `Batched);
        ("executor.tape_runs", tier `Tape);
        ("executor.per_shot_runs", tier `Per_shot);
        ("executor.batch_fallbacks", float_of_int !fallbacks);
        ("executor.shot_us_static", 1e6 *. Util.ratio !shot_self (float_of_int !shots_run));
        ("probe.executor_coverage", Util.ratio (Probe.accounted probe) !exec_self);
        ("machine.copy_bytes_per_s", copy);
        ("protocol.busy_s", !protocol_s);
        ("service.intern_busy_s", !intern_s);
        ("service.submit_busy_s", !submit_s);
        ("service.run_busy_s", !run_s);
        ("service.utilization", Util.ratio !busy elapsed);
        ("service.queue_depth_max", float_of_int !depth_max);
        ("service.hot_wait_p50_ms", ms1 0.5 hot_wait);
        ("service.hot_wait_p90_ms", ms1 0.9 hot_wait);
        ("service.cold_wait_p90_ms", ms1 0.9 cold_wait);
        ("service.hot_run_p50_ms", ms1 0.5 hot_run);
        ("service.cold_run_p50_ms", ms1 0.5 cold_run);
        ("service.tier_batched", float_of_int st.batched_runs);
        ("service.tier_tape", float_of_int st.tape_runs);
        ("service.tier_per_shot", float_of_int st.per_shot_runs);
        ("service.throttled_runs", float_of_int st.throttled_runs);
        ("service.shed", float_of_int st.shed);
        ("service.rejected", float_of_int st.rejected);
        ("service.degraded_results", float_of_int st.degraded_results);
        ("scheduler.hot_share", Util.ratio hot_cost (hot_cost +. cold_cost));
        ("loadgen.max_late_ms", 1000. *. !max_late);
        ("trace.overhead_ratio", Util.ratio (float_of_int spans *. span_cost) loop_busy);
        ("trace.unattributed_ratio", Util.ratio (Float.abs (loop_busy -. named)) loop_busy);
      ]
      @ Probe.metrics probe ~copy_bytes_per_s:copy
    end
  in
  {
    Util.attempted = n;
    failed = !failed;
    correct = !correct;
    end_to_end;
    per_layer;
    samples = (Util.Samples.length cold_lat, Util.Samples.length hot_lat);
  }
