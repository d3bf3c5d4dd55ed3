(* The newline-delimited JSON protocol qir-serve speaks: one request
   per input line, one event per output line. Both the Unix-socket
   daemon and the stdin batch mode reuse this module, so a protocol
   bug cannot diverge between transports.

   Requests:
     {"op":"submit","tenant":"alice","program":"<QIR text>", ...}
     {"op":"submit","tenant":"alice","file":"bell.ll", ...}
       optional: "id" (a string), "shots" and "seed" (integers),
       "backend" ("statevector" | "stabilizer" | "faulty:<spec>"),
       "timeout" (finite seconds >= 0); a known key of the wrong type
       is a usage error, unknown keys are ignored
     {"op":"stats"}
     {"op":"quit"}

   Events (all carry "event"): accepted, rejected, progress, result,
   failed, stats, error — rejections and failures embed the error
   taxonomy (kind, layer, exit_code, message), so a protocol client
   sees exactly the codes the CLIs exit with. *)

open Qruntime

type request =
  | Submit of {
      id : string option;
      tenant : string;
      program : [ `Inline of string | `File of string ];
      shots : int;
      seed : int;
      backend : Executor.backend_kind;
      timeout : float option;
    }
  | Stats
  | Quit

let usage message =
  Qir_error.make ~kind:Qir_error.Usage ~layer:Qir_error.L_service message

let parse_backend = function
  | "statevector" -> Ok `Statevector
  | "stabilizer" -> Ok `Stabilizer
  | s when String.length s > 7 && String.sub s 0 7 = "faulty:" -> (
    match Qsim.Faulty.spec_of_string (String.sub s 7 (String.length s - 7)) with
    | Ok spec -> Ok (`Faulty spec)
    | Error msg -> Error (usage (Printf.sprintf "bad faulty backend spec: %s" msg)))
  | s -> Error (usage (Printf.sprintf "unknown backend %S" s))

(* An optional field: absent is [None]; present but not what [decode]
   accepts is the client's error, never a silent default. *)
let field key ~what decode v =
  match Jsonx.member key v with
  | None -> Ok None
  | Some x -> (
    match decode x with
    | Some y -> Ok (Some y)
    | None -> Error (usage (Printf.sprintf "%S must be %s" key what)))

let str_field key v = field key ~what:"a string" Jsonx.str_opt v

let int_field key ~default v =
  Result.map
    (Option.value ~default)
    (field key ~what:"an integer of magnitude at most 2^53" Jsonx.int_opt v)

let timeout_of x =
  match Jsonx.num_opt x with
  | Some t when Float.is_finite t && t >= 0.0 -> Some t
  | _ -> None

(* [parse_request line] decodes one protocol line. Errors are
   [Usage]-kind taxonomy values: a malformed request is the client's
   bug, reported on the same stable codes as everything else. *)
let parse_request line : (request, Qir_error.t) result =
  match Jsonx.parse line with
  | Error msg -> Error (usage (Printf.sprintf "bad request JSON: %s" msg))
  | Ok v -> (
    match Jsonx.mem_str "op" v with
    | None -> Error (usage "request needs an \"op\" field")
    | Some "stats" -> Ok Stats
    | Some "quit" -> Ok Quit
    | Some "submit" -> (
      let ( let* ) = Result.bind in
      let* tenant =
        match Jsonx.mem_str "tenant" v with
        | Some t when t <> "" -> Ok t
        | _ -> Error (usage "submit needs a non-empty \"tenant\" field")
      in
      let* inline = str_field "program" v in
      let* file = str_field "file" v in
      let* program =
        match (inline, file) with
        | Some p, None -> Ok (`Inline p)
        | None, Some f -> Ok (`File f)
        | Some _, Some _ ->
          Error (usage "submit takes \"program\" or \"file\", not both")
        | None, None ->
          Error (usage "submit needs a \"program\" or \"file\" field")
      in
      let* backend = str_field "backend" v in
      let* backend =
        match backend with
        | None -> Ok `Statevector
        | Some s -> parse_backend s
      in
      let* shots = int_field "shots" ~default:1 v in
      let* seed = int_field "seed" ~default:1 v in
      let* id = str_field "id" v in
      let* timeout =
        field "timeout" ~what:"a finite number of seconds >= 0" timeout_of v
      in
      Ok (Submit { id; tenant; program; shots; seed; backend; timeout }))
    | Some op -> Error (usage (Printf.sprintf "unknown op %S" op)))

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let error_fields (e : Qir_error.t) =
  [
    ("kind", Jsonx.Str (Qir_error.kind_name e.Qir_error.kind));
    ("layer", Jsonx.Str (Qir_error.layer_name e.Qir_error.layer));
    ("exit_code", Jsonx.int (Qir_error.exit_code e));
    ("message", Jsonx.Str e.Qir_error.message);
  ]

let histogram_json hist =
  Jsonx.Obj (List.map (fun (k, n) -> (k, Jsonx.int n)) hist)

let event_json (ev : Service.event) =
  let base event id tenant rest =
    Jsonx.Obj
      (("event", Jsonx.Str event)
      :: ("id", Jsonx.Str id)
      :: ("tenant", Jsonx.Str tenant)
      :: rest)
  in
  match ev with
  | Service.Accepted { id; tenant; note } ->
    base "accepted" id tenant
      (match note with None -> [] | Some s -> [ ("note", Jsonx.Str s) ])
  | Service.Rejected { id; tenant; error; shed } ->
    base "rejected" id tenant (("shed", Jsonx.Bool shed) :: error_fields error)
  | Service.Progress { id; tenant; completed; requested } ->
    base "progress" id tenant
      [ ("completed", Jsonx.int completed); ("requested", Jsonx.int requested) ]
  | Service.Result { id; tenant; result = r; tier; wait_s; run_s } ->
    base "result" id tenant
      ((("tier", Jsonx.Str (Executor.tier_name tier))
       :: Executor.shots_result_fields r)
      @ [
          ("wait_s", Jsonx.Num wait_s);
          ("run_s", Jsonx.Num run_s);
          ("histogram", histogram_json r.Executor.histogram);
        ])
  | Service.Failed { id; tenant; error } ->
    base "failed" id tenant (error_fields error)

let stats_json (s : Service.stats) =
  let n name v = (name, Jsonx.int v) in
  Jsonx.Obj
    ([
       ("event", Jsonx.Str "stats");
       n "submitted" s.Service.submitted;
       n "accepted" s.Service.accepted;
       n "rejected" s.Service.rejected;
       n "shed" s.Service.shed;
       n "completed" s.Service.completed;
       n "failed" s.Service.failed;
       n "degraded_results" s.Service.degraded_results;
       n "batched_runs" s.Service.batched_runs;
       n "tape_runs" s.Service.tape_runs;
       n "per_shot_runs" s.Service.per_shot_runs;
       n "throttled_runs" s.Service.throttled_runs;
       n "breaker_trips" s.Service.breaker_trips;
       n "queue_depth" s.Service.queue_depth;
     ]
    @ Executor.Session.cache_stats_fields s.Service.cache)

(* A protocol-level error (unparsable line, missing field) as an event
   line of its own, tied to no job. *)
let error_json (e : Qir_error.t) =
  Jsonx.Obj (("event", Jsonx.Str "error") :: error_fields e)

let event_line ev = Jsonx.to_string (event_json ev)
let stats_line s = Jsonx.to_string (stats_json s)
let error_line e = Jsonx.to_string (error_json e)
