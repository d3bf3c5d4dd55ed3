(* qir-serve — the multi-tenant QIR execution service (Qservice) as a
   long-running daemon.

   Two transports, one protocol (newline-delimited JSON requests in,
   events out; see lib/service/protocol.ml):

   - batch mode (default): read requests from FILE or stdin. Submits
     are admitted as they are read (accepted/rejected events stream
     immediately), execution is deferred until every request is in so
     the weighted fair scheduler actually has a queue to arbitrate,
     then the queue drains (progress/result/failed events) and any
     "stats" request reports the post-drain totals. Deterministic, so
     the cram tests drive this mode.

   - --socket PATH: a Unix-domain-socket daemon. Each connection gets
     a reader thread; --executors N Domains drain the shared queue
     concurrently (the service core is Domain-safe) and events route
     back to the connection that submitted the job. Runs until killed.

   Exit codes: 0 ok, 7 usage. Per-job failures never kill the daemon —
   they are events on the wire carrying the taxonomy (rejections are
   kind=overload, exit_code 8). *)

open Cmdliner

let usage_die fmt = Cli_common.die ~code:Qruntime.Qir_error.exit_usage fmt

(* ------------------------------------------------------------------ *)
(* Request handling shared by both transports                           *)

type sink = { mutable write : string -> unit }

let handle_submit service ~(out : sink) ~id ~tenant ~program ~shots ~seed
    ~backend ~timeout =
  let source =
    match program with
    | `Inline text -> Ok text
    | `File path -> (
      try Ok (Cli_common.read_file path)
      with Sys_error msg ->
        Error
          (Qruntime.Qir_error.make ~kind:Qruntime.Qir_error.Usage
             ~layer:Qruntime.Qir_error.L_service msg))
  in
  match
    Result.bind source (fun src -> Qservice.Service.intern service ~source:src)
  with
  | Error e ->
    out.write
      (Qservice.Protocol.event_line
         (Qservice.Service.Rejected
            {
              id = Option.value ~default:"?" id;
              tenant;
              error = e;
              shed = false;
            }))
  | Ok m ->
    Qservice.Service.submit service ~tenant ?id ~shots ~seed ~backend ?timeout
      m

let handle_line service ~out ~route line =
  match String.trim line with
  | "" -> `Continue
  | line -> (
    match Qservice.Protocol.parse_request line with
    | Error e ->
      out.write (Qservice.Protocol.error_line e);
      `Continue
    | Ok Qservice.Protocol.Quit -> `Quit
    | Ok Qservice.Protocol.Stats -> `Stats
    | Ok
        (Qservice.Protocol.Submit
           { id; tenant; program; shots; seed; backend; timeout }) ->
      let id = route ~requested:id in
      handle_submit service ~out ~id ~tenant ~program ~shots ~seed ~backend
        ~timeout;
      `Continue)

(* ------------------------------------------------------------------ *)
(* Batch mode                                                           *)

let run_batch config ~executors input =
  let out = { write = (fun line -> print_string line; print_newline ()) } in
  let service =
    Qservice.Service.create ~config
      ~emit:(fun ev -> out.write (Qservice.Protocol.event_line ev))
      ()
  in
  let ic =
    if String.equal input "-" then In_channel.stdin
    else
      try In_channel.open_text input
      with Sys_error msg -> usage_die "%s" msg
  in
  let want_stats = ref false in
  (try
     let quit = ref false in
     while not !quit do
       match In_channel.input_line ic with
       | None -> quit := true
       | Some line -> (
         match
           handle_line service ~out ~route:(fun ~requested -> requested) line
         with
         | `Quit -> quit := true
         | `Stats -> want_stats := true
         | `Continue -> ())
     done
   with e ->
     if not (String.equal input "-") then In_channel.close ic;
     raise e);
  if not (String.equal input "-") then In_channel.close ic;
  Qservice.Service.drain_parallel ~executors service;
  if !want_stats then
    out.write (Qservice.Protocol.stats_line (Qservice.Service.stats service))

(* ------------------------------------------------------------------ *)
(* Socket daemon                                                        *)

let run_socket config ~executors path =
  (* The service core is internally Domain-safe; this lock only guards
     the daemon's own routing table. *)
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  (* job id -> the connection sink that submitted it; ids are made
     unique server-side so routing cannot be confused by clients
     reusing ids across connections. *)
  let routes : (string, sink) Hashtbl.t = Hashtbl.create 32 in
  let next_id = ref 0 in
  let dead = { write = (fun _ -> ()) } in
  let sink_of id =
    locked (fun () ->
        Option.value ~default:dead (Hashtbl.find_opt routes id))
  in
  let emit ev =
    let deliver id line =
      (* a vanished client must not kill the executor thread *)
      try (sink_of id).write line with Sys_error _ | Unix.Unix_error _ -> ()
    in
    let line = Qservice.Protocol.event_line ev in
    match ev with
    | Qservice.Service.Accepted { id; _ } | Qservice.Service.Progress { id; _ }
      ->
      deliver id line
    | Qservice.Service.Rejected { id; _ } ->
      deliver id line;
      locked (fun () -> Hashtbl.remove routes id)
    | Qservice.Service.Result { id; _ } | Qservice.Service.Failed { id; _ } ->
      deliver id line;
      locked (fun () -> Hashtbl.remove routes id)
  in
  let service = Qservice.Service.create ~config ~emit () in
  (* one drain loop per executor Domain, all claiming from the shared
     fair queue; idle loops back off so an empty daemon costs nothing *)
  let _executors =
    Array.init executors (fun _ ->
        Domain.spawn (fun () ->
            while true do
              if not (Qservice.Service.run_once service) then
                Thread.delay 0.01
            done))
  in
  let serve_conn fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let out_lock = Mutex.create () in
    let out =
      {
        write =
          (fun line ->
            Mutex.lock out_lock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock out_lock)
              (fun () ->
                output_string oc line;
                output_char oc '\n';
                flush oc));
      }
    in
    let route ~requested =
      locked (fun () ->
          incr next_id;
          let id =
            match requested with
            | Some id -> Printf.sprintf "%s#%d" id !next_id
            | None -> Printf.sprintf "job-%d" !next_id
          in
          Hashtbl.replace routes id out;
          Some id)
    in
    let quit = ref false in
    (try
       while not !quit do
         match In_channel.input_line ic with
         | None -> quit := true
         | Some line -> (
           match handle_line service ~out ~route line with
           | `Quit -> quit := true
           | `Stats ->
             out.write
               (Qservice.Protocol.stats_line (Qservice.Service.stats service))
           | `Continue -> ())
       done
     with Sys_error _ | Unix.Unix_error _ | End_of_file -> ());
    out.write <- (fun _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  if Sys.file_exists path then Unix.unlink path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  Printf.eprintf "qir-serve: listening on %s\n%!" path;
  while true do
    let fd, _ = Unix.accept sock in
    ignore (Thread.create serve_conn fd)
  done

(* ------------------------------------------------------------------ *)
(* CLI                                                                  *)

let bytes_conv : int Arg.conv =
  let parse s =
    let num, unit_ =
      let i = ref 0 in
      while
        !i < String.length s
        && (match s.[!i] with '0' .. '9' -> true | _ -> false)
      do
        incr i
      done;
      (String.sub s 0 !i, String.sub s !i (String.length s - !i))
    in
    match
      ( int_of_string_opt num,
        match String.lowercase_ascii unit_ with
        | "" | "b" -> Some 1
        | "k" | "kib" -> Some 1024
        | "m" | "mib" -> Some (1024 * 1024)
        | "g" | "gib" -> Some (1024 * 1024 * 1024)
        | _ -> None )
    with
    | Some n, Some scale when n >= 0 -> Ok (n * scale)
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad size %S (expected e.g. 1048576, 64K, 256MiB, 16GiB)" s))
  in
  let print ppf bytes =
    Format.pp_print_string ppf (Qservice.Admission.bytes_to_string bytes)
  in
  Arg.conv (parse, print)

let weight_conv : (string * int) Arg.conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i -> (
      let tenant = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some w when w >= 1 && tenant <> "" -> Ok (tenant, w)
      | _ -> Error (`Msg (Printf.sprintf "bad weight %S (expected TENANT=N)" s)))
    | None -> Error (`Msg (Printf.sprintf "bad weight %S (expected TENANT=N)" s))
  in
  let print ppf (t, w) = Format.fprintf ppf "%s=%d" t w in
  Arg.conv (parse, print)

let serve input socket mem_budget max_queue max_tenant_queue max_shots timeout
    retries breaker_threshold breaker_cooldown overload_depth chunk weights
    no_sleep executors domains local_bits =
  Cli_common.protect @@ fun () ->
  if max_queue < 1 then usage_die "--max-queue: need at least 1";
  if overload_depth < 1 then usage_die "--overload-depth: need at least 1";
  if chunk < 1 then usage_die "--chunk: need at least 1";
  if executors < 1 then usage_die "--executors: need at least 1";
  Option.iter
    (fun n ->
      if n < 1 then usage_die "--domains: need at least one domain";
      Qsim.Dpool.set_domains n)
    domains;
  Option.iter
    (fun b ->
      if b < 1 || b > Qsim.Statevector.max_qubits then
        usage_die "--local-bits: expected 1..%d" Qsim.Statevector.max_qubits;
      Qsim.Statevector.set_max_local_bits b)
    local_bits;
  let config =
    {
      Qservice.Service.default_config with
      Qservice.Service.mem_budget;
      max_queue;
      max_tenant_queue;
      max_shots;
      default_timeout = timeout;
      retries;
      breaker_threshold;
      breaker_cooldown;
      overload_depth;
      chunk;
      tenant_weights = weights;
      sleep = not no_sleep;
    }
  in
  match socket with
  | Some path -> run_socket config ~executors path
  | None -> run_batch config ~executors input

let input =
  Arg.(value & pos 0 string "-" & info [] ~docv:"REQUESTS.ndjson"
         ~doc:"Batch-mode input: newline-delimited JSON requests ('-' for \
               stdin). Ignored under --socket.")

let socket =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on a Unix domain socket at PATH instead of running \
               one stdin batch; one connection per client, events routed \
               back to the submitting connection.")

let mem_budget =
  Arg.(value & opt bytes_conv (1 lsl 34) & info [ "mem-budget" ] ~docv:"SIZE"
         ~doc:"Admission memory budget per job (default 16GiB, the \
               30-qubit statevector): jobs whose simulator footprint \
               exceeds SIZE are rejected fast with kind=overload \
               (exit code 8), before touching the simulator.")

let max_queue =
  Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N"
         ~doc:"Global queued-job ceiling; beyond it, load is shed \
               cache-coldest-first.")

let max_tenant_queue =
  Arg.(value & opt int 32 & info [ "max-tenant-queue" ] ~docv:"N"
         ~doc:"Per-tenant queued-job quota.")

let max_shots =
  Arg.(value & opt int 1_000_000 & info [ "max-shots" ] ~docv:"N"
         ~doc:"Per-job shot quota.")

let timeout =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC"
         ~doc:"Default per-job wall-clock budget (queue wait included). A \
               job whose budget expires mid-run streams the completed \
               shots as a degraded partial result.")

let retries =
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Retries per shot for transient backend faults.")

let breaker_threshold =
  Arg.(value & opt int 5 & info [ "breaker-threshold" ] ~docv:"N"
         ~doc:"Consecutive backend/exec job failures that trip a \
               tenant's circuit breaker open.")

let breaker_cooldown =
  Arg.(value & opt float 1.0 & info [ "breaker-cooldown" ] ~docv:"SEC"
         ~doc:"Seconds a tripped breaker stays open before admitting a \
               half-open probe job.")

let overload_depth =
  Arg.(value & opt int 8 & info [ "overload-depth" ] ~docv:"N"
         ~doc:"Queue depth at which graceful degradation starts: at N the \
               executor tier is capped at gate-tape replay; at 2N cold \
               jobs drop to per-shot interpretation and the Domain pool \
               is throttled to sequential sweeps.")

let chunk =
  Arg.(value & opt int 64 & info [ "chunk" ] ~docv:"SHOTS"
         ~doc:"Tape and per-shot jobs emit a progress event every SHOTS \
               completed shots (a quarter of that under critical load).")

let weights =
  Arg.(value & opt_all weight_conv [] & info [ "weight" ] ~docv:"TENANT=N"
         ~doc:"Fair-share weight for a tenant (repeatable; default 1). \
               Weight 2 receives twice the scheduling share of weight 1 \
               while both are backlogged.")

let no_sleep =
  Arg.(value & flag & info [ "no-backoff-sleep" ]
         ~doc:"Do not actually wait out retry backoff delays (test \
               harnesses only).")

let executors =
  Arg.(value & opt int 1 & info [ "executors" ] ~docv:"N"
         ~doc:"Drain loops (Domains) executing jobs concurrently against \
               the shared session. Per-job results are seed-determined, \
               so N > 1 changes throughput and event interleaving, never \
               histograms.")

let domains =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
         ~doc:"Domains for the simulator kernel pool (default: \
               QIR_SIM_DOMAINS or the detected core count).")

let local_bits =
  Arg.(value & opt (some int) None & info [ "local-bits" ] ~docv:"BITS"
         ~doc:"Statevector shard granularity: each shard holds 2^BITS \
               amplitudes (default: QIR_SIM_LOCAL_BITS or 24).")

let cmd =
  let doc = "serve QIR programs to concurrent tenants over a job queue" in
  Cmd.v
    (Cmd.info "qir-serve" ~doc)
    Term.(
      const serve $ input $ socket $ mem_budget $ max_queue $ max_tenant_queue
      $ max_shots $ timeout $ retries $ breaker_threshold $ breaker_cooldown
      $ overload_depth $ chunk $ weights $ no_sleep $ executors $ domains
      $ local_bits)

let () = exit (Cmd.eval cmd)
