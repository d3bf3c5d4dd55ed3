(* In-memory span recorder for the traced run. Spans are taken from the
   benchmark's side of each layer boundary: name, start, end and the id
   of the program or job they belong to. Totals per span name are kept
   as the spans arrive; the spans themselves are written out at the end
   in Chrome trace-event shape. When disabled, [span] is a direct call. *)

type span = { name : string; id : int; start : float; stop : float }

let enabled = ref false
let spans : span list ref = ref []
let recorded = ref 0
let totals : (string, float ref) Hashtbl.t = Hashtbl.create 16

let record name id start stop =
  spans := { name; id; start; stop } :: !spans;
  incr recorded;
  match Hashtbl.find_opt totals name with
  | Some r -> r := !r +. (stop -. start)
  | None -> Hashtbl.add totals name (ref (stop -. start))

let span name id f =
  if not !enabled then f ()
  else begin
    let start = Util.now () in
    match f () with
    | v ->
      record name id start (Util.now ());
      v
    | exception e ->
      record name id start (Util.now ());
      raise e
  end

let total name =
  match Hashtbl.find_opt totals name with Some r -> !r | None -> 0.

(* Seconds one recorded span costs the traced loop: two clock reads and
   the bookkeeping, measured on a throwaway span name. *)
let span_cost () =
  let saved = (!spans, !recorded, Hashtbl.copy totals) in
  let n = 20_000 in
  let (), dt =
    Util.time (fun () ->
        for i = 1 to n do
          span "calibrate" i ignore
        done)
  in
  let s, r, t = saved in
  spans := s;
  recorded := r;
  Hashtbl.reset totals;
  Hashtbl.iter (Hashtbl.add totals) t;
  dt /. float_of_int n

let write_chrome path =
  let oc = open_out path in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d}}"
        (if i = 0 then "" else ",")
        s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc
