(* Thin wrapper over Bechamel: measure one thunk, return its estimated
   wall-clock cost in nanoseconds per run. *)

open Bechamel
open Toolkit

let time_ns ?(quota = 0.25) name fn =
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | [ result ] -> (
    match Analyze.OLS.estimates result with
    | Some (est :: _) -> est
    | Some [] | None -> Float.nan)
  | _ -> Float.nan

(* One wall-clock run, in seconds — for workloads too slow for the
   Bechamel quota loop (multi-second statevector sweeps). *)
let time_once fn =
  let t0 = Unix.gettimeofday () in
  fn ();
  Unix.gettimeofday () -. t0

(* Human-readable duration. *)
let pp_ns ppf ns =
  if Float.is_nan ns then Format.pp_print_string ppf "n/a"
  else if ns < 1e3 then Format.fprintf ppf "%.0f ns" ns
  else if ns < 1e6 then Format.fprintf ppf "%.1f us" (ns /. 1e3)
  else if ns < 1e9 then Format.fprintf ppf "%.2f ms" (ns /. 1e6)
  else Format.fprintf ppf "%.2f s" (ns /. 1e9)

let ns_to_string ns = Format.asprintf "%a" pp_ns ns

let section id title =
  Format.printf "@\n=== %s: %s ===@\n%!" id title

let row fmt = Format.printf fmt

(* A measurement as a BENCH file value: [v] rounded to [d] decimals,
   the precision it carries. *)
let fixed d v = Jsonx.Num (float_of_string (Printf.sprintf "%.*f" d v))

(* Write one BENCH file: the document through {!Jsonx.pretty}. *)
let write_json file doc =
  let oc = open_out file in
  output_string oc (Jsonx.pretty doc ^ "\n");
  close_out oc;
  row "  wrote %s@\n" file
