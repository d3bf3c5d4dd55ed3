(* Clock, order statistics and process facts shared by the workloads. *)

let now = Qruntime.Resilience.Deadline.now

(* What one workload run reports: its failure accounting, whether every
   output check passed, its metrics, and its cold and hot sample counts. *)
type result = {
  attempted : int;
  failed : int;
  correct : bool;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
  samples : int * int;
}

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linearly interpolated quantile, [q] in [0, 1]; 0 for no samples. *)
let quantile q xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let ratio a b = if b = 0. then 0. else a /. b
let ms xs = Array.map (fun s -> 1000. *. s) xs

(* Growable float buffer: latencies are appended in the timed loop. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let length t = t.len
end

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* A Bigarray copy bandwidth: bytes read plus bytes written per second
   of [Bigarray.Array1.blit] over two 8 MiB float64 arrays, best of
   five rounds. The reference the statevector kernels are held to. *)
let copy_bytes_per_s () =
  let open Bigarray in
  let n = 1 lsl 20 in
  let a = Array1.create float64 c_layout n and b = Array1.create float64 c_layout n in
  Array1.fill a 1.0;
  Array1.fill b 0.0;
  let reps = 20 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let (), dt =
      time (fun () ->
          for i = 1 to reps do
            if i land 1 = 0 then Array1.blit a b else Array1.blit b a
          done)
    in
    best := Float.min !best dt
  done;
  float_of_int (2 * 8 * n * reps) /. !best
