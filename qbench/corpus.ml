(* Seeded program corpora for the three workloads. The shape of each
   corpus — widths, gate counts, program classes and their order — is a
   fixed interleaved pattern, so every whole pattern the timed loop runs
   has the same mix whatever the seed; the seed draws the gates themselves,
   the mid-circuit measurement sites and the execution seeds. Set-up
   emits every program as QIR text through Qir_builder and Printer. *)

open Qcircuit

type kind = Terminal | Mid | Feedback

type program = {
  idx : int;
  circuit : Circuit.t;  (** with its measurements *)
  text : string;  (** emitted QIR *)
  width : int;
  dynamic : bool;
  kind : kind;
  shots : int;
  seed : int;  (** execution seed *)
}

(* [interleave quotas] spreads [(item, count)] groups evenly over one
   block: the j-th of [count] items sits at fraction (j + 1/2) / count. *)
let interleave quotas =
  List.concat_map
    (fun (item, count) ->
      List.init count (fun j ->
          ((float_of_int j +. 0.5) /. float_of_int count, item)))
    quotas
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd |> Array.of_list

(* The j-th gate count of a class, spread over [lo, hi] by the golden
   ratio sequence. *)
let spread ~lo ~hi j =
  let frac = Float.rem (float_of_int (j + 1) *. 0.6180339887498949) 1.0 in
  lo + int_of_float (frac *. float_of_int (hi - lo + 1))

let measure_all n = List.init n (fun q -> Circuit.measure q q)

(* [gates] random gates over [width] qubits with a fixed mix — three in
   ten two-qubit (CX, CZ, CP), half the rest parametric rotations — so
   programs of one class differ in gate order, operands and angles, not
   in what their gates cost. *)
let random_gates rng ~width ~gates =
  let angle () = Rng.float rng *. 2.0 *. Float.pi in
  let mix =
    [| `H; `Cx; `Rz; `T; `Cz; `Ry; `S; `Cp; `Rx; `X |]
  in
  let kinds = Array.init gates (fun i -> mix.(i mod Array.length mix)) in
  for i = gates - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let k = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- k
  done;
  Array.to_list
    (Array.map
       (fun kind ->
         let q = Rng.int rng width in
         let pair g = Circuit.gate g [ q; (q + 1 + Rng.int rng (width - 1)) mod width ] in
         match kind with
         | `H -> Circuit.gate Gate.H [ q ]
         | `T -> Circuit.gate Gate.T [ q ]
         | `S -> Circuit.gate Gate.S [ q ]
         | `X -> Circuit.gate Gate.X [ q ]
         | `Rx -> Circuit.gate (Gate.Rx (angle ())) [ q ]
         | `Ry -> Circuit.gate (Gate.Ry (angle ())) [ q ]
         | `Rz -> Circuit.gate (Gate.Rz (angle ())) [ q ]
         | `Cx -> pair Gate.Cx
         | `Cz -> pair Gate.Cz
         | `Cp -> pair (Gate.Cp (angle ())))
       kinds)

let terminal rng ~width ~gates =
  Circuit.create ~num_qubits:width ~num_clbits:width
    (random_gates rng ~width ~gates @ measure_all width)

(* Half the gates, then qubit [m] measured into the extra clbit
   [width] and re-used (so no batched sampling), optionally an X on a
   neighbour conditioned on that result, then the other half and the
   terminal measurements. *)
let adaptive rng ~width ~gates ~feedback =
  let body = random_gates rng ~width ~gates in
  let m = Rng.int rng width in
  let pre = List.filteri (fun i _ -> i < gates / 2) body in
  let post = List.filteri (fun i _ -> i >= gates / 2) body in
  let mid = [ Circuit.measure m width; Circuit.gate Gate.H [ m ] ] in
  let fb =
    if feedback then
      [
        Circuit.gate
          ~cond:{ Circuit.cbits = [ width ]; value = 1 }
          Gate.X
          [ (m + 1) mod width ];
      ]
    else []
  in
  Circuit.create ~num_qubits:width ~num_clbits:(width + 1)
    (pre @ mid @ fb @ post @ measure_all width)

let make rng ~idx ~width ~gates ~kind ~dynamic ~shots =
  let circuit =
    match kind with
    | Terminal -> terminal rng ~width ~gates
    | Mid -> adaptive rng ~width ~gates ~feedback:false
    | Feedback -> adaptive rng ~width ~gates ~feedback:true
  in
  let text =
    Qir.Qir_builder.to_string
      ~addressing:(if dynamic then `Dynamic else `Static)
      circuit
  in
  { idx; circuit; text; width; dynamic; kind; shots; seed = 1 + Rng.int rng 0x3fffffff }

(* Build [count] programs by cycling a block pattern of
   [(width, kind, dynamic)] slots; [gates] maps a slot and its
   occurrence number to a gate count. *)
let of_pattern rng ~count ~pattern ~gates ~shots =
  let seen = Hashtbl.create 16 in
  Array.init count (fun idx ->
      let ((width, kind, dynamic) as slot) = pattern.(idx mod Array.length pattern) in
      let j = Option.value ~default:0 (Hashtbl.find_opt seen slot) in
      Hashtbl.replace seen slot (j + 1);
      make rng ~idx ~width ~gates:(gates j) ~kind ~dynamic ~shots)

(* qir-batch: terminal random circuits, 14-17 qubits, 120-200 gates,
   1000 shots. Width shares 20/25/30/25 % keep the median inside the
   16-qubit mode and p90 inside the 17-qubit mode. *)
let batch_pattern =
  interleave
    [
      ((14, Terminal, false), 4);
      ((15, Terminal, false), 5);
      ((16, Terminal, false), 6);
      ((17, Terminal, false), 5);
    ]

let batch ~seed ~count =
  let rng = Rng.create (seed * 7 + 1) in
  of_pattern rng ~count ~pattern:batch_pattern ~gates:(spread ~lo:120 ~hi:200) ~shots:1000

(* qir-adaptive: one mid-circuit measurement each, half with classical
   feedback, 5-7 qubits, 56-64 gates, 64 shots; one third dynamic
   addressing at the same width shares (40/40/20 %). Dynamic programs
   cost far more per shot, so the median lands among static programs
   (inside the 6-qubit mode) and p90 inside the 6-qubit dynamic mode.
   One pattern of 30 programs holds every class, and the timed loop
   runs whole patterns. *)
let adaptive_pattern =
  let slots kind dynamic k =
    List.map (fun (w, n) -> ((w, kind, dynamic), n * k)) [ (5, 2); (6, 2); (7, 1) ]
  in
  interleave
    (slots Mid false 2 @ slots Feedback false 2 @ slots Mid true 1 @ slots Feedback true 1)

let adaptive_corpus ~seed ~count =
  let rng = Rng.create (seed * 7 + 2) in
  of_pattern rng ~count ~pattern:adaptive_pattern ~gates:(spread ~lo:56 ~hi:64) ~shots:64

(* serve-mix: the hot tenant's one 12-qubit terminal program, and the
   cold tenant's fresh programs — 5-8 qubits, 40 gates, five sixths
   terminal, one twelfth mid-circuit, one twelfth feedback; 64 shots.
   The adaptive ones run per shot and hold the single drain loop for
   several milliseconds; at this share they delay well under a tenth of
   hot jobs, so hot p90 stays clear of that mode's edge. *)
let serve_hot ~seed =
  let rng = Rng.create (seed * 7 + 3) in
  make rng ~idx:0 ~width:12 ~gates:40 ~kind:Terminal ~dynamic:false ~shots:64

let serve_cold ~seed ~count =
  let rng = Rng.create (seed * 7 + 4) in
  let pattern =
    interleave
      (List.concat_map
         (fun w ->
           [
             ((w, Terminal, false), 10); ((w, Mid, false), 1); ((w, Feedback, false), 1);
           ])
         [ 5; 6; 7; 8 ])
  in
  of_pattern rng ~count ~pattern ~gates:(fun _ -> 40) ~shots:64

let digest programs =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (Array.to_list (Array.map (fun p -> p.text) programs))))
