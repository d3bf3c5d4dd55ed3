(* Natural-loop detection via back edges in the dominator tree. *)

open Llvm_ir
module SSet = Set.Make (String)

type t = {
  header : string;
  latches : string list; (* sources of back edges into the header *)
  body : SSet.t; (* all blocks of the loop, including the header *)
}

(* Natural loop of back edge (latch -> header): header plus all blocks that
   reach the latch without passing through the header, found by a
   worklist over {!Cfg.pred}. [mark] (one slot per block) says which
   blocks the walk stamped [stamp] has taken. *)
let grow cfg mark stamp header latch =
  mark.(header) <- stamp;
  let body = ref (SSet.singleton (Cfg.label cfg header)) in
  let rec go = function
    | [] -> ()
    | i :: rest ->
      if mark.(i) = stamp then go rest
      else begin
        mark.(i) <- stamp;
        body := SSet.add (Cfg.label cfg i) !body;
        go (Array.fold_left (fun acc p -> p :: acc) rest (Cfg.pred cfg i))
      end
  in
  go [ latch ];
  !body

let find cfg =
  let dom = Dom.compute cfg in
  let mark = Array.make (Cfg.count cfg) (-1) in
  (* back edges u -> v where v dominates u, grouped by header, bodies of
     shared headers merged *)
  let tbl : (string, string list * SSet.t) Hashtbl.t = Hashtbl.create 4 in
  let stamp = ref 0 in
  for u = 0 to Cfg.size cfg - 1 do
    Array.iter
      (fun v ->
        if Dom.dominates_index dom v u then begin
          let body = grow cfg mark !stamp v u in
          incr stamp;
          let header = Cfg.label cfg v and latch = Cfg.label cfg u in
          match Hashtbl.find_opt tbl header with
          | Some (latches, acc) ->
            Hashtbl.replace tbl header (latch :: latches, SSet.union acc body)
          | None -> Hashtbl.replace tbl header ([ latch ], body)
        end)
      (Cfg.succ cfg u)
  done;
  Hashtbl.fold
    (fun header (latches, body) acc -> { header; latches; body } :: acc)
    tbl []

(* Exits of a loop: (from, to) edges leaving the body. *)
let exits cfg loop =
  List.concat_map
    (fun label ->
      List.filter_map
        (fun s -> if SSet.mem s loop.body then None else Some (label, s))
        (Block.successors (Cfg.block cfg label)))
    (SSet.elements loop.body)
