(* Control-flow graph of a function, numbered once: the one answer to
   "which blocks exist, in which order, and who are their neighbours"
   that dominators, loops, dataflow, the passes and the analyses read.

   Every block gets an index. The blocks reachable from the entry come
   first, in reverse postorder (the entry is 0); the unreachable ones
   follow in function order. A label names its first block, as it does
   for the interpreters. Successor and predecessor lists are [int]
   arrays over the numbering; a branch to a label no block carries is
   no edge. *)

type t = {
  blocks : Block.t array;  (* by index *)
  index : (string, int) Hashtbl.t;  (* label -> index in function order *)
  renum : int array;  (* index in function order -> index *)
  reachable : int;  (* indices below this are reachable, in RPO *)
  succ : int array array;  (* in terminator order, one per edge *)
  pred : int array array Lazy.t;  (* one per edge, by label descending *)
}

let of_func (f : Func.t) =
  ignore (Func.entry f : Block.t);
  (* number the blocks in function order first *)
  let index = Hashtbl.create (max 16 (List.length f.Func.blocks)) in
  let first =
    List.filter
      (fun (b : Block.t) ->
        (not (Hashtbl.mem index b.Block.label))
        && (Hashtbl.add index b.Block.label (Hashtbl.length index); true))
      f.Func.blocks
    |> Array.of_list
  in
  let n = Array.length first in
  (* a branch most often targets the next block in the function *)
  let target v l =
    if v + 1 < n && String.equal first.(v + 1).Block.label l then v + 1
    else match Hashtbl.find_opt index l with Some w -> w | None -> -1
  in
  let succ0 =
    Array.mapi
      (fun v (b : Block.t) ->
        match b.Block.term with
        | Instr.Br l -> ( match target v l with -1 -> [||] | w -> [| w |])
        | t ->
          List.map (target v) (Instr.successors t)
          |> List.filter (fun w -> w >= 0)
          |> Array.of_list)
      first
  in
  (* iterative depth-first walk from the entry; [order] receives the
     blocks in reverse postorder, then the unvisited ones, and [renum]
     the inverse: block [order.(i)] of the first numbering is [i] *)
  let order = Array.make n 0 and renum = Array.make n (-1) in
  let next = ref n in
  let stack = Array.make n 0 and pos = Array.make n 0 in
  let top = ref 0 in
  renum.(0) <- 0;
  while !top >= 0 do
    let v = stack.(!top) in
    if pos.(!top) < Array.length succ0.(v) then begin
      let w = succ0.(v).(pos.(!top)) in
      pos.(!top) <- pos.(!top) + 1;
      if renum.(w) < 0 then begin
        renum.(w) <- 0;
        incr top;
        stack.(!top) <- w;
        pos.(!top) <- 0
      end
    end
    else begin
      decr next;
      order.(!next) <- v;
      decr top
    end
  done;
  let reachable = n - !next in
  Array.blit order !next order 0 reachable;
  let k = ref reachable in
  Array.iteri
    (fun v r ->
      if r < 0 then begin
        order.(!k) <- v;
        incr k
      end)
    renum;
  Array.iteri (fun i v -> renum.(v) <- i) order;
  let blocks = Array.map (fun v -> first.(v)) order in
  Array.iter (fun ss -> Array.iteri (fun k w -> ss.(k) <- renum.(w)) ss) succ0;
  let succ = Array.map (fun v -> succ0.(v)) order in
  let pred =
    lazy
      (let preds = Array.make n [] in
       for i = n - 1 downto 0 do
         Array.iter (fun j -> preds.(j) <- i :: preds.(j)) succ.(i)
       done;
       let by_label_desc i j =
         String.compare blocks.(j).Block.label blocks.(i).Block.label
       in
       Array.map
         (fun ps -> Array.of_list (List.stable_sort by_label_desc ps))
         preds)
  in
  { blocks; index; renum; reachable; succ; pred }

let size cfg = cfg.reachable
let count cfg = Array.length cfg.blocks
let label cfg i = cfg.blocks.(i).Block.label
let block_at cfg i = cfg.blocks.(i)
let index cfg label =
  match Hashtbl.find_opt cfg.index label with
  | Some v -> Some cfg.renum.(v)
  | None -> None
let succ cfg i = cfg.succ.(i)
let pred cfg i = (Lazy.force cfg.pred).(i)
let entry cfg = label cfg 0

(* The function's numbered blocks come in [renum]'s order, so one walk
   pairs them with their indices without a label lookup. *)
let numbered cfg blocks =
  let k = ref 0 in
  List.map
    (fun b ->
      if !k < Array.length cfg.renum && cfg.blocks.(cfg.renum.(!k)) == b
      then begin
        incr k;
        (b, Some cfg.renum.(!k - 1))
      end
      else (b, None))
    blocks

(* A few successors are searched before the label table: a branch
   target is usually one of them. *)
let target cfg i l =
  let ss = cfg.succ.(i) in
  let rec go k =
    if k = Array.length ss then index cfg l
    else if String.equal (label cfg ss.(k)) l then Some ss.(k)
    else go (k + 1)
  in
  if Array.length ss <= 4 then go 0 else index cfg l

let block cfg l =
  match index cfg l with Some i -> cfg.blocks.(i) | None -> raise Not_found

let predecessors cfg l =
  match index cfg l with
  | Some i -> Array.fold_right (fun p acc -> label cfg p :: acc) (pred cfg i) []
  | None -> []

let is_reachable cfg l =
  match index cfg l with Some i -> i < cfg.reachable | None -> false

(* On a straight line from the entry, reverse postorder is the line's
   order: each link goes to the next index, and any other target is a
   block already on it. *)
let straight_chain cfg =
  let rec go i acc =
    let b = cfg.blocks.(i) in
    match b.Block.term, cfg.succ.(i) with
    | Instr.Ret _, _ -> Some (List.rev (b :: acc))
    | Instr.Br _, [| j |] when j > i -> go j (b :: acc)
    | _ -> None
  in
  go 0 []
