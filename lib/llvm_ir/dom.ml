(* Dominator tree and dominance frontiers, using the Cooper-Harvey-Kennedy
   iterative algorithm ("A Simple, Fast Dominance Algorithm"), over the
   reachable blocks in {!Cfg}'s numbering. Used by mem2reg (phi
   placement), the verifier and natural-loop detection. *)

type t = {
  cfg : Cfg.t;
  idom : int array;  (* immediate dominator; the entry is its own *)
  children : int list array;  (* dominator-tree children, by label descending *)
  frontier : int list array;  (* dominance frontier, latest in RPO first *)
  pre : int array;  (* preorder number in the dominator tree *)
  last : int array;  (* the largest preorder number in the subtree *)
}

let compute cfg =
  let n = Cfg.size cfg in
  (* reachable predecessors, in {!Cfg.pred} order *)
  let preds =
    Array.init n (fun i ->
        List.filter (fun p -> p < n) (Array.to_list (Cfg.pred cfg i)))
  in
  (* -1 = undefined *)
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while !f1 > !f2 do
        f1 := idom.(!f1)
      done;
      while !f2 > !f1 do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      match List.filter (fun p -> idom.(p) >= 0) preds.(i) with
      | [] -> ()
      | first :: rest ->
        let new_idom = List.fold_left intersect first rest in
        if idom.(i) <> new_idom then begin
          idom.(i) <- new_idom;
          changed := true
        end
    done
  done;
  let by_label_desc i j = String.compare (Cfg.label cfg j) (Cfg.label cfg i) in
  let children = Array.make n [] in
  for i = n - 1 downto 1 do
    children.(idom.(i)) <- i :: children.(idom.(i))
  done;
  let children = Array.map (List.stable_sort by_label_desc) children in
  (* a join block is in the frontier of every block on the idom chains
     from its predecessors up to (not including) its own idom; joins are
     visited in RPO and prepended once each *)
  let frontier = Array.make n [] in
  for l = 0 to n - 1 do
    match preds.(l) with
    | [] | [ _ ] -> ()
    | ps ->
      List.iter
        (fun p ->
          let runner = ref p in
          while !runner <> idom.(l) do
            (match frontier.(!runner) with
            | x :: _ when x = l -> ()
            | fs -> frontier.(!runner) <- l :: fs);
            runner := idom.(!runner)
          done)
        ps
  done;
  (* preorder intervals of the dominator tree: [a] dominates [b] iff
     [b]'s number lies within [a]'s subtree *)
  let pre = Array.make n 0 and last = Array.make n 0 in
  let counter = ref 0 in
  let stack = ref [ `Enter 0 ] in
  while !stack <> [] do
    match !stack with
    | `Enter v :: rest ->
      pre.(v) <- !counter;
      incr counter;
      stack :=
        List.fold_left (fun acc c -> `Enter c :: acc) (`Leave v :: rest)
          children.(v)
    | `Leave v :: rest ->
      last.(v) <- !counter - 1;
      stack := rest
    | [] -> ()
  done;
  { cfg; idom; children; frontier; pre; last }

let reachable_index t label =
  match Cfg.index t.cfg label with
  | Some i when i < Cfg.size t.cfg -> Some i
  | _ -> None

let labels t is = List.map (Cfg.label t.cfg) is

let idom t label =
  match reachable_index t label with
  | Some i when i > 0 -> Some (Cfg.label t.cfg t.idom.(i))
  | _ -> None

let children t label =
  match reachable_index t label with
  | Some i -> labels t t.children.(i)
  | None -> []

let frontier t label =
  match reachable_index t label with
  | Some i -> labels t t.frontier.(i)
  | None -> []

let dominates_index t a b = t.pre.(a) <= t.pre.(b) && t.pre.(b) <= t.last.(a)

(* [dominates t a b] — does block [a] dominate block [b]? *)
let dominates t a b =
  String.equal a b
  ||
  match reachable_index t a, reachable_index t b with
  | Some a, Some b -> dominates_index t a b
  | _ -> false
