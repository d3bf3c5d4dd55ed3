(* A function: declaration (no blocks) or definition (at least one block,
   the first being the entry block). *)

type param = { pty : Ty.t; pname : string }

type t = {
  name : string; (* without the @ sigil *)
  ret_ty : Ty.t;
  params : param list;
  blocks : Block.t list; (* [] for declarations *)
  attrs : (string * string) list;
      (* attribute key/values, e.g. ("entry_point", "") or
         ("required_num_qubits", "2") *)
}

let mk ?(attrs = []) name ret_ty params blocks =
  { name; ret_ty; params; blocks; attrs }

let declare ?(attrs = []) name ret_ty param_tys =
  let params =
    List.mapi (fun i pty -> { pty; pname = Printf.sprintf "arg%d" i }) param_tys
  in
  { name; ret_ty; params; blocks = []; attrs }

let is_declaration f = f.blocks = []

let entry f =
  match f.blocks with
  | [] -> invalid_arg ("Func.entry: " ^ f.name ^ " is a declaration")
  | b :: _ -> b

let find_block f label =
  List.find_opt (fun b -> String.equal b.Block.label label) f.blocks

(* O(1) label lookup for interpreters and compilers that branch a lot.
   Duplicate labels keep the first occurrence, matching [find_block]. *)
let label_table f =
  let tbl = Hashtbl.create (max 16 (List.length f.blocks)) in
  List.iter
    (fun (b : Block.t) ->
      if not (Hashtbl.mem tbl b.Block.label) then
        Hashtbl.add tbl b.Block.label b)
    f.blocks;
  tbl

let find_block_exn f label =
  match find_block f label with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Func.find_block: no block %%%s in @%s" label f.name)

(* Follows unconditional branches from the entry to a ret, visiting no
   block twice. *)
let straight_chain f =
  match f.blocks with
  | [] -> None
  | entry :: _ ->
    let labels = label_table f in
    let visited = Hashtbl.create 8 in
    let rec go acc (b : Block.t) =
      if Hashtbl.mem visited b.Block.label then None
      else begin
        Hashtbl.replace visited b.Block.label ();
        let acc = b :: acc in
        match b.Block.term with
        | Instr.Ret _ -> Some (List.rev acc)
        | Instr.Br l -> Option.bind (Hashtbl.find_opt labels l) (go acc)
        | Instr.Cond_br _ | Instr.Switch _ | Instr.Unreachable -> None
      end
    in
    go [] entry

let has_attr f key = List.mem_assoc key f.attrs
let attr f key = List.assoc_opt key f.attrs

let replace_blocks f blocks = { f with blocks }

let iter_instrs f g =
  List.iter (fun b -> List.iter g b.Block.instrs) f.blocks

let fold_instrs f init g =
  List.fold_left
    (fun acc b -> List.fold_left g acc b.Block.instrs)
    init f.blocks

(* The one use walk: every local operand of every instruction and
   terminator, in block order. *)
let iter_uses f g =
  let use (o : Operand.typed) =
    match o.Operand.v with Operand.Local id -> g id | Operand.Const _ -> ()
  in
  List.iter
    (fun b ->
      List.iter
        (fun i -> List.iter use (Instr.operands i.Instr.op))
        b.Block.instrs;
      List.iter use (Instr.term_operands b.Block.term))
    f.blocks

(* Number of instructions, a cheap size metric used by benches and the
   inliner's budget. *)
let size f =
  List.fold_left (fun acc b -> acc + List.length b.Block.instrs + 1) 0 f.blocks

(* Fresh-name generation: scans existing value and label names once and
   hands out names that cannot collide. *)
module Fresh = struct
  type gen = { mutable counter : int; taken : (string, unit) Hashtbl.t }

  let of_func f =
    let taken = Hashtbl.create 64 in
    List.iter (fun p -> Hashtbl.replace taken p.pname ()) f.params;
    List.iter
      (fun b ->
        Hashtbl.replace taken b.Block.label ();
        List.iter
          (fun i ->
            match i.Instr.id with
            | Some id -> Hashtbl.replace taken id ()
            | None -> ())
          b.Block.instrs)
      f.blocks;
    { counter = 0; taken }

    let next gen prefix =
      let rec go () =
        let name = Printf.sprintf "%s%d" prefix gen.counter in
        gen.counter <- gen.counter + 1;
        if Hashtbl.mem gen.taken name then go ()
        else begin
          Hashtbl.replace gen.taken name ();
          name
        end
      in
      go ()
end
