(* Structural well-formedness checks for functions and modules. Returns a
   list of human-readable violations; an empty list means the module is
   well-formed with respect to the checks below. *)

module SSet = Set.Make (String)
module SMap = Map.Make (String)

type violation = { where : string; what : string }

let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.where v.what

let check_func (m : Ir_module.t) (f : Func.t) =
  let errs = ref [] in
  let err where fmt =
    Format.kasprintf (fun what -> errs := { where; what } :: !errs) fmt
  in
  let fname = "@" ^ f.Func.name in
  if Func.is_declaration f then []
  else begin
    (* unique labels: a label names its first block *)
    let cfg = Cfg.of_func f in
    let numbered = Cfg.numbered cfg f.blocks in
    List.iter
      (fun ((b : Block.t), i) ->
        if i = None then err fname "duplicate block label %%%s" b.label)
      numbered;
    (* unique defs; collect def sites: block label and position in the
       block (params are defined before every block) *)
    let defs = Hashtbl.create 64 in
    List.iter (fun (p : Func.param) -> Hashtbl.replace defs p.pname ("", -1)) f.params;
    List.iter
      (fun (b : Block.t) ->
        List.iteri
          (fun pos (i : Instr.t) ->
            match i.id with
            | Some id ->
              if Hashtbl.mem defs id then
                err fname "%%%s defined more than once" id
              else Hashtbl.replace defs id (b.label, pos);
              if Instr.result_ty i.op = None then
                err fname "%%%s names an instruction with no result" id
            | None ->
              if Instr.result_ty i.op <> None
                 && (match i.op with
                    | Instr.Call _ -> false (* unused call results are fine *)
                    | _ -> true)
              then err fname "unnamed instruction with a result in %%%s" b.label)
          b.instrs)
      f.blocks;
    (* integer arithmetic, compares and width casts are typed with an
       integer type (compares may also order pointers) *)
    let check_int_types where (op : Instr.op) =
      let not_int what ty =
        err where "%s on %s, not an integer type" what (Ty.to_string ty)
      in
      match op with
      | Instr.Binop (b, ty, _, _) when not (Ty.is_integer ty) ->
        not_int (Instr.string_of_binop b) ty
      | Instr.Icmp (_, ty, _, _)
        when not (Ty.is_integer ty || Ty.equal ty Ty.Ptr) ->
        not_int "icmp" ty
      | Instr.Cast (((Instr.Trunc | Instr.Zext | Instr.Sext) as c), src, dst) ->
        List.iter
          (fun ty ->
            if not (Ty.is_integer ty) then not_int (Instr.string_of_cast c) ty)
          [ src.Operand.ty; dst ]
      | _ -> ()
    in
    (* every use refers to a value its definition dominates; terminator
       targets exist; phis lead their block and match predecessors *)
    let dom = lazy (Dom.compute cfg) in
    List.iter
      (fun ((b : Block.t), i) ->
        let where = Printf.sprintf "%s %%%s" fname b.label in
        (* a use at position [at] ([max_int]: the end) of block [from] —
           a phi's incoming value at the end of its predecessor — needs
           its definition earlier in that block or in a dominating one
           (the dominator tree is built on the first use across
           blocks); unreachable blocks are exempt *)
        let check_operand ?(from = b.label) at (o : Operand.typed) =
          match o.Operand.v with
          | Operand.Local name -> (
            match Hashtbl.find_opt defs name with
            | None -> err where "use of undefined value %%%s" name
            | Some (label, pos) ->
              if
                pos >= 0
                && (if String.equal label from then pos >= at
                    else not (Dom.dominates (Lazy.force dom) label from))
                && Cfg.is_reachable cfg from
              then err where "use of %%%s not dominated by its definition" name)
          | Operand.Const (Constant.Global g) ->
            if Ir_module.find_func m g = None && Ir_module.find_global m g = None
            then err where "reference to undefined global @%s" g
          | Operand.Const _ -> ()
        in
        let saw_non_phi = ref false in
        List.iteri
          (fun pos (i : Instr.t) ->
            (match i.op with
            | Instr.Phi (ty, incoming) ->
              List.iter
                (fun (v, from) -> check_operand ~from max_int (Operand.typed ty v))
                incoming;
              if !saw_non_phi then
                err where "phi node is not at the start of the block";
              let preds = SSet.of_list (Cfg.predecessors cfg b.label) in
              (* duplicate entries would be silently collapsed by the
                 set views below, so flag them first *)
              let seen_inc = Hashtbl.create 4 in
              List.iter
                (fun (_, l) ->
                  if Hashtbl.mem seen_inc l then
                    err where "phi has duplicate entries for predecessor %%%s"
                      l
                  else Hashtbl.replace seen_inc l ())
                incoming;
              let inc_labels = SSet.of_list (List.map snd incoming) in
              SSet.iter
                (fun p ->
                  if not (SSet.mem p inc_labels) then
                    err where "phi is missing an entry for predecessor %%%s" p)
                preds;
              SSet.iter
                (fun l ->
                  if not (SSet.mem l preds) then
                    err where "phi has an entry for non-predecessor %%%s" l)
                inc_labels
            | Instr.Call (ret_ty, callee, args) ->
              (match Ir_module.find_func m callee with
              | Some decl ->
                let expected = List.length decl.Func.params in
                let got = List.length args in
                if expected <> got then
                  err where "call to @%s with %d arguments, expected %d" callee
                    got expected
                else
                  (* the call site must agree with the declared signature:
                     arity matched, so check types position by position *)
                  List.iteri
                    (fun j ((p : Func.param), (a : Operand.typed)) ->
                      if not (Ty.equal p.Func.pty a.Operand.ty) then
                        err where
                          "call to @%s passes %s for argument %d, declared %s"
                          callee
                          (Ty.to_string a.Operand.ty)
                          j
                          (Ty.to_string p.Func.pty))
                    (List.combine decl.Func.params args);
                if not (Ty.equal ret_ty decl.Func.ret_ty) then
                  err where "call to @%s typed %s, declared to return %s"
                    callee (Ty.to_string ret_ty)
                    (Ty.to_string decl.Func.ret_ty)
              | None -> err where "call to undeclared function @%s" callee)
            | _ -> saw_non_phi := true);
            check_int_types where i.op;
            match i.op with
            | Instr.Phi _ -> ()
            | op -> List.iter (check_operand pos) (Instr.operands op))
          b.instrs;
        (match b.term with
        | Instr.Switch (v, _, _) when not (Ty.is_integer v.Operand.ty) ->
          err where "switch on %s, not an integer type"
            (Ty.to_string v.Operand.ty)
        | _ -> ());
        List.iter (check_operand max_int) (Instr.term_operands b.term);
        let resolve target =
          match i with
          | Some i -> Cfg.target cfg i target
          | None -> Cfg.index cfg target
        in
        List.iter
          (fun target ->
            if resolve target = None then
              err where "branch to undefined label %%%s" target)
          (Instr.successors b.term))
      numbered;
    (* the entry block must have no predecessors *)
    (match Cfg.pred cfg 0 with
    | [||] -> ()
    | _ -> err fname "the entry block has predecessors");
    List.rev !errs
  end

let check_module (m : Ir_module.t) =
  (* duplicate function names *)
  let errs = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      if Hashtbl.mem seen f.Func.name then
        errs :=
          { where = "module"; what = "duplicate function @" ^ f.Func.name }
          :: !errs
      else Hashtbl.replace seen f.Func.name ())
    m.Ir_module.funcs;
  List.rev !errs @ List.concat_map (check_func m) m.Ir_module.funcs

let verify_exn m =
  match check_module m with
  | [] -> ()
  | v :: _ -> Ir_error.verify_error "%a" pp_violation v
