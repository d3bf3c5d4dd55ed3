(* Emits the textual LLVM assembly form (modern opaque-pointer syntax). *)

open Format

let pp_operand = Operand.pp
let pp_ty = Ty.pp

let pp_typed_list ppf args =
  pp_print_list
    ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
    Operand.pp_typed ppf args

let pp_instr ppf (i : Instr.t) =
  (match i.id with
  | Some id -> fprintf ppf "%%%s = " id
  | None -> ());
  match i.op with
  | Instr.Binop (b, ty, x, y) ->
    fprintf ppf "%s %a %a, %a" (Instr.string_of_binop b) pp_ty ty pp_operand x
      pp_operand y
  | Instr.Fbinop (b, ty, x, y) ->
    fprintf ppf "%s %a %a, %a" (Instr.string_of_fbinop b) pp_ty ty pp_operand x
      pp_operand y
  | Instr.Icmp (p, ty, x, y) ->
    fprintf ppf "icmp %s %a %a, %a" (Instr.string_of_icmp p) pp_ty ty
      pp_operand x pp_operand y
  | Instr.Fcmp (p, ty, x, y) ->
    fprintf ppf "fcmp %s %a %a, %a" (Instr.string_of_fcmp p) pp_ty ty
      pp_operand x pp_operand y
  | Instr.Alloca ty -> fprintf ppf "alloca %a, align 8" pp_ty ty
  | Instr.Load (ty, p) ->
    fprintf ppf "load %a, ptr %a, align 8" pp_ty ty pp_operand p
  | Instr.Store (v, p) ->
    fprintf ppf "store %a, ptr %a, align 8" Operand.pp_typed v pp_operand p
  | Instr.Gep (ty, base, idxs) ->
    fprintf ppf "getelementptr %a, ptr %a, %a" pp_ty ty pp_operand base
      pp_typed_list idxs
  | Instr.Call (ret, callee, args) ->
    fprintf ppf "call %a @%s(%a)" pp_ty ret callee pp_typed_list args
  | Instr.Select (c, a, b) ->
    fprintf ppf "select i1 %a, %a, %a" pp_operand c Operand.pp_typed a
      Operand.pp_typed b
  | Instr.Cast (c, v, ty) ->
    fprintf ppf "%s %a to %a" (Instr.string_of_cast c) Operand.pp_typed v pp_ty
      ty
  | Instr.Phi (ty, incoming) ->
    fprintf ppf "phi %a %a" pp_ty ty
      (pp_print_list
         ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
         (fun ppf (v, l) -> fprintf ppf "[ %a, %%%s ]" pp_operand v l))
      incoming
  | Instr.Freeze v -> fprintf ppf "freeze %a" Operand.pp_typed v

let pp_term ppf = function
  | Instr.Ret None -> pp_print_string ppf "ret void"
  | Instr.Ret (Some v) -> fprintf ppf "ret %a" Operand.pp_typed v
  | Instr.Br l -> fprintf ppf "br label %%%s" l
  | Instr.Cond_br (c, t, e) ->
    fprintf ppf "br i1 %a, label %%%s, label %%%s" pp_operand c t e
  | Instr.Switch (v, d, cases) ->
    fprintf ppf "switch %a, label %%%s [ %a ]" Operand.pp_typed v d
      (pp_print_list
         ~pp_sep:(fun ppf () -> pp_print_string ppf " ")
         (fun ppf (c, l) ->
           fprintf ppf "%a %a, label %%%s" pp_ty v.Operand.ty Constant.pp c l))
      cases
  | Instr.Unreachable -> pp_print_string ppf "unreachable"

let pp_block ppf (b : Block.t) =
  fprintf ppf "%s:@\n" b.label;
  List.iter (fun i -> fprintf ppf "  %a@\n" pp_instr i) b.instrs;
  fprintf ppf "  %a@\n" pp_term b.term

let pp_param ppf (p : Func.param) =
  fprintf ppf "%a %%%s" pp_ty p.Func.pty p.Func.pname

let pp_attr ppf (k, v) =
  if String.equal v "" then fprintf ppf "%S" k else fprintf ppf "%S=%S" k v

(* Attribute groups: functions with attributes reference #N; the groups are
   printed at the end of the module. [attr_index] assigns group numbers. *)
let attr_groups (m : Ir_module.t) =
  let groups = ref [] in
  let index_of attrs =
    match
      List.find_opt (fun (_, a) -> a = attrs) (List.mapi (fun i (a, _) -> (i, a)) !groups)
    with
    | Some (i, _) -> i
    | None ->
      groups := !groups @ [ (attrs, ()) ];
      List.length !groups - 1
  in
  let assoc =
    List.filter_map
      (fun (f : Func.t) ->
        if f.attrs = [] then None else Some (f.name, index_of f.attrs))
      m.Ir_module.funcs
  in
  (assoc, List.map fst !groups)

let pp_func groups ppf (f : Func.t) =
  let attr_suffix =
    match List.assoc_opt f.name groups with
    | Some i -> Printf.sprintf " #%d" i
    | None -> ""
  in
  if Func.is_declaration f then
    fprintf ppf "declare %a @%s(%a)%s@\n" pp_ty f.ret_ty f.name
      (pp_print_list
         ~pp_sep:(fun ppf () -> pp_print_string ppf ", ")
         (fun ppf p -> pp_ty ppf p.Func.pty))
      f.params attr_suffix
  else begin
    fprintf ppf "define %a @%s(%a)%s {@\n" pp_ty f.ret_ty f.name
      (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_param)
      f.params attr_suffix;
    (match f.blocks with
    | [] -> ()
    | entry :: rest ->
      (* The entry block's label is implicit in LLVM output when it is the
         default; we always print it for readability. *)
      pp_block ppf entry;
      List.iter (fun b -> fprintf ppf "@\n%a" pp_block b) rest);
    fprintf ppf "}@\n"
  end

let pp_global ppf (g : Ir_module.global) =
  match g.Ir_module.ginit with
  | Some init ->
    fprintf ppf "@%s = %s %a %a@\n" g.gname
      (if g.gconst then "constant" else "global")
      pp_ty g.gty Constant.pp init
  | None -> fprintf ppf "@%s = external global %a@\n" g.gname pp_ty g.gty

let pp_module ppf (m : Ir_module.t) =
  fprintf ppf "; ModuleID = '%s'@\n" m.source_name;
  if m.globals <> [] then begin
    fprintf ppf "@\n";
    List.iter (pp_global ppf) m.globals
  end;
  let groups, group_attrs = attr_groups m in
  List.iter (fun f -> fprintf ppf "@\n%a" (pp_func groups) f) m.funcs;
  List.iteri
    (fun i attrs ->
      fprintf ppf "@\nattributes #%d = { %a }@\n" i
        (pp_print_list
           ~pp_sep:(fun ppf () -> pp_print_string ppf " ")
           pp_attr)
        attrs)
    group_attrs

let instr_to_string i = asprintf "%a" pp_instr i
let module_to_string m = asprintf "%a" pp_module m
