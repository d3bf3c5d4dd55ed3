(* Conformance checking of a module against a QIR profile. Returns the
   list of violations (empty = conformant), each naming the rule it
   breaks, so tools can report actionable diagnostics. *)

open Llvm_ir

type violation = { rule : string; where : string; what : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s: %s" v.rule v.where v.what

type acc = { mutable violations : violation list }

let violate acc rule where fmt =
  Format.kasprintf
    (fun what -> acc.violations <- { rule; where; what } :: acc.violations)
    fmt

(* Is an operand a static qubit/result address (constant pointer)? *)
let is_static_address (o : Operand.t) =
  match o with
  | Operand.Const (Constant.Null | Constant.Inttoptr _) -> true
  | Operand.Const _ | Operand.Local _ -> false

let check_entry_point acc (m : Ir_module.t) =
  match Ir_module.entry_point m with
  | None ->
    violate acc "entry-point" "module" "no function carries the entry_point attribute";
    None
  | Some f ->
    if Func.is_declaration f then begin
      violate acc "entry-point" ("@" ^ f.Func.name) "entry point is a declaration";
      None
    end
    else begin
      if not (Ty.equal f.Func.ret_ty Ty.Void) then
        violate acc "entry-point" ("@" ^ f.Func.name)
          "entry point must return void";
      if f.Func.params <> [] then
        violate acc "entry-point" ("@" ^ f.Func.name)
          "entry point must take no parameters";
      Some f
    end

(* Rules for the base profile, applied to the entry function. The
   static-addresses rule consults the constant-address analysis: an
   operand that is dynamically shaped but proved constant is not a
   violation (it is a QA001 lint note instead). *)
let check_base acc facts (f : Func.t) =
  let where = "@" ^ f.Func.name in
  (match f.Func.blocks with
  | [ _ ] -> ()
  | blocks ->
    violate acc "base:straight-line" where
      "base profile requires a single basic block, found %d"
      (List.length blocks));
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call (_, callee, args) ->
            if not (Names.is_quantum callee) then
              violate acc "base:calls" where
                "call to non-quantum function @%s" callee
            else begin
              let call = Names.decode callee in
              if call = Names.Unknown then
                violate acc "base:vocabulary" where
                  "unknown quantum function @%s" callee;
              (* qubit and result operands must be static addresses *)
              Option.iter
                (fun kinds ->
                  List.iter2
                    (fun kind (a : Operand.typed) ->
                      match kind with
                      | Signatures.Qubit | Signatures.Result ->
                        if
                          (not (is_static_address a.Operand.v))
                          && Qir_analysis.Const_addr.proved_address facts
                               a.Operand.v
                             = None
                        then
                          violate acc "base:static-addresses" where
                            "@%s receives a dynamic qubit/result address"
                            callee
                      | Signatures.Double_arg | Signatures.Int_arg _
                      | Signatures.Ptr_arg ->
                        ())
                    kinds args)
                (Signatures.arg_kinds callee args);
              match call with
              | Names.Qubit_allocate | Names.Qubit_allocate_array ->
                violate acc "base:no-allocation" where
                  "dynamic qubit allocation (@%s) is not allowed" callee
              | Names.Read_result ->
                violate acc "base:no-feedback" where
                  "reading measurement results (@%s) is not allowed" callee
              | _ -> ()
            end
          | Instr.Alloca _ | Instr.Load _ | Instr.Store _ | Instr.Gep _ ->
            violate acc "base:no-memory" where
              "memory instruction '%s' is not allowed"
              (Printer.instr_to_string i)
          | Instr.Phi _ ->
            violate acc "base:straight-line" where "phi node is not allowed"
          | Instr.Binop _ | Instr.Fbinop _ | Instr.Icmp _ | Instr.Fcmp _
          | Instr.Select _ | Instr.Cast _ | Instr.Freeze _ ->
            violate acc "base:no-classical" where
              "classical computation '%s' is not allowed"
              (Printer.instr_to_string i))
        b.Block.instrs;
      match b.Block.term with
      | Instr.Ret None -> ()
      | Instr.Ret (Some _) ->
        violate acc "base:straight-line" where "entry point returns a value"
      | Instr.Br _ | Instr.Cond_br _ | Instr.Switch _ ->
        violate acc "base:straight-line" where "branching is not allowed"
      | Instr.Unreachable ->
        violate acc "base:straight-line" where "unreachable terminator")
    f.Func.blocks

(* Rules for the adaptive profile, applied to one function body:
   forward control flow and integer computation are allowed; memory,
   floats beyond rotation constants and unknown calls are not. Loops
   are rejected. Calls to functions *defined in the module* are fine —
   each reachable definition is checked with the same rules (and
   inlining can flatten them away) — but recursion has no lowering to
   any profile, and calls to external classical code stay violations. *)
let check_adaptive_func acc (cg : Qir_analysis.Call_graph.t) (f : Func.t) =
  let where = "@" ^ f.Func.name in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call (_, callee, _) ->
            if Names.is_quantum callee then begin
              if Names.decode callee = Names.Unknown then
                violate acc "adaptive:vocabulary" where
                  "unknown quantum function @%s" callee
            end
            else if
              not
                (List.mem callee (Qir_analysis.Call_graph.callees cg f.Func.name))
            then
              violate acc "adaptive:calls" where
                "call to external function @%s" callee
          | Instr.Alloca _ | Instr.Load _ | Instr.Store _ | Instr.Gep _ ->
            violate acc "adaptive:no-memory" where
              "memory instruction '%s' is not allowed"
              (Printer.instr_to_string i)
          | Instr.Fbinop _ | Instr.Fcmp _ ->
            violate acc "adaptive:no-float" where
              "floating-point computation is not allowed"
          | Instr.Binop _ | Instr.Icmp _ | Instr.Select _ | Instr.Cast _
          | Instr.Phi _ | Instr.Freeze _ ->
            ())
        b.Block.instrs)
    f.Func.blocks;
  (* no loops *)
  if Passes.Loop.find f <> [] then
    violate acc "adaptive:no-loops" where "function @%s contains loops"
      f.Func.name;
  if Qir_analysis.Call_graph.is_recursive cg f.Func.name then
    violate acc "adaptive:no-recursion" where
      "function @%s is recursive; no QIR profile supports recursion"
      f.Func.name

(* The adaptive check is whole-program: every defined function reachable
   from the entry point must conform, since it will execute there. *)
let check_adaptive acc (m : Ir_module.t) cg =
  List.iter
    (fun name ->
      match Ir_module.find_func m name with
      | Some f when not (Func.is_declaration f) -> check_adaptive_func acc cg f
      | Some _ | None -> ())
    (Qir_analysis.Call_graph.reachable_defined cg)

let check_with (profile : Profile.t) (a : Qir_analysis.Analyses.t) =
  let m = Qir_analysis.Analyses.ir a in
  let acc = { violations = [] } in
  (match check_entry_point acc m with
  | Some f -> (
    match profile with
    | Profile.Base -> check_base acc (Qir_analysis.Analyses.sccp a f) f
    | Profile.Adaptive ->
      check_adaptive acc m (Qir_analysis.Analyses.call_graph a)
    | Profile.Full -> ())
  | None -> ());
  List.rev acc.violations

let check profile m = check_with profile (Qir_analysis.Analyses.of_module m)
let conforms profile m = check profile m = []

(* The most restrictive profile the module satisfies. *)
let classify m =
  let a = Qir_analysis.Analyses.of_module m in
  if check_with Profile.Base a = [] then Profile.Base
  else if check_with Profile.Adaptive a = [] then Profile.Adaptive
  else Profile.Full
