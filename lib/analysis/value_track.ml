(* Flow-insensitive resolution of SSA values to the qubits/results they
   denote — the value-tracking half of Ex. 3's abstract interpretation,
   reusable by every analysis in this library. Each allocation call
   (qubit_allocate, qubit_allocate_array, array_create_1d) becomes a
   numbered *site*; pointers are resolved to static addresses, sites, or
   elements of array sites. Stack slots (alloca) resolve to the join of
   everything stored into them, so the Fig. 1 dynamic pattern
   (store/load of runtime array pointers) resolves precisely when each
   slot holds one value. Anything else is [Unknown] — analyses treat
   unknown conservatively, never as license to report. *)

open Llvm_ir

type qref =
  | Static of int64  (* inttoptr constant; null = 0 *)
  | Alloc of int  (* site of a qubit_allocate call *)
  | Elem of int * int64  (* known element of a qubit_allocate_array site *)
  | QParam of int  (* the function's i-th parameter: a caller-owned qubit *)
  | QUnknown

type rref =
  | RStatic of int64
  | RElem of int * int64  (* known element of an array_create_1d site *)
  | RMeas of string  (* the fresh result returned by a qis m call, keyed
                        by its defining SSA id *)
  | RParam of int  (* the function's i-th parameter: a caller-owned result *)
  | RUnknown

(* What an SSA value may denote. The flat join of two distinct values is
   [Other]; analyses only act on precisely-resolved values. *)
type value =
  | VQubit of qref
  | VResult of rref
  | VQArray of int  (* a qubit array pointer: allocate_array site *)
  | VRArray of int  (* a result array pointer: array_create_1d site *)
  | VSlot of string  (* an alloca, keyed by its result name *)
  | VParam of int  (* the i-th function parameter, kind decided by use *)
  | VInt of int64
  | VOther

type site_kind = Qubit_site | Qubit_array_site | Result_array_site

type site = {
  site_id : int;
  site_kind : site_kind;
  site_block : string;
  site_instr : Instr.t;
}

type t = {
  env : (string, value) Hashtbl.t;
  slots : (string, value) Hashtbl.t;  (* joined stored value per slot *)
  sites : site list;  (* in program order *)
  site_of_def : (string, int) Hashtbl.t;  (* defining SSA id -> site *)
}

let value_equal (a : value) (b : value) = a = b

let join_value a b =
  match a, b with
  | None, v | v, None -> v
  | Some a, Some b -> if value_equal a b then Some a else Some VOther

(* One numbered site per allocation instruction, in block order. Calls
   to module functions that [fresh_fns] recognizes (summaries proved they
   return a fresh qubit) count as allocation sites too: the caller owns
   the returned qubit. *)
let collect_sites ?(fresh_fns = fun _ -> false) (f : Func.t) =
  let sites = ref [] and n = ref 0 and of_def = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          let add kind =
            let s =
              {
                site_id = !n;
                site_kind = kind;
                site_block = b.Block.label;
                site_instr = i;
              }
            in
            incr n;
            sites := s :: !sites;
            match i.Instr.id with
            | Some id -> Hashtbl.replace of_def id s.site_id
            | None -> ()
          in
          match i.Instr.op with
          | Instr.Call (_, c, _) -> (
            match Names.decode c with
            | Names.Qubit_allocate -> add Qubit_site
            | Names.Qubit_allocate_array -> add Qubit_array_site
            | Names.Array_create_1d -> add Result_array_site
            | _ when (not (Names.is_quantum c)) && fresh_fns c -> add Qubit_site
            | _ -> ())
          | _ -> ())
        b.Block.instrs)
    f.Func.blocks;
  (List.rev !sites, of_def)

let const_value (c : Constant.t) =
  match c with
  | Constant.Null -> Some (VQubit (Static 0L))
  | Constant.Inttoptr n -> Some (VQubit (Static n))
  | Constant.Int n -> Some (VInt n)
  | Constant.Bool b -> Some (VInt (if b then 1L else 0L))
  | _ -> None

let operand_value t (o : Operand.t) =
  match o with
  | Operand.Const c -> const_value c
  | Operand.Local id -> Hashtbl.find_opt t.env id

(* One resolution round; returns whether any binding changed. *)
let round ?(fresh_fns = fun _ -> false) t (f : Func.t) =
  let changed = ref false in
  let set id v =
    match id with
    | None -> ()
    | Some id ->
      let old = Hashtbl.find_opt t.env id in
      if old <> Some v then begin
        Hashtbl.replace t.env id v;
        changed := true
      end
  in
  let store_slot slot v =
    let joined = join_value (Hashtbl.find_opt t.slots slot) (Some v) in
    match joined with
    | Some jv ->
      if Hashtbl.find_opt t.slots slot <> Some jv then begin
        Hashtbl.replace t.slots slot jv;
        changed := true
      end
    | None -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call (_, c, args) -> (
            let def v =
              match i.Instr.id with
              | Some id -> set i.Instr.id (v (Hashtbl.find t.site_of_def id))
              | None -> ()
            in
            match Names.decode c, args with
            | Names.Qubit_allocate, _ -> def (fun s -> VQubit (Alloc s))
            | Names.Qubit_allocate_array, _ -> def (fun s -> VQArray s)
            | Names.Array_create_1d, _ -> def (fun s -> VRArray s)
            | Names.Array_get_element_ptr_1d, [ arr; idx ] -> (
              let idx =
                match operand_value t idx.Operand.v with
                | Some (VInt n) -> Some n
                | _ -> None
              in
              match operand_value t arr.Operand.v, idx with
              | Some (VQArray s), Some n -> set i.Instr.id (VQubit (Elem (s, n)))
              | Some (VRArray s), Some n ->
                set i.Instr.id (VResult (RElem (s, n)))
              | Some VOther, _ | _, None -> set i.Instr.id VOther
              | _ -> ())
            | Names.Array_get_element_ptr_1d, _ -> set i.Instr.id VOther
            | Names.M, _ ->
              (* the returned result is fresh per call site; key it by the
                 defining id so reads of it resolve *)
              Option.iter (fun id -> set i.Instr.id (VResult (RMeas id))) i.Instr.id
            | _ when (not (Names.is_quantum c)) && fresh_fns c ->
              def (fun s -> VQubit (Alloc s))
            | _ -> set i.Instr.id VOther)
          | Instr.Alloca _ -> (
            match i.Instr.id with
            | Some id -> set i.Instr.id (VSlot id)
            | None -> ())
          | Instr.Store (v, p) -> (
            match operand_value t p with
            | Some (VSlot slot) -> (
              match operand_value t v.Operand.v with
              | Some sv -> store_slot slot sv
              | None -> store_slot slot VOther)
            | Some _ -> ()
            | None -> ())
          | Instr.Load (_, p) -> (
            match operand_value t p with
            | Some (VSlot slot) -> (
              match Hashtbl.find_opt t.slots slot with
              | Some v -> set i.Instr.id v
              | None -> ())
            | Some _ -> set i.Instr.id VOther
            | None -> ())
          | Instr.Cast ((Instr.Bitcast | Instr.Inttoptr | Instr.Ptrtoint), src, _)
          | Instr.Freeze src -> (
            match operand_value t src.Operand.v with
            | Some v -> set i.Instr.id v
            | None -> ())
          | Instr.Phi (_, incoming) -> (
            let joined =
              List.fold_left
                (fun acc (v, _) ->
                  match operand_value t v with
                  | Some v -> join_value acc (Some v)
                  | None -> acc)
                None incoming
            in
            match joined with Some v -> set i.Instr.id v | None -> ())
          | Instr.Select (_, a, b) -> (
            match
              join_value
                (operand_value t a.Operand.v)
                (operand_value t b.Operand.v)
            with
            | Some v -> set i.Instr.id v
            | None -> ())
          | _ -> (
            match i.Instr.id with Some _ -> set i.Instr.id VOther | None -> ()))
        b.Block.instrs)
    f.Func.blocks;
  !changed

(* Solves so far, in every Domain: one per {!of_func}. *)
let solves = Atomic.make 0

let of_func ?fresh_fns (f : Func.t) : t =
  Atomic.incr solves;
  let sites, site_of_def = collect_sites ?fresh_fns f in
  let t =
    {
      env = Hashtbl.create 64;
      slots = Hashtbl.create 16;
      sites;
      site_of_def;
    }
  in
  (* parameters resolve to themselves; uses decide the kind *)
  List.iteri
    (fun i (p : Func.param) ->
      if Ty.equal p.Func.pty Ty.Ptr then
        Hashtbl.replace t.env p.Func.pname (VParam i))
    f.Func.params;
  (* the flat value domain has height 2, but slot/phi chains can take a
     few rounds to settle; the bound guards pathological inputs *)
  let rec fix n = if n > 0 && round ?fresh_fns t f then fix (n - 1) in
  fix 8;
  t

let sites t = t.sites

(* Resolve an operand used at a Qubit signature position. *)
let qubit_of t (o : Operand.t) : qref =
  match operand_value t o with
  | Some (VQubit q) -> q
  | Some (VParam i) -> QParam i
  | Some (VInt n) when n >= 0L -> Static n
  | _ -> QUnknown

(* Resolve an operand used at a Result signature position. *)
let result_of t (o : Operand.t) : rref =
  match o with
  | Operand.Const Constant.Null -> RStatic 0L
  | Operand.Const (Constant.Inttoptr n) -> RStatic n
  | _ -> (
    match operand_value t o with
    | Some (VResult r) -> r
    | Some (VParam i) -> RParam i
    | Some (VInt n) when n >= 0L -> RStatic n
    | Some (VQubit (Static n)) ->
      RStatic n (* a constant address is kind-agnostic *)
    | _ -> RUnknown)

(* The array-allocation site a pointer denotes, for release_array. *)
let qarray_of t (o : Operand.t) : int option =
  match operand_value t o with Some (VQArray s) -> Some s | _ -> None

(* The parameter index an operand denotes, if any. *)
let param_of t (o : Operand.t) : int option =
  match operand_value t o with Some (VParam i) -> Some i | _ -> None

let pp_qref ppf = function
  | Static n -> Format.fprintf ppf "qubit %Ld" n
  | Alloc s -> Format.fprintf ppf "qubit allocated at site %d" s
  | Elem (s, i) -> Format.fprintf ppf "qubit %Ld of array site %d" i s
  | QParam i -> Format.fprintf ppf "qubit argument %d" i
  | QUnknown -> Format.pp_print_string ppf "unknown qubit"

let pp_rref ppf = function
  | RStatic n -> Format.fprintf ppf "result %Ld" n
  | RElem (s, i) -> Format.fprintf ppf "result %Ld of array site %d" i s
  | RMeas _ -> Format.pp_print_string ppf "measured result"
  | RParam i -> Format.fprintf ppf "result argument %d" i
  | RUnknown -> Format.pp_print_string ppf "unknown result"
