(* The circuit IR: a sequence of operations over [num_qubits] qubits and
   [num_clbits] classical bits. This is the "custom / tool-specific IR"
   of the paper's Sec. III-A. Classical control is limited to OpenQASM-2
   style conditions (a classical register compared against a constant);
   richer control flow lives at the QIR level. *)

type cond = { cbits : int list; value : int }
(** Execute the operation iff the register formed by [cbits] (LSB first)
    currently equals [value]. *)

type kind =
  | Gate of Gate.t * int list
  | Measure of int * int (* qubit, clbit *)
  | Reset of int
  | Barrier of int list

type op = { kind : kind; cond : cond option }

type register = { rname : string; roffset : int; rsize : int }

type t = {
  num_qubits : int;
  num_clbits : int;
  ops : op list;
  qregs : register list; (* declared quantum registers, for printing *)
  cregs : register list;
}

let default_regs prefix n =
  if n = 0 then [] else [ { rname = prefix; roffset = 0; rsize = n } ]

let create ?(qregs = []) ?(cregs = []) ~num_qubits ~num_clbits ops =
  let qregs = if qregs = [] then default_regs "q" num_qubits else qregs in
  let cregs = if cregs = [] then default_regs "c" num_clbits else cregs in
  { num_qubits; num_clbits; ops; qregs; cregs }

let empty num_qubits num_clbits = create ~num_qubits ~num_clbits []

(* alias for use inside submodules that shadow [create] *)
let circuit_create = create

(* ------------------------------------------------------------------ *)
(* Operation helpers                                                    *)

let gate ?cond g qubits = { kind = Gate (g, qubits); cond }
let measure ?cond q c = { kind = Measure (q, c); cond }
let reset ?cond q = { kind = Reset q; cond }
let barrier qubits = { kind = Barrier qubits; cond = None }

let op_qubits op =
  match op.kind with
  | Gate (_, qs) -> qs
  | Measure (q, _) -> [ q ]
  | Reset q -> [ q ]
  | Barrier qs -> qs

let op_clbits op =
  let conds =
    match op.cond with
    | Some c -> c.cbits
    | None -> []
  in
  match op.kind with
  | Measure (_, c) -> c :: conds
  | Gate _ | Reset _ | Barrier _ -> conds

(* ------------------------------------------------------------------ *)
(* Validation                                                           *)

exception Invalid of string

let validate t =
  let bad fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt in
  List.iteri
    (fun i op ->
      (match op.kind with
      | Gate (g, qs) ->
        if List.length qs <> Gate.num_qubits g then
          bad "op %d: %s expects %d qubits, got %d" i (Gate.name g)
            (Gate.num_qubits g) (List.length qs);
        let duplicate =
          match qs with
          | [ a; b ] -> a = b
          | [ a; b; c ] -> a = b || a = c || b = c
          | _ -> false (* a gate has at most 3 operands *)
        in
        if duplicate then bad "op %d: duplicate qubit operands" i
      | Measure _ | Reset _ | Barrier _ -> ());
      List.iter
        (fun q ->
          if q < 0 || q >= t.num_qubits then
            bad "op %d: qubit %d out of range [0, %d)" i q t.num_qubits)
        (op_qubits op);
      List.iter
        (fun c ->
          if c < 0 || c >= t.num_clbits then
            bad "op %d: clbit %d out of range [0, %d)" i c t.num_clbits)
        (op_clbits op))
    t.ops;
  t

(* ------------------------------------------------------------------ *)
(* Builder                                                              *)

module Build = struct
  type circuit = t

  type t = {
    mutable nq : int;
    mutable nc : int;
    mutable rev_ops : op list;
  }

  let create ?(num_qubits = 0) ?(num_clbits = 0) () =
    { nq = num_qubits; nc = num_clbits; rev_ops = [] }

  let add b op = b.rev_ops <- op :: b.rev_ops

  let touch_qubit b q = if q >= b.nq then b.nq <- q + 1
  let touch_clbit b c = if c >= b.nc then b.nc <- c + 1

  let gate ?cond b g qubits =
    List.iter (touch_qubit b) qubits;
    (match cond with
    | Some c -> List.iter (touch_clbit b) c.cbits
    | None -> ());
    add b (gate ?cond g qubits)

  let measure ?cond b q c =
    touch_qubit b q;
    touch_clbit b c;
    (match cond with
    | Some cc -> List.iter (touch_clbit b) cc.cbits
    | None -> ());
    add b (measure ?cond q c)

  let reset ?cond b q =
    touch_qubit b q;
    add b (reset ?cond q)

  let barrier b qubits =
    List.iter (touch_qubit b) qubits;
    add b (barrier qubits)

  let finish ?qregs ?cregs b : circuit =
    validate
      (circuit_create ?qregs ?cregs ~num_qubits:b.nq ~num_clbits:b.nc
         (List.rev b.rev_ops))
end

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let size t = List.length t.ops

let gate_count ?name:n t =
  List.length
    (List.filter
       (fun op ->
         match op.kind, n with
         | Gate (g, _), Some n -> String.equal (Gate.name g) n
         | Gate _, None -> true
         | (Measure _ | Reset _ | Barrier _), _ -> false)
       t.ops)

let two_qubit_gate_count t =
  List.length
    (List.filter
       (fun op ->
         match op.kind with
         | Gate (g, _) -> Gate.num_qubits g >= 2
         | Measure _ | Reset _ | Barrier _ -> false)
       t.ops)

let measure_count t =
  List.length
    (List.filter
       (fun op ->
         match op.kind with
         | Measure _ -> true
         | Gate _ | Reset _ | Barrier _ -> false)
       t.ops)

let has_conditions t = List.exists (fun op -> op.cond <> None) t.ops

(* Circuit depth: the longest chain of operations over shared qubits or
   clbits (barriers synchronize their qubits). *)
let depth t =
  let qd = Array.make (max t.num_qubits 1) 0 in
  let cd = Array.make (max t.num_clbits 1) 0 in
  let result = ref 0 in
  List.iter
    (fun op ->
      let qs = op_qubits op and cs = op_clbits op in
      let level =
        1
        + List.fold_left
            (fun acc q -> max acc qd.(q))
            (List.fold_left (fun acc c -> max acc cd.(c)) 0 cs)
            qs
      in
      List.iter (fun q -> qd.(q) <- level) qs;
      List.iter (fun c -> cd.(c) <- level) cs;
      if level > !result then result := level)
    t.ops;
  !result

(* ------------------------------------------------------------------ *)
(* Transformations                                                      *)

let map_qubits f t =
  let fix op =
    let kind =
      match op.kind with
      | Gate (g, qs) -> Gate (g, List.map f qs)
      | Measure (q, c) -> Measure (f q, c)
      | Reset q -> Reset (f q)
      | Barrier qs -> Barrier (List.map f qs)
    in
    { op with kind }
  in
  { t with ops = List.map fix t.ops }

let append a b =
  if a.num_qubits <> b.num_qubits || a.num_clbits <> b.num_clbits then
    raise (Invalid "Circuit.append: size mismatch");
  { a with ops = a.ops @ b.ops }

(* The adjoint circuit (measurements and resets are not invertible). *)
let inverse t =
  let inv op =
    match op.kind with
    | Gate (g, qs) -> { op with kind = Gate (Gate.inverse g, qs) }
    | Measure _ | Reset _ ->
      raise (Invalid "Circuit.inverse: circuit contains non-unitary operations")
    | Barrier _ -> op
  in
  { t with ops = List.rev_map inv t.ops }

let is_clifford t =
  List.for_all
    (fun op ->
      match op.kind with
      | Gate (g, _) -> Gate.is_clifford g
      | Measure _ | Reset _ | Barrier _ -> true)
    t.ops

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                      *)

let pp_op ppf op =
  (match op.cond with
  | Some { cbits; value } ->
    Format.fprintf ppf "if (c[%a] == %d) "
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      cbits value
  | None -> ());
  match op.kind with
  | Gate (g, qs) ->
    Format.fprintf ppf "%a %a" Gate.pp g
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf q -> Format.fprintf ppf "q[%d]" q))
      qs
  | Measure (q, c) -> Format.fprintf ppf "measure q[%d] -> c[%d]" q c
  | Reset q -> Format.fprintf ppf "reset q[%d]" q
  | Barrier qs ->
    Format.fprintf ppf "barrier %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf q -> Format.fprintf ppf "q[%d]" q))
      qs

let pp ppf t =
  Format.fprintf ppf "circuit(%d qubits, %d clbits):@\n" t.num_qubits
    t.num_clbits;
  List.iter (fun op -> Format.fprintf ppf "  %a@\n" pp_op op) t.ops

let to_string t = Format.asprintf "%a" pp t

let equal a b =
  a.num_qubits = b.num_qubits && a.num_clbits = b.num_clbits && a.ops = b.ops
