(** Type signatures of the QIS/RT functions: used to emit declarations and
    to know which call operands are qubits, results or classical values. *)

type arg_kind =
  | Qubit  (** an opaque [%Qubit*] pointer *)
  | Result  (** an opaque [%Result*] pointer *)
  | Double_arg
  | Int_arg of Llvm_ir.Ty.t
  | Ptr_arg  (** any other pointer (arrays, labels) *)

type signature = { ret : Llvm_ir.Ty.t; args : arg_kind list }

val ty_of_kind : arg_kind -> Llvm_ir.Ty.t

val arity : Names.call -> int
(** The number of arguments of a decoded call, without building its
    signature; raises [Invalid_argument] on [Unknown]. *)

val find : string -> signature option
(** The signature of a known QIS/RT function name. *)

val arg_kinds : string -> 'a list -> arg_kind list option
(** The kinds of a call's arguments, when the callee is known and the
    call passes exactly its arity. *)

val args_of_kind : arg_kind -> string -> 'a list -> 'a list
(** The arguments of a call at positions of the given kind, in order;
    [[]] when {!arg_kinds} is [None]. *)

val declaration : string -> Llvm_ir.Func.t
(** A declaration for a known function; raises [Invalid_argument] on
    unknown names. *)

val add_missing_declarations : Llvm_ir.Ir_module.t -> Llvm_ir.Ir_module.t
(** Adds declarations for every known QIS/RT function the module calls
    but does not declare. *)
