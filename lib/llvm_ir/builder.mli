(** Imperative construction of functions, in the style of LLVM's
    IRBuilder: the builder owns a function under construction and an
    insertion point (the current block). *)

type t

val create :
  ?attrs:(string * string) list ->
  name:string ->
  ret_ty:Ty.t ->
  params:(Ty.t * string) list ->
  unit ->
  t
(** Starts in a block labeled ["entry"]. *)

val fresh : t -> string
(** A fresh numeric value name. *)

val insert : t -> Instr.op -> unit
(** Appends a result-less instruction. *)

val insert_value : t -> Instr.op -> Operand.typed
(** Appends an instruction, naming and returning its result. Raises
    [Invalid_argument] when the instruction produces none. *)

val terminate : t -> Instr.term -> unit
(** Closes the current block. *)

val start_block : t -> string -> unit
(** Opens a new current block with the given label. *)

(** {1 Convenience wrappers} *)

val alloca : t -> Ty.t -> Operand.typed
val load : t -> Ty.t -> Operand.typed -> Operand.typed
val store : t -> Operand.typed -> Operand.typed -> unit

val call : t -> Ty.t -> string -> Operand.typed list -> Operand.typed option
(** [None] for void calls. *)

val binop : t -> Instr.binop -> Ty.t -> Operand.typed -> Operand.typed -> Operand.typed
val icmp : t -> Instr.icmp -> Ty.t -> Operand.typed -> Operand.typed -> Operand.typed
val phi : t -> Ty.t -> (Operand.typed * string) list -> Operand.typed
val ret : t -> Operand.typed option -> unit
val br : t -> string -> unit
val cond_br : t -> Operand.typed -> string -> string -> unit

val finish : t -> Func.t
(** Raises [Invalid_argument] when the current block is unterminated or
    the builder was already finished. *)
