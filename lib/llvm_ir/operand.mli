(** An operand is a constant or a reference to a local SSA value.
    [typed] pairs an operand with the type it is used at, mirroring the
    textual form where every use site spells out the type. *)

type t =
  | Const of Constant.t
  | Local of string  (** [%name], without the sigil *)

type typed = { ty : Ty.t; v : t }

val typed : Ty.t -> t -> typed
val const : Ty.t -> Constant.t -> typed
val local : Ty.t -> string -> typed

(** {1 Shorthands} *)

val i64 : int64 -> typed
val i32 : int64 -> typed
val i1 : bool -> typed
val double : float -> typed
val null : typed

val qubit_ptr : int64 -> typed
(** The canonical static address operand: [ptr null] for 0,
    [inttoptr (i64 n to ptr)] otherwise (Ex. 6). *)

val equal : t -> t -> bool
val is_const : typed -> bool

val pp : Format.formatter -> t -> unit
val pp_typed : Format.formatter -> typed -> unit
val to_string : t -> string
