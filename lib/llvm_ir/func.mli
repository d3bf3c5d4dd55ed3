(** A function: a declaration (no blocks) or a definition (at least one
    block, the first being the entry). *)

type param = { pty : Ty.t; pname : string }

type t = {
  name : string;  (** without the [@] sigil *)
  ret_ty : Ty.t;
  params : param list;
  blocks : Block.t list;  (** [[]] for declarations *)
  attrs : (string * string) list;
      (** attribute key/values, e.g. [("entry_point", "")] or
          [("required_num_qubits", "2")] *)
}

val mk :
  ?attrs:(string * string) list ->
  string ->
  Ty.t ->
  param list ->
  Block.t list ->
  t

val declare : ?attrs:(string * string) list -> string -> Ty.t -> Ty.t list -> t
(** A declaration with synthesized parameter names. *)

val is_declaration : t -> bool

val entry : t -> Block.t
(** Raises [Invalid_argument] on declarations. *)

val has_attr : t -> string -> bool
val attr : t -> string -> string option

val replace_blocks : t -> Block.t list -> t
val iter_instrs : t -> (Instr.t -> unit) -> unit
val fold_instrs : t -> 'a -> ('a -> Instr.t -> 'a) -> 'a

val iter_uses : t -> (string -> unit) -> unit
(** [iter_uses f g] calls [g id] for every [Local id] operand of every
    instruction and terminator, in block order, once per use. *)

val size : t -> int
(** Instruction count plus one per terminator — the size metric used by
    benches and the inliner's budget. *)

(** Fresh-name generation over a function's existing value and label
    names. *)
module Fresh : sig
  type gen

  val of_func : t -> gen

  val next : gen -> string -> string
  (** [next gen prefix] returns a name starting with [prefix] that
      collides with nothing seen so far; the name is reserved. *)
end
