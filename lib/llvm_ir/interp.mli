(** An interpreter for the IR subset — the stand-in for LLVM's [lli]
    (Sec. III-C). Quantum instructions are {e not} built in: they arrive
    as calls to undefined external functions, and the caller provides
    their implementations through the [externals] table — precisely the
    runtime-augmentation architecture of the paper's Ex. 5.

    Production execution runs {!Bc_exec}; this tree walker is its
    differential oracle (reached through [Qruntime.Executor.Reference])
    and holds the value model the bytecode engine and constant folding
    share.

    Memory model: a flat 64-bit address space of 8-byte cells. [alloca]
    and global initializers carve cells from a bump allocator starting at
    {!heap_base}, far above the small integers that static qubit
    addressing turns into pointers (Ex. 6), so [inttoptr (i64 1 to ptr)]
    never aliases allocated storage. *)

type value =
  | VInt of Ty.t * int64  (** integer type and two's-complement payload *)
  | VFloat of float
  | VPtr of int64
  | VVoid

val heap_base : int64

type stats = {
  mutable instructions : int;
  mutable external_calls : int;
  mutable internal_calls : int;
  mutable blocks_entered : int;
}

type t
(** Execution state: module, memory, externals, fuel, statistics. *)

val create :
  ?fuel:int ->
  ?deadline:(unit -> bool) ->
  ?externals:(string * (value list -> value)) list ->
  Ir_module.t ->
  t
(** [fuel]: instruction budget, negative = unlimited (default).
    [deadline]: polled every 128 instructions; once it returns [true],
    execution aborts with {!Ir_error.Timeout_error} — the wall-clock
    companion to the fuel ceiling. Globals are allocated and
    initialized eagerly. *)

val register_external : t -> string -> (value list -> value) -> unit
val stats : t -> stats

val run_function : t -> string -> value list -> value
(** Raises {!Ir_error.Exec_error} on undefined behaviour (missing
    external, bad memory access, fuel exhaustion, ...). *)

val run :
  ?fuel:int ->
  ?deadline:(unit -> bool) ->
  ?externals:(string * (value list -> value)) list ->
  Ir_module.t ->
  string ->
  value list ->
  value
(** Fresh state + {!run_function}. *)

val run_entry :
  ?fuel:int ->
  ?deadline:(unit -> bool) ->
  ?externals:(string * (value list -> value)) list ->
  Ir_module.t ->
  value
(** Runs the module's entry point with no arguments. *)

(** {1 Scalar semantics}

    The one statement of what a scalar instruction computes. {!Bc_exec}
    runs these evaluators, so both engines agree bit for bit on
    arithmetic, comparisons, casts, GEP layout and error messages; and
    every compile-time reader of scalars answers to them too: constant
    folding ([Passes.Const_fold], and through it SCCP, CFG cleanup and
    unrolling), the counted-loop trip count ([Passes.Unroll], which the
    resource certificate reads) and circuit extraction
    ([Qir.Qir_parser]). Integer payloads are normalized to their type's
    width: an [i8] holds 0..255. *)

val truncate_to_width : Ty.t -> int64 -> int64
val sign_extend : Ty.t -> int64 -> int64
val cell_size : int64

val as_int : value -> int64
val as_signed : value -> int64
val as_float : value -> float
val as_ptr : value -> int64
val as_bool : value -> bool

val eval_const : (string -> int64 option) -> Ty.t -> Constant.t -> value
(** [eval_const global ty c]: the value constant [c] has as an operand of
    type [ty]; an integer is read at [ty]'s width, so [i8 -1] and
    [i8 255] are the same value. [global] resolves a global's address;
    raises {!Ir_error.Exec_error} for a global it does not know and for
    an aggregate. [undef] reads as zero. *)

val no_globals : string -> int64 option
(** The resolver for code that has no global storage (folding). *)

val switch_cases : Ty.t -> (Constant.t * 'a) list -> (int64 * 'a) array
(** [switch_cases ty cases]: a [switch]'s cases with each constant read
    by {!eval_const} at the scrutinee's type [ty] (so [i8 -1] is 255);
    a case that does not read as an integer is dropped, as it never
    matches. *)

val switch_target : value -> 'a -> (int64 * 'a) array -> 'a
(** [switch_target scrut default cases]: the successor a [switch] on
    [scrut] takes: the last of the {!switch_cases} equal to [scrut];
    [default] if none is. *)

val eval_binop : Instr.binop -> Ty.t -> value -> value -> value
val eval_fbinop : Instr.fbinop -> value -> value -> value
val eval_icmp : Instr.icmp -> value -> value -> value
val eval_fcmp : Instr.fcmp -> value -> value -> value
val eval_cast : Instr.cast -> value -> Ty.t -> value

val gep_offset : Ty.t -> Operand.typed list -> int
(** Offset in cells; dynamic indices must already be resolved to
    [Constant.Int] operands. *)

val store_const_into : (int64, value) Hashtbl.t -> int64 -> Ty.t -> Constant.t -> unit
(** Writes a global initializer into a memory table cell by cell — the
    exact layout {!create} produces, reused by {!Bc_exec.create}. *)
