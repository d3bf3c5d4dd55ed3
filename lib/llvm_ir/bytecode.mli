(** Compile-once bytecode for the IR subset (executed by {!Bc_exec}).

    Each function is lowered a single time into a flat instruction array
    over slot-indexed virtual registers: locals become dense slot
    indices, branch labels become block indices with per-edge phi move
    schedules, constants (including globals — the bump allocator's
    layout is deterministic) become immediates, callees become
    defined-function or external-table indices, and GEPs become
    precomputed offset plans.

    The lowering preserves {!Interp}'s observable semantics exactly:
    evaluation order, error message strings, fuel accounting and memory
    layout. Constructs the interpreter only faults on when reached
    compile to poison operands/edges that raise the identical error when
    evaluated. *)

type operand =
  | Imm of Interp.value
  | Slot of int
  | Raise of string  (** evaluating it raises [Exec_error] with this message *)

type gep_plan =
  | Gep_static of int  (** precomputed total offset, in cells *)
  | Gep_linear of int * (int * operand) array
      (** static cells + sum of scale * sign-extended dynamic index *)
  | Gep_general of Ty.t * Operand.typed array * operand option array
      (** dynamic struct navigation, deferred to {!Interp.gep_offset} *)

type inst =
  | Bin of Instr.binop * Ty.t * int * operand * operand
  | FBin of Instr.fbinop * int * operand * operand
  | ICmp of Instr.icmp * int * operand * operand
  | FCmp of Instr.fcmp * int * operand * operand
  | Alloca of int * int
  | Load of int * operand
  | Store of operand * operand
  | Gep of int * operand * gep_plan
  | Call of int * int * operand array
      (** dst slot ([-1] = drop), function index, arguments *)
  | Call_ext of int * int * operand array
      (** dst slot, external index, arguments *)
  | Select of int * operand * operand * operand
  | Cast of Instr.cast * int * operand * Ty.t
  | Freeze of int * operand
  | Fail_invalid of string  (** re-raises [Invalid_argument] when executed *)

type term =
  | Ret of operand option
  | Br of int  (** edge index *)
  | Cond_br of operand * int * int
  | Switch of operand * int * (int64 * int) array
      (** scrutinee, default edge, cases by {!Interp.switch_cases} *)
  | Unreachable

type edge =
  | Edge of { etarget : int; dsts : int array; srcs : operand array }
  | Edge_error of string  (** [Exec_error] raised when traversed *)
  | Edge_invalid of string  (** [Invalid_argument] raised when traversed *)

type block = { boff : int; bcount : int; bterm : term }

type func = {
  fname : string;
  nslots : int;
  nparams : int;
  param_slots : int array;
  code : inst array;
  blocks : block array;
  edges : edge array;
  max_phi_moves : int;
  entry_phi : bool;
}

type program = {
  src : Ir_module.t;  (** identity key for compile-once caches *)
  funcs : func array;
  by_name : (string, int) Hashtbl.t;
  decls : (string, unit) Hashtbl.t;
  ext_names : string array;
  global_inits : (int64 * Ty.t * Constant.t) array;
  global_addrs : (string * int64) list;
  brk0 : int64;
  entry : string option;
}

val compile : Ir_module.t -> program
(** Pure with respect to the module: compiling twice yields equivalent
    programs. Cost is linear in the module size. *)
