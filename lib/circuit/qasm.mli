(** OpenQASM 2.0 and 3 front- and back-end (the paper's Sec. II-A/II-B,
    Fig. 1 left): one parser and one printer for both versions.

    The mandatory header ([OPENQASM 2.0;] or [OPENQASM 3;]) picks the
    version. Both share the qelib1/stdgates vocabulary (implemented
    natively), user [gate] definitions (expanded as macros with
    parameter substitution), [opaque] declarations, whole-register
    broadcasting, [measure a -> b], [reset] and [barrier]. OpenQASM 2
    declares [qreg]/[creg] and conditions one operation on a whole
    register ([if (c == n)]). OpenQASM 3 declares [qubit]/[bit], also
    measures by assignment ([b = measure a]), conditions a statement or
    a block on a bit or a register, and has [for] loops over inclusive
    integer ranges, unrolled while parsing (the circuit IR has no
    loops), whose variables indices and parameters may read. *)

exception Error of int * string
(** Parse error with its source line. Expression and block nesting
    deeper than [Jsonx.max_depth] is one. *)

exception Unsupported of string
(** A circuit the requested OpenQASM version cannot express. *)

type version = [ `V2 | `V3 ]

val parse : string -> Circuit.t
(** Parses an OpenQASM 2.0 or 3 program. Raises {!Error}. *)

val parse_result : string -> (Circuit.t, string) result

val to_string : version:version -> Circuit.t -> string
(** Prints a circuit as OpenQASM 2.0 or 3. In OpenQASM 2, gates outside
    qelib1 get a definition in the prologue, and [P]/[Cp] print as
    [u1]/[cu1] ([p]/[cp] in 3). OpenQASM 2 conditions read a whole
    register, and OpenQASM 3 ones a single bit or a whole register, so a
    condition on consecutive bits of one register that no register
    covers splits that register into pieces declared in order, which
    keeps every bit's flat index. Raises {!Unsupported} when a
    condition's bits are not such a run, or when two runs overlap
    without coinciding. *)
