(** Recursive-descent parser for the LLVM assembly subset QIR programs
    use.

    Accepts both the modern opaque-pointer syntax (which {!Printer}
    emits; the paper's footnote 1) and the legacy typed-pointer spelling
    of the original QIR specification ([%Qubit*], [%Array*], ...): named
    types resolve through a typedef table and every pointer type
    collapses to [Ty.Ptr]. Attribute groups ([attributes #0 = {...}]) and
    inline quoted attributes both land in [Func.attrs]; metadata is
    skipped. *)

val parse_module : ?source_name:string -> string -> Ir_module.t
(** Raises {!Ir_error.Parse_error} with a source location. *)

val parse_module_result :
  ?source_name:string -> string -> (Ir_module.t, string) result
