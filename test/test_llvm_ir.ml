(* Tests for the LLVM IR substrate: lexer, parser, printer round-trips,
   verifier and interpreter. *)

open Llvm_ir

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Fixtures                                                             *)

(* The paper's Fig. 1 (right): the Bell circuit in QIR with dynamically
   allocated qubits, in modern opaque-pointer syntax. *)
let bell_qir =
  {|
declare ptr @__quantum__rt__qubit_allocate_array(i64)
declare ptr @__quantum__rt__array_create_1d(i32, i64)
declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)

define void @main() "entry_point" "required_num_qubits"="2" {
entry:
  %q = alloca ptr, align 8
  %0 = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  store ptr %0, ptr %q, align 8
  %c = alloca ptr, align 8
  %1 = call ptr @__quantum__rt__array_create_1d(i32 1, i64 2)
  store ptr %1, ptr %c, align 8
  %2 = load ptr, ptr %q, align 8
  %3 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %2, i64 0)
  call void @__quantum__qis__h__body(ptr %3)
  %4 = load ptr, ptr %q, align 8
  %5 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %4, i64 0)
  %6 = load ptr, ptr %q, align 8
  %7 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %6, i64 1)
  call void @__quantum__qis__cnot__body(ptr %5, ptr %7)
  %8 = load ptr, ptr %q, align 8
  %9 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %8, i64 0)
  %10 = load ptr, ptr %c, align 8
  %11 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %10, i64 0)
  call void @__quantum__qis__mz__body(ptr %9, ptr %11)
  ret void
}
|}

(* The paper's Ex. 4: a FOR-loop applying H to qubits 0..9. *)
let forloop_qir =
  {|
declare void @__quantum__qis__h__body(ptr)

define void @main() "entry_point" {
entry:
  %i = alloca i32, align 4
  store i32 0, ptr %i, align 4
  br label %for.header

for.header:
  %1 = load i32, ptr %i, align 4
  %cond = icmp slt i32 %1, 10
  br i1 %cond, label %body, label %exit

body:
  %2 = load i32, ptr %i, align 4
  %idx = sext i32 %2 to i64
  %qb = inttoptr i64 %idx to ptr
  call void @__quantum__qis__h__body(ptr %qb)
  %3 = load i32, ptr %i, align 4
  %4 = add nsw i32 %3, 1
  store i32 %4, ptr %i, align 4
  br label %for.header

exit:
  ret void
}
|}

(* The paper's Ex. 6: the Bell circuit with static qubit addresses. *)
let static_qir =
  {|
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)

define void @main() "entry_point" "required_num_qubits"="2" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr writeonly null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr writeonly inttoptr (i64 1 to ptr))
  ret void
}
|}

(* Legacy typed-pointer spelling from the original QIR specification. *)
let legacy_qir =
  {|
%Qubit = type opaque
%Result = type opaque

declare void @__quantum__qis__h__body(%Qubit*)
declare void @__quantum__qis__mz__body(%Qubit*, %Result*)

define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(%Qubit* null)
  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)
  ret void
}

attributes #0 = { "entry_point" "required_num_qubits"="1" }
|}

let parse src = Parser.parse_module src

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)

let test_lexer_sigils () =
  let lx = Lexer.create "@__quantum__qis__h__body %q %\"odd name\" #3 !dbg" in
  check string_t "global" "@__quantum__qis__h__body"
    (Lexer.string_of_token (Lexer.next lx));
  check string_t "local" "%q" (Lexer.string_of_token (Lexer.next lx));
  check string_t "quoted local" "%odd name" (Lexer.string_of_token (Lexer.next lx));
  check string_t "attr ref" "#3" (Lexer.string_of_token (Lexer.next lx));
  check string_t "meta" "!dbg" (Lexer.string_of_token (Lexer.next lx));
  check bool_t "eof" true (Lexer.next lx = Lexer.EOF)

let test_lexer_numbers () =
  let lx = Lexer.create "42 -7 3.5 1e-3 0x3FF0000000000000" in
  check bool_t "int" true (Lexer.next lx = Lexer.INT 42L);
  check bool_t "negative" true (Lexer.next lx = Lexer.INT (-7L));
  check bool_t "float" true (Lexer.next lx = Lexer.FLOAT 3.5);
  check bool_t "exponent" true (Lexer.next lx = Lexer.FLOAT 1e-3);
  (* 0x3FF0000000000000 is the IEEE-754 representation of 1.0 *)
  check bool_t "hex float" true (Lexer.next lx = Lexer.FLOAT 1.0)

let test_lexer_comments () =
  let lx = Lexer.create "; a comment line\nret ; trailing\nvoid" in
  check string_t "ret" "ret" (Lexer.string_of_token (Lexer.next lx));
  check string_t "void" "void" (Lexer.string_of_token (Lexer.next lx));
  check bool_t "eof" true (Lexer.next lx = Lexer.EOF)

let test_lexer_cstring () =
  let lx = Lexer.create {|c"ab\00"|} in
  match Lexer.next lx with
  | Lexer.CSTRING s ->
    check int_t "length" 3 (String.length s);
    check bool_t "nul" true (s.[2] = '\000')
  | _ -> Alcotest.fail "expected CSTRING"

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)

let test_parse_bell () =
  let m = parse bell_qir in
  check int_t "functions" 7 (List.length m.Ir_module.funcs);
  let main = Ir_module.find_func_exn m "main" in
  check bool_t "entry point attr" true (Func.has_attr main "entry_point");
  check (Alcotest.option string_t) "required qubits" (Some "2")
    (Func.attr main "required_num_qubits");
  check int_t "blocks" 1 (List.length main.Func.blocks);
  check int_t "instructions" 19 (List.length (Func.entry main).Block.instrs)

let test_parse_forloop () =
  let m = parse forloop_qir in
  let main = Ir_module.find_func_exn m "main" in
  check int_t "blocks" 4 (List.length main.Func.blocks);
  let labels = List.map (fun (b : Block.t) -> b.Block.label) main.Func.blocks in
  check (Alcotest.list string_t) "labels"
    [ "entry"; "for.header"; "body"; "exit" ]
    labels

let test_parse_static () =
  let m = parse static_qir in
  let main = Ir_module.find_func_exn m "main" in
  let entry = Func.entry main in
  (* the second call's second argument is inttoptr (i64 1 to ptr) *)
  match (List.nth entry.Block.instrs 1).Instr.op with
  | Instr.Call (_, "__quantum__qis__cnot__body", [ _; arg ]) ->
    check bool_t "static address" true
      (Operand.equal arg.Operand.v
         (Operand.Const (Constant.Inttoptr 1L)))
  | _ -> Alcotest.fail "expected cnot call"

let test_parse_legacy () =
  let m = parse legacy_qir in
  let main = Ir_module.find_func_exn m "main" in
  check bool_t "attr group resolved" true (Func.has_attr main "entry_point");
  check (Alcotest.option string_t) "qubits via group" (Some "1")
    (Func.attr main "required_num_qubits");
  (* typed pointers collapse to opaque ptr *)
  let h = Ir_module.find_func_exn m "__quantum__qis__h__body" in
  match h.Func.params with
  | [ p ] -> check bool_t "param is ptr" true (Ty.equal p.Func.pty Ty.Ptr)
  | _ -> Alcotest.fail "expected a single parameter"

let test_parse_switch_phi () =
  let src =
    {|
define i64 @f(i64 %x) {
entry:
  switch i64 %x, label %other [ i64 0, label %zero i64 1, label %one ]
zero:
  br label %join
one:
  br label %join
other:
  br label %join
join:
  %r = phi i64 [ 10, %zero ], [ 20, %one ], [ 30, %other ]
  ret i64 %r
}
|}
  in
  let m = parse src in
  check int_t "verifier clean" 0 (List.length (Verifier.check_module m));
  let run x = Interp.run m "f" [ Interp.VInt (Ty.I64, x) ] in
  check bool_t "case 0" true (run 0L = Interp.VInt (Ty.I64, 10L));
  check bool_t "case 1" true (run 1L = Interp.VInt (Ty.I64, 20L));
  check bool_t "default" true (run 5L = Interp.VInt (Ty.I64, 30L))

let test_parse_error_location () =
  match Parser.parse_module_result "define void @f() {\n  bogus_opcode\n}" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
    check bool_t "mentions opcode" true
      (Astring.String.is_infix ~affix:"bogus_opcode" msg
       || Astring.String.is_infix ~affix:"unknown instruction" msg)

(* ------------------------------------------------------------------ *)
(* Printer round-trip                                                   *)

let roundtrip name src () =
  let m1 = parse src in
  let printed = Printer.module_to_string m1 in
  let m2 =
    try parse printed
    with exn ->
      Alcotest.failf "%s: reprint did not parse: %s\n%s" name
        (Ir_error.to_string exn) printed
  in
  let p1 = Printer.module_to_string m1 in
  let p2 = Printer.module_to_string m2 in
  check string_t (name ^ ": print . parse . print is stable") p1 p2

(* Every examples/*.ll file and builder output with static and dynamic
   addressing. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let corpus_sources () =
  let examples =
    Sys.readdir "../examples" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ll")
    |> List.sort String.compare
    |> List.map (fun f -> (f, read_file (Filename.concat "../examples" f)))
  in
  let circuits =
    Qcircuit.
      [
        ("qft4", Generate.qft 4);
        ("random5", Generate.random ~seed:3 ~gates:30 5);
        ("feedback4", Generate.feedback_rounds ~rounds:3 4);
      ]
  in
  examples
  @ List.concat_map
      (fun (tag, addressing) ->
        List.map
          (fun (name, c) -> (name ^ tag, Qir.Qir_builder.to_string ~addressing c))
          circuits)
      [ ("/static", `Static); ("/dynamic", `Dynamic) ]

let test_roundtrip_corpus () =
  List.iter (fun (name, src) -> roundtrip name src ()) (corpus_sources ())

(* Each token with the line:col the lexer stands at after it (floats by
   their bits): a digest pinned from the option-per-character lexer the
   index scan replaced. *)
let token_trace src =
  let lx = Lexer.create src in
  let b = Buffer.create 4096 in
  let rec go () =
    let tok = Lexer.next lx in
    Printf.bprintf b "%d:%d %s\n" lx.Lexer.line (Lexer.col lx)
      (match tok with
      | Lexer.FLOAT f -> Printf.sprintf "%Lx" (Int64.bits_of_float f)
      | t -> Lexer.string_of_token t);
    if tok <> Lexer.EOF then go ()
  in
  go ();
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_token_traces =
  [
    ("bell_dynamic.ll", "3a5b2b87b82edcfb816153dd13240cb6");
    ("bell_static.ll", "ac03fb45810d43810a3266e515b55827");
    ("phi_addr.ll", "a4ce67f0ead6a148182c3fdda66a6ed9");
    ("recursive_bad.ll", "ca7e0937da8a48b3a9260f5bd7b42e4c");
    ("teleport_helpers.ll", "65aae75790dc824fbc9262ae51c5f667");
    ("qft4/static", "0de245ea985a85e9049865e1c15780d5");
    ("random5/static", "ec4408eeeb7cfbc13febad1456807898");
    ("feedback4/static", "3a21ccc9de969f2d8539dada9d4b523a");
    ("qft4/dynamic", "69d036565a725dd7d3532d7a7a301976");
    ("random5/dynamic", "71757ebef4ab51e42442504d9160381a");
    ("feedback4/dynamic", "98ba36ec1b898b0213ce941aa4ee09da");
  ]

let test_token_traces_pinned () =
  let sources = corpus_sources () in
  check (Alcotest.list string_t) "corpus" (List.map fst pinned_token_traces)
    (List.map fst sources);
  List.iter
    (fun (name, src) ->
      check string_t name (List.assoc name pinned_token_traces) (token_trace src))
    sources

(* Malformed inputs and the error each one reports, line:col included,
   as the option-per-character lexer reported them — except malformed
   numeric literals, which it let escape as a bare [Failure]. *)
let malformed =
  [
    ("define void @f() {\n  bogus_opcode\n}", "3:2: unknown instruction 'bogus_opcode'");
    ("@s = global [3 x i8] c\"ab", "1:26: unterminated string literal");
    ("@s = global [3 x i8] c\"a\\zq\"", "1:28: invalid hex digit 'q' in string escape");
    ("@s = constant [2 x i8] c\"\n\\", "2:2: unterminated string escape");
    ("attributes # = { }", "1:13: expected attribute group number");
    ("define void @f() {\nentry:\n  ret void ^\n}", "3:12: unexpected character '^'");
    ("declare void @g(i64 . )", "1:21: unexpected '.'");
    ("define void @f() {\nentry:\n  %", "3:4: expected name after sigil");
    ("\r\n; comment\r\n\tdefine void @f( {", "3:19: expected type, found '<eof>'");
    ( "define i64 @f() {\nentry:\n  %x = add i64 1 2\n  ret i64 %x\n}",
      "4:6: expected ',', found '2'" );
    ("define void @f() {\nentry:\n  call void @g(ptr null\n}", "4:2: expected type, found '}'");
    ("@x = global i64 \"str\"", "1:22: expected constant of type i64, found '\"str\"'");
    ("source_filename = 42", "1:21: expected string after source_filename");
    ("define void @f() { \195\169 }", "1:20: unexpected character '\\195'");
    ( "define void @f() {\nentry:\n  %a = fadd double 1.5, 0x3FF\n  ret void",
      "4:11: unexpected token '<eof>' in function body" );
    ("define void @f() #1x {\n}", "1:23: expected '{', found 'x'");
    (* malformed numeric literals: at the literal's first character *)
    ("define i64 @f() {\nentry:\n  %x = add i64 -, 1\n  ret i64 %x\n}", "3:16: malformed number '-'");
    ("define i64 @f() {\nentry:\n  %x = add i64 -x, 1\n  ret i64 %x\n}", "3:16: malformed number '-'");
    ("@g = global double 0x", "1:20: malformed number '0x'");
    ("@g = global double -0x1234567890abcdef0", "1:20: malformed number '-0x1234567890abcdef0'");
    ("@g = global double 1.5e\n", "1:20: malformed number '1.5e'");
    ("@g = global i64 99999999999999999999", "1:17: malformed number '99999999999999999999'");
    ( "define void @f() #99999999999999999999 {\nentry:\n  ret void\n}",
      "1:18: malformed attribute group number '#99999999999999999999'" );
  ]

let test_malformed_positions () =
  List.iter
    (fun (src, expected) ->
      match Parser.parse_module_result src with
      | Ok _ -> Alcotest.failf "accepted: %S" src
      | Error msg ->
        check string_t (String.escaped src) expected msg)
    malformed

let test_verifier_catches_undefined_value () =
  let src = "define i64 @f() {\nentry:\n  %r = add i64 %nope, 1\n  ret i64 %r\n}" in
  let m = parse src in
  check bool_t "violation reported" true (Verifier.check_module m <> [])

let test_verifier_catches_bad_branch () =
  let src = "define void @f() {\nentry:\n  br label %nowhere\n}" in
  let m = parse src in
  check bool_t "violation reported" true (Verifier.check_module m <> [])

let test_verifier_accepts_fixtures () =
  List.iter
    (fun src ->
      let m = parse src in
      match Verifier.check_module m with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "unexpected violation: %a" Verifier.pp_violation v)
    [ bell_qir; forloop_qir; static_qir; legacy_qir ]

(* Call sites must agree with the declared signature: arity, per-argument
   types, and the call's return type are all checked. *)
let callee_def = "define i64 @g(i64 %x, ptr %p) {\nentry:\n  ret i64 %x\n}\n"

let violations_mentioning affix vs =
  List.filter
    (fun (v : Verifier.violation) ->
      Astring.String.is_infix ~affix v.Verifier.what)
    vs

let test_verifier_catches_call_arity_mismatch () =
  let m =
    parse
      (callee_def
     ^ "define void @f() {\nentry:\n  %r = call i64 @g(i64 1)\n  ret void\n}")
  in
  let vs = Verifier.check_module m in
  check bool_t "arity mismatch reported" true
    (violations_mentioning "expected 2" vs <> [])

let test_verifier_catches_call_arg_type_mismatch () =
  let m =
    parse
      (callee_def
     ^ "define void @f() {\n\
        entry:\n\
       \  %r = call i64 @g(i64 1, i64 2)\n\
       \  ret void\n\
        }")
  in
  let vs = Verifier.check_module m in
  check bool_t "argument type mismatch reported" true
    (violations_mentioning "passes i64 for argument 1" vs <> [])

let test_verifier_catches_call_return_type_mismatch () =
  let m =
    parse
      (callee_def
     ^ "define void @f() {\n\
        entry:\n\
       \  %r = call i1 @g(i64 1, ptr null)\n\
       \  ret void\n\
        }")
  in
  let vs = Verifier.check_module m in
  check bool_t "return type mismatch reported" true
    (violations_mentioning "declared to return i64" vs <> [])

let test_verifier_accepts_matching_call () =
  let m =
    parse
      (callee_def
     ^ "define void @f() {\n\
        entry:\n\
       \  %r = call i64 @g(i64 1, ptr null)\n\
       \  ret void\n\
        }")
  in
  check int_t "matching call is clean" 0 (List.length (Verifier.check_module m))

(* Integer arithmetic, compares, width casts and switches must be typed
   with integer types (a compare may also order pointers). *)
let test_verifier_integer_types () =
  let body instrs term =
    parse
      (Printf.sprintf
         "define void @f(ptr %%p, double %%d) {\nentry:\n%s  %s\nx:\n  ret void\n}"
         instrs term)
  in
  let what m =
    List.map (fun (v : Verifier.violation) -> v.Verifier.what)
      (Verifier.check_module m)
  in
  List.iter
    (fun (instrs, term, expected) ->
      check (Alcotest.list string_t) (instrs ^ term) expected
        (what (body instrs term)))
    [
      ("  %a = add double %d, %d\n", "br label %x",
       [ "add on double, not an integer type" ]);
      ("  %c = icmp slt { } 0, 1\n", "br label %x",
       [ "icmp on {  }, not an integer type" ]);
      ("  %c = icmp eq ptr %p, null\n", "br label %x", []);
      ("  %t = trunc double %d to i32\n", "br label %x",
       [ "trunc on double, not an integer type" ]);
      ("  %z = zext i32 7 to ptr\n", "br label %x",
       [ "zext on ptr, not an integer type" ]);
      ("  %s = sext i8 1 to i64\n", "br label %x", []);
      ("", "switch double %d, label %x [ double 0.0, label %x ]",
       [ "switch on double, not an integer type" ]);
      ("", "switch i32 3, label %x [ i32 0, label %x ]", []);
    ]

(* SSA dominance: a use must be dominated by its definition (within a
   block, the definition comes first), a phi's incoming value must
   dominate the end of its predecessor, and unreachable blocks are
   exempt. *)
let test_verifier_dominance () =
  let what body =
    let m =
      parse
        ("declare void @h(ptr)\ndefine void @f(i1 %c) {\nentry:\n" ^ body
       ^ "\n}")
    in
    List.map (fun (v : Verifier.violation) -> v.Verifier.where ^ ": " ^ v.Verifier.what)
      (Verifier.check_module m)
  in
  List.iter
    (fun (name, body, expected) ->
      check (Alcotest.list string_t) name expected (what body))
    [
      ( "use before its definition in one block",
        "  call void @h(ptr %q)\n  %q = inttoptr i64 1 to ptr\n  ret void",
        [ "@f %entry: use of %q not dominated by its definition" ] );
      ( "a self-referencing instruction",
        "  %x = add i64 %x, 1\n  ret void",
        [ "@f %entry: use of %x not dominated by its definition" ] );
      ( "defined in one arm, used at the join",
        "  br i1 %c, label %t, label %j\nt:\n  %q = inttoptr i64 1 to ptr\n\
        \  br label %j\nj:\n  call void @h(ptr %q)\n  ret void",
        [ "@f %j: use of %q not dominated by its definition" ] );
      ( "a phi entry from the arm that does not define it",
        "  br i1 %c, label %t, label %j\nt:\n  %q = inttoptr i64 1 to ptr\n\
        \  br label %j\nj:\n  %p = phi ptr [ %q, %t ], [ %q, %entry ]\n\
        \  ret void",
        [ "@f %j: use of %q not dominated by its definition" ] );
      ( "a phi per arm, a loop-carried value and a dominating definition",
        "  %z = inttoptr i64 0 to ptr\n  br i1 %c, label %t, label %j\n\
         t:\n  %q = inttoptr i64 1 to ptr\n  br label %j\n\
         j:\n  %p = phi ptr [ %q, %t ], [ %z, %entry ]\n  br label %l\n\
         l:\n  %i = phi i64 [ 0, %j ], [ %n, %l ]\n  %n = add i64 %i, 1\n\
        \  call void @h(ptr %p)\n  call void @h(ptr %z)\n\
        \  br i1 %c, label %l, label %e\ne:\n  ret void",
        [] );
      ( "unreachable blocks are exempt",
        "  ret void\ndead:\n  call void @h(ptr %q)\n\
        \  %q = inttoptr i64 1 to ptr\n  br label %dead",
        [] );
    ]

(* ------------------------------------------------------------------ *)
(* Interpreter                                                          *)

let test_interp_arith () =
  let src =
    {|
define i64 @f(i64 %x, i64 %y) {
entry:
  %s = add i64 %x, %y
  %d = mul i64 %s, 3
  %q = sdiv i64 %d, 2
  ret i64 %q
}
|}
  in
  let m = parse src in
  match Interp.run m "f" [ Interp.VInt (Ty.I64, 5L); Interp.VInt (Ty.I64, 7L) ] with
  | Interp.VInt (_, n) -> check bool_t "result" true (Int64.equal n 18L)
  | _ -> Alcotest.fail "expected an integer result"

let test_interp_loop () =
  (* sum 0..n-1 with an alloca-based loop, as produced by a C frontend *)
  let src =
    {|
define i64 @sum(i64 %n) {
entry:
  %acc = alloca i64
  %i = alloca i64
  store i64 0, ptr %acc
  store i64 0, ptr %i
  br label %header
header:
  %iv = load i64, ptr %i
  %c = icmp slt i64 %iv, %n
  br i1 %c, label %body, label %done
body:
  %a = load i64, ptr %acc
  %a2 = add i64 %a, %iv
  store i64 %a2, ptr %acc
  %i2 = add i64 %iv, 1
  store i64 %i2, ptr %i
  br label %header
done:
  %r = load i64, ptr %acc
  ret i64 %r
}
|}
  in
  let m = parse src in
  match Interp.run m "sum" [ Interp.VInt (Ty.I64, 10L) ] with
  | Interp.VInt (_, n) -> check bool_t "sum 0..9" true (Int64.equal n 45L)
  | _ -> Alcotest.fail "expected an integer result"

let test_interp_recursion () =
  let src =
    {|
define i64 @fib(i64 %n) {
entry:
  %c = icmp slt i64 %n, 2
  br i1 %c, label %base, label %rec
base:
  ret i64 %n
rec:
  %n1 = sub i64 %n, 1
  %n2 = sub i64 %n, 2
  %f1 = call i64 @fib(i64 %n1)
  %f2 = call i64 @fib(i64 %n2)
  %r = add i64 %f1, %f2
  ret i64 %r
}
|}
  in
  let m = parse src in
  match Interp.run m "fib" [ Interp.VInt (Ty.I64, 12L) ] with
  | Interp.VInt (_, n) -> check bool_t "fib 12" true (Int64.equal n 144L)
  | _ -> Alcotest.fail "expected an integer result"

let test_interp_externals () =
  (* the Ex. 5 architecture: quantum instructions dispatch to the table *)
  let trace = ref [] in
  let externals =
    [
      ( "__quantum__qis__h__body",
        fun args ->
          (match args with
          | [ Interp.VPtr q ] -> trace := ("h", q) :: !trace
          | _ -> Alcotest.fail "h: bad args");
          Interp.VVoid );
      ( "__quantum__qis__cnot__body",
        fun args ->
          (match args with
          | [ Interp.VPtr a; Interp.VPtr b ] ->
            trace := ("cnot", a) :: !trace;
            trace := ("cnot_tgt", b) :: !trace
          | _ -> Alcotest.fail "cnot: bad args");
          Interp.VVoid );
      ( "__quantum__qis__mz__body",
        fun _ ->
          trace := ("mz", 0L) :: !trace;
          Interp.VVoid );
    ]
  in
  let m = parse static_qir in
  let result = Interp.run_entry ~externals m in
  check bool_t "void result" true (result = Interp.VVoid);
  let ops = List.rev_map fst !trace in
  check (Alcotest.list string_t) "gate order"
    [ "h"; "cnot"; "cnot_tgt"; "mz"; "mz" ]
    ops

let test_interp_forloop_calls_h_ten_times () =
  let count = ref 0 in
  let qubits = ref [] in
  let externals =
    [
      ( "__quantum__qis__h__body",
        fun args ->
          incr count;
          (match args with
          | [ Interp.VPtr q ] -> qubits := q :: !qubits
          | _ -> ());
          Interp.VVoid );
    ]
  in
  let m = parse forloop_qir in
  ignore (Interp.run_entry ~externals m);
  check int_t "ten h gates" 10 !count;
  check (Alcotest.list bool_t) "addresses 0..9"
    (List.init 10 (fun _ -> true))
    (List.rev_map (fun q -> q >= 0L && q < 10L) !qubits)

let test_interp_fuel () =
  let src =
    "define void @spin() {\nentry:\n  br label %l\nl:\n  br label %l\n}"
  in
  let m = parse src in
  match Interp.run ~fuel:1000 m "spin" [] with
  | exception Ir_error.Exec_error _ -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_interp_global_string () =
  let src =
    {|
@msg = constant [3 x i8] c"ok\00"
declare void @log(ptr)
define void @main() {
entry:
  call void @log(ptr @msg)
  ret void
}
|}
  in
  let m = parse src in
  let got = ref "" in
  let st =
    Interp.create
      ~externals:
        [
          ( "log",
            fun args ->
              (match args with
              | [ Interp.VPtr _ ] -> got := "ptr"
              | _ -> ());
              Interp.VVoid );
        ]
      m
  in
  ignore (Interp.run_function st "main" []);
  check string_t "logged a pointer" "ptr" !got

(* ------------------------------------------------------------------ *)
(* Builder                                                              *)

let test_builder_bell_like () =
  let b =
    Builder.create ~name:"main" ~ret_ty:Ty.Void ~params:[]
      ~attrs:[ ("entry_point", "") ] ()
  in
  Builder.insert b
    (Instr.Call (Ty.Void, "__quantum__qis__h__body", [ Operand.qubit_ptr 0L ]));
  Builder.insert b
    (Instr.Call
       ( Ty.Void,
         "__quantum__qis__cnot__body",
         [ Operand.qubit_ptr 0L; Operand.qubit_ptr 1L ] ));
  Builder.ret b None;
  let f = Builder.finish b in
  check int_t "two instructions" 2 (List.length (Func.entry f).Block.instrs);
  check bool_t "entry point" true (Func.has_attr f "entry_point")

let test_builder_rejects_unterminated () =
  let b = Builder.create ~name:"f" ~ret_ty:Ty.Void ~params:[] () in
  Builder.insert b (Instr.Alloca Ty.I64);
  match Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* CFG / dominators                                                     *)

let diamond =
  {|
define i64 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %join
e:
  br label %join
join:
  %r = phi i64 [ 1, %t ], [ 2, %e ]
  ret i64 %r
}
|}

let test_cfg_diamond () =
  let m = parse diamond in
  let f = Ir_module.find_func_exn m "f" in
  let cfg = Cfg.of_func f in
  check (Alcotest.list string_t) "entry succs" [ "t"; "e" ]
    (Block.successors (Cfg.block cfg "entry"));
  check
    (Alcotest.slist string_t String.compare)
    "join preds" [ "t"; "e" ] (Cfg.predecessors cfg "join");
  check int_t "reachable" 4 (Cfg.size cfg)

let test_dom_diamond () =
  let m = parse diamond in
  let f = Ir_module.find_func_exn m "f" in
  let dom = Dom.compute (Cfg.of_func f) in
  check (Alcotest.option string_t) "idom t" (Some "entry") (Dom.idom dom "t");
  check (Alcotest.option string_t) "idom join" (Some "entry")
    (Dom.idom dom "join");
  check bool_t "entry dominates join" true (Dom.dominates dom "entry" "join");
  check bool_t "t does not dominate join" false (Dom.dominates dom "t" "join");
  check (Alcotest.list string_t) "frontier of t" [ "join" ]
    (Dom.frontier dom "t")

let test_unreachable_blocks () =
  let src =
    {|
define void @f() {
entry:
  ret void
dead:
  br label %dead2
dead2:
  ret void
}
|}
  in
  let m = parse src in
  let cfg = Cfg.of_func (Ir_module.find_func_exn m "f") in
  check (Alcotest.list string_t) "dead blocks" [ "dead"; "dead2" ]
    (List.filter
       (fun l -> not (Cfg.is_reachable cfg l))
       [ "entry"; "dead"; "dead2" ]);
  check int_t "reachable" 1 (Cfg.size cfg);
  check bool_t "no such block" false (Cfg.is_reachable cfg "nowhere")

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)

(* Random straight-line integer programs: parse . print round-trips. *)
let gen_straightline =
  let open QCheck2.Gen in
  let* n = int_range 1 20 in
  let ops = [| "add"; "sub"; "mul"; "and"; "or"; "xor" |] in
  let* choices = list_repeat n (pair (int_range 0 5) (int_range (-100) 100)) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "define i64 @f(i64 %x) {\nentry:\n";
  List.iteri
    (fun i (op, k) ->
      let prev = if i = 0 then "%x" else Printf.sprintf "%%v%d" (i - 1) in
      Buffer.add_string buf
        (Printf.sprintf "  %%v%d = %s i64 %s, %d\n" i ops.(op) prev k))
    choices;
  Buffer.add_string buf
    (Printf.sprintf "  ret i64 %%v%d\n}\n" (List.length choices - 1));
  return (Buffer.contents buf)

let prop_roundtrip_straightline =
  QCheck2.Test.make ~count:100 ~name:"parse/print round-trip (straight-line)"
    gen_straightline (fun src ->
      let m1 = parse src in
      let m2 = parse (Printer.module_to_string m1) in
      String.equal (Printer.module_to_string m1) (Printer.module_to_string m2))

let prop_interp_matches_reference =
  QCheck2.Test.make ~count:100 ~name:"interpreter matches OCaml reference"
    QCheck2.Gen.(pair gen_straightline (int_range (-1000) 1000))
    (fun (src, x0) ->
      let m = parse src in
      (* reference evaluation by re-parsing the textual source *)
      let lines = String.split_on_char '\n' src in
      let apply acc line =
        match String.split_on_char ' ' (String.trim line) with
        | [ _; "="; op; "i64"; _arg; k ] ->
          let k = int_of_string (String.sub k 0 (String.length k)) in
          let k = Int64.of_int k in
          (match op with
          | "add" -> Int64.add acc k
          | "sub" -> Int64.sub acc k
          | "mul" -> Int64.mul acc k
          | "and" -> Int64.logand acc k
          | "or" -> Int64.logor acc k
          | "xor" -> Int64.logxor acc k
          | _ -> acc)
        | _ -> acc
      in
      (* strip the trailing comma of the first operand spelled "%x," *)
      let src_normalized =
        List.map
          (fun l ->
            String.concat "" (String.split_on_char ',' l))
          lines
      in
      let expected = List.fold_left apply (Int64.of_int x0) src_normalized in
      match Interp.run m "f" [ Interp.VInt (Ty.I64, Int64.of_int x0) ] with
      | Interp.VInt (_, n) -> Int64.equal n expected
      | _ -> false)

(* Float constants, infinities and NaNs included, round-trip through
   print + parse bit-exactly. *)
let prop_float_roundtrip =
  let gen =
    let open QCheck2.Gen in
    oneof
      [
        float;
        map Float.of_int (int_range (-1_000_000_000) 1_000_000_000);
        float_range (-10.0) 10.0;
        return Float.pi;
        return 1234567891.0;
        return Float.infinity;
        return Float.neg_infinity;
        return Float.nan;
      ]
  in
  QCheck2.Test.make ~count:200 ~name:"float constants round-trip exactly" gen
    (fun f ->
      let src =
        Format.asprintf
          "declare void @g(double)\ndefine void @f() {\nentry:\n  call void \
           @g(double %a)\n  ret void\n}"
          Constant.pp (Constant.Float f)
      in
      let m = parse src in
      let fn = Ir_module.find_func_exn m "f" in
      match (List.hd (Func.entry fn).Block.instrs).Instr.op with
      | Instr.Call (_, _, [ arg ]) -> (
        match arg.Operand.v with
        | Operand.Const (Constant.Float f') ->
          Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
        | _ -> false)
      | _ -> false)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip_straightline;
      prop_interp_matches_reference;
      prop_float_roundtrip;
    ]

let suite =
  [
    Alcotest.test_case "lexer: sigils" `Quick test_lexer_sigils;
    Alcotest.test_case "lexer: numbers" `Quick test_lexer_numbers;
    Alcotest.test_case "lexer: comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer: c-string escapes" `Quick test_lexer_cstring;
    Alcotest.test_case "parser: Fig.1 Bell QIR" `Quick test_parse_bell;
    Alcotest.test_case "parser: Ex.4 for-loop" `Quick test_parse_forloop;
    Alcotest.test_case "parser: Ex.6 static addresses" `Quick test_parse_static;
    Alcotest.test_case "parser: legacy typed pointers" `Quick test_parse_legacy;
    Alcotest.test_case "parser: switch and phi" `Quick test_parse_switch_phi;
    Alcotest.test_case "parser: error reporting" `Quick test_parse_error_location;
    Alcotest.test_case "roundtrip: Bell" `Quick (roundtrip "bell" bell_qir);
    Alcotest.test_case "roundtrip: for-loop" `Quick
      (roundtrip "forloop" forloop_qir);
    Alcotest.test_case "roundtrip: static" `Quick (roundtrip "static" static_qir);
    Alcotest.test_case "roundtrip: legacy" `Quick (roundtrip "legacy" legacy_qir);
    Alcotest.test_case "verifier: undefined value" `Quick
      test_verifier_catches_undefined_value;
    Alcotest.test_case "verifier: bad branch target" `Quick
      test_verifier_catches_bad_branch;
    Alcotest.test_case "verifier: fixtures are clean" `Quick
      test_verifier_accepts_fixtures;
    Alcotest.test_case "verifier: call arity mismatch" `Quick
      test_verifier_catches_call_arity_mismatch;
    Alcotest.test_case "verifier: call argument type mismatch" `Quick
      test_verifier_catches_call_arg_type_mismatch;
    Alcotest.test_case "verifier: call return type mismatch" `Quick
      test_verifier_catches_call_return_type_mismatch;
    Alcotest.test_case "verifier: matching call is clean" `Quick
      test_verifier_accepts_matching_call;
    Alcotest.test_case "interp: arithmetic" `Quick test_interp_arith;
    Alcotest.test_case "interp: alloca loop" `Quick test_interp_loop;
    Alcotest.test_case "interp: recursion" `Quick test_interp_recursion;
    Alcotest.test_case "interp: external dispatch (Ex.5)" `Quick
      test_interp_externals;
    Alcotest.test_case "interp: Ex.4 loop executes 10 H gates" `Quick
      test_interp_forloop_calls_h_ten_times;
    Alcotest.test_case "interp: fuel limit" `Quick test_interp_fuel;
    Alcotest.test_case "interp: global string" `Quick test_interp_global_string;
    Alcotest.test_case "builder: bell-like" `Quick test_builder_bell_like;
    Alcotest.test_case "builder: unterminated block" `Quick
      test_builder_rejects_unterminated;
    Alcotest.test_case "cfg: diamond" `Quick test_cfg_diamond;
    Alcotest.test_case "dom: diamond" `Quick test_dom_diamond;
    Alcotest.test_case "cfg: unreachable blocks" `Quick test_unreachable_blocks;
    Alcotest.test_case "roundtrip: examples and builder output" `Quick
      test_roundtrip_corpus;
    Alcotest.test_case "lexer: token traces pinned" `Quick test_token_traces_pinned;
    Alcotest.test_case "parser: malformed-input positions" `Quick
      test_malformed_positions;
    Alcotest.test_case "verifier: integer instructions need integer types"
      `Quick test_verifier_integer_types;
    Alcotest.test_case "verifier: uses dominated by their definitions" `Quick
      test_verifier_dominance;
  ]
  @ props

(* Fixtures shared with other test modules. *)
let fixtures =
  [ ("bell", bell_qir); ("forloop", forloop_qir); ("static", static_qir) ]
