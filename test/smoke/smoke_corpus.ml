(* Inputs shared by the smokes: the fuzzed circuits and text mutations
   of fault_smoke, and its classical corpus, so resource_smoke can
   digest the outputs of exactly the modules fault_smoke runs. *)

open Qcircuit

let circuits = 200
let mutations = 2000

(* Terminal measurements on every qubit so execution produces output. *)
let with_measurements (c : Circuit.t) =
  let b =
    Circuit.Build.create ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_qubits ()
  in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Gate (g, qs) -> Circuit.Build.gate b g qs
      | _ -> ())
    c.Circuit.ops;
  for q = 0 to c.Circuit.num_qubits - 1 do
    Circuit.Build.measure b q q
  done;
  Circuit.Build.finish b

(* fault_smoke's circuit [i] (0 <= i < [circuits]) and its seed. *)
let fault_seed i = 1000 + i

let fault_circuit i =
  let n = 2 + (i mod 5) in
  let gates = 10 + (i mod 4 * 10) in
  with_measurements
    (Generate.random ~seed:(fault_seed i) ~parametric:(i mod 2 = 0) ~gates n)

(* One seeded mutation of [text]. *)
let mutate rng text =
  let n = String.length text in
  let at = Rng.int rng (n + 1) in
  let insert s = String.sub text 0 at ^ s ^ String.sub text at (n - at) in
  match Rng.int rng 5 with
  | 0 ->
    let b = Bytes.of_string text in
    if n > 0 then Bytes.set b (min at (n - 1)) (Char.chr (Rng.int rng 256));
    Bytes.to_string b
  | 1 -> String.sub text 0 at
  | 2 -> insert [| "-"; " - "; "e"; "0x"; "-x" |].(Rng.int rng 5)
  | 3 -> insert (String.init 20 (fun _ -> Char.chr (Char.code '1' + Rng.int rng 9)))
  | _ ->
    let lines = String.split_on_char '\n' text in
    let k = Rng.int rng (List.length lines) in
    String.concat "\n"
      (List.concat (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) lines))

(* The seeds of fault_smoke's three mutation streams. *)
let static_seed = 2024
let dynamic_seed = 2025
let classical_seed = 2026

(* The modules among [count] seeded mutations of [texts] that parse and
   verify, in mutation order (a parse that raises is skipped). *)
let verified_mutations ?(count = mutations) ~seed texts =
  let texts = Array.of_list texts in
  let rng = Rng.create seed in
  List.filter_map
    (fun i ->
      match
        Llvm_ir.Parser.parse_module_result
          (mutate rng texts.(i mod Array.length texts))
      with
      | Ok m when Llvm_ir.Verifier.check_module m = [] -> Some m
      | Ok _ | Error _ -> None
      | exception _ -> None)
    (List.init count Fun.id)

(* An entry point that runs [body] from its entry block to [%done],
   which measures q0 and records the result. *)
let measured_entry body =
  "declare void @__quantum__qis__x__body(ptr)\n\
   declare void @__quantum__qis__mz__body(ptr, ptr)\n\
   declare void @__quantum__rt__result_record_output(ptr, ptr)\n\n\
   define void @main() \"entry_point\" {\nentry:\n" ^ body
  ^ "done:\n  call void @__quantum__qis__mz__body(ptr null, ptr null)\n\
    \  call void @__quantum__rt__result_record_output(ptr null, ptr null)\n\
    \  ret void\n}\n"

(* Classical control flow, where sccp has something to fold: a counted
   loop with a constant bound, a phi behind a constant branch, a select
   whose arms agree, a byte GEP and a switch; then narrow integers, where
   a folder that reads constants at the wrong width changes the answer. *)
let classical_corpus =
  [
    "declare void @__quantum__qis__h__body(ptr)\n\n\
     define void @main() \"entry_point\" {\nentry:\n\
    \  %k = add i32 1, 2\n  br label %header\nheader:\n\
    \  %i = phi i32 [ 0, %entry ], [ %next, %body ]\n\
    \  %cond = icmp slt i32 %i, %k\n\
    \  br i1 %cond, label %body, label %exit\nbody:\n\
    \  %idx = sext i32 %i to i64\n  %qb = inttoptr i64 %idx to ptr\n\
    \  call void @__quantum__qis__h__body(ptr %qb)\n\
    \  %next = add nsw i32 %i, 1\n  br label %header\nexit:\n\
    \  ret void\n}\n";
    "declare void @__quantum__qis__x__body(ptr)\n\n\
     define i64 @f(i1 %p, i64 %n) {\nentry:\n  %c = icmp eq i64 1, 1\n\
    \  br i1 %c, label %t, label %e\nt:\n  br label %join\ne:\n\
    \  br label %join\njoin:\n  %x = phi i64 [ 5, %t ], [ 99, %e ]\n\
    \  %s = select i1 %p, i64 %x, i64 5\n\
    \  %g = getelementptr i8, ptr null, i64 %s\n\
    \  call void @__quantum__qis__x__body(ptr %g)\n\
    \  switch i64 %s, label %d [ i64 5, label %five ]\nfive:\n\
    \  %y = mul i64 %s, %n\n  ret i64 %y\nd:\n  ret i64 0\n}\n";
    (* an i8 counter that wraps: 11 iterations, not the 6 an unwrapped
       count gives *)
    measured_entry
      "  br label %header\nheader:\n\
      \  %i = phi i8 [ 0, %entry ], [ %next, %body ]\n\
      \  %c = icmp ult i8 %i, 224\n\
      \  br i1 %c, label %body, label %done\nbody:\n\
      \  call void @__quantum__qis__x__body(ptr null)\n\
      \  %next = add i8 %i, 44\n  br label %header\n";
    (* an i8 switch whose case is written -1 and computed as 255 *)
    measured_entry
      "  %x = add i8 0, -1\n\
      \  switch i8 %x, label %done [ i8 -1, label %flip ]\nflip:\n\
      \  call void @__quantum__qis__x__body(ptr null)\n  br label %done\n";
    (* an i1 switch on a folded compare, with an [i1 true] case *)
    measured_entry
      "  %c = icmp eq i64 1, 1\n\
      \  switch i1 %c, label %done [ i1 true, label %flip ]\nflip:\n\
      \  call void @__quantum__qis__x__body(ptr null)\n  br label %done\n";
  ]
