(* Constant values. The type of a constant is supplied by the context in
   which it occurs (every LLVM operand use is typed), so constants carry
   only the payload that cannot be recovered from the context type. *)

type t =
  | Int of int64 (* integer constant of the context's integer type *)
  | Float of float
  | Bool of bool (* i1 true/false *)
  | Null (* ptr null *)
  | Undef
  | Inttoptr of int64 (* inttoptr (i64 n to ptr) — static qubit address *)
  | Global of string (* @name used as a value *)
  | Str of string (* c"..." initializer *)
  | Arr of Ty.t * t list (* [ty v, ty v, ...] initializer *)
  | Zeroinit

let rec equal a b =
  match a, b with
  | Int x, Int y -> Int64.equal x y
  | Float x, Float y -> Float.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Null, Null | Undef, Undef | Zeroinit, Zeroinit -> true
  | Inttoptr x, Inttoptr y -> Int64.equal x y
  | Global x, Global y | Str x, Str y -> String.equal x y
  | Arr (t, xs), Arr (u, ys) ->
    Ty.equal t u && List.length xs = List.length ys && List.for_all2 equal xs ys
  | ( ( Int _ | Float _ | Bool _ | Null | Undef | Inttoptr _ | Global _
      | Str _ | Arr _ | Zeroinit ),
      _ ) ->
    false

let escape_c_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c >= ' ' && c <= '~' && c <> '"' && c <> '\\' then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "\\%02X" (Char.code c)))
    s;
  Buffer.contents buf

let rec pp ppf = function
  | Int n -> Format.fprintf ppf "%Ld" n
  | Float f ->
    (* print with enough digits to round-trip exactly: %.1f is exact for
       integer-valued doubles below 2^53, %.17g for other finite ones,
       and LLVM's hex IEEE bits for infinities and NaNs *)
    if not (Float.is_finite f) then
      Format.fprintf ppf "0x%016LX" (Int64.bits_of_float f)
    else if Float.is_integer f && Float.abs f < 9e15 then
      Format.fprintf ppf "%.1f" f
    else Format.fprintf ppf "%.17g" f
  | Bool true -> Format.pp_print_string ppf "true"
  | Bool false -> Format.pp_print_string ppf "false"
  | Null -> Format.pp_print_string ppf "null"
  | Undef -> Format.pp_print_string ppf "undef"
  | Inttoptr n -> Format.fprintf ppf "inttoptr (i64 %Ld to ptr)" n
  | Global g -> Format.fprintf ppf "@%s" g
  | Str s -> Format.fprintf ppf "c\"%s\"" (escape_c_string s)
  | Arr (ty, vs) ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf v -> Format.fprintf ppf "%a %a" Ty.pp ty pp v))
      vs
  | Zeroinit -> Format.pp_print_string ppf "zeroinitializer"

let to_string c = Format.asprintf "%a" pp c
