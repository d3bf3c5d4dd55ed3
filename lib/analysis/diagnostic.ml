(* Structured lint diagnostics: a stable rule id, a severity, a location
   string ("@func %block") and a message. Rendering is shared by the
   qir-lint CLI (text and JSON) and by qirc --lint; JSON documents are
   built as {!Jsonx.t} values and printed by {!Jsonx.pretty}. *)

type severity = Error | Warning | Note

(* Version of the JSON output shape (diagnostics, --call-graph dump and
   the --resources certificate). Bump on any field rename/removal;
   adding fields is compatible. Version 2 introduced the resource
   certificate document and the QR rule series. *)
let schema_version = 2

type t = {
  rule : string;
  severity : severity;
  where : string;  (* "@func" or "@func %block" *)
  message : string;
}

let make ~rule ~severity ~where fmt =
  Format.kasprintf (fun message -> { rule; severity; where; message }) fmt

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let compare_severity a b =
  let rank = function Error -> 0 | Warning -> 1 | Note -> 2 in
  compare (rank a) (rank b)

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let errors ds = count Error ds
let warnings ds = count Warning ds
let notes ds = count Note ds

(* ------------------------------------------------------------------ *)
(* Text rendering: one line per diagnostic, gcc-style.                  *)

let pp ppf d =
  Format.fprintf ppf "%s: %s [%s] %s" (severity_name d.severity) d.where
    d.rule d.message

let render_text ppf ds =
  List.iter (fun d -> Format.fprintf ppf "%a@\n" pp d) ds;
  Format.fprintf ppf "%d error(s), %d warning(s), %d note(s)@." (errors ds)
    (warnings ds) (notes ds)

(* ------------------------------------------------------------------ *)
(* JSON rendering.                                                      *)

(* One finding; [module_name] is stamped on every finding, and on the
   envelope, so that concatenated or merged outputs stay attributable. *)
let to_json ~module_name d =
  Jsonx.Obj
    [
      ("rule", Jsonx.Str d.rule);
      ("severity", Jsonx.Str (severity_name d.severity));
      ("module", Jsonx.Str module_name);
      ("where", Jsonx.Str d.where);
      ("message", Jsonx.Str d.message);
    ]

let json_document ?(module_name = "") ds =
  Jsonx.Obj
    [
      ("schema_version", Jsonx.int schema_version);
      ("module", Jsonx.Str module_name);
      ("diagnostics", Jsonx.Arr (List.map (to_json ~module_name) ds));
      ( "summary",
        Jsonx.Obj
          [
            ("errors", Jsonx.int (errors ds));
            ("warnings", Jsonx.int (warnings ds));
            ("notes", Jsonx.int (notes ds));
          ] );
    ]

let render_json ?module_name ppf ds =
  Format.fprintf ppf "%s@." (Jsonx.pretty (json_document ?module_name ds))
