(* A diagnostic is one rule violation pinned to a source location, plus
   the text and JSON renderings shared by the CLI and the test suite.
   This module must stay dependency-free (the linter lints the libraries
   it would otherwise depend on). *)

type severity = Error | Warning

type t = {
  rule : string;
  severity : severity;
  file : string;  (* normalized, relative to the lint root *)
  line : int;  (* 1-based *)
  col : int;  (* 0-based, compiler convention *)
  message : string;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | _ -> None

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

let to_text d =
  Printf.sprintf "%s:%d:%d: %s [%s] %s" d.file d.line d.col
    (severity_to_string d.severity)
    d.rule d.message

let to_json d =
  Printf.sprintf
    "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"severity\":\"%s\",\"rule\":\"%s\",\"message\":\"%s\"}"
    (Ckpt_json.Json.escape d.file) d.line d.col
    (severity_to_string d.severity)
    (Ckpt_json.Json.escape d.rule) (Ckpt_json.Json.escape d.message)

let count ds =
  List.fold_left
    (fun (e, w) d ->
      match d.severity with Error -> (e + 1, w) | Warning -> (e, w + 1))
    (0, 0) ds

let list_to_json ds =
  let errors, warnings = count ds in
  let body = String.concat ",\n" (List.map to_json ds) in
  Printf.sprintf "{\"errors\":%d,\"warnings\":%d,\"diagnostics\":[%s%s]}" errors
    warnings
    (if ds = [] then "" else "\n")
    body
