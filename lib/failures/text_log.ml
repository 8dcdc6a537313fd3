(* Line reader shared by the plain-text failure formats (Trace.load and
   Cluster_log.load): nothing is sized from a count the file claims, and
   every error is a Failure "path:line: message". *)

type t = { path : string; ic : in_channel; mutable line : int }

let fail r fmt =
  Printf.ksprintf (fun msg -> failwith (Printf.sprintf "%s:%d: %s" r.path r.line msg)) fmt

let line r =
  match input_line r.ic with
  | l -> r.line <- r.line + 1; Some l
  | exception End_of_file -> None

let with_file path ~magic f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let r = { path; ic; line = 0 } in
      if line r <> Some magic then fail r "bad magic header";
      f r)

let field r name =
  let prefix = name ^ " " in
  match line r with
  | Some l when String.starts_with ~prefix l ->
      String.sub l (String.length prefix) (String.length l - String.length prefix)
  | _ -> fail r "missing field %s" name

let horizon r =
  match float_of_string_opt (field r "horizon") with
  | Some h when h > 0.0 && Float.is_finite h -> h
  | _ -> fail r "horizon must be positive and finite"

let count r what s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> n
  | _ -> fail r "%s must be a non-negative integer, got %S" what s

(* A failure time in [after, horizon], [after] being the previous time
   of its series (0 for the first). *)
let time r ~horizon ~after s =
  match float_of_string_opt s with
  | Some x when x >= after && x <= horizon -> x
  | Some x when x >= 0.0 && x <= horizon -> fail r "failure times are not sorted"
  | _ -> fail r "failure time %S is not a number in [0, horizon]" s
