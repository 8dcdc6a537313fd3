type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- parsing -------------------------------------------------------- *)

(* Every ckpt-serve frame is decoded here, serially, on the event-loop
   domain, so the hot loops allocate nothing per byte: the cursor byte is
   read as a plain char (no option), a string without escapes is one
   String.sub, and the duplicate-key check scans the keys already read. *)

type state = { src : string; mutable pos : int; mutable depth : int }

(* The parser recurses once per open array or object. Nothing the repo
   reads or writes nests more than a few levels deep; the bound keeps a
   frame of nested brackets from stalling ckpt-serve's event loop. *)
let max_depth = 512

let err st msg =
  (* Derive line/column from the offset so messages stay useful on the
     single-line JSON the bench writes as well as on pretty files. *)
  let line = ref 1 and col = ref 1 in
  for i = 0 to Stdlib.min st.pos (String.length st.src) - 1 do
    if st.src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  raise (Parse_error (Printf.sprintf "line %d, column %d: %s" !line !col msg))

let at_end st = st.pos >= String.length st.src

(* The byte under the cursor, or '\000' at the end of the input. No
   caller acts on a NUL byte, so [at_end] is only asked when choosing
   between two error messages. *)
let[@inline] cur st =
  if st.pos < String.length st.src then String.unsafe_get st.src st.pos else '\000'

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while match cur st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
    advance st
  done

let expect st c =
  if cur st = c then advance st
  else if at_end st then err st (Printf.sprintf "expected %C, got end of input" c)
  else err st (Printf.sprintf "expected %C, got %C" c (cur st))

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else err st (Printf.sprintf "expected %s" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> err st "bad hex digit in \\u escape"

let parse_unicode_escape st buf =
  if st.pos + 4 > String.length st.src then err st "truncated \\u escape";
  let code = ref 0 in
  for i = 0 to 3 do
    code := (!code * 16) + hex_digit st st.src.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  let cp = !code in
  if cp >= 0xD800 && cp <= 0xDFFF then err st "surrogate \\u escapes are not supported";
  (* UTF-8 encode the BMP code point. *)
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* The rest of a string once an escape has been met; [buf] holds the
   decoded prefix and the cursor is on the backslash. *)
let rec parse_escaped st buf =
  match cur st with
  | '"' ->
      advance st;
      Buffer.contents buf
  | '\\' ->
      advance st;
      if at_end st then err st "unterminated escape";
      let c = cur st in
      advance st;
      (match c with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' -> parse_unicode_escape st buf
      | c -> err st (Printf.sprintf "bad escape \\%c" c));
      parse_escaped st buf
  | _ when at_end st -> err st "unterminated string"
  | c when Char.code c < 0x20 -> err st "raw control character in string"
  | c ->
      advance st;
      Buffer.add_char buf c;
      parse_escaped st buf

let parse_string_body st =
  expect st '"';
  let start = st.pos in
  while
    match cur st with '"' | '\\' -> false | c -> Char.code c >= 0x20
  do
    advance st
  done;
  match cur st with
  | '"' ->
      let s = String.sub st.src start (st.pos - start) in
      advance st;
      s
  | '\\' ->
      let buf = Buffer.create (st.pos - start + 16) in
      Buffer.add_substring buf st.src start (st.pos - start);
      parse_escaped st buf
  | _ when at_end st -> err st "unterminated string"
  | _ -> err st "raw control character in string"

let consume_digits st =
  let start = st.pos in
  while match cur st with '0' .. '9' -> true | _ -> false do
    advance st
  done;
  st.pos > start

let parse_number st =
  let start = st.pos in
  if cur st = '-' then advance st;
  if not (consume_digits st) then err st "malformed number";
  if cur st = '.' then begin
    advance st;
    if not (consume_digits st) then err st "malformed number (digits after '.')"
  end;
  (match cur st with
  | 'e' | 'E' ->
      advance st;
      (match cur st with '+' | '-' -> advance st | _ -> ());
      if not (consume_digits st) then err st "malformed number (exponent digits)"
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string text with
  | x when Float.is_finite x -> Number x
  | _ | (exception Failure _) -> err st (Printf.sprintf "malformed number %S" text)

(* Duplicate keys: a scan of the keys already read is cheaper than a
   table for the small objects that dominate, and past [scan_limit] keys
   a table keeps a huge object linear. *)
let scan_limit = 8

let rec has_key key = function
  | [] -> false
  | (k, _) :: rest -> String.equal k key || has_key key rest

(* Rejects [key] if [fields] (of which there are [count]) already has it;
   returns the table to use from now on, built once [count] reaches
   [scan_limit]. *)
let check_new_key st key fields count seen =
  let duplicate =
    match seen with Some table -> Hashtbl.mem table key | None -> has_key key fields
  in
  if duplicate then err st (Printf.sprintf "duplicate object key %S" key);
  match seen with
  | Some table ->
      Hashtbl.add table key ();
      seen
  | None when count < scan_limit -> None
  | None ->
      let table =
        Hashtbl.create 64
          [@@lint.domain_safe "parse-local duplicate-key check; never escapes parse_value"]
      in
      List.iter (fun (k, _) -> Hashtbl.add table k ()) fields;
      Hashtbl.add table key ();
      Some table

(* Enters an array or object at the cursor's bracket. *)
let open_nested st =
  if st.depth >= max_depth then
    err st (Printf.sprintf "nesting deeper than %d arrays and objects" max_depth);
  st.depth <- st.depth + 1;
  advance st;
  skip_ws st

let close_nested st v =
  advance st;
  st.depth <- st.depth - 1;
  v

let rec parse_value st =
  skip_ws st;
  match cur st with
  | '{' ->
      open_nested st;
      if cur st = '}' then close_nested st (Obj [])
      else Obj (parse_members st [] 0 None)
  | '[' ->
      open_nested st;
      if cur st = ']' then close_nested st (List [])
      else List (parse_elements st [])
  | '"' -> String (parse_string_body st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | _ when at_end st -> err st "unexpected end of input"
  | c -> err st (Printf.sprintf "unexpected character %C" c)

and parse_members st fields count seen =
  skip_ws st;
  let key = parse_string_body st in
  let seen = check_new_key st key fields count seen in
  skip_ws st;
  expect st ':';
  let v = parse_value st in
  let fields = (key, v) :: fields in
  skip_ws st;
  match cur st with
  | ',' ->
      advance st;
      parse_members st fields (count + 1) seen
  | '}' -> close_nested st (List.rev fields)
  | _ -> err st "expected ',' or '}' in object"

and parse_elements st items =
  let items = parse_value st :: items in
  skip_ws st;
  match cur st with
  | ',' ->
      advance st;
      parse_elements st items
  | ']' -> close_nested st (List.rev items)
  | _ -> err st "expected ',' or ']' in array"

let parse s =
  let st = { src = s; pos = 0; depth = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then err st "trailing content after JSON value";
  v

let parse_result s = try Ok (parse s) with Parse_error msg -> Error msg

(* --- printing ------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest representation that parses back to the same float: try the
   12-digit form first so common values stay readable. *)
let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let short = Printf.sprintf "%.12g" x in
    if Float.equal (float_of_string short) x then short else Printf.sprintf "%.17g" x

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number x ->
      Buffer.add_string buf (if Float.is_finite x then number_to_string x else "null")
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Number x, Number y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (kx, vx) (ky, vy) -> String.equal kx ky && equal vx vy)
           xs ys
  | _ -> false

(* --- accessors ------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_float = function Number x -> Some x | _ -> None

let to_int = function
  | Number x when Float.is_integer x && Float.abs x <= 1e15 -> Some (int_of_float x)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj l -> Some l | _ -> None
