module Json = Ckpt_json.Json

let version = 1

type case_result = {
  name : string;
  tags : string list;
  unit_ : string;
  samples : int;
  mean : float;
  stddev : float;
  ci99 : float * float;
  wall_s : float;
}

type mode = Quick | Full

type meta = {
  git_sha : string;
  ocaml_version : string;
  domains : int;
  mode : mode;
}

type run = { meta : meta; cases : case_result list; metrics : Json.t }

(* --- run metadata --------------------------------------------------- *)

let read_file_opt path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* Resolve HEAD without shelling out: walk up to a `.git` (directory, or
   worktree file containing "gitdir: <path>"), read HEAD, follow one
   level of "ref: refs/..." through the loose ref or packed-refs. *)
let git_sha_of_dir start =
  let rec find_git_dir dir depth =
    if depth > 16 then None
    else
      let candidate = Filename.concat dir ".git" in
      if Sys.file_exists candidate then
        if Sys.is_directory candidate then Some candidate
        else
          Option.bind (read_file_opt candidate) (fun contents ->
              let contents = String.trim contents in
              let prefix = "gitdir:" in
              if String.starts_with ~prefix contents then
                let p =
                  String.trim
                    (String.sub contents (String.length prefix)
                       (String.length contents - String.length prefix))
                in
                Some (if Filename.is_relative p then Filename.concat dir p else p)
              else None)
      else
        let parent = Filename.dirname dir in
        if String.equal parent dir then None else find_git_dir parent (depth + 1)
  in
  let resolve_ref git_dir ref_name =
    match read_file_opt (Filename.concat git_dir ref_name) with
    | Some sha -> Some (String.trim sha)
    | None ->
        Option.bind (read_file_opt (Filename.concat git_dir "packed-refs"))
          (fun packed ->
            String.split_on_char '\n' packed
            |> List.find_map (fun line ->
                   match String.index_opt line ' ' with
                   | Some i
                     when String.equal
                            (String.sub line (i + 1) (String.length line - i - 1))
                            ref_name ->
                       Some (String.sub line 0 i)
                   | _ -> None))
  in
  Option.bind (find_git_dir start 0) (fun git_dir ->
      Option.bind (read_file_opt (Filename.concat git_dir "HEAD")) (fun head ->
          let head = String.trim head in
          let prefix = "ref: " in
          if String.starts_with ~prefix head then
            resolve_ref git_dir
              (String.sub head (String.length prefix)
                 (String.length head - String.length prefix))
          else Some head))

let resolve_git_sha () =
  match Sys.getenv_opt "CKPT_BENCH_GIT_SHA" with
  | Some sha when sha <> "" -> sha
  | _ -> (
      match git_sha_of_dir (Sys.getcwd ()) with
      | Some sha when sha <> "" -> sha
      | _ -> "unknown")

let make_meta ~mode =
  {
    git_sha = resolve_git_sha ();
    ocaml_version = Sys.ocaml_version;
    domains = Domain.recommended_domain_count ();
    mode;
  }

(* --- serialization -------------------------------------------------- *)

let mode_to_string = function Quick -> "quick" | Full -> "full"

let mode_of_string = function
  | "quick" -> Ok Quick
  | "full" -> Ok Full
  | other -> Error (Printf.sprintf "bad mode %S (expected quick/full)" other)

let json_of_case c =
  let lo, hi = c.ci99 in
  Json.Obj
    [
      ("name", Json.String c.name);
      ("tags", Json.List (List.map (fun t -> Json.String t) c.tags));
      ("unit", Json.String c.unit_);
      ("samples", Json.Number (float_of_int c.samples));
      ("mean", Json.Number c.mean);
      ("stddev", Json.Number c.stddev);
      ("ci99_lo", Json.Number lo);
      ("ci99_hi", Json.Number hi);
      ("wall_s", Json.Number c.wall_s);
    ]

let to_json run =
  Json.Obj
    [
      ("schema_version", Json.Number (float_of_int version));
      ( "meta",
        Json.Obj
          [
            ("git_sha", Json.String run.meta.git_sha);
            ("ocaml_version", Json.String run.meta.ocaml_version);
            ("domains", Json.Number (float_of_int run.meta.domains));
            ("mode", Json.String (mode_to_string run.meta.mode));
          ] );
      ("cases", Json.List (List.map json_of_case run.cases));
      ("metrics", run.metrics);
    ]

(* Strict field extraction with paths in error messages. *)
let ( let* ) = Result.bind

let field ctx name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed field %S" ctx name)

let case_of_json ctx json =
  let* name = field ctx "name" Json.to_str json in
  let ctx = Printf.sprintf "%s (case %s)" ctx name in
  let* tags_json = field ctx "tags" Json.to_list json in
  let* tags =
    List.fold_left
      (fun acc t ->
        let* acc = acc in
        match Json.to_str t with
        | Some s -> Ok (s :: acc)
        | None -> Error (ctx ^ ": non-string tag"))
      (Ok []) tags_json
    |> Result.map List.rev
  in
  let* unit_ = field ctx "unit" Json.to_str json in
  let* samples = field ctx "samples" Json.to_int json in
  let* mean = field ctx "mean" Json.to_float json in
  let* stddev = field ctx "stddev" Json.to_float json in
  let* lo = field ctx "ci99_lo" Json.to_float json in
  let* hi = field ctx "ci99_hi" Json.to_float json in
  let* wall_s = field ctx "wall_s" Json.to_float json in
  Ok { name; tags; unit_; samples; mean; stddev; ci99 = (lo, hi); wall_s }

let of_json json =
  let ctx = "bench run" in
  let* v = field ctx "schema_version" Json.to_int json in
  if v > version then
    Error
      (Printf.sprintf "%s: schema_version %d is newer than supported version %d" ctx v
         version)
  else
    let* meta_json = field ctx "meta" Option.some json in
    let mctx = "meta" in
    let* git_sha = field mctx "git_sha" Json.to_str meta_json in
    let* ocaml_version = field mctx "ocaml_version" Json.to_str meta_json in
    let* domains = field mctx "domains" Json.to_int meta_json in
    let* mode_s = field mctx "mode" Json.to_str meta_json in
    let* mode = mode_of_string mode_s in
    let* cases_json = field ctx "cases" Json.to_list json in
    let* cases =
      List.fold_left
        (fun acc c ->
          let* acc = acc in
          let* case = case_of_json "case" c in
          Ok (case :: acc))
        (Ok []) cases_json
      |> Result.map List.rev
    in
    let* metrics = field ctx "metrics" Option.some json in
    Ok { meta = { git_sha; ocaml_version; domains; mode }; cases; metrics }

let write ~path run =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json run));
      output_char oc '\n')

let read ~path =
  match read_file_opt path with
  | None -> Error (Printf.sprintf "%s: cannot read file" path)
  | Some contents -> (
      match Json.parse_result contents with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok json -> (
          match of_json json with
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
          | Ok run -> Ok run))

(* --- queries -------------------------------------------------------- *)

let find_case run name =
  List.find_opt (fun c -> String.equal c.name name) run.cases

let metric_names run =
  [ "metrics"; "timings" ]
  |> List.concat_map (fun section ->
         match Option.bind (Json.member section run.metrics) Json.to_obj with
         | Some fields -> List.map fst fields
         | None -> [])

let has_metric run key = List.exists (String.equal key) (metric_names run)

let equal_case a b =
  String.equal a.name b.name
  && List.length a.tags = List.length b.tags
  && List.for_all2 String.equal a.tags b.tags
  && String.equal a.unit_ b.unit_
  && a.samples = b.samples
  && Float.equal a.mean b.mean
  && Float.equal a.stddev b.stddev
  && Float.equal (fst a.ci99) (fst b.ci99)
  && Float.equal (snd a.ci99) (snd b.ci99)
  && Float.equal a.wall_s b.wall_s

let equal_run a b =
  String.equal a.meta.git_sha b.meta.git_sha
  && String.equal a.meta.ocaml_version b.meta.ocaml_version
  && a.meta.domains = b.meta.domains
  && (match (a.meta.mode, b.meta.mode) with
     | Quick, Quick | Full, Full -> true
     | _ -> false)
  && List.length a.cases = List.length b.cases
  && List.for_all2 equal_case a.cases b.cases
  && Json.equal a.metrics b.metrics
