(* The printed output of the seven examples and of two seismic-chain
   command lines, pinned as one MD5 each. The examples drive the public
   library API end to end and most of them plan through Chain_dp.plan,
   so a change to any cost, plan or estimate they print fails the test
   named after that output. Every pinned program is deterministic: its
   seeds are fixed and its Monte Carlo estimates do not depend on the
   domain count. weibull_cluster prints the name of a temporary file,
   which is masked before hashing. A change that moves an output on
   purpose updates its pin and names the output in CHANGES.md. *)

let exe dir name =
  Filename.concat (Filename.concat Filename.parent_dir_name dir) (name ^ ".exe")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Stdout of [program args], which must exit 0. *)
let stdout_of program args =
  let out = Filename.temp_file "ckpt_pin" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (String.concat " " (List.map Filename.quote (program :: args))
          ^ " > " ^ Filename.quote out)
      in
      Alcotest.(check int) (Filename.basename program ^ " exits 0") 0 code;
      read_file out)

let is_hex c = match c with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* [prefix] followed by hex digits and [suffix] becomes
   [prefix ^ "<hex>" ^ suffix], everywhere in [s]. *)
let mask_hex ~prefix ~suffix s =
  let buf = Buffer.create (String.length s) in
  let np = String.length prefix and ns = String.length suffix and n = String.length s in
  let rec go i =
    if i >= n then ()
    else if i + np <= n && String.sub s i np = prefix then begin
      let j = ref (i + np) in
      while !j < n && is_hex s.[!j] do incr j done;
      if !j > i + np && !j + ns <= n && String.sub s !j ns = suffix then begin
        Buffer.add_string buf (prefix ^ "<hex>" ^ suffix);
        go (!j + ns)
      end
      else begin
        Buffer.add_string buf prefix;
        go (i + np)
      end
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let test_mask () =
  Alcotest.(check string) "temp-file name masked"
    "through weibull_cluster<hex>.log)\nweibull_cluster.log weibull_clusterxyz.log"
    (mask_hex ~prefix:"weibull_cluster" ~suffix:".log"
       "through weibull_clusterb811bf.log)\nweibull_cluster.log weibull_clusterxyz.log")

let pin ?(mask = Fun.id) name program args digest =
  Alcotest.test_case name `Quick (fun () ->
      if not (Sys.file_exists program) then Alcotest.skip ();
      Alcotest.(check string)
        (name ^ ": MD5 of the output")
        digest
        (Digest.to_hex (Digest.string (mask (stdout_of program args)))))

let example ?mask name digest = pin ?mask ("example " ^ name) (exe "examples" name) [] digest

let seismic =
  List.fold_left Filename.concat Filename.parent_dir_name
    [ "examples"; "specs"; "seismic.chain" ]

let suite =
  [
    Alcotest.test_case "temp-file mask" `Quick test_mask;
    example "quickstart" "bca1601a74bafae1da51603c65c5e64c";
    example "seismic_pipeline" "b7bcc892e988f5586de85b239eb9652a";
    example "genome_selection" "4806416c5b8a3cd594a596786c5b3b89";
    example "exascale_moldable" "2c0e22a0d140a7283663c0bba78abbbd";
    example "weibull_cluster"
      ~mask:(mask_hex ~prefix:"weibull_cluster" ~suffix:".log")
      "92c0d1f1b866df965d63e5028d5d796e";
    example "tail_latency" "7d7ba978009bea160e0bb4ec96417c96";
    example "storage_budget" "bbb390a60071596690fa960edc755dc6";
    pin "ckpt-chain --compare on seismic.chain" (exe "bin" "ckpt_chain")
      [ seismic; "--compare" ] "f7b17f5c8d95195d0d8082be2c06caf1";
    pin "ckpt-report -n 4000 on seismic.chain" (exe "bin" "ckpt_report")
      [ seismic; "-n"; "4000" ] "4b7783e916a86a9aa6b99396abef5a58";
  ]
