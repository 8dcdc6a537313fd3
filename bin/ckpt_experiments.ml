(* CLI runner for the E1-E18 reproduction experiments. *)

open Cmdliner
module Obs_cli = Ckpt_obs_cli.Obs_cli

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ckpt-experiments: " ^ msg);
      exit 2)
    fmt

let run_experiments ids seed quick domains target_ci obs_flush =
  (match domains with
  | Some d when d <= 0 -> usage_error "--domains must be positive (got %d)" d
  | _ -> ());
  (match target_ci with
  | Some x when not (x > 0.0) -> usage_error "--target-ci must be positive (got %g)" x
  | _ -> ());
  let config =
    { Ckpt_experiments.Common.seed = Int64.of_int seed; quick; domains; target_ci }
  in
  let experiments =
    match ids with
    | [] -> Ckpt_experiments.Registry.all
    | ids ->
        List.map
          (fun id ->
            match Ckpt_experiments.Registry.find id with
            | Some e -> e
            | None ->
                usage_error "unknown experiment %S (use E1..E18)" id)
          ids
  in
  List.iter (Ckpt_experiments.Registry.run_and_print config) experiments;
  obs_flush ()

let ids =
  let doc = "Experiments to run (E1..E18). Runs all when omitted." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let seed =
  let doc = "PRNG seed: every table is bit-reproducible for a fixed seed." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let quick =
  let doc = "Reduced replication counts (CI-sized run)." in
  Arg.(value & flag & info [ "q"; "quick" ] ~doc)

let domains =
  let doc =
    "Domains of the parallel Monte-Carlo pool (default: up to 8, hardware permitting). \
     Tables are bit-identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"D" ~doc)

let target_ci =
  let doc =
    "Adaptive sampling for the simulation-backed experiments: sample until the relative \
     99% CI half-width falls below $(docv) (replication counts become the initial round)."
  in
  Arg.(value & opt (some float) None & info [ "target-ci" ] ~docv:"REL" ~doc)

let cmd =
  let doc = "regenerate the reproduction experiments of RR-7907" in
  let info = Cmd.info "ckpt-experiments" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(const run_experiments $ ids $ seed $ quick $ domains $ target_ci $ Obs_cli.term)

let () = exit (Cmd.eval cmd)
