module Rng = Ckpt_prng.Rng
module Law = Ckpt_dist.Law

type node = { node_id : int; failure_times : float array }

type t = { nodes : node array; horizon : float; description : string }

let generate ?(heterogeneity = 0.0) ~law ~nodes ~horizon rng =
  if nodes <= 0 then invalid_arg "Cluster_log.generate: nodes must be positive";
  if not (horizon > 0.0 && Float.is_finite horizon) then
    invalid_arg "Cluster_log.generate: horizon must be positive and finite";
  if not (heterogeneity >= 0.0 && heterogeneity < 1.0) then
    invalid_arg "Cluster_log.generate: heterogeneity must lie in [0,1)";
  let make_node node_id =
    let node_rng = Rng.substream rng (Printf.sprintf "node-%d" node_id) in
    let scale =
      if Float.equal heterogeneity 0.0 then 1.0
      else Rng.float_range node_rng (1.0 -. heterogeneity) (1.0 +. heterogeneity)
    in
    let rec collect acc time =
      let time = time +. (scale *. Law.sample law node_rng) in
      if time > horizon then List.rev acc else collect (time :: acc) time
    in
    { node_id; failure_times = Array.of_list (collect [] 0.0) }
  in
  {
    nodes = Array.init nodes make_node;
    horizon;
    description =
      Printf.sprintf "%s x %d nodes, heterogeneity=%g, seed=%Ld" (Law.to_string law) nodes
        heterogeneity (Rng.seed_of rng);
  }

let node_count t = Array.length t.nodes

let failure_count t =
  Array.fold_left (fun acc node -> acc + Array.length node.failure_times) 0 t.nodes

let merged_times t =
  let all =
    Array.concat (Array.to_list (Array.map (fun node -> node.failure_times) t.nodes))
  in
  Array.sort Float.compare all;
  all

let to_trace t =
  Trace.of_times ~processors:(node_count t) ~law:t.description ~horizon:t.horizon
    (merged_times t)

let node_mtbf t =
  Array.map
    (fun node ->
      let n = Array.length node.failure_times in
      if n = 0 then infinity else t.horizon /. float_of_int n)
    t.nodes

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# ckpt-workflows cluster log v1\n";
      Printf.fprintf oc "horizon %.17g\n" t.horizon;
      Printf.fprintf oc "description %s\n" t.description;
      Printf.fprintf oc "nodes %d\n" (node_count t);
      Array.iter
        (fun node ->
          Printf.fprintf oc "node %d %d" node.node_id (Array.length node.failure_times);
          Array.iter (fun time -> Printf.fprintf oc " %.17g" time) node.failure_times;
          Printf.fprintf oc "\n")
        t.nodes)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail fmt = Printf.ksprintf (fun msg -> failwith ("Cluster_log.load: " ^ msg)) fmt in
      let line () = try Some (input_line ic) with End_of_file -> None in
      (match line () with
      | Some "# ckpt-workflows cluster log v1" -> ()
      | _ -> fail "bad magic header in %s" path);
      let field name =
        match line () with
        | Some l when String.length l > String.length name
                      && String.sub l 0 (String.length name) = name ->
            String.sub l (String.length name + 1) (String.length l - String.length name - 1)
        | _ -> fail "missing field %s" name
      in
      let horizon = float_of_string (field "horizon") in
      if not (horizon > 0.0 && Float.is_finite horizon) then
        fail "horizon must be positive and finite";
      let description = field "description" in
      let n = int_of_string (field "nodes") in
      let nodes =
        Array.init n (fun i ->
            match line () with
            | None -> fail "truncated log: expected %d nodes, got %d" n i
            | Some l -> begin
                match String.split_on_char ' ' (String.trim l) with
                | "node" :: id :: count :: rest ->
                    let node_id = int_of_string id in
                    let count = int_of_string count in
                    let times = List.map float_of_string rest in
                    if List.length times <> count then
                      fail "node %d: expected %d times, got %d" node_id count
                        (List.length times);
                    { node_id; failure_times = Array.of_list times }
                | _ -> fail "malformed node line: %s" l
              end)
      in
      { nodes; horizon; description })
