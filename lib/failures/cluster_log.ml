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
  Text_log.with_file path ~magic:"# ckpt-workflows cluster log v1" (fun r ->
      let horizon = Text_log.horizon r in
      let description = Text_log.field r "description" in
      let n = Text_log.count r "nodes" (Text_log.field r "nodes") in
      let node i =
        match Option.map (fun l -> String.split_on_char ' ' (String.trim l)) (Text_log.line r) with
        | None -> Text_log.fail r "truncated log: expected %d nodes, got %d" n i
        | Some ("node" :: id :: count :: times) ->
            let node_id = Text_log.count r "node id" id in
            let count = Text_log.count r "failure count" count in
            if List.length times <> count then
              Text_log.fail r "node %d: expected %d times, got %d" node_id count
                (List.length times);
            let after = ref 0.0 in
            let time s = after := Text_log.time r ~horizon ~after:!after s; !after in
            { node_id; failure_times = Array.map time (Array.of_list times) }
        | Some _ -> Text_log.fail r "malformed node line"
      in
      (* Nodes are read as they come: a claimed count sizes nothing. *)
      let rec read acc i = if i = n then List.rev acc else read (node i :: acc) (i + 1) in
      { nodes = Array.of_list (read [] 0); horizon; description })
