(* Workload inputs: generated from a seed, written to files, and read
   back by the timed program. Each topology is drawn from a fixed
   generator seed per workload, so run-to-run spread measures the
   program and not the graph (Centaur cold start on caida-like n = 150
   graphs ranges 2.4-4.1 s across generator seeds); [--seed] draws the
   operations run on it: the order of the flips, the update stream and
   the analysed sources. *)

type workload = Centaur_caida | Bgp_caida | Centaur_churn | Analyze_5k

let all = [ Centaur_caida; Bgp_caida; Centaur_churn; Analyze_5k ]

let name = function
  | Centaur_caida -> "centaur-caida"
  | Bgp_caida -> "bgp-caida"
  | Centaur_churn -> "centaur-churn"
  | Analyze_5k -> "analyze-5k"

let of_name s = List.find_opt (fun w -> name w = s) all

type sizes = {
  centaur_nodes : int;  (** caida-like nodes, centaur-caida *)
  centaur_flip_links : int;  (** links flipped down and up per round *)
  bgp_nodes : int;
  bgp_flip_links : int;
  churn_nodes : int;  (** BRITE nodes, centaur-churn *)
  churn_rate : float;  (** stream arrivals per ms *)
  churn_duration : float;  (** stream arrival window, ms *)
  analyze_nodes : int;
  analyze_sources : int;
}

let full =
  { centaur_nodes = 150;
    centaur_flip_links = 20;
    bgp_nodes = 300;
    bgp_flip_links = 30;
    churn_nodes = 100;
    churn_rate = 1.0;
    churn_duration = 450.0;
    analyze_nodes = 5000;
    analyze_sources = 40 }

(* Sizes the benchmark's own tests run the same code at. *)
let small =
  { centaur_nodes = 40;
    centaur_flip_links = 4;
    bgp_nodes = 40;
    bgp_flip_links = 4;
    churn_nodes = 30;
    churn_rate = 0.5;
    churn_duration = 60.0;
    analyze_nodes = 200;
    analyze_sources = 8 }

(* Fixed generator seeds, one per topology. *)
let topo_seed = function
  | Centaur_caida -> 2009
  | Bgp_caida -> 2010
  | Centaur_churn -> 2011
  | Analyze_5k -> 2012

(* Stream shape: link flaps plus leak / claim / corrupt overrides, no
   loss windows (see README: the engine never repairs a lost update, so
   a lossy stream has no independent end-state check). *)
let churn_policy_share = 0.15
let churn_window = 8.0
let brite_m = 2

let topology sizes w =
  let rng = Rng.create (topo_seed w) in
  match w with
  | Centaur_caida -> As_gen.generate rng (As_gen.caida_like ~n:sizes.centaur_nodes)
  | Bgp_caida -> As_gen.generate rng (As_gen.caida_like ~n:sizes.bgp_nodes)
  | Analyze_5k -> As_gen.generate rng (As_gen.caida_like ~n:sizes.analyze_nodes)
  | Centaur_churn ->
    Brite.annotated rng ~n:sizes.churn_nodes ~m:brite_m ~max_delay:5.0
      ~num_tiers:4

(* Load of each link: the (node, dest) pairs whose selected next hop
   crosses it, in either direction. A cheap stand-in for the routes a
   flip disturbs. *)
let link_loads topo =
  let n = Topology.num_nodes topo in
  let load = Array.make (Topology.num_links topo) 0 in
  let ws = Solver.create_workspace () in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest_with ws topo dest in
    for src = 0 to n - 1 do
      let hop = Solver.next_hop_id r src in
      if hop >= 0 then
        match Topology.link_between topo src hop with
        | Some l -> load.(l) <- load.(l) + 1
        | None -> ()
    done
  done;
  load

(* The flipped links: sorted by load and cut into [count] equal slices,
   one link drawn from each slice with the workload's fixed seed, so the
   list spans core to edge. The list is the same for every [--seed],
   which sets only the order of the flips: a flip's cost is heavy-tailed
   (on centaur-caida its standard deviation is 1.3 times its mean, and
   the costliest link takes 17 times the median), so 20-link lists drawn
   per seed differed by a third in flips per second. *)
let flip_list w topo ~count ~seed =
  let rng = Rng.create (topo_seed w + 100) in
  let load = link_loads topo in
  let links = Array.init (Array.length load) Fun.id in
  Array.stable_sort (fun a b -> compare load.(a) load.(b)) links;
  let num_links = Array.length links in
  let count = min count num_links in
  let picked =
    List.init count (fun i ->
        let lo = i * num_links / count in
        let hi = ((i + 1) * num_links / count) - 1 in
        links.(Rng.int_in rng lo hi))
  in
  Rng.shuffle_list (Rng.create seed) picked

(* One source drawn from each of [count] equal slices of the node-id
   range. Generated ids run from the Tier-1 core to the stubs, so every
   seed's set spans the tiers in like measure; a source's P-graph fold
   cost depends on its tier. *)
let sources rng ~n ~count =
  let count = min count n in
  List.init count (fun i -> Rng.int_in rng (i * n / count) (((i + 1) * n / count) - 1))

let stream sizes ~seed topo =
  Stream.Update_stream.generate ~seed ~rate:sizes.churn_rate
    ~duration:sizes.churn_duration ~policy_share:churn_policy_share
    ~loss_share:0.0 topo

(* {2 Files} *)

let topo_file dir = Filename.concat dir "topo.txt"
let flips_file dir = Filename.concat dir "flips.txt"
let stream_file dir = Filename.concat dir "stream.txt"
let sources_file dir = Filename.concat dir "sources.txt"

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else String.trim l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let int_lines path =
  List.map
    (fun l ->
      match int_of_string_opt l with
      | Some v -> v
      | None -> failwith (Printf.sprintf "%s: bad line %S" path l))
    (read_lines path)

let onoff b = if b then "1" else "0"

(* Floats are written in hexadecimal so the stream reads back bit-exact. *)
let stream_line (e : Stream.Update_stream.event) =
  let body =
    match e.Stream.Update_stream.update with
    | Stream.Update_stream.Link { link_id; up } ->
      Printf.sprintf "link %d %s" link_id (onoff up)
    | Stream.Update_stream.Loss _ -> invalid_arg "Gen: streams carry no loss windows"
    | Stream.Update_stream.Policy (Faults.Scenario.Leak { node; on }) ->
      Printf.sprintf "leak %d %s" node (onoff on)
    | Stream.Update_stream.Policy (Faults.Scenario.Claim { node; dest; on }) ->
      Printf.sprintf "claim %d %d %s" node dest (onoff on)
    | Stream.Update_stream.Policy (Faults.Scenario.Corrupt { node; on }) ->
      Printf.sprintf "corrupt %d %s" node (onoff on)
  in
  Printf.sprintf "%h %s" e.Stream.Update_stream.at body

let parse_stream path =
  let bad l = failwith (Printf.sprintf "%s: bad line %S" path l) in
  match read_lines path with
  | [] -> bad "<empty>"
  | header :: rest ->
    let seed, rate, duration =
      match String.split_on_char ' ' header with
      | [ "stream"; s; r; d ] -> (
        match (int_of_string_opt s, float_of_string_opt r, float_of_string_opt d) with
        | Some s, Some r, Some d -> (s, r, d)
        | _ -> bad header)
      | _ -> bad header
    in
    let event l =
      let int x = match int_of_string_opt x with Some v -> v | None -> bad l in
      let flag = function "1" -> true | "0" -> false | _ -> bad l in
      match String.split_on_char ' ' l with
      | at :: body ->
        let at = match float_of_string_opt at with Some v -> v | None -> bad l in
        let update =
          match body with
          | [ "link"; id; up ] ->
            Stream.Update_stream.Link { link_id = int id; up = flag up }
          | [ "leak"; node; on ] ->
            Stream.Update_stream.Policy
              (Faults.Scenario.Leak { node = int node; on = flag on })
          | [ "claim"; node; dest; on ] ->
            Stream.Update_stream.Policy
              (Faults.Scenario.Claim
                 { node = int node; dest = int dest; on = flag on })
          | [ "corrupt"; node; on ] ->
            Stream.Update_stream.Policy
              (Faults.Scenario.Corrupt { node = int node; on = flag on })
          | _ -> bad l
        in
        { Stream.Update_stream.at; update }
      | [] -> bad l
    in
    { Stream.Update_stream.seed;
      rate;
      duration;
      events = Array.of_list (List.map event rest) }

let write_stream path (s : Stream.Update_stream.t) =
  write_lines path
    (Printf.sprintf "stream %d %h %h" s.Stream.Update_stream.seed
       s.Stream.Update_stream.rate s.Stream.Update_stream.duration
    :: List.map stream_line (Array.to_list s.Stream.Update_stream.events))

(* Writes every input file of [w] for [seed] into [dir] (created if
   missing). *)
let generate ?(sizes = full) w ~seed ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let topo = topology sizes w in
  Topo_io.save topo (topo_file dir);
  let ints l = List.map string_of_int l in
  match w with
  | Centaur_caida | Bgp_caida ->
    let count =
      if w = Centaur_caida then sizes.centaur_flip_links else sizes.bgp_flip_links
    in
    write_lines (flips_file dir)
      (ints (flip_list w topo ~count ~seed))
  | Centaur_churn -> write_stream (stream_file dir) (stream sizes ~seed topo)
  | Analyze_5k ->
    write_lines (sources_file dir)
      (ints
         (sources (Rng.create seed) ~n:(Topology.num_nodes topo)
            ~count:sizes.analyze_sources))

(* {2 Loading: what the timed program reads} *)

type ops =
  | Flips of int list
  | Updates of Stream.Update_stream.t
  | Sources of int list

let load_topo dir =
  match Topo_io.load (topo_file dir) with
  | Ok t -> t
  | Error e -> failwith (Printf.sprintf "%s: %s" (topo_file dir) e)

let load_ops w ~dir =
  match w with
  | Centaur_caida | Bgp_caida -> Flips (int_lines (flips_file dir))
  | Centaur_churn -> Updates (parse_stream (stream_file dir))
  | Analyze_5k -> Sources (int_lines (sources_file dir))
