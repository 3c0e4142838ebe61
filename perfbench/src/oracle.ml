(* Output checks, computed apart from the code the benchmark times. *)

(* Compares every (src, dest) next hop of a protocol against
   [Solver.to_dest] on the topology's current link state (the paper's
   path-vector equivalence). Returns the number of disagreeing pairs and
   a fingerprint of the protocol's next hops, so two runs can be shown
   to end in the same forwarding state. *)
let next_hops topo next_hop =
  let n = Topology.num_nodes topo in
  let ws = Solver.create_workspace () in
  let bad = ref 0 in
  let print = ref 17 in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest_with ws topo dest in
    for src = 0 to n - 1 do
      if src <> dest then begin
        let got = match next_hop ~src ~dest with None -> -1 | Some h -> h in
        if got <> Solver.next_hop_id r src then incr bad;
        print := ((!print * 1_000_003) + got + 2) land max_int
      end
    done
  done;
  (!bad, !print)

let all_links_up topo =
  let up = ref true in
  for l = 0 to Topology.num_links topo - 1 do
    if not (Topology.is_up topo l) then up := false
  done;
  !up

(* The end state after a stream whose every change is restored: all
   links up, no policy override on, and every next hop the solver's.
   Returns the verdict and the next-hop fingerprint. *)
let end_state topo policy next_hop =
  let mismatches, print = next_hops topo next_hop in
  (mismatches = 0 && all_links_up topo && not (Policy.overrides_active policy), print)

(* The P-graph statistics [Static.analyze] must report, counted here
   from the solver's paths with plain hash tables: per source, the
   distinct links of its paths to every other reachable node, and the
   links whose child has more than one parent among them (each carries
   a Permission List). [paths] counts the (source, dest) paths walked. *)
type analysis = { avg_links : float; avg_plists : float; paths : int }

let analysis topo ~sources =
  let n = Topology.num_nodes topo in
  let src = Array.of_list sources in
  let links = Array.map (fun _ -> Hashtbl.create 1024) src in
  let ws = Solver.create_workspace () in
  let paths = ref 0 in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest_with ws topo dest in
    Array.iteri
      (fun i s ->
        if s <> dest && Solver.reachable r s then begin
          incr paths;
          let prev = ref (-1) in
          Solver.iter_path r s (fun x ->
              if !prev >= 0 then Hashtbl.replace links.(i) (!prev, x) ();
              prev := x)
        end)
      src
  done;
  let total_links = ref 0 and total_plists = ref 0 in
  Array.iter
    (fun tbl ->
      let indeg = Hashtbl.create 1024 in
      Hashtbl.iter
        (fun (_, child) () ->
          Hashtbl.replace indeg child
            (1 + Option.value (Hashtbl.find_opt indeg child) ~default:0))
        tbl;
      total_links := !total_links + Hashtbl.length tbl;
      Hashtbl.iter
        (fun (_, child) () ->
          if Hashtbl.find indeg child > 1 then incr total_plists)
        tbl)
    links;
  let k = float_of_int (Array.length src) in
  { avg_links = float_of_int !total_links /. k;
    avg_plists = float_of_int !total_plists /. k;
    paths = !paths }

(* [paths], when given, is the path count [Static.analyze] reported
   through [~metrics]. *)
let analysis_agrees ?paths expected (st : Centaur.Static.pgraph_stats) =
  st.Centaur.Static.avg_links = expected.avg_links
  && st.Centaur.Static.avg_plists = expected.avg_plists
  && Option.fold paths ~none:true ~some:(fun p -> p = expected.paths)
