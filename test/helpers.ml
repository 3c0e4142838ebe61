(* Shared helpers for the test suites. *)

(* QCheck iteration budget: [qcheck_count d] is [d] unless the
   CENTAUR_QCHECK_COUNT environment variable overrides it (e.g. a
   nightly soak raising every property to thousands of cases). *)
let qcheck_count default =
  match Sys.getenv_opt "CENTAUR_QCHECK_COUNT" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* Every ranking discipline, for properties that must hold under each. *)
let disciplines =
  [ Gao_rexford.Standard; Gao_rexford.Class_only; Gao_rexford.Diverse;
    Gao_rexford.Arbitrary ]

let path_testable = Alcotest.testable Path.pp Path.equal

let path_opt = Alcotest.option path_testable

let check_path = Alcotest.check path_testable

let check_path_opt = Alcotest.check path_opt

(* Small annotated random topology for randomized suites. *)
let random_as_topology ~seed ~n =
  let rng = Rng.create seed in
  As_gen.generate rng (As_gen.caida_like ~n)

let random_brite ~seed ~n ~m =
  let rng = Rng.create seed in
  Brite.annotated rng ~n ~m ~max_delay:5.0 ~num_tiers:4

(* Ground-truth next hops from the static solver, for every (src, dest). *)
let solver_next_hops topo =
  let n = Topology.num_nodes topo in
  let table = Hashtbl.create (n * n) in
  for dest = 0 to n - 1 do
    let r = Solver.to_dest topo dest in
    for src = 0 to n - 1 do
      if src <> dest then
        match Solver.next_hop r src with
        | Some hop -> Hashtbl.replace table (src, dest) hop
        | None -> ()
    done
  done;
  table

(* Compare a converged protocol runner's forwarding decisions against
   the solver's stable solution on every pair. *)
let check_matches_solver ?(what = "protocol vs solver") topo
    (runner : Sim.Runner.t) =
  let n = Topology.num_nodes topo in
  let truth = solver_next_hops topo in
  for dest = 0 to n - 1 do
    for src = 0 to n - 1 do
      if src <> dest then begin
        let expected = Hashtbl.find_opt truth (src, dest) in
        let actual = runner.Sim.Runner.next_hop ~src ~dest in
        Alcotest.(check (option int))
          (Printf.sprintf "%s: next hop %d->%d" what src dest)
          expected actual
      end
    done
  done
