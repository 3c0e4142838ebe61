(* The benchmark's own tests: every workload at small size through the
   code the benchmark runs, each output check shown to reject a wrong
   answer, and the traced Centaur wiring checked against the library
   runner and Obs.Check. *)

open Perfbench

let inputs w =
  let dir = "inputs-" ^ Gen.name w in
  Gen.generate ~sizes:Gen.small w ~seed:7 ~dir;
  dir

let names r = List.map (fun m -> m.Workload.name) r.Workload.metrics

let run_small w () =
  let dir = inputs w in
  let r = Workload.run w ~dir ~seconds:0.0 ~trace:false in
  Alcotest.(check bool) "correct" true r.Workload.correct;
  Alcotest.(check int) "failed" 0 r.Workload.failed;
  Alcotest.(check bool) "attempted" true (r.Workload.attempted > 0);
  Alcotest.(check (list string)) "end-to-end metrics"
    [ "setup_s"; "coldstart_s"; "ops_per_s"; "minor_words_per_unit"; "peak_rss_mb" ]
    (names r);
  List.iter
    (fun m ->
      if m.Workload.name <> "peak_rss_mb" then
        Alcotest.(check bool) (m.Workload.name ^ " > 0") true (m.Workload.value > 0.0))
    r.Workload.metrics;
  (* The traced run also checks that the benchmark's own Centaur wiring
     reproduces the library runner counter for counter. *)
  let t = Workload.run w ~dir ~seconds:0.0 ~trace:true in
  Alcotest.(check bool) "traced correct" true t.Workload.correct;
  Alcotest.(check (list string)) "per-layer metrics"
    (List.map fst Workload.per_layer_names) (names t);
  (* Every traced round does some work outside the timed layers: driver
     and replay code, workspace and registry creation. *)
  let uncovered =
    List.find (fun m -> m.Workload.name = "trace.uncovered_s") t.Workload.metrics
  in
  Alcotest.(check bool) "trace.uncovered_s > 0" true (uncovered.Workload.value > 0.0)

let converged_centaur () =
  let topo = Gen.topology Gen.small Gen.Centaur_caida in
  let r = Protocols.Centaur_net.network topo in
  ignore (r.Sim.Runner.cold_start ());
  (topo, r)

let wrong_next_hop () =
  let topo, r = converged_centaur () in
  let good = r.Sim.Runner.next_hop in
  Alcotest.(check int) "converged state agrees" 0 (fst (Oracle.next_hops topo good));
  let ws = Solver.create_workspace () in
  let routes = Solver.to_dest_with ws topo 0 in
  let src =
    List.find (fun s -> Solver.next_hop_id routes s >= 0) (List.init 40 Fun.id)
  in
  let shifted ~src:s ~dest =
    if s = src && dest = 0 then
      Option.map (fun h -> (h + 1) mod Topology.num_nodes topo) (good ~src:s ~dest)
    else good ~src:s ~dest
  in
  Alcotest.(check int) "one wrong next hop" 1 (fst (Oracle.next_hops topo shifted));
  let dropped ~src:s ~dest = if s = src && dest = 0 then None else good ~src:s ~dest in
  Alcotest.(check int) "one missing route" 1 (fst (Oracle.next_hops topo dropped));
  Alcotest.(check bool) "fingerprint moves" true
    (snd (Oracle.next_hops topo shifted) <> snd (Oracle.next_hops topo good))

let wrong_statistic () =
  let topo = Gen.topology Gen.small Gen.Analyze_5k in
  let sources = [ 3; 50; 120; 199 ] in
  let expected = Oracle.analysis topo ~sources in
  let st = Centaur.Static.analyze topo ~sources in
  Alcotest.(check bool) "analyze agrees" true (Oracle.analysis_agrees expected st);
  let links = { st with Centaur.Static.avg_links = st.Centaur.Static.avg_links +. 0.25 } in
  Alcotest.(check bool) "wrong avg_links" false (Oracle.analysis_agrees expected links);
  let plists =
    { st with Centaur.Static.avg_plists = st.Centaur.Static.avg_plists -. 0.25 }
  in
  Alcotest.(check bool) "wrong avg_plists" false (Oracle.analysis_agrees expected plists);
  let p = expected.Oracle.paths in
  Alcotest.(check bool) "reported paths agree" true
    (Oracle.analysis_agrees ~paths:p expected st);
  Alcotest.(check bool) "wrong path count" false
    (Oracle.analysis_agrees ~paths:(p + 1) expected st)

let wrong_end_state () =
  let policy = Policy.default () in
  let topo = Gen.topology Gen.small Gen.Centaur_caida in
  let r = Protocols.Centaur_net.network ~policy topo in
  ignore (r.Sim.Runner.cold_start ());
  let ok () = fst (Oracle.end_state topo policy r.Sim.Runner.next_hop) in
  Alcotest.(check bool) "converged end state" true (ok ());
  Policy.set_leak policy ~node:3 true;
  Alcotest.(check bool) "an override left on" false (ok ());
  Policy.set_leak policy ~node:3 false;
  ignore (r.Sim.Runner.run_to_quiescence ());
  Alcotest.(check bool) "override cleared" true (ok ());
  let wrong ~src ~dest =
    if src = 1 && dest = 0 then Some src else r.Sim.Runner.next_hop ~src ~dest
  in
  Alcotest.(check bool) "a wrong next hop" false
    (fst (Oracle.end_state topo policy wrong));
  ignore (r.Sim.Runner.flip ~link_id:0 ~up:false);
  Alcotest.(check bool) "a link left down" false (ok ())

(* A churn round whose runner ends on a wrong next hop counts every
   update of its stream as failed. *)
let wrong_churn_round () =
  let topo = Gen.topology Gen.small Gen.Centaur_churn in
  let stream = Gen.stream Gen.small ~seed:3 topo in
  let run next_hop_of =
    let topo = Gen.topology Gen.small Gen.Centaur_churn in
    let policy = Policy.default () in
    let r = Protocols.Centaur_net.network ~policy topo in
    let r = { r with Sim.Runner.next_hop = next_hop_of r.Sim.Runner.next_hop } in
    Workload.churn_round r ~topo ~policy stream
  in
  let good = run Fun.id in
  Alcotest.(check int) "right end state" 0 (Workload.churn_failed good);
  let bad =
    run (fun nh ~src ~dest -> if src = 2 && dest = 0 then None else nh ~src ~dest)
  in
  let events = bad.Workload.outcome.Stream.Replay.events in
  Alcotest.(check bool) "stream has updates" true (events > 0);
  Alcotest.(check int) "every update failed" events (Workload.churn_failed bad)

let wrong_counters () =
  let topo, r = converged_centaur () in
  let op = Workload.protocol_op r topo (fun () -> r.Sim.Runner.flip ~link_id:1 ~up:false) in
  Alcotest.(check bool) "same" true (Workload.same_op op op);
  let stats = op.Workload.stats in
  let more =
    { op with Workload.stats = { stats with Sim.Engine.events = stats.Sim.Engine.events + 1 } }
  in
  Alcotest.(check bool) "an extra event" false (Workload.same_op op more);
  Alcotest.(check bool) "another next hop" false
    (Workload.same_op op { op with Workload.print = op.Workload.print + 1 })

(* Cold start and two flips, traced through the benchmark's wiring and
   through the library runner: the traces pass the checker and are
   event for event the same. *)
let traced_wiring () =
  let trace_of make =
    let topo = Gen.topology Gen.small Gen.Centaur_caida in
    let trace = Obs.Trace.create ~capacity:1_000_000 () in
    let r = make ~trace topo in
    ignore (r.Sim.Runner.cold_start ());
    List.iter
      (fun (link_id, up) -> ignore (r.Sim.Runner.flip ~link_id ~up))
      [ (2, false); (2, true); (5, false) ];
    Obs.Check.expect_ok ~what:"perfbench wiring" trace;
    Alcotest.(check int) "nothing dropped" 0 (Obs.Trace.dropped trace);
    Obs.Trace.digest trace
  in
  let ours = trace_of (fun ~trace topo -> Probe.centaur ~trace (Probe.create ()) topo) in
  let lib = trace_of (fun ~trace topo -> Protocols.Centaur_net.network ~trace topo) in
  Alcotest.(check string) "same trace as Centaur_net" lib ours

let stream_round_trip () =
  let topo = Gen.topology Gen.small Gen.Centaur_churn in
  let s = Gen.stream Gen.small ~seed:3 topo in
  Gen.write_stream "stream-rt.txt" s;
  let s' = Gen.parse_stream "stream-rt.txt" in
  Alcotest.(check bool) "has policy updates" true (Stream.Update_stream.has_policy_events s);
  Alcotest.(check bool) "identical" true (s = s')

let () =
  Alcotest.run "perfbench"
    [ ( "workloads",
        List.map
          (fun w -> Alcotest.test_case (Gen.name w) `Quick (run_small w))
          Gen.all );
      ( "checks",
        [ Alcotest.test_case "wrong next hop" `Quick wrong_next_hop;
          Alcotest.test_case "wrong statistic" `Quick wrong_statistic;
          Alcotest.test_case "wrong end state" `Quick wrong_end_state;
          Alcotest.test_case "wrong churn round" `Quick wrong_churn_round;
          Alcotest.test_case "wrong counters" `Quick wrong_counters ] );
      ( "inputs", [ Alcotest.test_case "stream round trip" `Quick stream_round_trip ] );
      ( "trace", [ Alcotest.test_case "wiring passes Obs.Check" `Quick traced_wiring ] ) ]
