(* The timed program: loads one workload's input files, runs whole rounds
   of its operations for the requested time, checks every output and
   reports the metrics. *)

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  rounds : int;
  domains : int;  (** pool size the run used *)
  metrics : metric list;
}

let now = Unix.gettimeofday

let measure f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  (r, t1 -. t0, w1 -. w0)

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let peak_rss_mb () =
  float_of_int (Option.value (Sys_stats.peak_rss_kb ()) ~default:0) /. 1024.0

(* {2 Set-up: load the input files and build the runner} *)

type setup = {
  topo : Topology.t;
  ops : Gen.ops;
  policy : Policy.compiled;
  runner : Sim.Runner.t option;
}

let setup w ~dir =
  let topo = Gen.load_topo dir in
  let ops = Gen.load_ops w ~dir in
  let policy = Policy.default () in
  let runner =
    match w with
    | Gen.Centaur_caida | Gen.Centaur_churn ->
      Some (Protocols.Centaur_net.network ~policy topo)
    | Gen.Bgp_caida -> Some (Protocols.Bgp_net.network ~policy topo)
    | Gen.Analyze_5k -> None
  in
  { topo; ops; policy; runner }

(* Set-up takes 1-30 ms, so one sample says little, and a burst of
   samples says only how fast the machine was in that instant: its speed
   drifts by up to a factor of two over tens of seconds. Set-up is
   therefore timed [setup_batch] times before every round and reported as
   the median of all of them. A set-up's cost also depends on how much
   garbage the previous round left for the major GC, so every batch
   starts from a fully collected heap. The count is fixed, not timed, so
   the allocation sequence and with it the peak RSS stay the same from
   run to run. *)
let setup_batch = 20

(* {2 Operations} *)

(* One protocol operation (a cold start or a flip) with its check. *)
type op = {
  stats : Sim.Engine.run_stats;
  wall : float;
  words : float;
  mismatches : int;
  print : int;
  check_wall : float;  (** time the output check took *)
}

let protocol_op (r : Sim.Runner.t) topo run =
  let stats, wall, words = measure run in
  let (mismatches, print), check_wall, _ =
    measure (fun () -> Oracle.next_hops topo r.Sim.Runner.next_hop)
  in
  { stats; wall; words; mismatches; print; check_wall }

(* Cold start, then each listed link down and back up, each run to
   quiescence and checked against the solver. *)
let protocol_round (r : Sim.Runner.t) topo links =
  let cold = protocol_op r topo (fun () -> r.Sim.Runner.cold_start ()) in
  let flips =
    List.concat_map
      (fun link_id ->
        let down =
          protocol_op r topo (fun () -> r.Sim.Runner.flip ~link_id ~up:false)
        in
        let up = protocol_op r topo (fun () -> r.Sim.Runner.flip ~link_id ~up:true) in
        [ down; up ])
      links
  in
  (cold, flips)

type churn = {
  cold : op;
  outcome : Stream.Replay.outcome;
  stream_wall : float;
  stream_words : float;
  final_ok : bool;
  final_print : int;
  final_check_wall : float;
}

(* Replays the stream in delta waves; the cold start inside the replay
   is timed on its own and taken out of the stream's share. *)
let churn_round (r : Sim.Runner.t) ~topo ~policy stream =
  let cold = ref None in
  let r' =
    { r with
      Sim.Runner.cold_start =
        (fun ?max_events () ->
          let stats, wall, words =
            measure (fun () -> r.Sim.Runner.cold_start ?max_events ())
          in
          cold :=
            Some { stats; wall; words; mismatches = 0; print = 0; check_wall = 0.0 };
          stats) }
  in
  let outcome, wall, words =
    measure (fun () ->
        Stream.Replay.replay ~policy ~topo ~stream
          ~mode:(Stream.Replay.Waves Gen.churn_window) r')
  in
  let cold = Option.get !cold in
  let (final_ok, final_print), final_check_wall, _ =
    measure (fun () -> Oracle.end_state topo policy r.Sim.Runner.next_hop)
  in
  { cold;
    outcome;
    stream_wall = wall -. cold.wall;
    stream_words = words -. cold.words;
    final_ok;
    final_print;
    final_check_wall }

(* A stream with a wrong end state fails as a whole. *)
let churn_failed c = if c.final_ok then 0 else c.outcome.Stream.Replay.events

let sum_stats ops =
  List.fold_left
    (fun acc o -> Faults.Injector.add_stats acc o.stats)
    { Sim.Engine.duration = 0.0; messages = 0; units = 0; bytes = 0;
      deliveries = 0; losses = 0; events = 0; waves = 0 }
    ops

(* {2 Untraced run: the end-to-end metrics} *)

let e2e ~setup_s ~coldstart_s ~ops_per_s ~words_per_unit ~peak_rss_mb =
  [ { name = "setup_s"; value = setup_s; unit = "s" };
    { name = "coldstart_s"; value = coldstart_s; unit = "s" };
    { name = "ops_per_s"; value = ops_per_s; unit = "1/s" };
    { name = "minor_words_per_unit"; value = words_per_unit; unit = "words" };
    { name = "peak_rss_mb"; value = peak_rss_mb; unit = "MB" } ]

let timed_setups w ~dir samples =
  Gc.full_major ();
  for _ = 1 to setup_batch do
    let _, wall, _ = measure (fun () -> setup w ~dir) in
    samples := wall :: !samples
  done

let flips_of s = match s.ops with Gen.Flips l -> l | _ -> invalid_arg "flips"
let stream_of s = match s.ops with Gen.Updates u -> u | _ -> invalid_arg "stream"
let sources_of s = match s.ops with Gen.Sources l -> l | _ -> invalid_arg "sources"

(* Runs [round] at least once, and again while another round of the
   mean length so far still ends within [seconds]. A round takes up to
   8 s, so stopping at the first round past the deadline would let a
   run overshoot by that much. *)
let rounds ~seconds round =
  let t0 = now () in
  let rec go k =
    round ();
    let elapsed = now () -. t0 in
    if elapsed +. (elapsed /. float_of_int k) <= seconds then go (k + 1) else k
  in
  go 1

let run_untraced w ~dir ~seconds =
  let setups = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let colds = ref [] in
  let op_wall = ref 0.0 and op_count = ref 0 in
  let words = ref 0.0 and units = ref 0.0 in
  let round =
    match w with
    | Gen.Centaur_caida | Gen.Bgp_caida ->
      fun () ->
        let s = setup w ~dir in
        let cold, flips = protocol_round (Option.get s.runner) s.topo (flips_of s) in
        List.iter
          (fun o ->
            incr attempted;
            if o.mismatches > 0 then incr failed;
            words := !words +. o.words;
            units := !units +. float_of_int o.stats.Sim.Engine.deliveries)
          (cold :: flips);
        colds := cold.wall :: !colds;
        List.iter (fun o -> op_wall := !op_wall +. o.wall; incr op_count) flips
    | Gen.Centaur_churn ->
      fun () ->
        let s = setup w ~dir in
        let c =
          churn_round (Option.get s.runner) ~topo:s.topo ~policy:s.policy (stream_of s)
        in
        let n = c.outcome.Stream.Replay.events in
        attempted := !attempted + n;
        failed := !failed + churn_failed c;
        colds := c.cold.wall :: !colds;
        op_wall := !op_wall +. c.stream_wall;
        op_count := !op_count + n;
        words := !words +. c.cold.words +. c.stream_words;
        units :=
          !units
          +. float_of_int
               (c.cold.stats.Sim.Engine.deliveries
               + c.outcome.Stream.Replay.stats.Sim.Engine.deliveries)
    | Gen.Analyze_5k ->
      let sources = sources_of (setup w ~dir) in
      let expected = Oracle.analysis (Gen.load_topo dir) ~sources in
      let call topo =
        let st, wall, w = measure (fun () -> Centaur.Static.analyze topo ~sources) in
        let n = Topology.num_nodes topo in
        attempted := !attempted + n;
        if not (Oracle.analysis_agrees expected st) then failed := !failed + n;
        words := !words +. w;
        units := !units +. float_of_int n;
        (wall, n)
      in
      (* The first call on a freshly loaded topology is the cold one. *)
      fun () ->
        let topo = Gen.load_topo dir in
        let cold, _ = call topo in
        colds := cold :: !colds;
        let warm, n = call topo in
        op_wall := !op_wall +. warm;
        op_count := !op_count + n
  in
  (* The high-water mark is read after the first round. Later rounds
     raise it as freed memory fragments (analyze-5k: 162 MB after one
     round, 254 MB after five), so read at the end it would follow how
     many rounds the machine's speed let the run fit. *)
  let first_peak = ref None in
  let n_rounds =
    rounds ~seconds (fun () ->
        timed_setups w ~dir setups;
        round ();
        if !first_peak = None then first_peak := Some (peak_rss_mb ()))
  in
  { correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    rounds = n_rounds;
    domains = Pool.size ();
    metrics =
      e2e ~setup_s:(median !setups) ~coldstart_s:(median !colds)
        ~ops_per_s:(ratio (float_of_int !op_count) !op_wall)
        ~words_per_unit:(ratio !words !units)
        ~peak_rss_mb:(Option.get !first_peak) }

(* {2 Traced run: the per-layer metrics}

   Each pair of rounds runs the workload once untraced, through the
   library's own runner, and once traced. The traced protocol rounds go
   through [Probe.wrap_runner]; the Centaur ones also through
   [Probe.centaur], whose counters and next hops must equal the
   untraced round's exactly. *)

let per_layer_names =
  [ ("node.start_s", "s"); ("node.absorb_s", "s"); ("node.absorb_calls", "count");
    ("node.absorb_words", "words/call"); ("node.adjacency_s", "s");
    ("node.recompute_s", "s"); ("node.recompute_calls", "count");
    ("node.recompute_words", "words/call"); ("node.refresh_s", "s");
    ("node.dirty_dests", "count"); ("node.reselect_yield", "ratio");
    ("announce.wire_bytes_s", "s"); ("announce.wire_bytes_words", "words/call");
    ("engine.self_s", "s"); ("engine.events", "count");
    ("engine.deliveries", "count"); ("engine.waves", "count");
    ("engine.bytes", "bytes"); ("runner.cold_start_s", "s");
    ("runner.flip_s", "s"); ("runner.inject_s", "s"); ("runner.run_until_s", "s");
    ("runner.policy_change_s", "s"); ("runner.policy_change_calls", "count");
    ("replay.events", "count"); ("replay.waves", "count");
    ("replay.cancelled", "count"); ("solver.to_dest_s", "s");
    ("solver.words_per_dest", "words/dest"); ("static.analyze_s", "s");
    ("static.fold_s", "s"); ("static.paths", "count");
    ("trace.overhead_s", "s"); ("trace.uncovered_s", "s") ]

(* The traced wiring must match the library runner op for op: same
   counters, same next hops. *)
let same_op x y = x.stats = y.stats && x.print = y.print

(* Every destination through one warm workspace, timed over [lo, hi). *)
let solver_pass ws topo ~lo ~hi =
  ignore (Solver.to_dest_with ws topo 0);
  let (), wall, words =
    measure (fun () ->
        for d = lo to hi - 1 do
          ignore (Solver.to_dest_with ws topo d)
        done)
  in
  (wall, words)

let run_traced w ~dir ~seconds =
  let p = Probe.create () in
  let tbl = Hashtbl.create 64 in
  let add name v =
    Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)
  in
  let attempted = ref 0 and failed = ref 0 in
  (* Protocol workloads: wall time of whole rounds without their output
     checks, so everything the driver, the replay and the runner do. The
     traced rounds' time outside every runner span is
     [trace.uncovered_s]. Analysis: the traced analyze call, and apart
     from it the time of the traced round outside the solver and
     analyze spans. *)
  let traced_wall = ref 0.0 and untraced_wall = ref 0.0 in
  let analyze_uncovered = ref 0.0 in
  let engine_stats st =
    add "engine.events" (float_of_int st.Sim.Engine.events);
    add "engine.deliveries" (float_of_int st.Sim.Engine.deliveries);
    add "engine.waves" (float_of_int st.Sim.Engine.waves);
    add "engine.bytes" (float_of_int st.Sim.Engine.bytes)
  in
  let traced_runner s =
    let r =
      match w with
      | Gen.Bgp_caida -> Option.get s.runner
      | _ -> Probe.centaur ~policy:s.policy p s.topo
    in
    Probe.wrap_runner p r
  in
  let expected =
    lazy (let s = setup w ~dir in Oracle.analysis s.topo ~sources:(sources_of s))
  in
  let pair () =
    match w with
    | Gen.Centaur_caida | Gen.Bgp_caida ->
      let round s r =
        let (cold, flips), wall, _ =
          measure (fun () -> protocol_round r s.topo (flips_of s))
        in
        let ops = cold :: flips in
        (ops, List.fold_left (fun a o -> a -. o.check_wall) wall ops)
      in
      let s = setup w ~dir in
      let ops, wall = round s (Option.get s.runner) in
      let t = setup w ~dir in
      let ops', wall' = round t (traced_runner t) in
      attempted := !attempted + List.length ops;
      List.iter2
        (fun o o' ->
          if o.mismatches > 0 || o'.mismatches > 0 || not (same_op o o') then
            incr failed)
        ops ops';
      untraced_wall := !untraced_wall +. wall;
      traced_wall := !traced_wall +. wall';
      engine_stats (sum_stats ops')
    | Gen.Centaur_churn ->
      let round s r =
        let c, wall, _ =
          measure (fun () -> churn_round r ~topo:s.topo ~policy:s.policy (stream_of s))
        in
        (c, wall -. c.final_check_wall)
      in
      let s = setup w ~dir in
      let c, wall = round s (Option.get s.runner) in
      let t = setup w ~dir in
      let c', wall' = round t (traced_runner t) in
      let n = c.outcome.Stream.Replay.events in
      attempted := !attempted + n;
      let same =
        c.cold.stats = c'.cold.stats
        && c.outcome.Stream.Replay.stats = c'.outcome.Stream.Replay.stats
        && c.final_print = c'.final_print
      in
      if not (c.final_ok && c'.final_ok && same) then failed := !failed + n;
      untraced_wall := !untraced_wall +. wall;
      traced_wall := !traced_wall +. wall';
      engine_stats
        (Faults.Injector.add_stats c'.cold.stats c'.outcome.Stream.Replay.stats);
      let o = c'.outcome in
      add "replay.events" (float_of_int o.Stream.Replay.events);
      add "replay.waves" (float_of_int o.Stream.Replay.waves);
      add "replay.cancelled" (float_of_int o.Stream.Replay.cancelled)
    | Gen.Analyze_5k ->
      let s = setup w ~dir in
      let sources = sources_of s in
      let expected = Lazy.force expected in
      let n = Topology.num_nodes s.topo in
      let st, wall, _ = measure (fun () -> Centaur.Static.analyze s.topo ~sources) in
      (* The solver pass straddles the traced call, so a drift in machine
         speed between them biases the fold share less. *)
      let (s1, w1, st', analyze_s, s2, w2, paths), round_s, _ =
        measure (fun () ->
            let ws = Solver.create_workspace () in
            let s1, w1 = solver_pass ws s.topo ~lo:0 ~hi:(n / 2) in
            let metrics = Obs.Metrics.create () in
            let st', analyze_s, _ =
              measure (fun () -> Centaur.Static.analyze ~metrics s.topo ~sources)
            in
            let s2, w2 = solver_pass ws s.topo ~lo:(n / 2) ~hi:n in
            let paths = Obs.Metrics.value (Obs.Metrics.counter metrics "static.paths") in
            (s1, w1, st', analyze_s, s2, w2, paths))
      in
      let solver_s = s1 +. s2 in
      attempted := !attempted + n;
      if not (Oracle.analysis_agrees expected st
              && Oracle.analysis_agrees ~paths expected st')
      then failed := !failed + n;
      untraced_wall := !untraced_wall +. wall;
      traced_wall := !traced_wall +. analyze_s;
      analyze_uncovered := !analyze_uncovered +. round_s -. solver_s -. analyze_s;
      add "static.analyze_s" analyze_s;
      add "static.paths" (float_of_int paths);
      add "solver.to_dest_s" solver_s;
      add "static.fold_s" (analyze_s -. solver_s);
      add "solver.words_per_dest" ((w1 +. w2) /. float_of_int n)
  in
  let n = rounds ~seconds pair in
  let per_round v = v /. float_of_int n in
  let node_s = Probe.total_s (Probe.node_spans p) in
  let runner_s = Probe.total_s (Probe.runner_spans p) in
  let set name v = Hashtbl.replace tbl name v in
  (* Sums over the traced rounds, reported per round. *)
  List.iter
    (fun name -> set name (per_round (Option.value (Hashtbl.find_opt tbl name) ~default:0.0)))
    [ "engine.events"; "engine.deliveries"; "engine.waves"; "engine.bytes";
      "replay.events"; "replay.waves"; "replay.cancelled"; "static.analyze_s";
      "static.paths"; "solver.to_dest_s"; "static.fold_s";
      "solver.words_per_dest" ];
  let sp name (x : Probe.span) = set name (per_round x.Probe.s) in
  sp "node.start_s" p.Probe.node_start;
  sp "node.absorb_s" p.Probe.node_absorb;
  set "node.absorb_calls" (per_round p.Probe.node_absorb.Probe.calls);
  set "node.absorb_words" (ratio p.Probe.node_absorb.Probe.words p.Probe.node_absorb.Probe.calls);
  sp "node.adjacency_s" p.Probe.node_adjacency;
  sp "node.recompute_s" p.Probe.node_recompute;
  set "node.recompute_calls" (per_round p.Probe.node_recompute.Probe.calls);
  set "node.recompute_words"
    (ratio p.Probe.node_recompute.Probe.words p.Probe.node_recompute.Probe.calls);
  sp "node.refresh_s" p.Probe.node_refresh;
  set "node.dirty_dests" (per_round (float_of_int p.Probe.dirty_dests));
  set "node.reselect_yield"
    (ratio (float_of_int p.Probe.reselects) (float_of_int p.Probe.dirty_dests));
  sp "announce.wire_bytes_s" p.Probe.wire_bytes;
  set "announce.wire_bytes_words"
    (ratio p.Probe.wire_bytes.Probe.words p.Probe.wire_bytes.Probe.calls);
  set "engine.self_s"
    (match w with
     | Gen.Centaur_caida | Gen.Centaur_churn ->
       per_round (runner_s -. node_s -. p.Probe.wire_bytes.Probe.s)
     | _ -> 0.0);
  sp "runner.cold_start_s" p.Probe.runner_cold_start;
  sp "runner.flip_s" p.Probe.runner_flip;
  sp "runner.inject_s" p.Probe.runner_inject;
  sp "runner.run_until_s" p.Probe.runner_run_until;
  sp "runner.policy_change_s" p.Probe.runner_policy_change;
  set "runner.policy_change_calls" (per_round p.Probe.runner_policy_change.Probe.calls);
  set "trace.overhead_s" (per_round (!traced_wall -. !untraced_wall));
  set "trace.uncovered_s"
    (per_round
       (match w with
        | Gen.Analyze_5k -> !analyze_uncovered
        | _ -> !traced_wall -. runner_s));
  { correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    rounds = n;
    domains = Pool.size ();
    metrics =
      List.map
        (fun (name, unit) ->
          { name; unit; value = Option.value (Hashtbl.find_opt tbl name) ~default:0.0 })
        per_layer_names }

let run w ~dir ~seconds ~trace =
  Pool.with_size 1 (fun () ->
      if trace then run_traced w ~dir ~seconds else run_untraced w ~dir ~seconds)
