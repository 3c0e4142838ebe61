(* Per-layer timing from outside the library: wall clock and
   [Gc.minor_words] around each call into a layer's public functions.
   Spans are all-float records and both clocks are unboxed externals, so
   taking a span allocates nothing of its own. *)

type span = { mutable s : float; mutable words : float; mutable calls : float }

let span () = { s = 0.0; words = 0.0; calls = 0.0 }

let[@inline never] timed sp f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  sp.s <- sp.s +. (t1 -. t0);
  sp.words <- sp.words +. (w1 -. w0);
  sp.calls <- sp.calls +. 1.0;
  r

type t = {
  node_start : span;
  node_absorb : span;
  node_adjacency : span;
  node_recompute : span;
  node_refresh : span;
  wire_bytes : span;
  runner_cold_start : span;
  runner_flip : span;
  runner_inject : span;
  runner_run_until : span;  (** [run_until] and [run_to_quiescence] *)
  runner_policy_change : span;
  mutable dirty_dests : int;  (** destinations drained by recompute *)
  mutable reselects : int;  (** selection changes those drains made *)
}

let create () =
  { node_start = span ();
    node_absorb = span ();
    node_adjacency = span ();
    node_recompute = span ();
    node_refresh = span ();
    wire_bytes = span ();
    runner_cold_start = span ();
    runner_flip = span ();
    runner_inject = span ();
    runner_run_until = span ();
    runner_policy_change = span ();
    dirty_dests = 0;
    reselects = 0 }

let node_spans p =
  [ p.node_start; p.node_absorb; p.node_adjacency; p.node_recompute;
    p.node_refresh ]

let runner_spans p =
  [ p.runner_cold_start; p.runner_flip; p.runner_inject; p.runner_run_until;
    p.runner_policy_change ]

let total_s spans = List.fold_left (fun acc sp -> acc +. sp.s) 0.0 spans

(* Times every runner call a driver makes. Node and pricer spans nest
   inside these; the engine's own time is what remains of them. *)
let wrap_runner p (r : Sim.Runner.t) =
  { r with
    Sim.Runner.cold_start =
      (fun ?max_events () ->
        timed p.runner_cold_start (fun () -> r.Sim.Runner.cold_start ?max_events ()));
    flip =
      (fun ~link_id ~up ->
        timed p.runner_flip (fun () -> r.Sim.Runner.flip ~link_id ~up));
    inject =
      (fun changes -> timed p.runner_inject (fun () -> r.Sim.Runner.inject changes));
    run_until =
      (fun horizon ->
        timed p.runner_run_until (fun () -> r.Sim.Runner.run_until horizon));
    run_to_quiescence =
      (fun ?max_events () ->
        timed p.runner_run_until (fun () ->
            r.Sim.Runner.run_to_quiescence ?max_events ()));
    on_policy_change =
      (fun nodes ->
        timed p.runner_policy_change (fun () ->
            r.Sim.Runner.on_policy_change nodes)) }

(* {2 Centaur wired into the engine from outside}

   The same wiring as [Protocols.Centaur_net.network] — same handlers,
   same corruption fault, same trace emissions — with a span around every
   call into [Centaur.Node] and around the byte pricer. The benchmark
   checks that it reproduces the library runner's counters and next hops
   exactly, so the per-layer split describes the runner users run. *)

module Trace = Obs.Trace

let corrupt_keeps dest = dest land 1 = 0

let corrupt_plist pl =
  List.fold_left
    (fun acc (next, dests) ->
      List.fold_left
        (fun acc dest ->
          if corrupt_keeps dest then Centaur.Permission_list.add acc ~dest ~next
          else acc)
        acc dests)
    Centaur.Permission_list.empty
    (Centaur.Permission_list.entries pl)

let corrupt_announce ann =
  let delta = ann.Centaur.Announce.delta in
  Centaur.Announce.make ~sender:ann.Centaur.Announce.sender
    { delta with
      Centaur.Pgraph.add_links =
        List.map
          (fun (p, c, pl) -> (p, c, Option.map corrupt_plist pl))
          delta.Centaur.Pgraph.add_links;
      add_dests = List.filter corrupt_keeps delta.Centaur.Pgraph.add_dests;
      remove_dests =
        List.sort_uniq compare
          (delta.Centaur.Pgraph.remove_dests
          @ List.filter
              (fun d -> not (corrupt_keeps d))
              delta.Centaur.Pgraph.add_dests) }

(* [Centaur_net.network]'s default Permission List false-positive rate. *)
let plist_fp_rate = 0.01

let centaur ?(trace = Trace.none) ?policy p topo =
  let n = Topology.num_nodes topo in
  let policy = match policy with Some x -> x | None -> Policy.default () in
  let changed = Dirty.create ~size:n () in
  let states_cell = ref [||] in
  let rib_changes = Array.make n 0 in
  let states =
    Array.init n (fun id ->
        Centaur.Node.create
          ~on_change:(fun dest ->
            Dirty.mark changed dest;
            rib_changes.(id) <- rib_changes.(id) + 1;
            p.reselects <- p.reselects + 1;
            if Trace.enabled trace then
              let withdrawn =
                Centaur.Node.selected_path !states_cell.(id) ~dest = None
              in
              Trace.emit trace (Trace.Rib_change { node = id; dest; withdrawn }))
          ~policy topo ~id)
  in
  states_cell := states;
  let post_sends node sends =
    if Policy.corrupted policy ~node then
      List.map (fun (dst, ann) -> (dst, corrupt_announce ann)) sends
    else sends
  in
  let absorb node sp f =
    let before = Centaur.Node.dirty_size states.(node) in
    states.(node) <- timed sp (fun () -> f states.(node));
    if Trace.enabled trace && Centaur.Node.dirty_size states.(node) > before then
      Trace.emit trace (Trace.Mark_dirty { node; dest = -1 })
  in
  let handlers =
    { Sim.Engine.on_message =
        (fun ~now:_ ~node ~src:_ ann ->
          absorb node p.node_absorb (fun st -> Centaur.Node.absorb st ann);
          []);
      on_link_change =
        (fun ~now:_ ~node ~link_id:_ ->
          absorb node p.node_adjacency Centaur.Node.absorb_adjacency;
          []);
      on_timer = Sim.Engine.no_timers;
      on_batch_end =
        (fun ~now:_ ~node ->
          let dirty = Centaur.Node.dirty_size states.(node) in
          p.dirty_dests <- p.dirty_dests + dirty;
          let before = rib_changes.(node) in
          let st, sends =
            timed p.node_recompute (fun () -> Centaur.Node.recompute states.(node))
          in
          states.(node) <- st;
          if Trace.enabled trace then
            Trace.emit trace
              (Trace.Recompute
                 { node; dirty; changed = rib_changes.(node) - before });
          Sim.Runner.sends_to_actions (post_sends node sends)) }
  in
  let engine =
    Sim.Engine.create ~trace topo ~units:Centaur.Announce.units
      ~bytes:(fun ann ->
        timed p.wire_bytes (fun () ->
            Centaur.Announce.wire_bytes ~plist_fp_rate ann))
      ~handlers
  in
  let cold_start ?max_events () =
    Sim.Runner.cold_start_states ?max_events engine states (fun i _ ->
        let st, sends = timed p.node_start (fun () -> Centaur.Node.start states.(i)) in
        states.(i) <- st;
        Sim.Runner.sends_to_actions (post_sends i sends))
  in
  let was_corrupt = Array.make n false in
  let on_policy_change nodes =
    List.iter
      (fun node ->
        let now_corrupt = Policy.corrupted policy ~node in
        let resend = was_corrupt.(node) <> now_corrupt in
        was_corrupt.(node) <- now_corrupt;
        let st, sends =
          timed p.node_refresh (fun () ->
              Centaur.Node.refresh_policy ~resend states.(node))
        in
        states.(node) <- st;
        Sim.Engine.perform engine ~node
          (Sim.Runner.sends_to_actions (post_sends node sends)))
      nodes
  in
  Sim.Runner.make ~name:"centaur" ~engine ~cold_start ~changed
    ~on_policy_change
    ~next_hop:(fun ~src ~dest -> Centaur.Node.next_hop states.(src) ~dest)
    ~path:(fun ~src ~dest -> Centaur.Node.selected_path states.(src) ~dest)
    ()
