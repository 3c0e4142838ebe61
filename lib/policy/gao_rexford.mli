(** The standard "customer / provider / peering" routing policies.

    Centaur "aims to support basic routing policies, i.e., route filtering
    and ranking, under standard customer/provider/peering business
    relationships" (paper §1). This module encodes those policies — the
    Gao–Rexford conditions — once, so the static solver, the BGP baseline
    and the Centaur protocol all share the exact same policy semantics:

    - {b Export (filtering)}: a route learned from a customer (or
      originated locally) may be exported to everyone; a route learned
      from a peer or a provider may be exported only to customers.
      Siblings exchange all routes.
    - {b Preference (ranking)}: {!compare} is the one route-preference
      order of the repo. Higher import preference wins, then customer
      routes over peer routes over provider routes; within a class,
      shorter paths and then the lowest next-hop id ({!Standard}), or
      one of the ablation {!discipline}s. [Stable], [Node], [Bgp_net],
      [Multipath] and [Verify.Algebra] all select with it; [Solver] is
      a specialised kernel pinned to it by test. *)

type route_class =
  | Origin  (** the destination itself (locally originated prefix) *)
  | Cust    (** learned from a customer *)
  | Peer_r  (** learned from a peer *)
  | Prov    (** learned from a provider *)

val class_rank : route_class -> int
(** 0 for [Origin], then 1/2/3 for [Cust]/[Peer_r]/[Prov]; smaller is
    preferred. *)

val class_to_string : route_class -> string

val class_of_learned :
  neighbor_role:Relationship.t -> neighbor_class:route_class -> route_class
(** Class of a route learned from a neighbor: determined by the neighbor's
    role, except across sibling links where the class is inherited (the
    two ASes behave as one organisation; an [Origin] route inherited from
    a sibling behaves as [Cust]). *)

val exportable : cls:route_class -> to_role:Relationship.t -> bool
(** May a route of class [cls] be announced to a neighbor with the given
    role? Encodes the export rule above. *)

type candidate = {
  pref : int;          (** import preference granted by the chooser;
                           higher wins, 0 under the default policy *)
  cls : route_class;
  len : int;           (** AS-path length in hops *)
  next_hop : int;      (** neighbor the route was learned from *)
  via_sibling : bool;  (** learned across a sibling link *)
}

val claimed_origin : dest:int -> candidate
(** A claimed origination of [dest] (static [originate] or a hijack
    override): class [Origin], length 1, next hop [dest], preference
    0 — it beats every learned route of equal preference. *)

(** The within-class tie-break of {!compare}. Every discipline ranks by
    import preference and class rank first; the non-{!Standard} ones
    then demote sibling-learned routes before their own tie-break. *)
type discipline =
  | Standard
      (** class rank, then AS-path length, then lowest next-hop id —
          BGP's decision process *)
  | Class_only
      (** class rank, then lowest next-hop id; length ignored. Because
          the tie-break order is the {e same at every node}, routes
          canalize onto shared gradients and P-graphs stay trees — a
          negative result the ablation benches document. *)
  | Diverse
      (** class rank, then a per-node local preference over next hops
          ({!local_pref}), then length, then id — every AS ranks its
          neighbors differently, the "diverse policies" of the paper's
          §2.1. Still canalized per source (candidate sets coincide for
          destinations sharing a downstream cone), so P-graphs stay
          near-trees; kept as an ablation. *)
  | Arbitrary
      (** class rank, then a per-(node, destination) pseudo-random
          tie-break — deployed BGP's effective behaviour, where ties
          fall to oldest-route/router-id and are not consistent across
          prefixes. Selections remain suffix-consistent per destination,
          but routes to different destinations diverge and re-merge, so
          P-graphs become genuinely multi-homed: this is the discipline
          that reproduces the paper's Table 4/5 magnitudes. *)

val local_pref : chooser:int -> next_hop:int -> int
(** Deterministic pseudo-random rank in \[0, 1024) a node assigns to a
    neighbor — the {!Diverse} discipline's stand-in for operator-set
    local preference. *)

val compare :
  chooser:int -> dest:int -> discipline -> candidate -> candidate -> int
(** The route-preference order of node [chooser] toward [dest].
    Negative means the first candidate is preferred; total on
    candidates with distinct next hops. In order:
    + higher [pref];
    + lower {!class_rank};
    + under {!Standard}: shorter [len], then lower [next_hop];
    + under the other disciplines: the [via_sibling] route loses, then
      the discipline's tie-break ({!local_pref}, the per-destination
      pseudo-random rank, or the next-hop id; see {!discipline}).

    Siblings sit outside the Gao–Rexford safety theorem: without the
    demotion two siblings can each prefer the other's route by
    tie-break — a DISAGREE gadget with no fixpoint. {!Standard} needs
    no demotion: its length tie-break cannot sustain the gadget.
    [chooser] and [dest] are read only by {!Diverse} and {!Arbitrary}. *)
