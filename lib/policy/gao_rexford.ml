type route_class = Origin | Cust | Peer_r | Prov

let class_rank = function Origin -> 0 | Cust -> 1 | Peer_r -> 2 | Prov -> 3

let class_to_string = function
  | Origin -> "origin"
  | Cust -> "customer-route"
  | Peer_r -> "peer-route"
  | Prov -> "provider-route"

let class_of_learned ~neighbor_role ~neighbor_class =
  match (neighbor_role : Relationship.t) with
  | Relationship.Customer -> Cust
  | Relationship.Peer -> Peer_r
  | Relationship.Provider -> Prov
  | Relationship.Sibling -> (
    match neighbor_class with
    | Origin -> Cust
    | (Cust | Peer_r | Prov) as c -> c)

let exportable ~cls ~to_role =
  match (to_role : Relationship.t) with
  | Relationship.Customer | Relationship.Sibling -> true
  | Relationship.Peer | Relationship.Provider -> (
    match cls with
    | Origin | Cust -> true
    | Peer_r | Prov -> false)

type candidate = {
  pref : int;
  cls : route_class;
  len : int;
  next_hop : int;
  via_sibling : bool;
}

let claimed_origin ~dest =
  { pref = 0; cls = Origin; len = 1; next_hop = dest; via_sibling = false }

type discipline = Standard | Class_only | Diverse | Arbitrary

(* SplitMix64-style mix, reduced to 10 bits. *)
let local_pref ~chooser ~next_hop =
  let z = Int64.of_int ((chooser * 0x3779FB) lxor (next_hop * 0x9E3779)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_int (Int64.logand z 1023L)

let arbitrary_pref ~chooser ~dest ~next_hop =
  let z =
    Int64.of_int
      ((chooser * 0x2545F4) lxor (dest * 0x9E3779) lxor (next_hop * 0x85EBCA))
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_int (Int64.logand z 1023L)

let by_len_then_hop a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c else Int.compare a.next_hop b.next_hop

(* Ties within one class. Every discipline but Standard demotes the
   sibling-learned route first (the .mli says why). *)
let within_class ~chooser ~dest discipline a b =
  let sibling = Bool.compare a.via_sibling b.via_sibling in
  match discipline with
  | Standard -> by_len_then_hop a b
  | Class_only | Diverse | Arbitrary when sibling <> 0 -> sibling
  | Class_only -> Int.compare a.next_hop b.next_hop
  | Diverse ->
    let c =
      Int.compare
        (local_pref ~chooser ~next_hop:a.next_hop)
        (local_pref ~chooser ~next_hop:b.next_hop)
    in
    if c <> 0 then c else by_len_then_hop a b
  | Arbitrary ->
    let c =
      Int.compare
        (arbitrary_pref ~chooser ~dest ~next_hop:a.next_hop)
        (arbitrary_pref ~chooser ~dest ~next_hop:b.next_hop)
    in
    if c <> 0 then c else Int.compare a.next_hop b.next_hop

let compare ~chooser ~dest discipline a b =
  let c = Int.compare b.pref a.pref in
  if c <> 0 then c
  else
    let c = Int.compare (class_rank a.cls) (class_rank b.cls) in
    if c <> 0 then c else within_class ~chooser ~dest discipline a b
