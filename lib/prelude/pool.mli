(** Fixed pool of worker domains for deterministic data-parallel sweeps.

    The evaluation pipeline is thousands of independent per-destination
    (or per-source) computations; this pool fans them out across OCaml 5
    domains while keeping the results {e byte-identical} to a sequential
    run: work items are claimed dynamically but results are stored by
    index, so callers observe the same values in the same order
    regardless of scheduling.

    The pool is a process-wide singleton built lazily on first parallel
    call. Its size comes from the [CENTAUR_DOMAINS] environment variable
    (clamped to >= 1); when unset it defaults to
    [Domain.recommended_domain_count () - 1], with a minimum of 1. At
    size 1 every entry point takes the exact sequential code path — no
    domain is ever spawned, no atomic is touched.

    Nested parallel calls (a work item itself calling into the pool) run
    sequentially in the calling domain rather than deadlocking, so
    library code can use the pool without caring who its callers are.

    Worker domains are stdlib [Domain.t] values (no domainslib); they
    park on a condition variable between jobs and are joined by an
    [at_exit] hook. *)

val default_size : unit -> int
(** Pool size from the environment: [CENTAUR_DOMAINS] if set to a
    positive integer, otherwise [max 1 (recommended_domain_count - 1)].
    Read once, when the module initialises. *)

val size : unit -> int
(** Effective size for the current domain: the innermost {!with_size}
    override, or {!default_size}. *)

val with_size : int -> (unit -> 'a) -> 'a
(** [with_size n f] runs [f] with the effective pool size forced to [n]
    (for this domain only; restored on exit, exception-safe). [n = 1]
    forces the exact sequential path — benchmarks and the determinism
    tests use this to compare sequential and parallel runs inside one
    process. Raises [Invalid_argument] if [n < 1]. *)

val parallel_map_array : ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map_array f a] is [Array.map f a], computed by the pool.
    [f] runs at most once per element; results land at their element's
    index. If one or more applications raise, the exception of the
    {e lowest} failing index is re-raised in the caller (with its
    backtrace) once all items have finished — the pool itself survives
    and stays usable. *)

val parallel_for : int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f i] for [i = 0 .. n - 1] across the pool.
    Same exception contract as {!parallel_map_array}. Effects of
    distinct iterations must be independent (e.g. writes to distinct
    indices of a pre-allocated array). *)

val parallel_fold :
  ?chunk:int ->
  create:(unit -> 'ws) ->
  merge:('acc -> 'ws -> 'acc) ->
  init:'acc ->
  int ->
  ('ws -> int -> unit) ->
  'acc
(** [parallel_fold ~create ~merge ~init n body] runs [body ws i] for
    [i = 0 .. n - 1] across the pool, handing each participating domain
    one reusable workspace built by [create] — scratch state that would
    otherwise be allocated per index is allocated once per domain and
    reused across all the indices that domain claims. After the join the
    caller folds [merge] over the workspaces (in stable slot order) to
    produce the result.

    Which indices land in which workspace depends on scheduling, so for
    deterministic results [merge] must be insensitive to how the index
    set was partitioned (e.g. each workspace accumulates tagged records
    that the caller re-sorts, or the merge is commutative arithmetic).

    [chunk] overrides the claim granularity: a participant grabs that
    many consecutive indices per atomic claim (default: a heuristic
    targeting ~8 claims per domain, capped at 128). Indices within a
    chunk run in order.

    Same exception contract as {!parallel_map_array}: the lowest failing
    index's exception is re-raised after all items finish. On the
    sequential path exactly one workspace is created and every index
    runs in order. *)

val parallel_fold_ranges :
  ?chunk:int ->
  create:(unit -> 'ws) ->
  merge:('acc -> 'ws -> 'acc) ->
  init:'acc ->
  int ->
  ('ws -> lo:int -> hi:int -> unit) ->
  'acc
(** Like {!parallel_fold}, but the body receives whole claimed ranges
    ([body ws ~lo ~hi] covers indices [lo, hi)) instead of one index at
    a time. This lets the hot path hoist per-batch work — workspace
    dispatch, metrics handles, accumulator lookups — out of the
    per-index loop: each domain amortizes that setup over a chunk-sized
    tile of indices rather than paying it per index.

    Range boundaries depend on scheduling (chunking and claim order),
    so correctness requires what {!parallel_fold} already demands: the
    merged result must be insensitive to how the index set was
    partitioned. On the sequential path the body is called exactly once
    with the full range [0, total).

    Exception granularity is the range, not the index: if [body] raises
    midway through a range, the remainder of that range is abandoned
    and the exception is recorded at the range's first index (the
    lowest-index rule of {!parallel_map_array} then picks the first
    failing range). *)
