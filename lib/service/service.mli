(** Batched compilation service: the serving substrate over
    {!Qcr_core.Pipeline.run}.

    A service owns a content-addressed LRU compile cache, an angle-free
    route table behind it, and a deadline-degradation policy.  Submitting a {!Compile_request.t}
    yields a {!Compile_reply.t} — always, by construction: validation
    failures, deadline expiry and internal exceptions all come back as
    typed error replies, never as exceptions across this boundary.  A
    catch-all at the boundary converts anything that slips past the
    typed paths (including injected faults) into an [Internal] reply
    carrying the exception and its backtrace; only [Out_of_memory] and
    [Stack_overflow] re-raise.

    {b Caching.}  Requests are canonicalized into a content-addressed
    {!Compile_request.cache_key}; a repeat is served from a
    {!Qcr_util.Lru} of [cache_capacity] replies, which only the
    submitting domain touches (hit/miss counts surface both in {!stats}
    and through the [service.cache.hit]/[service.cache.miss] [Qcr_obs]
    counters).  Only full-quality replies — compiled at the
    requested tier, not degraded — are cached, so a cache hit is always
    bit-identical to what a cold deadline-free compile would have
    produced.  Entries carry a digest of their canonical bytes,
    validated on every hit: a corrupted entry (e.g. via the
    [cache.get]/[cache.put] {!Qcr_fault.Fault} points) is evicted and
    recompiled, never served.

    {b Route table.}  No compiler phase reads a rotation angle, so a
    cache miss next consults a route table keyed by
    {!Compile_request.route_key}: the content the cache key covers with
    the interaction's angles left out and its kind kept.  An entry is a
    compact template of a full-quality compile (five bytes per gate and
    the angle-free metrics).  A route hit re-stamps the request's angles
    through {!Qcr_circuit.Program.rebind_gate}, recomputes the circuit
    digest, and skips placement, routing, prediction and the tier ladder:
    the reply is bit-identical to a cold compile, so a deadline request
    on a known structure gets full quality.  Only outcomes compiled at
    the requested tier become templates; [Bare_cz] has no angles and
    uses the exact cache alone.  The table belongs to one service, lives
    in memory only (never persisted or flushed), and holds at most
    [cache_capacity] structures (0 disables it).  A route hit still
    counts as a cache miss in {!stats}; the [service.route.hit] /
    [service.route.miss] counters and a [("route", "hit")] trace phase
    report it.

    {b Persistence.}  Passing [store] (a {!Cache_store.t} opened on a
    cache directory) warm-starts the cache from disk at {!create} —
    every persisted record is digest-validated and must parse back into
    a full-quality reply whose cache key matches, or it is skipped and
    counted under [cache_corrupt] — and {!flush} appends the entries
    compiled since the last flush as a new crash-safe segment.  A
    restarted service with the same directory answers warm traffic
    immediately, bit-identically to the run that filled the cache.

    {b Batching.}  {!run_batch} fans the distinct cold structures of a
    batch (one per route key, or per cache key without one) over the
    default {!Qcr_par.Pool} and assembles replies sequentially in request
    order, inserting templates as it goes: an angle sweep within one
    batch compiles once, and replies, cache flags, route hits and
    hit/miss counts are identical for every pool size.  Submit from one
    domain at a time (the same single-driver contract as the pool): the
    cache, the route table and the counters have no lock; only the cost
    model, which cold compiles on pool workers update, sits behind one.

    {b Deadlines.}  [deadline_s] bounds a request's compute budget.  The
    service walks the degradation ladder portfolio → ours → greedy (ata
    requests have no cheaper tier), admitting each tier only when a
    per-tier cost model — seconds per program edge, learned online from
    completed compiles — predicts it fits the remaining budget; a tier
    that still overruns its deadline is discarded and the walk continues.
    When no tier fits, the reply is a typed [Timeout].  Replies produced
    under deadline pressure depend on observed timings, so deadlines
    trade reply determinism for bounded latency; deadline-free requests
    stay fully deterministic.  All timing flows through the service's
    {!Qcr_obs.Clock.t}, so the whole ladder is drivable by a fake clock
    in tests.

    {b Failures.}  Each compile attempt runs behind the [service.tier]
    fault point.  The compiler is deterministic, so a tier that fails
    with [Internal] is attempted once and the ladder falls through to
    the next tier; the failure leaves no state behind, so the next
    request starts from the top of its ladder again.  An
    [Invalid_request] ends the walk, since no cheaper tier can fix it. *)

type t

type stats = {
  requests : int;
  cache_hits : int;
  cache_misses : int;
  cache_corrupt : int;  (** digest-validation failures: entries evicted
                            instead of served *)
  served_ok : int;  (** compiled cold, or re-stamped from the route
                        table, at the requested tier (cache hits count
                        under [cache_hits] only) *)
  degraded : int;  (** compiled at a cheaper tier under deadline pressure *)
  timeouts : int;
  errors : int;  (** invalid requests and captured internal errors *)
  retries : int;
      (** always 0: a failed tier is never re-run.  Kept so readers of
          the record (the end-to-end benchmark's per-layer report)
          still build; {!stats_to_json} does not export it. *)
}

val zero_stats : stats

val stats_sub : stats -> stats -> stats
(** Fieldwise [after - before]: the delta of one pass. *)

val stats_to_json : ?cache_bytes:int -> stats -> Qcr_obs.Json.t
(** [cache_bytes] (as produced by {!cache_bytes}) adds the
    ["cache_bytes"] gauge. *)

val create :
  ?cache_capacity:int ->
  ?store:Cache_store.t ->
  ?clock:Qcr_obs.Clock.t ->
  ?astar_budget:int ->
  ?on_attempt:(Compile_request.mode -> unit) ->
  ?eventlog:Qcr_obs.Eventlog.t ->
  unit ->
  t
(** Defaults: 512 cached replies and as many route-table structures, no
    persistent store, {!Qcr_obs.Clock.wall}, 30000 A* node expansions
    for the portfolio arm.  With [store], the cache warm-starts from the
    store's validated entries (capacity permitting) before the first
    request.  [on_attempt] runs immediately before each tier attempt
    (after admission) — an instrumentation seam that deadline tests use
    to advance a fake clock by a simulated per-tier cost.  With
    [eventlog], every served reply feeds the bounded slow-request and
    error channels ({!Qcr_obs.Eventlog}).

    Creation also (re-)registers the instance's registry probes —
    [service.cache_bytes] and [service.cache_entries] — pointing at the
    newest instance. *)

val submit : t -> Compile_request.t -> Compile_reply.t

val run_batch : t -> Compile_request.t list -> Compile_reply.t list
(** Replies in request order; distinct cold structures compile in
    parallel.
    If the pool itself fails (e.g. {!Qcr_par.Pool.Worker_lost} surfacing
    through a combinator), the batch falls back to compiling inline on
    the submitting domain — a lost pool never loses a batch. *)

val stats : t -> stats
(** Cumulative over the service's lifetime; [cache_corrupt] includes the
    store records skipped at warm start. *)

val cache_bytes : t -> int
(** The total canonical bytes held by the compile cache, summed at read
    time — the gauge {!stats_to_json}'s [?cache_bytes] argument exports. *)

val cache_entries : t -> int
(** Live entries in the compile cache. *)

val flush : t -> (int, string) result
(** Persist every cached entry the store does not hold yet as one new
    crash-safe segment; [Ok n] is the number written ([Ok 0] without a
    [store] or when nothing is new).  On [Error] nothing is lost: the
    cache and the on-disk index are unchanged, and the flush can be
    retried. *)

val metrics_json : t -> Qcr_obs.Json.t
(** The full {!Qcr_obs.Registry} exposition (schema [qcr-metrics/v1]:
    counters, gauges and probes — pool and cache — and
    meters with p50/p90/p99 and trailing rate, including the per-tier
    [service.compile_ms{tier=...}] families) with this instance's
    {!stats_to_json} block appended under ["stats"].  This is what
    [qcr serve]'s [{"op":"metrics"}] control line returns. *)

(** {1 Wire format}

    A batch file is [{"schema": "qcr-service-batch/v1", "requests":
    [...]}] (a bare request array is also accepted); a reply file is
    [{"schema": "qcr-service-replies/v1", "domains": N, "replies": [...],
    "stats": {...}, "passes": [...]}]. *)

val batch_schema : string

val replies_schema : string

val requests_of_json : Qcr_obs.Json.t -> (Compile_request.t list, string) result

val requests_to_json : Compile_request.t list -> Qcr_obs.Json.t

val replies_to_json :
  ?passes:stats list -> domains:int -> stats:stats -> Compile_reply.t list -> Qcr_obs.Json.t
(** [passes] records per-pass stat deltas when the same batch ran several
    times through one service (the CLI's [--repeat]). *)
