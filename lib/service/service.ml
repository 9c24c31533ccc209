module Pipeline = Qcr_core.Pipeline
module Gate = Qcr_circuit.Gate
module Circuit = Qcr_circuit.Circuit
module Mapping = Qcr_circuit.Mapping
module Program = Qcr_circuit.Program
module Graph = Qcr_graph.Graph
module Clock = Qcr_obs.Clock
module Obs = Qcr_obs.Obs
module Registry = Qcr_obs.Registry
module Eventlog = Qcr_obs.Eventlog
module Json = Qcr_obs.Json
module Sharded_cache = Qcr_util.Sharded_cache
module Lru = Qcr_util.Lru
module Prng = Qcr_util.Prng
module Digest64 = Qcr_util.Digest64
module Pool = Qcr_par.Pool
module Fault = Qcr_fault.Fault
module Request = Compile_request
module Reply = Compile_reply

let c_requests = Obs.counter "service.requests"

let c_hit = Obs.counter "service.cache.hit"

let c_miss = Obs.counter "service.cache.miss"

let c_corrupt = Obs.counter "service.cache.corrupt"

let c_route_hit = Obs.counter "service.route.hit"

let c_route_miss = Obs.counter "service.route.miss"

let c_degraded = Obs.counter "service.degraded"

let c_timeout = Obs.counter "service.timeout"

let c_error = Obs.counter "service.error"

let c_attempt = Obs.counter "service.tier_attempts"

let c_retry = Obs.counter "service.retries"

let c_breaker_trip = Obs.counter "service.breaker.trips"

let c_breaker_skip = Obs.counter "service.breaker.skips"

let c_boundary = Obs.counter "service.boundary_catches"

(* Injection points: a [service.tier] crash fails one compile attempt, a
   [cache.get]/[cache.put] corruption flips a byte of the entry bytes
   the digest check guards. *)
let tier_point = Fault.point "service.tier"

let cache_get_point = Fault.point "cache.get"

let cache_put_point = Fault.point "cache.put"

type stats = {
  requests : int;
  cache_hits : int;
  cache_misses : int;
  cache_corrupt : int;
  served_ok : int;
  degraded : int;
  timeouts : int;
  errors : int;
  retries : int;
  breaker_trips : int;
}

let zero_stats =
  {
    requests = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_corrupt = 0;
    served_ok = 0;
    degraded = 0;
    timeouts = 0;
    errors = 0;
    retries = 0;
    breaker_trips = 0;
  }

let stats_sub a b =
  {
    requests = a.requests - b.requests;
    cache_hits = a.cache_hits - b.cache_hits;
    cache_misses = a.cache_misses - b.cache_misses;
    cache_corrupt = a.cache_corrupt - b.cache_corrupt;
    served_ok = a.served_ok - b.served_ok;
    degraded = a.degraded - b.degraded;
    timeouts = a.timeouts - b.timeouts;
    errors = a.errors - b.errors;
    retries = a.retries - b.retries;
    breaker_trips = a.breaker_trips - b.breaker_trips;
  }

let stats_to_json ?breakers ?cache s =
  let int_field n v = (n, Json.Num (float_of_int v)) in
  Json.Obj
    ([
       int_field "requests" s.requests;
       int_field "cache_hits" s.cache_hits;
       int_field "cache_misses" s.cache_misses;
       int_field "cache_corrupt" s.cache_corrupt;
       int_field "served_ok" s.served_ok;
       int_field "degraded" s.degraded;
       int_field "timeouts" s.timeouts;
       int_field "errors" s.errors;
       int_field "retries" s.retries;
       int_field "breaker_trips" s.breaker_trips;
     ]
    @ (match cache with
      | None -> []
      | Some (shards, cache_bytes) ->
          [ int_field "shards" shards; int_field "cache_bytes" cache_bytes ])
    @
    match breakers with
    | None -> []
    | Some states ->
        [ ("breakers", Json.Obj (List.map (fun (tier, st) -> (tier, Json.Str st)) states)) ])

(* Tier indices for the cost model and the circuit breakers. *)
let tier_index = function
  | Request.Portfolio -> 0
  | Request.Ours -> 1
  | Request.Greedy -> 2
  | Request.Ata -> 3

let tier_names = [| "portfolio"; "ours"; "greedy"; "ata" |]

(* Registry meters, registered once at module initialization so the
   metric families exist (empty) before the first request — an idle
   server still exposes stable family names. *)
let m_request_ms = Registry.meter "service.request_ms"

let tier_meters =
  Array.map (fun name -> Registry.meter ~labels:[ ("tier", name) ] "service.compile_ms") tier_names

(* Per-tier circuit breaker.  Closed counts the consecutive-failure
   streak; at [threshold] it opens for [cooldown_s] seconds of the
   service clock, during which the tier is skipped (the ladder moves on
   to cheaper tiers).  Once cooled it half-opens: attempts are admitted
   as probes, one success recloses it, one failure reopens it. *)
type breaker_state =
  | Closed
  | Open of float (* reopens for probing at this clock reading *)
  | Half_open

type breaker = {
  mutable b_state : breaker_state;
  mutable streak : int; (* consecutive failures while closed *)
  mutable trips : int; (* cumulative open transitions *)
}

type entry = {
  e_reply : Reply.t;
  canon : string; (* canonical serialized body, the digested bytes *)
  digest : string;
}

(* A route-table entry: one full-quality compile with its angles left
   out.  It keeps the reply's angle-free metrics and five bytes per gate
   — a tag and two u16 operands, where an epilogue Rz keeps its logical
   qubit's degree as the second operand — rather than the circuit and
   mappings of a [Pipeline.result], which would hold far more memory per
   structure. *)
type template = {
  t_metrics : Reply.metrics;  (* its [circuit_digest] is recomputed per hit *)
  wires : int;
  gates : Bytes.t;
}

type t = {
  cache : entry Sharded_cache.t;  (* per-shard locks of its own: cache
                                     traffic never touches [lock] *)
  store : Cache_store.t option;  (* disk-backed warm-restart store *)
  lock : Mutex.t;  (* guards [costs], [breakers] and [retry_rng] only;
                      stats mutate on the driver domain only, except
                      [retries_total] (atomic) and the cache counters
                      (per-shard, merged at read time) *)
  clock : Clock.t;
  astar_budget : int;
  on_attempt : Request.mode -> unit;
  costs : float array;  (* EWMA compile seconds per program edge, per tier *)
  breakers : breaker array;
  retries : int;
  backoff_s : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  sleep : float -> unit;
  retry_rng : Prng.t; (* jitter stream, seeded: backoff is reproducible *)
  retries_total : int Atomic.t;
  eventlog : Eventlog.t option;
  routes : template Lru.t;  (* route key -> template; driver domain only,
                               like [st] *)
  mutable st : stats;
}

(* A full-quality reply is the only thing worth caching: degraded and
   failed replies depend on the deadline, not just the content key. *)
let cacheable (r : Reply.t) =
  match r.Reply.outcome with
  | Reply.Compiled { mode; _ } -> mode = r.Reply.requested_mode
  | Reply.Failed _ -> false

(* The digested canonical bytes: content only — no id, no timing, no
   cache flag, no per-request trace — so every hit can be checked
   against the digest computed at insertion. *)
let canonical_body (r : Reply.t) =
  Json.to_string
    (Reply.strip_volatile (Reply.to_json { r with Reply.id = ""; cached = false; trace = None }))

let entry_of_reply r =
  let canon = canonical_body r in
  { e_reply = r; canon; digest = Digest64.of_string canon }

let entry_weight e = String.length e.canon + String.length e.digest

(* What a persisted record stores: the full reply JSON with volatile
   fields zeroed, so [Reply.of_json] reconstructs it on a warm restart
   (the canonical digested bytes strip [compile_ms] and cannot be parsed
   back on their own). *)
let persist_body (r : Reply.t) =
  Json.to_string
    (Reply.to_json { r with Reply.id = ""; cached = false; compile_ms = 0.0; trace = None })

(* Warm-start the cache from a store: each validated record must parse
   back into a full-quality reply whose own cache key matches the record
   key; anything else counts as a corrupt entry and is left behind (the
   next flush rewrites it from a fresh compile). *)
let load_store cache store =
  List.iter
    (fun (key, body) ->
      match Json.of_string body with
      | Ok j -> (
          match Reply.of_json j with
          | Ok r when cacheable r && r.Reply.key = key ->
              Sharded_cache.add cache key (entry_of_reply r)
          | _ -> Sharded_cache.note_corrupt cache key)
      | Error _ -> Sharded_cache.note_corrupt cache key)
    (Cache_store.entries store)

(* Registry probes for this instance's gauges.  Probes replace by (name,
   labels), so creating a new service re-points them at the newest
   instance instead of growing the probe table — tests that build many
   services stay bounded. *)
let register_probes t =
  Registry.register_probe "service.cache_bytes" (fun () ->
      float_of_int (Sharded_cache.bytes t.cache));
  Registry.register_probe "service.cache_shards" (fun () ->
      float_of_int (Sharded_cache.shard_count t.cache));
  Registry.register_probe "service.cache_entries" (fun () ->
      float_of_int (Sharded_cache.length t.cache));
  Array.iteri
    (fun i name ->
      Registry.register_probe ~labels:[ ("tier", name) ] "service.breaker_state" (fun () ->
          Mutex.lock t.lock;
          let v =
            match t.breakers.(i).b_state with Closed -> 0.0 | Half_open -> 1.0 | Open _ -> 2.0
          in
          Mutex.unlock t.lock;
          v))
    tier_names

let create ?(cache_capacity = 512) ?(cache_shards = 16) ?store ?(clock = Clock.wall)
    ?(astar_budget = 30_000) ?(on_attempt = fun _ -> ()) ?(retries = 2) ?(backoff_s = 0.005)
    ?(breaker_threshold = 5) ?(breaker_cooldown_s = 30.0) ?(retry_seed = 0x51ee7)
    ?(sleep = fun s -> if s > 0.0 then Unix.sleepf s) ?eventlog () =
  let cache =
    Sharded_cache.create ~shards:cache_shards ~weight:entry_weight ~capacity:cache_capacity ()
  in
  Option.iter (load_store cache) store;
  let t =
    {
      cache;
      store;
      lock = Mutex.create ();
      clock;
      astar_budget;
      on_attempt;
      costs = Array.make 4 0.0;
      breakers = Array.init 4 (fun _ -> { b_state = Closed; streak = 0; trips = 0 });
      retries = max 0 retries;
      backoff_s = Float.max 0.0 backoff_s;
      breaker_threshold = max 1 breaker_threshold;
      breaker_cooldown_s = Float.max 0.0 breaker_cooldown_s;
      sleep;
      retry_rng = Prng.create retry_seed;
      retries_total = Atomic.make 0;
      eventlog;
      routes = Lru.create ~capacity:cache_capacity;
      st = zero_stats;
    }
  in
  register_probes t;
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let breaker_trips t =
  locked t (fun () -> Array.fold_left (fun acc b -> acc + b.trips) 0 t.breakers)

(* Cache counters merge per-shard (each mutated only under its shard
   lock) plus the store's load-time skips, so they are exact under
   sharding instead of racing one shared record. *)
let stats t =
  let c = Sharded_cache.stats t.cache in
  let store_corrupt =
    match t.store with Some s -> Cache_store.corrupt_skipped s | None -> 0
  in
  {
    t.st with
    cache_hits = c.Sharded_cache.hits;
    cache_misses = c.Sharded_cache.misses;
    cache_corrupt = c.Sharded_cache.corrupt + store_corrupt;
    retries = Atomic.get t.retries_total;
    breaker_trips = breaker_trips t;
  }

let cache_info t = (Sharded_cache.shard_count t.cache, Sharded_cache.bytes t.cache)

let cache_entries t = Sharded_cache.length t.cache

(* Persist every cached entry the store does not hold yet.  Content
   addressing makes this idempotent: a key, once written, is never
   rewritten, so repeated flushes append only what changed. *)
let flush t =
  match t.store with
  | None -> Ok 0
  | Some store ->
      let fresh =
        Sharded_cache.fold
          (fun key e acc ->
            if Cache_store.mem store key then acc else (key, persist_body e.e_reply) :: acc)
          t.cache []
      in
      Cache_store.append store fresh

let state_name = function Closed -> "closed" | Open _ -> "open" | Half_open -> "half_open"

let breaker_states t =
  locked t (fun () ->
      Array.to_list (Array.mapi (fun i b -> (tier_names.(i), state_name b.b_state)) t.breakers))

(* Breaker transitions; [now] is a reading of the service clock. *)
let breaker_admits t tier now =
  locked t (fun () ->
      let b = t.breakers.(tier_index tier) in
      match b.b_state with
      | Closed | Half_open -> true
      | Open until when now >= until ->
          b.b_state <- Half_open;
          true
      | Open _ -> false)

let breaker_success t tier =
  locked t (fun () ->
      let b = t.breakers.(tier_index tier) in
      b.b_state <- Closed;
      b.streak <- 0)

let breaker_failure t tier now =
  locked t (fun () ->
      let b = t.breakers.(tier_index tier) in
      b.streak <- b.streak + 1;
      match b.b_state with
      | Half_open ->
          (* the probe failed: straight back to open *)
          b.b_state <- Open (now +. t.breaker_cooldown_s);
          b.trips <- b.trips + 1;
          Obs.incr c_breaker_trip
      | Closed when b.streak >= t.breaker_threshold ->
          b.b_state <- Open (now +. t.breaker_cooldown_s);
          b.trips <- b.trips + 1;
          b.streak <- 0;
          Obs.incr c_breaker_trip
      | Closed | Open _ -> ())

(* Degradation ladder (portfolio -> full system -> pure greedy); rigid
   ATA requests have no meaningful cheaper tier. *)
let ladder = function
  | Request.Portfolio -> [ Request.Portfolio; Request.Ours; Request.Greedy ]
  | Request.Ours -> [ Request.Ours; Request.Greedy ]
  | Request.Greedy -> [ Request.Greedy ]
  | Request.Ata -> [ Request.Ata ]

let predicted_cost t tier ~edges = locked t (fun () -> t.costs.(tier_index tier)) *. edges

let observe_cost t tier ~edges seconds =
  let per_edge = seconds /. edges in
  locked t (fun () ->
      let i = tier_index tier in
      t.costs.(i) <- (if t.costs.(i) = 0.0 then per_edge else 0.5 *. (t.costs.(i) +. per_edge)))

let backtrace_suffix bt = if bt = "" then "" else "\n" ^ bt

(* One compile attempt behind the [service.tier] fault point; any
   exception (an injected crash, or anything [Pipeline.run]'s own
   capture missed) comes back as a typed [Internal] with the backtrace. *)
let attempt_once pipeline_req =
  try
    Fault.fire tier_point;
    Pipeline.run pipeline_req
  with
  | (Out_of_memory | Stack_overflow) as e -> raise e
  | e ->
      let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
      Error (Pipeline.Internal (Printexc.to_string e ^ backtrace_suffix bt))

(* Seeded exponential backoff with full jitter: attempt [k] (0-based)
   waits [backoff_s * 2^k * u], u uniform in [1, 2). *)
let backoff_delay t k =
  let u = locked t (fun () -> 1.0 +. Prng.float t.retry_rng 1.0) in
  t.backoff_s *. Float.of_int (1 lsl k) *. u

(* Walk the ladder.  Admission is predictive: a tier runs only when its
   breaker allows it and the cost model says it fits the remaining
   budget (the first attempt of a tier is always admitted — its cost is
   still unknown).  A tier that completes past its deadline is
   discarded: its timing feeds the model, and the walk continues with
   the cheaper tiers.  Transient ([Internal]) failures retry with
   backoff, feed the breaker, and fall through to the next tier. *)
let error_kind = function
  | Pipeline.Timeout _ -> "timeout"
  | Pipeline.Invalid_request _ -> "invalid_request"
  | Pipeline.Internal _ -> "internal"
  | Pipeline.Overloaded _ -> "overloaded"
  | Pipeline.Canceled -> "canceled"

(* ---------- route table ---------- *)

let gate_fields = function
  | Gate.H q -> (0, q, 0)
  | Gate.X q -> (1, q, 0)
  | Gate.Rx (q, _) -> (2, q, 0)
  | Gate.Rz (q, _) -> (3, q, 0)
  | Gate.Cx (a, b) -> (4, a, b)
  | Gate.Cz (a, b) -> (5, a, b)
  | Gate.Cphase (a, b, _) -> (6, a, b)
  | Gate.Rzz (a, b, _) -> (7, a, b)
  | Gate.Swap (a, b) -> (8, a, b)
  | Gate.Swap_interact (a, b, _) -> (9, a, b)
  | Gate.Swap_rzz (a, b, _) -> (10, a, b)
  | Gate.Measure q -> (11, q, 0)
  | Gate.Barrier -> (12, 0, 0)

(* Angles come back as 0; [Program.rebind_gate] stamps the real ones. *)
let gate_of_fields tag a b =
  match tag with
  | 0 -> Gate.H a
  | 1 -> Gate.X a
  | 2 -> Gate.Rx (a, 0.0)
  | 3 -> Gate.Rz (a, 0.0)
  | 4 -> Gate.Cx (a, b)
  | 5 -> Gate.Cz (a, b)
  | 6 -> Gate.Cphase (a, b, 0.0)
  | 7 -> Gate.Rzz (a, b, 0.0)
  | 8 -> Gate.Swap (a, b)
  | 9 -> Gate.Swap_interact (a, b, 0.0)
  | 10 -> Gate.Swap_rzz (a, b, 0.0)
  | 11 -> Gate.Measure a
  | _ -> Gate.Barrier

(* The template of a compile of [program], or [None] when an operand
   overflows u16 or re-stamping a gate at the compile's own angles would
   not reproduce it exactly: only templates known to rebind exactly are
   stored. *)
let template_of program (res : Pipeline.result) metrics =
  let interaction = Program.interaction program and graph = Program.graph program in
  let degree q =
    let l = Mapping.log_of_phys res.Pipeline.final q in
    if l < Graph.vertex_count graph then Graph.degree graph l else max_int
  in
  let gates = Circuit.gates res.Pipeline.circuit in
  let buf = Bytes.create (5 * List.length gates) in
  let exact = ref true in
  List.iteri
    (fun i g ->
      let tag, a, b = gate_fields g in
      let b = match g with Gate.Rz (q, _) -> degree q | _ -> b in
      if a > 0xffff || b > 0xffff || not (Gate.equal g (Program.rebind_gate interaction ~degree:b g))
      then exact := false
      else begin
        Bytes.set_uint8 buf (5 * i) tag;
        Bytes.set_uint16_le buf ((5 * i) + 1) a;
        Bytes.set_uint16_le buf ((5 * i) + 3) b
      end)
    gates;
  if !exact then
    Some { t_metrics = metrics; wires = Circuit.qubit_count res.Pipeline.circuit; gates = buf }
  else None

(* The metrics of [tpl]'s structure compiled at [interaction]'s angles:
   bit-identical to a cold compile, digest included. *)
let rebind_template interaction tpl =
  let gates =
    List.init (Bytes.length tpl.gates / 5) (fun i ->
        let b = Bytes.get_uint16_le tpl.gates ((5 * i) + 3) in
        Program.rebind_gate interaction ~degree:b
          (gate_of_fields
             (Bytes.get_uint8 tpl.gates (5 * i))
             (Bytes.get_uint16_le tpl.gates ((5 * i) + 1))
             b))
  in
  { tpl.t_metrics with Reply.circuit_digest = Reply.gates_digest ~qubits:tpl.wires gates }

(* The route key of a request, or [None] when it has no angles or the
   table is disabled (capacity 0). *)
let route_of t req = if Lru.capacity t.routes = 0 then None else Request.route_key req

(* One lookup per exact-cache miss that has a route key: a hit or a miss. *)
let route_find t = function
  | None -> None
  | Some route ->
      let found = Lru.find t.routes route in
      Obs.incr (if found = None then c_route_miss else c_route_hit);
      found

let compile_cold t (req : Request.t) key ~route =
  let span_args =
    if req.Request.id = "" then [] else [ ("req", req.Request.id) ]
  in
  Obs.with_span ~cat:"service" ~args:span_args "service.compile_cold" @@ fun () ->
  let t0 = Clock.now t.clock in
  let deadline = Option.map (fun d -> t0 +. d) req.Request.deadline_s in
  let edges = float_of_int (max 1 (List.length (Request.canonical_edges req))) in
  (* Phase breakdown, collected in reverse.  The phase sequence and
     every non-timing field are deterministic for a given seed; only the
     [ms] readings vary (and are stripped by [Reply.strip_volatile]). *)
  let phases = ref [] in
  let push ~tier ~outcome ~retries ~ms =
    if req.Request.trace then
      phases :=
        {
          Reply.p_phase = "compile";
          p_detail = tier_names.(tier_index tier);
          p_outcome = outcome;
          p_retries = retries;
          p_ms = ms;
        }
        :: !phases
  in
  let exhausted last_err =
    ( Reply.Failed
        (match last_err with
        | Some e -> e
        | None -> (
            match req.Request.deadline_s with
            | Some deadline_s -> Pipeline.Timeout { deadline_s }
            | None -> Pipeline.Internal "degradation ladder exhausted")),
      None )
  in
  let rec attempt last_err = function
    | [] -> exhausted last_err
    | tier :: rest -> (
        let now = Clock.now t.clock in
        if not (breaker_admits t tier now) then begin
          Obs.incr c_breaker_skip;
          push ~tier ~outcome:"breaker_open" ~retries:0 ~ms:0.0;
          attempt last_err rest
        end
        else
          let admitted =
            match deadline with
            | None -> true
            | Some d -> now < d && now +. predicted_cost t tier ~edges <= d
          in
          if not admitted then begin
            push ~tier ~outcome:"not_admitted" ~retries:0 ~ms:0.0;
            attempt last_err rest
          end
          else begin
            let arch = Request.arch_of req in
            let pipeline_req =
              Pipeline.Request.make ~id:req.Request.id ~config:(Request.config_of req)
                ?noise:(Request.noise_of req arch)
                ~mode:(Request.pipeline_mode ~astar_budget:t.astar_budget { req with Request.mode = tier })
                arch (Request.program_of req)
            in
            let tier_start = Clock.now t.clock in
            let rec try_tier k =
              t.on_attempt tier;
              Obs.incr c_attempt;
              let t_start = Clock.now t.clock in
              let outcome = attempt_once pipeline_req in
              let t_end = Clock.now t.clock in
              observe_cost t tier ~edges (t_end -. t_start);
              Registry.observe tier_meters.(tier_index tier) ((t_end -. t_start) *. 1000.0);
              match outcome with
              | Error (Pipeline.Internal _) when k < t.retries ->
                  Obs.incr c_retry;
                  Atomic.incr t.retries_total;
                  t.sleep (backoff_delay t k);
                  try_tier (k + 1)
              | outcome -> (outcome, t_end, k)
            in
            let tier_ms t_end = (t_end -. tier_start) *. 1000.0 in
            match try_tier 0 with
            | Error (Pipeline.Invalid_request _ as e), t_end, k ->
                (* deterministic rejection: no cheaper tier can fix it,
                   and it says nothing about the tier's health *)
                push ~tier ~outcome:(error_kind e) ~retries:k ~ms:(tier_ms t_end);
                (Reply.Failed e, None)
            | Error e, t_end, k ->
                breaker_failure t tier t_end;
                push ~tier ~outcome:(error_kind e) ~retries:k ~ms:(tier_ms t_end);
                attempt (Some e) rest
            | Ok res, t_end, k -> (
                breaker_success t tier;
                match deadline with
                | Some d when t_end > d ->
                    push ~tier ~outcome:"discarded" ~retries:k ~ms:(tier_ms t_end);
                    attempt last_err rest
                | _ ->
                    push ~tier ~outcome:"ok" ~retries:k ~ms:(tier_ms t_end);
                    let metrics = Reply.metrics_of_result res in
                    ( Reply.Compiled { mode = tier; metrics },
                      if route && tier = req.Request.mode then
                        template_of pipeline_req.Pipeline.Request.program res metrics
                      else None ))
          end)
  in
  let outcome, template = attempt None (ladder req.Request.mode) in
  ( {
      Reply.id = req.Request.id;
      key;
      requested_mode = req.Request.mode;
      outcome;
      cached = false;
      compile_ms = (Clock.now t.clock -. t0) *. 1000.0;
      trace = (if req.Request.trace then Some (List.rev !phases) else None);
    },
    template )

(* Insert through the [cache.put] fault point: a corruption mangles the
   stored bytes so the digest check catches it on the next hit; a crash
   skips caching but never loses the freshly compiled reply. *)
let cache_put t key r =
  if cacheable r then
    try
      (* never cache a trace: it describes one request's journey, not
         the content-addressed circuit *)
      let entry = entry_of_reply { r with Reply.trace = None } in
      let entry = { entry with canon = Fault.corrupt cache_put_point entry.canon } in
      Sharded_cache.add t.cache key entry
    with
    | (Out_of_memory | Stack_overflow) as e -> raise e
    | _ -> ()

(* Look up through the [cache.get] fault point and validate: an entry
   whose bytes no longer match their digest is evicted and the request
   falls through to a fresh compile — a corrupted entry is never
   served.  [evict_corrupt] reclassifies the shard's hit as a miss, so
   the merged hit count stays "replies actually served from cache". *)
let cache_get t key =
  match Sharded_cache.find t.cache key with
  | None -> None
  | Some entry ->
      let canon = Fault.corrupt cache_get_point entry.canon in
      if Digest64.of_string canon = entry.digest then Some entry.e_reply
      else begin
        Sharded_cache.evict_corrupt t.cache key;
        Obs.incr c_corrupt;
        None
      end

let count_outcome t (r : Reply.t) =
  let st = t.st in
  t.st <-
    (match r.Reply.outcome with
    | Reply.Compiled { mode; _ } when mode <> r.Reply.requested_mode ->
        Obs.incr c_degraded;
        { st with degraded = st.degraded + 1 }
    | Reply.Compiled _ -> { st with served_ok = st.served_ok + 1 }
    | Reply.Failed (Pipeline.Timeout _) ->
        Obs.incr c_timeout;
        { st with timeouts = st.timeouts + 1 }
    | Reply.Failed _ ->
        Obs.incr c_error;
        { st with errors = st.errors + 1 })

let trace_phase phase detail outcome ms =
  { Reply.p_phase = phase; p_detail = detail; p_outcome = outcome; p_retries = 0; p_ms = ms }

let invalid_reply (req : Request.t) key msg started =
  fun clock ->
  let ms = (Clock.now clock -. started) *. 1000.0 in
  {
    Reply.id = req.Request.id;
    key;
    requested_mode = req.Request.mode;
    outcome = Reply.Failed (Pipeline.Invalid_request msg);
    cached = false;
    compile_ms = ms;
    trace =
      (if req.Request.trace then Some [ trace_phase "validate" "request" "invalid_request" ms ]
       else None);
  }

(* Served from the route table: the known structure re-stamped with this
   request's angles, never touching the tier ladder. *)
let route_reply (req : Request.t) key tpl started clock =
  let metrics = rebind_template req.Request.interaction tpl in
  let ms = (Clock.now clock -. started) *. 1000.0 in
  {
    Reply.id = req.Request.id;
    key;
    requested_mode = req.Request.mode;
    outcome = Reply.Compiled { mode = req.Request.mode; metrics };
    cached = false;
    compile_ms = ms;
    trace = (if req.Request.trace then Some [ trace_phase "route" "hit" "hit" ms ] else None);
  }

let hit_reply (req : Request.t) (cached : Reply.t) started clock =
  let ms = (Clock.now clock -. started) *. 1000.0 in
  {
    cached with
    Reply.id = req.Request.id;
    cached = true;
    compile_ms = ms;
    trace = (if req.Request.trace then Some [ trace_phase "cache" "hit" "hit" ms ] else None);
  }

(* Slow/error events for the bounded event log; a no-op unless the
   service was created with one. *)
let record_events t (req : Request.t) (reply : Reply.t) =
  match t.eventlog with
  | None -> ()
  | Some log ->
      let fields =
        [
          ("key", Json.Str reply.Reply.key);
          ("status", Json.Str (Reply.status_name reply));
          ("mode", Json.Str (Request.mode_name req.Request.mode));
          ("cached", Json.Bool reply.Reply.cached);
        ]
      in
      (match reply.Reply.outcome with
      | Reply.Failed e ->
          Eventlog.record_error log ~id:reply.Reply.id
            (("error_kind", Json.Str (error_kind e)) :: fields)
      | Reply.Compiled _ -> ());
      Eventlog.record_slow log ~id:reply.Reply.id ~ms:reply.Reply.compile_ms fields

(* Serve one request against the cache, then on a miss against the route
   table; [compiled] optionally supplies a pre-computed cold reply and
   template (the parallel batch path).  Templates are inserted here, on
   the driver domain in request order, so which requests are route hits
   never depends on the pool size. *)
let serve_exn t (req : Request.t) ~compiled =
  t.st <- { t.st with requests = t.st.requests + 1 };
  Obs.incr c_requests;
  let t0 = Clock.now t.clock in
  let finish reply =
    Registry.observe m_request_ms reply.Reply.compile_ms;
    record_events t req reply;
    reply
  in
  match Request.validate req with
  | Error msg ->
      Obs.incr c_error;
      t.st <- { t.st with errors = t.st.errors + 1 };
      finish (invalid_reply req "" msg t0 t.clock)
  | Ok () -> (
      let key = Request.cache_key req in
      match cache_get t key with
      | Some cached ->
          Obs.incr c_hit;
          finish (hit_reply req cached t0 t.clock)
      | None ->
          Obs.incr c_miss;
          let route = route_of t req in
          let reply, template =
            match route_find t route with
            | Some tpl -> (route_reply req key tpl t0 t.clock, None)
            | None -> (
                match compiled key with
                | Some (r, template) -> ({ r with Reply.id = req.Request.id }, template)
                | None -> compile_cold t req key ~route:(route <> None))
          in
          let reply =
            if req.Request.trace then
              {
                reply with
                Reply.trace =
                  Some
                    (trace_phase "cache" "miss" "miss" 0.0
                    :: Option.value reply.Reply.trace ~default:[]);
              }
            else reply
          in
          (match (route, template) with
          | Some route, Some tpl -> Lru.add t.routes route tpl
          | _ -> ());
          cache_put t key reply;
          count_outcome t reply;
          finish reply)

(* The catch-all boundary: whatever slips past the typed paths (an
   injected clock crash, a bug) becomes an [Internal] reply carrying the
   exception and its backtrace — the service never throws at a caller. *)
let boundary_reply (req : Request.t) e =
  let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
  {
    Reply.id = req.Request.id;
    key = "";
    requested_mode = req.Request.mode;
    outcome =
      Reply.Failed
        (Pipeline.Internal
           (Printf.sprintf "uncaught exception at service boundary: %s%s" (Printexc.to_string e)
              (backtrace_suffix bt)));
    cached = false;
    compile_ms = 0.0;
    trace = None;
  }

let serve t req ~compiled =
  try serve_exn t req ~compiled
  with
  | (Out_of_memory | Stack_overflow) as e -> raise e
  | e ->
      let reply = boundary_reply req e in
      Obs.incr c_boundary;
      Obs.incr c_error;
      t.st <- { t.st with errors = t.st.errors + 1 };
      record_events t req reply;
      reply

let submit t req = serve t req ~compiled:(fun _ -> None)

let run_batch t reqs =
  (* Phase 1: find the distinct cold structures (first valid occurrence
     of each route key — of each cache key when there is none — skipping
     keys already cached and routes already known) and compile them in
     parallel.  Phase 2 assembles replies sequentially in request order:
     the other points of an angle sweep become route hits there, and
     cache flags, route hits and hit/miss counts never depend on the pool
     size. *)
  let seen = Hashtbl.create 16 in
  let cold =
    List.filter_map
      (fun req ->
        match Request.validate req with
        | Error _ -> None
        | Ok () ->
            let key = Request.cache_key req in
            let route = route_of t req in
            let structure = Option.value route ~default:key in
            let known_route = match route with Some r -> Lru.mem t.routes r | None -> false in
            if Hashtbl.mem seen structure || Sharded_cache.mem t.cache key || known_route then None
            else begin
              Hashtbl.add seen structure ();
              Some (key, route, req)
            end)
      reqs
  in
  (* Each cold compile is individually fenced, and the pool fan-out has
     an inline fallback: a lost pool never loses a batch. *)
  let compile_one (key, route, req) =
    ( key,
      try compile_cold t req key ~route:(route <> None)
      with
      | (Out_of_memory | Stack_overflow) as e -> raise e
      | e ->
          Obs.incr c_boundary;
          ({ (boundary_reply req e) with Reply.key = key }, None) )
  in
  let compiled = Hashtbl.create 16 in
  (try Pool.map_list (Pool.default ()) compile_one cold
   with
   | (Out_of_memory | Stack_overflow) as e -> raise e
   | _ -> List.map compile_one cold)
  |> List.iter (fun (key, reply) -> Hashtbl.add compiled key reply);
  List.map
    (fun req ->
      serve t req ~compiled:(fun key ->
          match Hashtbl.find_opt compiled key with
          | Some r ->
              (* consumed by its first occurrence; duplicates either hit
                 the cache (full-quality outcome) or recompile inline *)
              Hashtbl.remove compiled key;
              Some r
          | None -> None))
    reqs

(* ---------- wire format ---------- *)

let batch_schema = "qcr-service-batch/v1"

let replies_schema = "qcr-service-replies/v1"

let requests_of_json j =
  let items =
    match j with
    | Json.Arr items -> Ok items
    | Json.Obj _ -> (
        (match Json.member "schema" j with
        | Some (Json.Str s) when s <> batch_schema ->
            Error (Printf.sprintf "unsupported schema %S (want %S)" s batch_schema)
        | _ -> Ok ())
        |> fun schema_ok ->
        Result.bind schema_ok (fun () ->
            match Json.member "requests" j with
            | Some (Json.Arr items) -> Ok items
            | _ -> Error "missing \"requests\" array"))
    | _ -> Error "batch must be an object or an array"
  in
  Result.bind items (fun items ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match Request.of_json item with
            | Ok r -> go (i + 1) (r :: acc) rest
            | Error e -> Error (Printf.sprintf "request %d: %s" i e))
      in
      go 0 [] items)

let requests_to_json reqs =
  Json.Obj
    [
      ("schema", Json.Str batch_schema);
      ("requests", Json.Arr (List.map Request.to_json reqs));
    ]

(* The metrics op: the full registry exposition (counters, gauges and
   probes — pool, cache, breakers — and meters with quantiles) plus this
   instance's wire-stats block, in one object. *)
let metrics_json t =
  match Registry.to_json (Registry.snapshot ()) with
  | Json.Obj fields ->
      Json.Obj
        (fields
        @ [ ("stats", stats_to_json ~breakers:(breaker_states t) ~cache:(cache_info t) (stats t)) ])
  | j -> j

let replies_to_json ?passes ?breakers ~domains ~stats replies =
  Json.Obj
    ([
       ("schema", Json.Str replies_schema);
       ("domains", Json.Num (float_of_int domains));
       ("replies", Json.Arr (List.map Reply.to_json replies));
       ("stats", stats_to_json ?breakers stats);
     ]
    @
    match passes with
    | None -> []
    | Some ps -> [ ("passes", Json.Arr (List.map stats_to_json ps)) ])
