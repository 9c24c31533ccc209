(** A compilation job, as data.

    A request names everything that determines the compiled circuit — a
    device from a parametric family, the problem graph, the interaction,
    the compilation mode and config knobs, plus an optional seeded noise
    model — in plain values that round-trip through JSON.  Two requests
    with the same content produce the same {!cache_key} (the id and
    deadline are excluded), which is what lets the service serve repeats
    from its content-addressed compile cache.

    The wire format (one request):
    {v
    { "id": "job-1",
      "arch": { "kind": "heavyhex", "n": 27 },
      "program": { "qubits": 10,
                   "edges": [[0,1],[1,2],[2,3]],
                   "interaction": { "kind": "qaoa_maxcut",
                                    "gamma": 0.4, "beta": 0.35 } },
      "mode": "ours",
      "alpha": 0.5,            // optional, selector depth weight
      "noise_seed": 7,         // optional, omit for a noiseless device
      "deadline_s": 1.5,       // optional compute budget, seconds
      "trace": true }          // optional, phase breakdown on the reply
    v} *)

type mode =
  | Ours
  | Greedy
  | Ata
  | Portfolio

type t = {
  id : string;
  arch_kind : Qcr_arch.Arch.kind;
  arch_size : int;  (** minimum qubit count; the device is the smallest
                        family member with at least this many qubits *)
  qubits : int;  (** problem-graph vertices *)
  edges : (int * int) list;
  interaction : Qcr_circuit.Program.interaction;
  mode : mode;
  alpha : float option;  (** selector depth weight; [None] = default *)
  noise_seed : int option;  (** [Noise.sampled ~seed]; [None] = noiseless *)
  deadline_s : float option;  (** compute budget (excludes queueing) *)
  trace : bool;
      (** request a per-request phase breakdown on the reply
          ([Compile_reply.trace]); excluded from the cache key *)
}

val make :
  ?id:string ->
  ?arch_size:int ->
  ?interaction:Qcr_circuit.Program.interaction ->
  ?mode:mode ->
  ?alpha:float ->
  ?noise_seed:int ->
  ?deadline_s:float ->
  ?trace:bool ->
  arch_kind:Qcr_arch.Arch.kind ->
  qubits:int ->
  edges:(int * int) list ->
  unit ->
  t
(** Defaults: empty id, [arch_size = qubits], QAOA-MaxCut interaction
    with the gamma 0.4 / beta 0.35 angles used across the benchmarks,
    mode [Ours], no alpha override, noiseless, no deadline, no trace. *)

val validate : t -> (unit, string) result
(** Structural checks only (vertex bounds, no self-loops, positive sizes,
    finite floats, supported arch family) — cheap enough to run on every
    submission. *)

val canonical_edges : t -> (int * int) list
(** Edges normalized to [u < v], sorted lexicographically, deduplicated —
    the canonical program content the cache key digests. *)

val cache_key : t -> string
(** Content-addressed key: a {!Qcr_util.Digest64} over the arch family
    and size, the canonical program (qubit count, canonical edges,
    interaction with exact float bits), the mode, the config fingerprint
    (alpha) and the noise fingerprint (seed or noiseless).  [id],
    [deadline_s] and [trace] do not contribute. *)

val route_key : t -> string option
(** The angle-free twin of {!cache_key}: the same content with the
    interaction's angles (γ, β, θ) left out and its kind kept, so every
    point of an angle sweep over one graph shares one route key.  It
    keys the service's route table, which re-stamps a compiled structure
    with new angles ({!Qcr_circuit.Program.rebind_gate}).  [None] for
    [Bare_cz], which has no angles. *)

(** {1 Realization} *)

val arch_of : t -> Qcr_arch.Arch.t

val program_of : t -> Qcr_circuit.Program.t

val noise_of : t -> Qcr_arch.Arch.t -> Qcr_arch.Noise.t option

val config_of : t -> Qcr_core.Config.t

val pipeline_mode : astar_budget:int -> t -> Qcr_core.Pipeline.Request.mode

(** {1 Names and serialization} *)

val mode_name : mode -> string

val mode_of_name : string -> (mode, string) result

val kind_name : Qcr_arch.Arch.kind -> string

val kind_of_name : string -> (Qcr_arch.Arch.kind, string) result
(** Accepts every parametric family; rejects ["custom"] (no wire form). *)

val to_json : t -> Qcr_obs.Json.t

val of_json : Qcr_obs.Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json r) = Ok r] for every
    validating request. *)
