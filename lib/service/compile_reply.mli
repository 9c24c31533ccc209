(** The service's answer to one {!Compile_request.t}.

    A reply never carries an exception: failures arrive as the typed
    {!Qcr_core.Pipeline.error} inside {!outcome}.  Successful replies
    carry circuit metrics plus a {!metrics.circuit_digest} — a content
    digest of the gate list — so batch runs can assert full determinism
    across pool sizes without shipping circuits over the wire.

    The wire format (one reply):
    {v
    { "id": "job-1", "key": "91c4...", "requested_mode": "portfolio",
      "status": "ok" | "degraded" | "error",
      "mode": "ours",                      // tier that compiled (ok/degraded)
      "depth": 14, "cx": 52, "swaps": 9,
      "log_fidelity": -0.31, "strategy": "hybrid@4",
      "circuit_digest": "5f21...",
      "error": { "kind": "timeout", "deadline_s": 0.5 },   // status=error
      "cached": true, "compile_ms": 12.25,
      "trace": [ { "phase": "cache", "detail": "miss",     // request had
                   "outcome": "miss", "retries": 0,        // "trace": true
                   "ms": 0.01 },
                 { "phase": "compile", "detail": "ours",
                   "outcome": "ok", "retries": 0, "ms": 12.2 } ] }
    v} *)

type metrics = {
  depth : int;
  cx : int;
  swap_count : int;
  log_fidelity : float;
  strategy : string;  (** ["greedy"], ["ata"] or ["hybrid@<cycle>"] *)
  circuit_digest : string;  (** {!Qcr_util.Digest64} over the gate list *)
}

type outcome =
  | Compiled of { mode : Compile_request.mode; metrics : metrics }
      (** [mode] is the tier that actually produced the circuit; it is
          below the requested mode when the deadline forced degradation *)
  | Failed of Qcr_core.Pipeline.error

type phase = {
  p_phase : string;  (** ["validate"], ["cache"], ["route"] or ["compile"] *)
  p_detail : string;
      (** tier name, or ["hit"]/["miss"] for the cache and ["hit"] for the
          route table *)
  p_outcome : string;
      (** ["ok"], ["miss"], ["hit"], ["discarded"] (finished past the
          deadline), ["not_admitted"] (cost model says it cannot fit the
          budget), ["timeout"], ["invalid_request"] or ["internal"] *)
  p_retries : int;
      (** always 0: the service attempts each tier once.  The
          ["retries"] key stays on the wire because journals store reply
          bytes. *)
  p_ms : float;  (** volatile; see {!strip_volatile} *)
}

type t = {
  id : string;
  key : string;  (** the request's cache key *)
  requested_mode : Compile_request.mode;
  outcome : outcome;
  cached : bool;  (** served from the compile cache *)
  compile_ms : float;  (** service-side latency (volatile; see
                           {!strip_volatile}) *)
  trace : phase list option;
      (** per-request phase breakdown, present when the request opted in
          with [Compile_request.trace]; never cached or persisted *)
}

val degraded : t -> bool
(** Compiled, but at a cheaper tier than requested. *)

val status_name : t -> string
(** ["ok"], ["degraded"] or ["error"]. *)

val metrics_of_result : Qcr_core.Pipeline.result -> metrics

val gates_digest : qubits:int -> Qcr_circuit.Gate.t list -> string
(** The {!metrics.circuit_digest} of a circuit on [qubits] wires with
    these gates, in order: a {!Qcr_util.Digest64} over the wire count and
    each gate's {!Qcr_circuit.Gate.to_string}. *)

val strategy_name : Qcr_core.Pipeline.strategy -> string

val to_json : t -> Qcr_obs.Json.t

val of_json : Qcr_obs.Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json r) = Ok r] whenever the
    reply's floats are finite. *)

val strip_volatile : Qcr_obs.Json.t -> Qcr_obs.Json.t
(** Recursively drop timing fields (["compile_ms"], trace-phase ["ms"])
    so replies — including their phase breakdowns — can be compared for
    semantic equality across runs, machines and pool sizes. *)
