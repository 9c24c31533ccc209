(** The full compiler workflow (paper §6.1, Fig 18), behind one
    request/reply entry point.

    {!run} takes a {!Request.t} naming the target device, the program and
    the compilation mode, and returns either a {!result} or a typed
    {!error} — the single code path every mode-specific entry point (and
    the [Qcr_service] compile server) goes through.

    For the default [Ours] mode, the engine runs greedy cycle by cycle;
    whenever the mapping changes (throttled on large devices) it records
    an ATA-completion prediction.  When no candidate gate remains, the
    selector compares the pure-greedy circuit against every recorded
    hybrid under the cost F and the winner is materialized: greedy is
    replayed deterministically up to the winning checkpoint and the rigid
    ATA completion is appended.  The checkpoint at cycle 0 is the pure
    solver-guided circuit cc0, so the output is never worse than rigidly
    following the clique pattern (Theorem 6.1) while beating it on sparse
    inputs.

    Compilation operates on the program's interaction block; the prologue
    and epilogue are attached verbatim around the routed block by
    {!finalize_body}, so no pre-stripping pass is needed (the former
    [interaction_only] helper was the identity and has been removed). *)

type strategy =
  | Pure_greedy
  | Pure_ata
  | Hybrid of int  (** greedy prefix length in cycles *)

type result = {
  circuit : Qcr_circuit.Circuit.t;  (** merged, physical wires *)
  initial : Qcr_circuit.Mapping.t;
  final : Qcr_circuit.Mapping.t;
  depth : int;      (** 2q critical path *)
  cx : int;         (** decomposed CX count *)
  swap_count : int;
  log_fidelity : float;  (** 0.0 without a noise model *)
  strategy : strategy;
  compile_seconds : float;
}

(** {1 The unified request/reply API} *)

module Request : sig
  type mode =
    | Ours  (** the full system: greedy + checkpointed ATA hybrids (§6.1) *)
    | Greedy  (** pure greedy arm (Fig 17 "greedy"); selector forced off *)
    | Ata
        (** rigid solver-guided pattern (Fig 17 "solver"): realize the
            clique ATA schedule from the initial mapping, skipping absent
            gates *)
    | Portfolio of { astar_budget : int }
        (** race ours/greedy/ata (and, on devices of at most 16 qubits,
            an anytime weighted-A* arm with [astar_budget] node
            expansions) over the domain pool and keep the best circuit
            under the selector metric; see {!compile_portfolio} for the
            arms-exposing variant *)

  type t = {
    id : string;
        (** request id propagated into the ["pipeline.run"] span (arg
            ["req"]) so traces can be sliced per request; [""] when
            anonymous *)
    arch : Qcr_arch.Arch.t;
    program : Qcr_circuit.Program.t;
    config : Config.t;
    noise : Qcr_arch.Noise.t option;
    init : Qcr_circuit.Mapping.t option;
    mode : mode;
  }

  val make :
    ?id:string ->
    ?config:Config.t ->
    ?noise:Qcr_arch.Noise.t ->
    ?init:Qcr_circuit.Mapping.t ->
    ?mode:mode ->
    Qcr_arch.Arch.t ->
    Qcr_circuit.Program.t ->
    t
  (** Defaults: [id ""], [Config.default], no noise model, automatic
      placement, mode [Ours]. *)

  val mode_name : mode -> string
  (** ["ours"], ["greedy"], ["ata"] or ["portfolio"]. *)
end

type error =
  | Timeout of { deadline_s : float }
      (** produced by deadline-enforcing callers such as the
          [Qcr_service] compile server; {!run} itself never times out *)
  | Invalid_request of string  (** the request fails validation *)
  | Internal of string  (** an unexpected exception, captured *)
  | Overloaded of { queued : int; limit : int }
      (** produced by admission-controlled front-ends ([Qcr_net]) when
          the bounded job queue is full; {!run} itself never sheds load *)
  | Canceled
      (** produced by the async job API when a queued job is canceled
          (explicitly or by its client disconnecting) before it ran *)

val error_to_string : error -> string

val run : Request.t -> (result, error) Stdlib.result
(** Validate the request (program fits the device, mapping and noise
    model match it), dispatch on the mode, and capture any unexpected
    exception as [Internal] — the only exceptions that escape are
    [Out_of_memory] and [Stack_overflow]. *)

val run_exn : Request.t -> result
(** [run] with the exception-based contract: [Invalid_request] raises
    [Invalid_argument], every other error raises [Failure].  Convenience
    for tests, benches and examples that treat errors as fatal. *)

val finalize_body :
  arch:Qcr_arch.Arch.t ->
  program:Qcr_circuit.Program.t ->
  noise:Qcr_arch.Noise.t option ->
  initial:Qcr_circuit.Mapping.t ->
  final:Qcr_circuit.Mapping.t ->
  strategy:strategy ->
  seconds:float ->
  Qcr_circuit.Circuit.t ->
  result
(** Wrap a routed interaction block with the program prologue/epilogue,
    merge interaction+swap pairs, and compute metrics.  Shared by the
    baseline compilers so every compiler is measured identically. *)

val rebind : result -> Qcr_circuit.Program.t -> result
(** [rebind r p]: [r] with every angle replaced by the one [p] gives it
    ({!Qcr_circuit.Program.rebind_gate}); structure, mappings and metrics
    are kept.  [p] must differ from the program [r] was compiled from
    only in its angles (same graph, same interaction kind).  Placement,
    routing, prediction and the selector never read an angle, so the
    result is bit-identical to compiling [p] afresh — which is what lets
    a QAOA loop compile its graph once and rebind at every evaluation. *)

(** {1 Parallel compiler portfolio} *)

type portfolio = {
  winner : result;
  winner_arm : string;  (** "ours", "greedy", "ata", or "astar" *)
  arms : (string * result) list;
      (** every arm that completed, in fixed arm order *)
}

val run_portfolio : Request.t -> (portfolio, error) Stdlib.result
(** The arms-exposing sibling of [run ~mode:(Portfolio _)]: race the full
    system, pure greedy, rigid ATA, and (on devices of at most 16 qubits)
    an anytime weighted-A* arm with the request's [astar_budget] node
    expansions (30000 when the request mode is not [Portfolio]) across
    the default [Qcr_par.Pool], and keep the circuit with the best
    {!Selector.score} normalized to the greedy arm (ties favor the
    earlier arm).  Arms that cannot complete (the A* arm on large devices
    or with an exhausted budget) are dropped.  Every arm is
    deterministic, so the winner is identical for any [QCR_DOMAINS]
    value.  [winner.compile_seconds] is the whole portfolio's CPU time. *)

val run_portfolio_exn : Request.t -> portfolio
(** {!run_portfolio} with the exception-based contract of {!run_exn}. *)
