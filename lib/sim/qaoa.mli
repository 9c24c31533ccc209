(** End-to-end QAOA driver (paper §7.4): compiled circuit -> simulator ->
    noise channel -> expected Max-Cut energy -> classical optimizer loop.

    [run_driver] mirrors the paper's real-machine experiment: the circuit
    structure (two-qubit blocks, SWAPs) is compiled once; only the rotation
    angles change between optimizer rounds, so each evaluation rebuilds the
    gate parameters on the fixed structure. *)

val angles_of_compiled : Qcr_circuit.Circuit.t -> float * float
(** Recover (gamma, beta) from a compiled QAOA circuit's first interaction
    and mixer gates (used by the evaluation helpers). *)

type evaluation = {
  distribution : float array;  (** noisy output distribution over 2^n *)
  energy : float;              (** negated expected cut (smaller better) *)
  fidelity : float;            (** exp of the compiled circuit's log-fidelity *)
}

type cost_layer = {
  layer_graph : Qcr_graph.Graph.t;
  layer_edges : int;
  cut : int array;  (** {!Maxcut.cut_table} of [layer_graph] *)
}
(** Precomputed fused diagonal cost layer for one problem graph.  The p=1
    Max-Cut phase separator (per-edge CPHASE(2γ) plus the Rz corrections)
    is diagonal with phase [exp(i γ (|E| - cut(b)))] on basis state [b],
    so with [cut] tabulated any γ applies in a single sweep. *)

val cost_layer : Qcr_graph.Graph.t -> cost_layer

val cost_layer_for : Qcr_graph.Graph.t -> cost_layer
(** Like {!cost_layer} with a one-slot cache keyed on physical graph
    identity (guarded by edge count), so optimizer loops that re-evaluate
    one graph hundreds of times build the table once. *)

val fused_state : cost_layer -> gamma:float -> beta:float -> Statevector.t
(** The ideal p=1 QAOA state (H layer, phase separator, Rx mixer) — the
    same state [Statevector.run] produces for the logical circuit, within
    1e-9 per amplitude, in O(2^n) + n sweeps instead of |E| + 3n. *)

val evaluate :
  ?noise:Qcr_arch.Noise.t ->
  ?shots:int ->
  ?rng:Qcr_util.Prng.t ->
  ?cost:cost_layer ->
  graph:Qcr_graph.Graph.t ->
  compiled:Qcr_circuit.Circuit.t ->
  final:Qcr_circuit.Mapping.t ->
  unit ->
  evaluation
(** Simulate a compiled QAOA circuit.  The simulation runs the *logical*
    equivalent (ideal fused-kernel state for [graph] + the compiled
    angles) — semantics equality is certified separately in tests — with
    the compiled circuit determining the depolarizing fidelity.  With
    [shots] the distribution carries shot noise.  [cost] supplies a
    precomputed {!cost_layer} (defaults to {!cost_layer_for}). *)

type driver_result = {
  energies : float array;      (** best-so-far energy after each round *)
  best_gamma : float;
  best_beta : float;
  best_energy : float;
  optimum_cut : int;           (** exact max cut (from the cut table), for reference *)
}

val run_driver :
  ?rounds:int ->
  ?shots:int ->
  ?seed:int ->
  ?noise:Qcr_arch.Noise.t ->
  graph:Qcr_graph.Graph.t ->
  compile:
    (Qcr_circuit.Program.t ->
    Qcr_circuit.Circuit.t * Qcr_circuit.Mapping.t) ->
  unit ->
  driver_result
(** Full optimization loop: [compile] maps a parameterized program to a
    compiled circuit + final mapping (called once per evaluation with
    fresh angles; structure is deterministic, so a compiler that never
    reads an angle can compile the graph once and re-stamp the angles,
    as [Qcr_core.Pipeline.rebind] does).  Uses Nelder–Mead (COBYLA
    substitute). *)
