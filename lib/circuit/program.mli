(** Input-dependent permutable-operator programs (paper §2.1).

    A program is a problem graph plus the kind of two-qubit interaction
    applied on every edge; all interactions commute, so the compiler may
    schedule edges in any order.  [logical_circuit] materializes one valid
    (arbitrary-order) circuit, e.g. for the fixed-order baselines or the
    simulator. *)

type interaction =
  | Qaoa_maxcut of { gamma : float; beta : float }
      (** one QAOA level: H on all wires, CPHASE(2*gamma)+Rz per edge,
          RX(2*beta) mixer *)
  | Qaoa_level of { gamma : float; beta : float }
      (** an inner QAOA level: like [Qaoa_maxcut] but without the H wall
          (levels 2..p of a multilevel circuit) *)
  | Two_local of { theta : float }  (** RZZ(theta) per edge *)
  | Bare_cz  (** structural CZ per edge; used by pure mapping benchmarks *)

type t

val make : ?name:string -> Qcr_graph.Graph.t -> interaction -> t

val graph : t -> Qcr_graph.Graph.t

val interaction : t -> interaction

val name : t -> string

val qubit_count : t -> int

val edge_count : t -> int

val edge_gate : t -> int -> int -> Gate.t
(** The two-qubit gate this program places on edge (u, v). *)

val prologue : t -> Gate.t list
(** Gates before the interaction block (H wall for QAOA). *)

val epilogue : t -> Gate.t list
(** Gates after the interaction block (RX mixer + measures for QAOA). *)

val rebind_gate : interaction -> degree:int -> Gate.t -> Gate.t
(** The angle rule: [g] carrying the angle [interaction] gives its kind
    of gate — CPHASE and fused SWAP+CPHASE get 2γ, RZZ and fused
    SWAP+RZZ get θ, an epilogue Rz gets −γ·[degree] (the degree of the
    logical qubit it acts on), a mixer Rx gets 2β.  Other gates, and
    every gate of a [Bare_cz] program, come back unchanged.  The gates
    {!edge_gate} and {!epilogue} emit take their angles from the same
    formulas, so rebinding a compiled circuit of a program to new angles
    is bit-identical to compiling the program at those angles: no
    compiler phase reads an angle. *)

val logical_circuit : t -> Circuit.t
(** Prologue, every edge gate in lexicographic edge order, epilogue. *)

val with_angles : t -> gamma:float -> beta:float -> t
(** Replace QAOA angles (no-op for other interactions). *)
