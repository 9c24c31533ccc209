(** All-to-all schedule dispatch (paper §3 + §5.1) and region restriction
    (§6.3 range detection).

    [schedule] picks the structured pattern for an architecture kind:
    - line: 1xUnit linear pattern,
    - 2D grid: the specialized row composition with the Appendix-A
      intra-unit merge (Fig 5 / App A),
    - Sycamore, hexagon: the unified two-level scheme,
    - heavy-hex: the multi-pass longest-path scheme (§5.1),
    - custom: linear pattern on a heuristic long path plus greedy cleanup.

    Schedules are memoized per architecture value. *)

val schedule : Qcr_arch.Arch.t -> Schedule.t

val region_schedule : Qcr_arch.Arch.t -> int list -> (Schedule.t * int list) option
(** [region_schedule arch qubits]: a schedule restricted to a sub-device
    region enclosing [qubits] with the same shape (a row/column band of the
    lattice), together with the physical qubits of that region.  [None]
    when the architecture kind has no band structure, or when no band
    enclosing [qubits] keeps the device's own edge rules (then use the
    full [schedule]).  Every op of a region schedule acts on a coupled
    pair of [arch].  Tokens inside the region never leave it, so disjoint
    regions run in parallel. *)
