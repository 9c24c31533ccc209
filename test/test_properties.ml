(* Property-based tests over the core invariants. *)

module Arch = Qcr_arch.Arch
module Graph = Qcr_graph.Graph
module Generate = Qcr_graph.Generate
module Circuit = Qcr_circuit.Circuit
module Gate = Qcr_circuit.Gate
module Program = Qcr_circuit.Program
module Mapping = Qcr_circuit.Mapping
module Schedule = Qcr_swapnet.Schedule
module Ata = Qcr_swapnet.Ata
module Config = Qcr_core.Config
module Pipeline = Qcr_core.Pipeline
module Prng = Qcr_util.Prng

(* The ATA property holds for arbitrary rectangle shapes of each lattice
   family (not just the sizes unit tests pin down). *)
let prop_ata_coverage_random_shapes =
  QCheck.Test.make ~name:"ATA schedules cover all pairs on random shapes" ~count:12
    QCheck.(triple (int_range 2 5) (int_range 2 5) (int_bound 3))
    (fun (a, b, kind_pick) ->
      let arch =
        match kind_pick with
        | 0 -> Arch.grid ~rows:a ~cols:b
        | 1 -> Arch.sycamore ~rows:(2 * a) ~cols:b
        | 2 -> Arch.hexagon ~rows:(2 * a) ~cols:b
        | _ -> Arch.heavy_hex ~rows:a ~row_len:(max 3 ((4 * (b / 2)) + 3))
      in
      let sched = Ata.schedule arch in
      let n = Arch.qubit_count arch in
      Schedule.validate (Arch.graph arch) sched = Ok ()
      && Schedule.covers_all_pairs ~n sched)

(* The linear pattern touches each pair exactly once, for any length. *)
let prop_linear_touch_once =
  QCheck.Test.make ~name:"linear pattern touches each pair exactly once" ~count:30
    QCheck.(int_range 2 40)
    (fun n ->
      let sched = Qcr_swapnet.Linear.pattern (Array.init n (fun i -> i)) in
      Schedule.touch_count sched = n * (n - 1) / 2
      && Schedule.covers_all_pairs ~n sched)

(* Realization against random sparse programs: the emitted edge set equals
   the program edge set. *)
let prop_realize_exact_edges =
  QCheck.Test.make ~name:"realize emits exactly the program edges" ~count:25
    QCheck.(pair (int_bound 10000) (int_range 4 16))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Generate.erdos_renyi rng ~n ~density:0.35 in
      let arch = Arch.smallest_for Arch.Grid n in
      let program = Program.make g Program.Bare_cz in
      let mapping =
        Mapping.identity ~logical:n ~physical:(Arch.qubit_count arch)
      in
      let r =
        Schedule.realize ~program ~mapping ~n_phys:(Arch.qubit_count arch)
          (Ata.schedule arch)
      in
      let emitted = List.sort_uniq compare (List.map (fun (u, v) -> (min u v, max u v)) r.Schedule.emitted) in
      emitted = Graph.edges g)

(* Crosstalk-aware scheduling: within each greedy cycle, no two scheduled
   interaction gates sit on adjacent coupling sites.  (ASAP re-layering of
   the final circuit may re-pack cycles, so the invariant is checked on
   the engine's own cycles.) *)
let test_crosstalk_layers_clean () =
  let rng = Prng.create 12 in
  let g = Generate.erdos_renyi rng ~n:12 ~density:0.4 in
  let arch = Arch.grid ~rows:4 ~cols:3 in
  let config = { Config.default with Config.crosstalk_aware = true; use_selector = false } in
  let program = Program.make g Program.Bare_cz in
  let init = Mapping.identity ~logical:12 ~physical:12 in
  let engine = Qcr_core.Greedy.create ~config ~arch ~program ~init () in
  let device = Arch.graph arch in
  let adjacent (p1, q1) (p2, q2) =
    Graph.has_edge device p1 p2 || Graph.has_edge device p1 q2 || Graph.has_edge device q1 p2
    || Graph.has_edge device q1 q2
  in
  let seen = ref 0 in
  while not (Qcr_core.Greedy.finished engine) do
    ignore (Qcr_core.Greedy.step engine);
    let gates = Circuit.gates (Qcr_core.Greedy.circuit engine) in
    let fresh = List.filteri (fun i _ -> i >= !seen) gates in
    seen := List.length gates;
    let sites =
      List.filter_map (function Gate.Cz (a, b) -> Some (a, b) | _ -> None) fresh
    in
    let rec pairwise = function
      | [] -> ()
      | s :: rest ->
          List.iter
            (fun s' ->
              Alcotest.(check bool) "no crosstalk-adjacent parallel gates" false
                (adjacent s s'))
            rest;
          pairwise rest
    in
    pairwise sites
  done

(* Determinism of the full pipeline across architectures. *)
let prop_compile_deterministic =
  QCheck.Test.make ~name:"compilation is deterministic" ~count:10
    QCheck.(pair (int_bound 10000) (int_range 6 14))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Generate.erdos_renyi rng ~n ~density:0.3 in
      let arch = Arch.smallest_for Arch.Heavy_hex n in
      let program = Program.make g Program.Bare_cz in
      let a = Pipeline.run_exn (Pipeline.Request.make arch program) and b = Pipeline.run_exn (Pipeline.Request.make arch program) in
      a.Pipeline.depth = b.Pipeline.depth && a.Pipeline.cx = b.Pipeline.cx)

(* Rebinding is exact: compile at angles A, re-stamp at angles B, and
   the result equals compiling at B, gate for gate (angles bitwise) and
   in every metric — for every arm, device family, noise setting and
   interaction kind that has angles.  The portfolio arm races an A*
   search that explodes on wide devices, so it runs only on line and
   grid devices of at most 8 qubits. *)
let angle_bits = function
  | Gate.Rx (_, t) | Gate.Rz (_, t) | Gate.Cphase (_, _, t) | Gate.Rzz (_, _, t)
  | Gate.Swap_interact (_, _, t) | Gate.Swap_rzz (_, _, t) ->
      Int64.bits_of_float t
  | Gate.H _ | Gate.X _ | Gate.Cx _ | Gate.Cz _ | Gate.Swap _ | Gate.Measure _ | Gate.Barrier -> 0L

let same_result (a : Pipeline.result) (b : Pipeline.result) =
  List.equal
    (fun x y -> Gate.equal x y && angle_bits x = angle_bits y)
    (Circuit.gates a.Pipeline.circuit) (Circuit.gates b.Pipeline.circuit)
  && Circuit.qubit_count a.Pipeline.circuit = Circuit.qubit_count b.Pipeline.circuit
  && Mapping.equal a.Pipeline.initial b.Pipeline.initial
  && Mapping.equal a.Pipeline.final b.Pipeline.final
  && a.Pipeline.depth = b.Pipeline.depth && a.Pipeline.cx = b.Pipeline.cx
  && a.Pipeline.swap_count = b.Pipeline.swap_count
  && Int64.bits_of_float a.Pipeline.log_fidelity = Int64.bits_of_float b.Pipeline.log_fidelity
  && a.Pipeline.strategy = b.Pipeline.strategy

let prop_rebind_exact =
  let families = [ Arch.Line; Arch.Grid; Arch.Grid3d; Arch.Sycamore; Arch.Heavy_hex; Arch.Hexagon ] in
  let modes =
    Pipeline.Request.[ Ours; Greedy; Ata; Portfolio { astar_budget = 2000 } ]
  in
  (* every arm x family x noise x interaction kind, portfolio only where
     its A* arm stays cheap *)
  let cases =
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun family ->
            List.concat_map
              (fun noisy -> List.map (fun kind -> (mode, family, noisy, kind)) [ 0; 1; 2 ])
              [ false; true ])
          (match mode with
          | Pipeline.Request.Portfolio _ -> [ Arch.Line; Arch.Grid ]
          | _ -> families))
      modes
  in
  QCheck.Test.make ~name:"rebinding equals compiling at the new angles" ~count:3
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      List.for_all
        (fun (mode, family, noisy, kind) ->
          let n =
            match mode with Pipeline.Request.Portfolio _ -> 3 + Prng.int rng 6 | _ -> 4 + Prng.int rng 9
          in
          let g = Generate.erdos_renyi rng ~n ~density:(0.2 +. Prng.float rng 0.5) in
          let arch = Arch.smallest_for family n in
          let noise = if noisy then Some (Qcr_arch.Noise.sampled ~seed arch) else None in
          let angle () = if Prng.int rng 8 = 0 then 0.0 else Prng.float rng 6.0 -. 3.0 in
          let interaction () =
            match kind with
            | 0 -> Program.Qaoa_maxcut { gamma = angle (); beta = angle () }
            | 1 -> Program.Qaoa_level { gamma = angle (); beta = angle () }
            | _ -> Program.Two_local { theta = angle () }
          in
          let compile p = Pipeline.run_exn (Pipeline.Request.make ?noise ~mode arch p) in
          let at_a = Program.make g (interaction ()) and at_b = Program.make g (interaction ()) in
          same_result (Pipeline.rebind (compile at_a) at_b) (compile at_b)
          || QCheck.Test.fail_reportf "%s on %s, %d qubits, noise %b, interaction %d"
               (Pipeline.Request.mode_name mode) (Arch.name arch) n noisy kind)
        cases)

(* ---- Parallel execution equivalence ------------------------------- *)

module Statevector = Qcr_sim.Statevector
module Trajectory = Qcr_sim.Trajectory
module Noise = Qcr_arch.Noise
module Pool = Qcr_par.Pool

(* Run [f] with the default pool resized to [domains] and the statevector
   parallel threshold set to [threshold], restoring both afterwards so the
   rest of the suite sees the ambient configuration. *)
let with_pool_config ~domains ~threshold f =
  let old_domains = Pool.default_domain_count () in
  let old_threshold = Statevector.par_threshold () in
  Pool.set_default_domains domains;
  Statevector.set_par_threshold threshold;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default_domains old_domains;
      Statevector.set_par_threshold old_threshold)
    f

let random_circuit seed n =
  let rng = Prng.create seed in
  let c = Circuit.create n in
  let wire () = Prng.int rng n in
  let pair () =
    let a = wire () in
    let b = (a + 1 + Prng.int rng (n - 1)) mod n in
    (a, b)
  in
  for _ = 1 to 30 do
    let theta = Prng.float rng 6.28 in
    Circuit.add c
      (match Prng.int rng 8 with
      | 0 -> Gate.H (wire ())
      | 1 -> Gate.X (wire ())
      | 2 -> Gate.Rx (wire (), theta)
      | 3 -> Gate.Rz (wire (), theta)
      | 4 ->
          let a, b = pair () in
          Gate.Cx (a, b)
      | 5 ->
          let a, b = pair () in
          Gate.Cz (a, b)
      | 6 ->
          let a, b = pair () in
          Gate.Rzz (a, b, theta)
      | _ ->
          let a, b = pair () in
          Gate.Swap (a, b))
  done;
  c

(* The parallel kernels (threshold 1 forces every sweep through the
   chunked path, including the pair-decomposed 1q kernel) must reproduce
   the sequential amplitudes bit for bit. *)
let prop_statevector_par_seq_identical =
  QCheck.Test.make ~name:"parallel statevector kernels bit-identical to sequential"
    ~count:15
    QCheck.(pair (int_bound 10000) (int_range 4 8))
    (fun (seed, n) ->
      let c = random_circuit seed n in
      let seq = with_pool_config ~domains:1 ~threshold:max_int (fun () -> Statevector.run c) in
      let par = with_pool_config ~domains:4 ~threshold:1 (fun () -> Statevector.run c) in
      let size = 1 lsl n in
      let ok = ref true in
      for i = 0 to size - 1 do
        let re_s, im_s = Statevector.amplitude seq i in
        let re_p, im_p = Statevector.amplitude par i in
        if
          Int64.bits_of_float re_s <> Int64.bits_of_float re_p
          || Int64.bits_of_float im_s <> Int64.bits_of_float im_p
        then ok := false
      done;
      !ok)

(* Monte-Carlo sampling over split PRNG streams: the averaged distribution
   is bit-identical for any pool size at a fixed seed. *)
let prop_trajectory_domains_bit_identical =
  QCheck.Test.make ~name:"trajectory distribution bit-identical across pool sizes"
    ~count:4
    QCheck.(pair (int_bound 1000) (int_range 6 9))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Generate.erdos_renyi rng ~n ~density:0.4 in
      let arch = Arch.smallest_for Arch.Line n in
      let noise = Noise.sampled ~seed:5 arch in
      let program = Program.make g Program.Bare_cz in
      let r = Pipeline.run_exn (Pipeline.Request.make ~noise arch program) in
      let sample () =
        Trajectory.distribution ~seed:(seed + 1) ~trajectories:18 ~noise
          ~compiled:r.Pipeline.circuit ~final:r.Pipeline.final ()
      in
      let d1 = with_pool_config ~domains:1 ~threshold:max_int sample in
      let d4 = with_pool_config ~domains:4 ~threshold:1 sample in
      Array.length d1 = Array.length d4
      && Array.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           d1 d4)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ata_coverage_random_shapes;
    QCheck_alcotest.to_alcotest prop_linear_touch_once;
    QCheck_alcotest.to_alcotest prop_realize_exact_edges;
    Alcotest.test_case "crosstalk layers clean" `Quick test_crosstalk_layers_clean;
    QCheck_alcotest.to_alcotest prop_compile_deterministic;
    QCheck_alcotest.to_alcotest prop_rebind_exact;
    QCheck_alcotest.to_alcotest prop_statevector_par_seq_identical;
    QCheck_alcotest.to_alcotest prop_trajectory_domains_bit_identical;
  ]
