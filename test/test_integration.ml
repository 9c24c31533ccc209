(* Cross-module integration tests: full compile -> simulate -> evaluate
   loops and invariants spanning several subsystems. *)

module Arch = Qcr_arch.Arch
module Noise = Qcr_arch.Noise
module Graph = Qcr_graph.Graph
module Generate = Qcr_graph.Generate
module Circuit = Qcr_circuit.Circuit
module Gate = Qcr_circuit.Gate
module Program = Qcr_circuit.Program
module Mapping = Qcr_circuit.Mapping
module Pipeline = Qcr_core.Pipeline
module Qaoa = Qcr_sim.Qaoa
module Sv = Qcr_sim.Statevector
module Channel = Qcr_sim.Channel
module Prng = Qcr_util.Prng

(* Property: for random programs on random small devices, every compiler
   emits exactly the program's interaction gates (counting merged forms)
   and the result respects the device coupling. *)
let prop_compiles_are_complete =
  QCheck.Test.make ~name:"compiled circuits carry exactly the program edges" ~count:25
    QCheck.(pair (int_bound 10000) (int_range 5 12))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Generate.erdos_renyi rng ~n ~density:0.4 in
      let kind =
        match seed mod 3 with 0 -> Arch.Grid | 1 -> Arch.Heavy_hex | _ -> Arch.Sycamore
      in
      let arch = Arch.smallest_for kind n in
      let program = Program.make g Program.Bare_cz in
      let count_interactions c =
        List.length
          (List.filter
             (function Gate.Cz _ | Gate.Swap_interact _ -> true | _ -> false)
             (Circuit.gates c))
      in
      List.for_all
        (fun r ->
          count_interactions r.Pipeline.circuit = Graph.edge_count g
          && Circuit.validate_coupling arch r.Pipeline.circuit = Ok ())
        [ Pipeline.run_exn (Pipeline.Request.make arch program); Pipeline.run_exn (Pipeline.Request.make ~mode:Pipeline.Request.Ata arch program);
          Pipeline.run_exn (Pipeline.Request.make ~mode:Pipeline.Request.Greedy arch program) ])

(* Full QAOA loop on an ideal device converges to an energy strictly
   better than random guessing. *)
let test_qaoa_loop_beats_random () =
  let graph = Generate.cycle 8 in
  let arch = Arch.smallest_for Arch.Grid 8 in
  let compile p =
    let r = Pipeline.run_exn (Pipeline.Request.make arch p) in
    (r.Pipeline.circuit, r.Pipeline.final)
  in
  let d = Qaoa.run_driver ~rounds:12 ~graph ~compile () in
  (* random guessing scores -|E|/2 = -4; p=1 QAOA must beat it *)
  Alcotest.(check bool) "beats random" true (d.Qaoa.best_energy < -4.2);
  Alcotest.(check int) "knows the optimum" 8 d.Qaoa.optimum_cut

(* The paper's loop compiles once: re-stamping one compile with each
   evaluation's angles gives exactly the energies of compiling afresh at
   every evaluation, on a noisy device where placement is noise-aware. *)
let test_qaoa_loop_compiles_once () =
  let graph = Generate.erdos_renyi (Prng.create 5) ~n:7 ~density:0.4 in
  let arch = Arch.smallest_for Arch.Heavy_hex 7 in
  let noise = Noise.sampled ~seed:4 arch in
  let compiles = ref 0 in
  let compile p =
    incr compiles;
    Pipeline.run_exn (Pipeline.Request.make ~noise arch p)
  in
  let every p =
    let r = compile p in
    (r.Pipeline.circuit, r.Pipeline.final)
  in
  let once =
    let r0 = compile (Program.make graph (Program.Qaoa_maxcut { gamma = 0.0; beta = 0.0 })) in
    fun p ->
      let r = Pipeline.rebind r0 p in
      (r.Pipeline.circuit, r.Pipeline.final)
  in
  let energies compile = (Qaoa.run_driver ~rounds:6 ~noise ~graph ~compile ()).Qaoa.energies in
  compiles := 0;
  let rebound = energies once in
  Alcotest.(check int) "no compile inside the loop" 0 !compiles;
  Alcotest.(check (array (float 0.0))) "same energies" (energies every) rebound

let test_noise_monotonicity () =
  (* more gate error => larger TVD against the ideal distribution *)
  let graph = Generate.cycle 6 in
  let arch = Arch.smallest_for Arch.Grid 6 in
  let program = Program.make graph (Program.Qaoa_maxcut { gamma = 0.5; beta = 0.3 }) in
  let ideal_r = Pipeline.run_exn (Pipeline.Request.make arch program) in
  let ideal = Sv.probabilities (Sv.run (Program.logical_circuit program)) in
  let tvd_at error =
    let noise = Noise.uniform arch ~cx_error:error in
    let e =
      Qaoa.evaluate ~noise ~graph ~compiled:ideal_r.Pipeline.circuit
        ~final:ideal_r.Pipeline.final ()
    in
    Channel.tvd e.Qaoa.distribution ideal
  in
  let low = tvd_at 0.001 and high = tvd_at 0.02 in
  Alcotest.(check bool) "monotone in error" true (low < high)

let test_merged_gates_roundtrip_sim () =
  (* compile a QAOA program whose realization merges interactions and
     swaps; simulating the merged circuit must match the logical one *)
  let graph = Graph.complete 5 in
  let arch = Arch.line 5 in
  let program = Program.make graph (Program.Qaoa_maxcut { gamma = 0.23; beta = 0.71 }) in
  let r = Pipeline.run_exn (Pipeline.Request.make ~mode:Pipeline.Request.Ata arch program) in
  let has_merged =
    List.exists
      (function Gate.Swap_interact _ -> true | _ -> false)
      (Circuit.gates r.Pipeline.circuit)
  in
  Alcotest.(check bool) "pattern produced merged gates" true has_merged;
  let sv_log = Sv.extract_logical (Sv.run r.Pipeline.circuit) ~final:r.Pipeline.final in
  let reference = Sv.run (Program.logical_circuit program) in
  Alcotest.(check bool) "merged circuit equivalent" true
    (Sv.fidelity sv_log reference > 1.0 -. 1e-7)

let test_solver_schedule_realizes () =
  (* A* schedule -> realize against a sparse program -> equivalent circuit *)
  let problem = Generate.cycle 5 in
  let coupling = Generate.path 5 in
  let init = Mapping.identity ~logical:5 ~physical:5 in
  match Qcr_solver.Astar.solve ~problem ~coupling ~init () with
  | None -> Alcotest.fail "solver failed"
  | Some o ->
      let sched = Qcr_solver.Astar.schedule_of_outcome o ~init in
      let program = Program.make problem (Program.Qaoa_maxcut { gamma = 0.3; beta = 0.4 }) in
      let mapping = Mapping.identity ~logical:5 ~physical:5 in
      let r = Qcr_swapnet.Schedule.realize ~program ~mapping ~n_phys:5 sched in
      Alcotest.(check int) "all edges realized" 5 (List.length r.Qcr_swapnet.Schedule.emitted)

let test_cli_style_workflow () =
  (* the full bin/qcr_cli compile flow as a library call chain *)
  let rng = Prng.create 2023 in
  let graph = Generate.erdos_renyi rng ~n:14 ~density:0.35 in
  let program = Program.make graph (Program.Qaoa_maxcut { gamma = 0.4; beta = 0.35 }) in
  let arch = Arch.smallest_for Arch.Heavy_hex 14 in
  let noise = Noise.sampled arch in
  let r = Pipeline.run_exn (Pipeline.Request.make ~noise arch program) in
  Alcotest.(check bool) "fidelity in (0,1]" true
    (exp r.Pipeline.log_fidelity > 0.0 && exp r.Pipeline.log_fidelity <= 1.0);
  let qasm = Qcr_circuit.Qasm.to_string r.Pipeline.circuit in
  Alcotest.(check bool) "qasm nonempty" true (String.length qasm > 100)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_compiles_are_complete;
    Alcotest.test_case "qaoa loop beats random" `Slow test_qaoa_loop_beats_random;
    Alcotest.test_case "qaoa loop compiles once" `Quick test_qaoa_loop_compiles_once;
    Alcotest.test_case "noise monotonicity" `Quick test_noise_monotonicity;
    Alcotest.test_case "merged gates roundtrip" `Quick test_merged_gates_roundtrip_sim;
    Alcotest.test_case "solver schedule realizes" `Quick test_solver_schedule_realizes;
    Alcotest.test_case "cli-style workflow" `Quick test_cli_style_workflow;
  ]
