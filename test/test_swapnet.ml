module Arch = Qcr_arch.Arch
module Graph = Qcr_graph.Graph
module Schedule = Qcr_swapnet.Schedule
module Linear = Qcr_swapnet.Linear
module Bipartite = Qcr_swapnet.Bipartite
module Two_level = Qcr_swapnet.Two_level
module Heavyhex = Qcr_swapnet.Heavyhex
module Ata = Qcr_swapnet.Ata
module Mapping = Qcr_circuit.Mapping
module Program = Qcr_circuit.Program
module Circuit = Qcr_circuit.Circuit
module Gate = Qcr_circuit.Gate
module Prng = Qcr_util.Prng

let check_valid arch sched =
  match Schedule.validate (Arch.graph arch) sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let check_full_coverage arch sched =
  check_valid arch sched;
  let n = Arch.qubit_count arch in
  Alcotest.(check (list (pair int int))) "all pairs touched" []
    (Schedule.uncovered_pairs ~n sched)

let test_linear_coverage () =
  List.iter
    (fun n ->
      let arch = Arch.line n in
      check_full_coverage arch (Linear.pattern (Arch.long_path arch)))
    [ 2; 3; 4; 5; 6; 9 ]

let test_linear_reversal () =
  (* after the full k-round pattern the token order is exactly reversed *)
  List.iter
    (fun n ->
      let path = Array.init n (fun i -> i) in
      let final = Schedule.final_positions ~n (Linear.pattern path) in
      Array.iteri
        (fun token pos ->
          Alcotest.(check int) (Printf.sprintf "token %d reversed" token) (n - 1 - token) pos)
        final)
    [ 2; 4; 5; 8 ]

let test_linear_cycle_count () =
  (* 2k cycles: k touch layers + k swap layers (paper: n CPHASE layers,
     n - 2 SWAP layers before the final two reversal layers) *)
  let n = 6 in
  Alcotest.(check int) "cycles" (2 * n)
    (Schedule.cycle_count (Linear.pattern (Array.init n (fun i -> i))))

let test_linear_touch_exactly_once () =
  let n = 7 in
  let sched = Linear.pattern (Array.init n (fun i -> i)) in
  Alcotest.(check int) "touch count = pairs" (n * (n - 1) / 2) (Schedule.touch_count sched)

let test_fig7_variant_covers () =
  (* the paper's literal Fig 6/7 structure: n interaction layers + n-2
     swap layers = 2n-2 cycles, which equals the A* optimum for the
     clique-on-a-line (test_solver checks that equality directly) *)
  List.iter
    (fun n ->
      let path = Array.init n (fun i -> i) in
      let sched = Linear.pattern_fig7 path in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "fig7 n=%d covers" n)
        []
        (Schedule.uncovered_pairs ~n sched);
      Alcotest.(check int)
        (Printf.sprintf "fig7 n=%d touches each pair once" n)
        (n * (n - 1) / 2)
        (Schedule.touch_count sched);
      Alcotest.(check int)
        (Printf.sprintf "fig7 n=%d cycles = 2n-2" n)
        ((2 * n) - 2)
        (Schedule.cycle_count sched))
    [ 3; 4; 5; 6; 9; 12 ]

let test_fig7_matches_solver_optimum () =
  (* the structured pattern's 2n-2 equals the depth-optimal solver's
     answer for the clique on a line (paper: the solver discovered the
     pattern) *)
  List.iter
    (fun n ->
      let sched = Linear.pattern_fig7 (Array.init n (fun i -> i)) in
      let init = Mapping.identity ~logical:n ~physical:n in
      match
        Qcr_solver.Astar.solve ~problem:(Graph.complete n)
          ~coupling:(Qcr_graph.Generate.path n) ~init ()
      with
      | Some o ->
          Alcotest.(check int)
            (Printf.sprintf "n=%d pattern = optimal" n)
            o.Qcr_solver.Astar.depth (Schedule.cycle_count sched)
      | None -> Alcotest.fail "solver failed")
    [ 3; 4; 5 ]

let test_bipartite_coverage_and_rows () =
  let arch = Arch.grid ~rows:2 ~cols:5 in
  let units = Arch.units arch in
  let sched = Bipartite.pattern ~a:units.(0) ~b:units.(1) in
  check_valid arch sched;
  let n = 10 in
  let met, final = Schedule.coverage ~n sched in
  (* every cross pair met exactly via touch; rows preserved as sets *)
  for a = 0 to 4 do
    for b = 5 to 9 do
      Alcotest.(check bool)
        (Printf.sprintf "cross pair %d-%d" a b)
        true
        (Qcr_util.Bitset.mem met ((a * n) + b))
    done
  done;
  Array.iteri
    (fun token pos ->
      Alcotest.(check bool) "row preserved" true ((token < 5) = (pos < 5)))
    final

let test_bipartite_cycle_count () =
  let arch = Arch.grid ~rows:2 ~cols:4 in
  let units = Arch.units arch in
  Alcotest.(check int) "2k-1 cycles" 7
    (Schedule.cycle_count (Bipartite.pattern ~a:units.(0) ~b:units.(1)))

let test_exchange_cycle () =
  let arch = Arch.grid ~rows:2 ~cols:3 in
  let units = Arch.units arch in
  let sched = [ Bipartite.exchange_cycle ~a:units.(0) ~b:units.(1) ] in
  let final = Schedule.final_positions ~n:6 sched in
  Alcotest.(check (array int)) "rows exchanged" [| 3; 4; 5; 0; 1; 2 |] final

let test_grid_ata () =
  List.iter
    (fun (r, c) -> check_full_coverage (Arch.grid ~rows:r ~cols:c) (Ata.schedule (Arch.grid ~rows:r ~cols:c)))
    [ (2, 2); (3, 3); (4, 4); (4, 5); (5, 4); (6, 6) ]

let test_sycamore_ata () =
  List.iter
    (fun (r, c) ->
      let arch = Arch.sycamore ~rows:r ~cols:c in
      check_full_coverage arch (Ata.schedule arch))
    [ (2, 3); (4, 4); (6, 5) ]

let test_hexagon_ata () =
  List.iter
    (fun (r, c) ->
      let arch = Arch.hexagon ~rows:r ~cols:c in
      check_full_coverage arch (Ata.schedule arch))
    [ (4, 3); (6, 5); (4, 6) ]

let test_grid3d_ata () =
  List.iter
    (fun (x, y, z) ->
      let arch = Arch.grid3d ~nx:x ~ny:y ~nz:z in
      check_full_coverage arch (Ata.schedule arch))
    [ (2, 2, 2); (3, 3, 3); (2, 3, 4) ]

let test_heavyhex_ata () =
  List.iter
    (fun (rows, len) ->
      let arch = Arch.heavy_hex ~rows ~row_len:len in
      check_full_coverage arch (Ata.schedule arch))
    [ (2, 3); (3, 7); (4, 11) ]

let test_mumbai_ata () =
  let arch = Arch.mumbai_like () in
  check_full_coverage arch (Ata.schedule arch)

let test_ata_linear_depth () =
  (* cycle count scales linearly with qubit count across sizes *)
  let per_qubit kind n =
    let arch = Arch.smallest_for kind n in
    float_of_int (Schedule.cycle_count (Ata.schedule arch))
    /. float_of_int (Arch.qubit_count arch)
  in
  List.iter
    (fun kind ->
      let small = per_qubit kind 64 and large = per_qubit kind 400 in
      Alcotest.(check bool)
        "cycles/qubit roughly constant" true
        (large < 2.5 *. small +. 4.0))
    [ Arch.Grid; Arch.Sycamore; Arch.Hexagon; Arch.Heavy_hex ]

let test_heavyhex_passes_partial () =
  (* one pass alone covers all path-token pairs but not everything *)
  let arch = Arch.heavy_hex ~rows:3 ~row_len:7 in
  let one = Heavyhex.passes arch 1 in
  let n = Arch.qubit_count arch in
  let missing = Schedule.uncovered_pairs ~n one in
  Alcotest.(check bool) "one pass incomplete" true (missing <> []);
  let path = Arch.long_path arch in
  let on_path = Array.make n false in
  Array.iter (fun q -> on_path.(q) <- true) path;
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "missing pairs involve off-path tokens" true
        ((not on_path.(a)) || not on_path.(b)))
    missing

let test_grid_merged_saves_prologue () =
  List.iter
    (fun (r, c) ->
      let arch = Arch.grid ~rows:r ~cols:c in
      let n = Arch.qubit_count arch in
      let merged = Two_level.grid_merged arch in
      check_valid arch merged;
      Alcotest.(check (list (pair int int))) "merged covers" []
        (Schedule.uncovered_pairs ~n merged);
      Alcotest.(check bool) "merged no longer than specialized" true
        (Schedule.cycle_count merged
        <= Schedule.cycle_count (Two_level.grid_specialized arch)))
    [ (2, 2); (3, 3); (4, 5); (6, 6); (7, 3) ]

let test_two_level_unified_grid () =
  (* the unified scheme also works on the grid (superset of couplings) *)
  let arch = Arch.grid ~rows:4 ~cols:4 in
  check_valid arch (Two_level.unified arch);
  let n = Arch.qubit_count arch in
  Alcotest.(check (list (pair int int))) "unified grid covers" []
    (Schedule.uncovered_pairs ~n (Two_level.unified arch))

let test_schedule_par_disjoint () =
  let a = [ [ Schedule.Touch (0, 1) ]; [ Schedule.Swap (0, 1) ] ] in
  let b = [ [ Schedule.Touch (2, 3) ] ] in
  let z = Schedule.par a b in
  Alcotest.(check int) "zip length" 2 (Schedule.cycle_count z);
  Alcotest.(check int) "ops merged" 2 (List.length (List.hd z))

let test_validate_catches_conflicts () =
  let g = Qcr_graph.Generate.path 3 in
  let bad = [ [ Schedule.Touch (0, 1); Schedule.Swap (1, 2) ] ] in
  Alcotest.(check bool) "conflict detected" true (Schedule.validate g bad <> Ok ());
  let bad2 = [ [ Schedule.Touch (0, 2) ] ] in
  Alcotest.(check bool) "uncoupled detected" true (Schedule.validate g bad2 <> Ok ())

let test_render () =
  let sched = Linear.pattern [| 0; 1; 2; 3 |] in
  let out = Qcr_swapnet.Render.schedule ~n:4 sched in
  Alcotest.(check bool) "mentions qubits" true
    (String.length out > 0 && String.sub out 0 2 = "q0");
  let toks = Qcr_swapnet.Render.tokens ~n:4 sched in
  Alcotest.(check bool) "token view renders" true (String.length toks > 0)

(* --- realization --- *)

let realize_all arch program =
  let n_phys = Arch.qubit_count arch in
  let mapping = Mapping.identity ~logical:(Program.qubit_count program) ~physical:n_phys in
  let r = Schedule.realize ~program ~mapping ~n_phys (Ata.schedule arch) in
  (r, mapping)

let test_realize_clique () =
  let arch = Arch.grid ~rows:3 ~cols:3 in
  let program = Program.make (Graph.complete 9) Program.Bare_cz in
  let r, _ = realize_all arch program in
  Alcotest.(check int) "all 36 gates emitted" 36 (List.length r.Schedule.emitted);
  Alcotest.(check bool) "coupling valid" true
    (Circuit.validate_coupling arch r.Schedule.circuit = Ok ())

let test_realize_sparse_skips () =
  let arch = Arch.grid ~rows:3 ~cols:3 in
  let g = Qcr_graph.Generate.path 9 in
  let program = Program.make g Program.Bare_cz in
  let r, _ = realize_all arch program in
  Alcotest.(check int) "exactly the path edges" 8 (List.length r.Schedule.emitted);
  let clique_r, _ = realize_all arch (Program.make (Graph.complete 9) Program.Bare_cz) in
  Alcotest.(check bool) "sparse uses fewer swaps" true
    (r.Schedule.swaps_used <= clique_r.Schedule.swaps_used)

let test_realize_dummy_wires () =
  (* fewer logical than physical: gates only on real tokens *)
  let arch = Arch.grid ~rows:3 ~cols:3 in
  let program = Program.make (Graph.complete 4) Program.Bare_cz in
  let r, mapping = realize_all arch program in
  Alcotest.(check int) "6 gates" 6 (List.length r.Schedule.emitted);
  (* mapping stays a bijection *)
  for p = 0 to 8 do
    Alcotest.(check int) "bijection" p (Mapping.phys_of_log mapping (Mapping.log_of_phys mapping p))
  done

let test_estimate_matches_realize () =
  let arch = Arch.grid ~rows:3 ~cols:3 in
  let rng = Prng.create 31 in
  for _ = 1 to 5 do
    let g = Qcr_graph.Generate.erdos_renyi rng ~n:9 ~density:0.4 in
    let program = Program.make g Program.Bare_cz in
    let n_phys = 9 in
    let mapping = Mapping.identity ~logical:9 ~physical:n_phys in
    let est = Schedule.estimate ~remaining:g ~mapping (Ata.schedule arch) in
    let r = Schedule.realize ~program ~mapping:(Mapping.copy mapping) ~n_phys (Ata.schedule arch) in
    match est with
    | None -> Alcotest.fail "estimate failed"
    | Some (cycles, swaps, merged) ->
        Alcotest.(check int) "cycles agree" r.Schedule.cycles_used cycles;
        Alcotest.(check int) "swaps agree" r.Schedule.swaps_used swaps;
        (* merged count matches what the merge pass actually fuses *)
        let fused_count =
          let before = Qcr_circuit.Circuit.gate_count r.Schedule.circuit in
          let after =
            Qcr_circuit.Circuit.gate_count (Qcr_circuit.Circuit.merge_swaps r.Schedule.circuit)
          in
          before - after
        in
        Alcotest.(check int) "merged agrees with merge pass" fused_count merged
  done

let test_region_schedule () =
  let arch = Arch.grid ~rows:6 ~cols:6 in
  (* qubits confined to rows 0-1, cols 0-2 *)
  match Ata.region_schedule arch [ 0; 1; 2; 6; 7; 8 ] with
  | None -> Alcotest.fail "expected a region"
  | Some (sched, members) ->
      check_valid arch sched;
      Alcotest.(check (list int)) "members" [ 0; 1; 2; 6; 7; 8 ] members;
      (* region schedule never leaves its members *)
      List.iter
        (fun cycle ->
          List.iter
            (fun op ->
              let p, q = match op with Schedule.Swap (p, q) | Schedule.Touch (p, q) -> (p, q) in
              Alcotest.(check bool) "op inside region" true
                (List.mem p members && List.mem q members))
            cycle)
        sched

let test_region_whole_device_is_none () =
  let arch = Arch.grid ~rows:4 ~cols:4 in
  Alcotest.(check bool) "whole device -> None" true
    (Ata.region_schedule arch (List.init 16 Fun.id) = None)

(* Every box spanned by two qubits of a hexagon device up to 8x8 either
   has no region or a region whose every op is a coupled pair: the band
   keeps the full device's r + c parity, so its horizontal links exist. *)
let test_region_hexagon_coupled () =
  for rows = 1 to 4 do
    for cols = 1 to 8 do
      let arch = Arch.hexagon ~rows:(2 * rows) ~cols in
      let coupling = Arch.graph arch in
      let n = Arch.qubit_count arch in
      for a = 0 to n - 1 do
        for b = a to n - 1 do
          match Ata.region_schedule arch [ a; b ] with
          | None -> ()
          | Some (sched, _) ->
              List.iter
                (List.iter (fun op ->
                     let p, q = match op with Schedule.Swap (p, q) | Schedule.Touch (p, q) -> (p, q) in
                     if not (Graph.has_edge coupling p q) then
                       Alcotest.failf "%s box of (%d, %d): op on uncoupled (%d, %d)" (Arch.name arch) a
                         b p q))
                sched
        done
      done
    done
  done

let suite =
  [
    Alcotest.test_case "linear coverage" `Quick test_linear_coverage;
    Alcotest.test_case "linear reversal" `Quick test_linear_reversal;
    Alcotest.test_case "linear cycle count" `Quick test_linear_cycle_count;
    Alcotest.test_case "linear touch once" `Quick test_linear_touch_exactly_once;
    Alcotest.test_case "fig7 literal loop" `Quick test_fig7_variant_covers;
    Alcotest.test_case "fig7 = solver optimum" `Slow test_fig7_matches_solver_optimum;
    Alcotest.test_case "bipartite coverage+rows" `Quick test_bipartite_coverage_and_rows;
    Alcotest.test_case "bipartite cycles" `Quick test_bipartite_cycle_count;
    Alcotest.test_case "exchange cycle" `Quick test_exchange_cycle;
    Alcotest.test_case "grid ATA" `Quick test_grid_ata;
    Alcotest.test_case "sycamore ATA" `Quick test_sycamore_ata;
    Alcotest.test_case "hexagon ATA" `Quick test_hexagon_ata;
    Alcotest.test_case "3D-grid ATA" `Quick test_grid3d_ata;
    Alcotest.test_case "heavy-hex ATA" `Quick test_heavyhex_ata;
    Alcotest.test_case "mumbai ATA" `Quick test_mumbai_ata;
    Alcotest.test_case "ATA linear depth" `Slow test_ata_linear_depth;
    Alcotest.test_case "heavy-hex single pass" `Quick test_heavyhex_passes_partial;
    Alcotest.test_case "grid merged pattern" `Quick test_grid_merged_saves_prologue;
    Alcotest.test_case "unified on grid" `Quick test_two_level_unified_grid;
    Alcotest.test_case "schedule par" `Quick test_schedule_par_disjoint;
    Alcotest.test_case "validate conflicts" `Quick test_validate_catches_conflicts;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "realize clique" `Quick test_realize_clique;
    Alcotest.test_case "realize sparse skips" `Quick test_realize_sparse_skips;
    Alcotest.test_case "realize dummies" `Quick test_realize_dummy_wires;
    Alcotest.test_case "estimate = realize" `Quick test_estimate_matches_realize;
    Alcotest.test_case "region schedule" `Quick test_region_schedule;
    Alcotest.test_case "region whole device" `Quick test_region_whole_device_is_none;
    Alcotest.test_case "hexagon regions coupled" `Quick test_region_hexagon_coupled;
  ]
