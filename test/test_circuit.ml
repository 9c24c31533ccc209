module Gate = Qcr_circuit.Gate
module Circuit = Qcr_circuit.Circuit
module Mapping = Qcr_circuit.Mapping
module Program = Qcr_circuit.Program
module Qasm = Qcr_circuit.Qasm
module Graph = Qcr_graph.Graph
module Arch = Qcr_arch.Arch
module Prng = Qcr_util.Prng

let test_gate_costs () =
  Alcotest.(check int) "cx cost" 1 (Gate.cx_cost (Gate.Cx (0, 1)));
  Alcotest.(check int) "cz cost" 1 (Gate.cx_cost (Gate.Cz (0, 1)));
  Alcotest.(check int) "cphase cost" 2 (Gate.cx_cost (Gate.Cphase (0, 1, 0.3)));
  Alcotest.(check int) "rzz cost" 2 (Gate.cx_cost (Gate.Rzz (0, 1, 0.3)));
  Alcotest.(check int) "swap cost" 3 (Gate.cx_cost (Gate.Swap (0, 1)));
  Alcotest.(check int) "merged cost" 3 (Gate.cx_cost (Gate.Swap_interact (0, 1, 0.3)));
  Alcotest.(check int) "1q cost" 0 (Gate.cx_cost (Gate.H 0))

let test_gate_qubits () =
  Alcotest.(check (list int)) "2q" [ 0; 3 ] (Gate.qubits (Gate.Cx (0, 3)));
  Alcotest.(check (list int)) "1q" [ 2 ] (Gate.qubits (Gate.Rz (2, 0.1)));
  Alcotest.(check (list int)) "barrier" [] (Gate.qubits Gate.Barrier)

let test_circuit_depth () =
  let c = Circuit.create 3 in
  Circuit.add c (Gate.Cx (0, 1));
  Circuit.add c (Gate.Cx (1, 2));
  Circuit.add c (Gate.Cx (0, 1));
  Alcotest.(check int) "serial depth" 3 (Circuit.depth c);
  let p = Circuit.create 4 in
  Circuit.add p (Gate.Cx (0, 1));
  Circuit.add p (Gate.Cx (2, 3));
  Alcotest.(check int) "parallel depth" 1 (Circuit.depth p)

let test_depth2q_ignores_1q () =
  let c = Circuit.create 2 in
  Circuit.add c (Gate.H 0);
  Circuit.add c (Gate.H 1);
  Circuit.add c (Gate.Cx (0, 1));
  Alcotest.(check int) "2q depth" 1 (Circuit.depth2q c);
  Alcotest.(check int) "full depth" 2 (Circuit.depth c)

let test_layers () =
  let c = Circuit.create 4 in
  Circuit.add c (Gate.Cx (0, 1));
  Circuit.add c (Gate.Cx (2, 3));
  Circuit.add c (Gate.Cx (1, 2));
  let layers = Circuit.layers c in
  Alcotest.(check int) "two layers" 2 (List.length layers);
  Alcotest.(check int) "first layer size" 2 (List.length (List.hd layers))

let test_cx_count () =
  let c = Circuit.create 3 in
  Circuit.add c (Gate.Cphase (0, 1, 0.5));
  Circuit.add c (Gate.Swap (1, 2));
  Circuit.add c (Gate.H 0);
  Alcotest.(check int) "cx count" 5 (Circuit.cx_count c)

let test_merge_swaps_counts () =
  let c = Circuit.create 3 in
  Circuit.add c (Gate.Cphase (0, 1, 0.5));
  Circuit.add c (Gate.Swap (0, 1));
  Circuit.add c (Gate.Cphase (1, 2, 0.5));
  Circuit.add c (Gate.H 1);
  Circuit.add c (Gate.Swap (1, 2));
  let merged = Circuit.merge_swaps c in
  (* first pair fuses (5 -> 3 CX); second does not (H intervenes) *)
  Alcotest.(check int) "merged cx" (3 + 2 + 3) (Circuit.cx_count merged);
  Alcotest.(check int) "gate count shrinks" 4 (Circuit.gate_count merged)

let test_merge_swaps_no_false_fusion () =
  let c = Circuit.create 3 in
  Circuit.add c (Gate.Cphase (0, 1, 0.5));
  Circuit.add c (Gate.Cx (1, 2));
  Circuit.add c (Gate.Swap (0, 1));
  let merged = Circuit.merge_swaps c in
  Alcotest.(check int) "no fusion across interposer" 3 (Circuit.gate_count merged)

let test_merge_swaps_semantics () =
  (* random circuits: merged and unmerged are the same unitary *)
  let rng = Prng.create 23 in
  for _ = 1 to 20 do
    let c = Circuit.create 4 in
    for _ = 1 to 25 do
      let a = Prng.int rng 4 in
      let b = (a + 1 + Prng.int rng 3) mod 4 in
      match Prng.int rng 4 with
      | 0 -> Circuit.add c (Gate.Cphase (a, b, Prng.float rng 3.0))
      | 1 -> Circuit.add c (Gate.Swap (a, b))
      | 2 -> Circuit.add c (Gate.H a)
      | _ -> Circuit.add c (Gate.Rzz (a, b, Prng.float rng 3.0))
    done;
    let sv1 = Qcr_sim.Statevector.run c in
    let sv2 = Qcr_sim.Statevector.run (Circuit.merge_swaps c) in
    let f = Qcr_sim.Statevector.fidelity sv1 sv2 in
    Alcotest.(check bool) "merge preserves semantics" true (f > 1.0 -. 1e-9)
  done

let test_validate_coupling () =
  let arch = Arch.line 3 in
  let good = Circuit.create 3 in
  Circuit.add good (Gate.Cx (0, 1));
  Alcotest.(check bool) "valid" true (Circuit.validate_coupling arch good = Ok ());
  let bad = Circuit.create 3 in
  Circuit.add bad (Gate.Cx (0, 2));
  Alcotest.(check bool) "invalid" true (Circuit.validate_coupling arch bad <> Ok ())

let test_log_fidelity () =
  let arch = Arch.line 3 in
  let noise = Qcr_arch.Noise.uniform arch ~cx_error:0.01 in
  let c = Circuit.create 3 in
  Circuit.add c (Gate.Swap (0, 1));
  (* 3 CX at 1% error *)
  Alcotest.(check (float 1e-9)) "log fid" (3.0 *. log 0.99) (Circuit.log_fidelity noise c)

let test_mapping_basics () =
  let m = Mapping.identity ~logical:3 ~physical:5 in
  Alcotest.(check int) "phys of log" 2 (Mapping.phys_of_log m 2);
  Alcotest.(check bool) "dummy" true (Mapping.is_dummy m 4);
  Alcotest.(check bool) "not dummy" false (Mapping.is_dummy m 2);
  Mapping.apply_swap m 0 4;
  Alcotest.(check int) "after swap" 4 (Mapping.phys_of_log m 0);
  Alcotest.(check int) "inverse" 0 (Mapping.log_of_phys m 4 |> fun l -> Mapping.phys_of_log m l |> fun p -> if p = 4 then 0 else 1)

let test_mapping_rejects_non_permutation () =
  Alcotest.check_raises "not a permutation" (Invalid_argument "Mapping: not a permutation")
    (fun () -> ignore (Mapping.of_phys_of_log ~logical:2 [| 0; 0 |]))

let test_mapping_random_bijection () =
  let rng = Prng.create 9 in
  let m = Mapping.random rng ~logical:5 ~physical:8 in
  for l = 0 to 7 do
    Alcotest.(check int) "round trip" l (Mapping.log_of_phys m (Mapping.phys_of_log m l))
  done

let test_program_logical_circuit () =
  let g = Graph.complete 4 in
  let p = Program.make g (Program.Qaoa_maxcut { gamma = 0.4; beta = 0.3 }) in
  let c = Program.logical_circuit p in
  (* 4 H + 6 edges + 4 rz + 4 rx *)
  Alcotest.(check int) "gate count" (4 + 6 + 4 + 4) (Circuit.gate_count c);
  let two_local = Program.make g (Program.Two_local { theta = 0.2 }) in
  Alcotest.(check int) "bare edges" 6 (Circuit.gate_count (Program.logical_circuit two_local))

let test_program_angles () =
  let g = Graph.complete 3 in
  let p = Program.make g (Program.Qaoa_maxcut { gamma = 0.1; beta = 0.2 }) in
  let p' = Program.with_angles p ~gamma:0.5 ~beta:0.6 in
  match Program.interaction p' with
  | Program.Qaoa_maxcut { gamma; beta } ->
      Alcotest.(check (float 1e-12)) "gamma" 0.5 gamma;
      Alcotest.(check (float 1e-12)) "beta" 0.6 beta
  | _ -> Alcotest.fail "wrong interaction"

let test_qasm_output () =
  let c = Circuit.create 2 in
  Circuit.add c (Gate.H 0);
  Circuit.add c (Gate.Cx (0, 1));
  Circuit.add c (Gate.Swap_interact (0, 1, 0.5));
  let s = Qasm.to_string c in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "header" true (contains "OPENQASM 2.0");
  Alcotest.(check bool) "h gate" true (contains "h q[0];");
  Alcotest.(check bool) "cx gate" true (contains "cx q[0],q[1];");
  Alcotest.(check bool) "merged lowered" true (contains "swap q[0],q[1];")

(* [Gate.to_string] renders with [Printf] for speed; every reply's
   circuit digest hashes its bytes, so they must stay exactly those of
   the [Format] rendering it replaced.  The oracle below is that
   rendering, checked over every constructor and the awkward floats. *)
let format_oracle g =
  let f = Format.asprintf in
  match g with
  | Gate.H q -> f "h q%d" q
  | Gate.X q -> f "x q%d" q
  | Gate.Rx (q, t) -> f "rx(%g) q%d" t q
  | Gate.Rz (q, t) -> f "rz(%g) q%d" t q
  | Gate.Cx (a, b) -> f "cx q%d,q%d" a b
  | Gate.Cz (a, b) -> f "cz q%d,q%d" a b
  | Gate.Cphase (a, b, t) -> f "cp(%g) q%d,q%d" t a b
  | Gate.Rzz (a, b, t) -> f "rzz(%g) q%d,q%d" t a b
  | Gate.Swap (a, b) -> f "swap q%d,q%d" a b
  | Gate.Swap_interact (a, b, t) -> f "swap+cp(%g) q%d,q%d" t a b
  | Gate.Swap_rzz (a, b, t) -> f "swap+rzz(%g) q%d,q%d" t a b
  | Gate.Measure q -> f "measure q%d" q
  | Gate.Barrier -> f "barrier"

let test_gate_to_string_bytes () =
  let angles =
    [ 0.0; -0.0; 1.0; -3.0; 1e6; 123456.0; 1234567.0; 0.8; -0.35; 1e-300; 4.9e-324; -1e-7;
      1.7976931348623157e308; 1e22; Float.pi; -.Float.pi /. 3.0 ]
  in
  let gates =
    [ Gate.H 0; Gate.X 7; Gate.Cx (1, 2); Gate.Cz (12, 3); Gate.Swap (0, 1023); Gate.Measure 5;
      Gate.Barrier ]
    @ List.concat_map
        (fun t ->
          [ Gate.Rx (3, t); Gate.Rz (40, t); Gate.Cphase (0, 1, t); Gate.Rzz (2, 9, t);
            Gate.Swap_interact (5, 4, t); Gate.Swap_rzz (10, 11, t) ])
        angles
  in
  List.iter
    (fun g ->
      let expected = format_oracle g in
      Alcotest.(check string) "to_string = Format rendering" expected (Gate.to_string g);
      Alcotest.(check string) "pp = Format rendering" expected (Format.asprintf "%a" Gate.pp g))
    gates

let suite =
  [
    Alcotest.test_case "gate costs" `Quick test_gate_costs;
    Alcotest.test_case "gate to_string bytes" `Quick test_gate_to_string_bytes;
    Alcotest.test_case "gate qubits" `Quick test_gate_qubits;
    Alcotest.test_case "circuit depth" `Quick test_circuit_depth;
    Alcotest.test_case "depth2q" `Quick test_depth2q_ignores_1q;
    Alcotest.test_case "layers" `Quick test_layers;
    Alcotest.test_case "cx count" `Quick test_cx_count;
    Alcotest.test_case "merge swaps counts" `Quick test_merge_swaps_counts;
    Alcotest.test_case "merge swaps guard" `Quick test_merge_swaps_no_false_fusion;
    Alcotest.test_case "merge swaps semantics" `Quick test_merge_swaps_semantics;
    Alcotest.test_case "validate coupling" `Quick test_validate_coupling;
    Alcotest.test_case "log fidelity" `Quick test_log_fidelity;
    Alcotest.test_case "mapping basics" `Quick test_mapping_basics;
    Alcotest.test_case "mapping rejects" `Quick test_mapping_rejects_non_permutation;
    Alcotest.test_case "mapping random" `Quick test_mapping_random_bijection;
    Alcotest.test_case "program logical circuit" `Quick test_program_logical_circuit;
    Alcotest.test_case "program angles" `Quick test_program_angles;
    Alcotest.test_case "qasm output" `Quick test_qasm_output;
  ]
