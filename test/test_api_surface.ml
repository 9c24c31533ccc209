(* Coverage for small API corners not exercised elsewhere. *)

module Graph = Qcr_graph.Graph
module Generate = Qcr_graph.Generate
module Paths = Qcr_graph.Paths
module Components = Qcr_graph.Components
module Circuit = Qcr_circuit.Circuit
module Gate = Qcr_circuit.Gate
module Mapping = Qcr_circuit.Mapping
module Arch = Qcr_arch.Arch
module Bitset = Qcr_util.Bitset
module Pqueue = Qcr_util.Pqueue
module Prng = Qcr_util.Prng
module Stats = Qcr_util.Stats

let test_two_qubit_gates () =
  let c = Circuit.create 4 in
  Circuit.add c (Gate.H 0);
  Circuit.add c (Gate.Cx (0, 1));
  Circuit.add c (Gate.Rz (2, 0.5));
  Circuit.add c (Gate.Swap (2, 3));
  Alcotest.(check (list (pair int int))) "pairs in order" [ (0, 1); (2, 3) ]
    (Circuit.two_qubit_gates c)

let test_component_labels () =
  let g = Graph.create 5 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 3 4;
  let labels = Components.component_labels g in
  Alcotest.(check int) "same component" labels.(0) labels.(1);
  Alcotest.(check int) "same component" labels.(3) labels.(4);
  Alcotest.(check bool) "distinct components" true (labels.(0) <> labels.(3));
  Alcotest.(check bool) "singleton distinct" true
    (labels.(2) <> labels.(0) && labels.(2) <> labels.(3))

let test_eccentricity () =
  let g = Generate.path 5 in
  Alcotest.(check int) "end eccentricity" 4 (Paths.eccentricity g 0);
  Alcotest.(check int) "center eccentricity" 2 (Paths.eccentricity g 2)

let test_arch_coupled () =
  let a = Arch.line 4 in
  Alcotest.(check bool) "adjacent" true (Arch.coupled a 1 2);
  Alcotest.(check bool) "not adjacent" false (Arch.coupled a 0 3)

let test_density_edge_cases () =
  Alcotest.(check (float 1e-9)) "empty graph" 0.0 (Graph.density (Graph.create 0));
  Alcotest.(check (float 1e-9)) "single vertex" 0.0 (Graph.density (Graph.create 1));
  Alcotest.(check (float 1e-9)) "two disconnected" 0.0 (Graph.density (Graph.create 2))

let test_max_degree () =
  let g = Generate.star 6 in
  Alcotest.(check int) "star max degree" 5 (Graph.max_degree g);
  Alcotest.(check int) "empty max degree" 0 (Graph.max_degree (Graph.create 3))

let test_mapping_phys_array () =
  let m = Mapping.identity ~logical:2 ~physical:4 in
  Mapping.apply_swap m 0 3;
  let a = Mapping.phys_array m in
  Alcotest.(check int) "logical 0 moved" 3 a.(0);
  (* the returned array is a copy *)
  a.(0) <- 99;
  Alcotest.(check int) "copy semantics" 3 (Mapping.phys_of_log m 0)

let test_bitset_fold_and_key () =
  let b = Bitset.create 20 in
  Bitset.add b 3;
  Bitset.add b 17;
  Alcotest.(check int) "fold sum" 20 (Bitset.fold ( + ) b 0);
  let b' = Bitset.copy b in
  Alcotest.(check string) "hash key equal" (Bitset.hash_key b) (Bitset.hash_key b');
  Bitset.add b' 0;
  Alcotest.(check bool) "hash key differs" true (Bitset.hash_key b <> Bitset.hash_key b');
  Alcotest.(check bool) "equal detects" false (Bitset.equal b b')

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.push q ~prio:1 "x";
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q);
  Pqueue.push q ~prio:2 "y";
  Alcotest.(check (pair int string)) "usable after clear" (2, "y") (Pqueue.pop_exn q)

let test_prng_pick_and_copy () =
  let rng = Prng.create 8 in
  let snapshot = Prng.copy rng in
  let a = Prng.pick rng [| 10; 20; 30 |] in
  let b = Prng.pick snapshot [| 10; 20; 30 |] in
  Alcotest.(check int) "copy replays the stream" a b;
  Alcotest.(check bool) "picked element" true (List.mem a [ 10; 20; 30 ])

let test_stats_mean_int () =
  Alcotest.(check (float 1e-9)) "mean_int" 2.0 (Stats.mean_int [| 1; 2; 3 |])

let test_circuit_layers_skip_barrier () =
  let c = Circuit.create 2 in
  Circuit.add c (Gate.Cx (0, 1));
  Circuit.add c Gate.Barrier;
  Circuit.add c (Gate.Measure 0);
  let layers = Circuit.layers c in
  (* barrier dropped; cx and measure in separate layers *)
  Alcotest.(check int) "two layers" 2 (List.length layers)

let test_graph_pp_and_gate_pp () =
  let g = Generate.cycle 4 in
  let s = Format.asprintf "%a" Graph.pp g in
  Alcotest.(check bool) "graph pp" true (String.length s > 0);
  Alcotest.(check string) "gate to_string" "cx q0,q1" (Gate.to_string (Gate.Cx (0, 1)))

(* ---------- service wire format (qcheck round-trips) ---------- *)

module Program = Qcr_circuit.Program
module Pipeline = Qcr_core.Pipeline
module Pool = Qcr_par.Pool
module Clock = Qcr_obs.Clock
module Request = Qcr_service.Compile_request
module Reply = Qcr_service.Compile_reply
module Service = Qcr_service.Service

(* Ids with quotes, backslashes and control characters exercise the JSON
   string escaper both ways. *)
let id_gen = QCheck.Gen.oneofl [ ""; "job-1"; "a\"b"; "back\\slash"; "tab\tnewline\n"; "sp ace" ]

let angle_gen = QCheck.Gen.float_range (-7.0) 7.0

let interaction_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun gamma beta -> Program.Qaoa_maxcut { gamma; beta }) angle_gen angle_gen;
        map2 (fun gamma beta -> Program.Qaoa_level { gamma; beta }) angle_gen angle_gen;
        map (fun theta -> Program.Two_local { theta }) angle_gen;
        return Program.Bare_cz;
      ])

let request_gen =
  QCheck.Gen.(
    int_range 2 8 >>= fun qubits ->
    let vertex = int_range 0 (qubits - 1) in
    list_size (int_range 0 8) (pair vertex vertex) >>= fun edges ->
    id_gen >>= fun id ->
    int_range qubits (qubits + 6) >>= fun arch_size ->
    oneofl [ Qcr_arch.Arch.Line; Grid; Grid3d; Sycamore; Heavy_hex; Hexagon ] >>= fun arch_kind ->
    interaction_gen >>= fun interaction ->
    oneofl [ Request.Ours; Request.Greedy; Request.Ata; Request.Portfolio ] >>= fun mode ->
    opt (float_range 0.0 2.0) >>= fun alpha ->
    opt (int_range 0 1000) >>= fun noise_seed ->
    bool >>= fun trace ->
    map
      (fun deadline_s ->
        Request.make ~id ~arch_size ~interaction ~mode ?alpha ?noise_seed ?deadline_s ~trace
          ~arch_kind ~qubits ~edges ())
      (opt (float_range 0.001 60.0)))

let request_arb =
  QCheck.make request_gen ~print:(fun r -> Qcr_obs.Json.to_string (Request.to_json r))

let prop_request_json_roundtrip =
  QCheck.Test.make ~name:"Compile_request JSON round-trips" ~count:200 request_arb (fun r ->
      Request.of_json (Request.to_json r) = Ok r)

let metrics_gen =
  QCheck.Gen.(
    int_range 0 500 >>= fun depth ->
    int_range 0 500 >>= fun cx ->
    int_range 0 200 >>= fun swap_count ->
    float_range (-50.0) 0.0 >>= fun log_fidelity ->
    oneofl [ "greedy"; "ata"; "hybrid@3" ] >>= fun strategy ->
    map
      (fun circuit_digest ->
        { Reply.depth; cx; swap_count; log_fidelity; strategy; circuit_digest })
      (oneofl [ "0123456789abcdef"; "cafebabecafebabe" ]))

let reply_gen =
  QCheck.Gen.(
    id_gen >>= fun id ->
    oneofl [ "deadbeefdeadbeef"; "" ] >>= fun key ->
    oneofl [ Request.Ours; Request.Greedy; Request.Ata; Request.Portfolio ]
    >>= fun requested_mode ->
    oneof
      [
        map2
          (fun mode metrics -> Reply.Compiled { mode; metrics })
          (oneofl [ Request.Ours; Request.Greedy; Request.Ata; Request.Portfolio ])
          metrics_gen;
        map (fun d -> Reply.Failed (Pipeline.Timeout { deadline_s = d })) (float_range 0.001 60.0);
        map (fun m -> Reply.Failed (Pipeline.Invalid_request m)) id_gen;
        map (fun m -> Reply.Failed (Pipeline.Internal m)) id_gen;
        map2
          (fun queued limit -> Reply.Failed (Pipeline.Overloaded { queued; limit }))
          (int_range 0 256) (int_range 1 256);
        return (Reply.Failed Pipeline.Canceled);
      ]
    >>= fun outcome ->
    bool >>= fun cached ->
    (let phase_gen =
       oneofl [ "cache"; "compile"; "validate" ] >>= fun p_phase ->
       oneofl [ "hit"; "miss"; "ours"; "greedy"; "portfolio" ] >>= fun p_detail ->
       oneofl [ "ok"; "discarded"; "not_admitted"; "internal" ] >>= fun p_outcome ->
       int_range 0 3 >>= fun p_retries ->
       map
         (fun p_ms -> { Reply.p_phase; p_detail; p_outcome; p_retries; p_ms })
         (float_range 0.0 100.0)
     in
     opt (list_size (int_range 0 4) phase_gen))
    >>= fun trace ->
    map
      (fun compile_ms -> { Reply.id; key; requested_mode; outcome; cached; compile_ms; trace })
      (float_range 0.0 10000.0))

let reply_arb = QCheck.make reply_gen ~print:(fun r -> Qcr_obs.Json.to_string (Reply.to_json r))

let prop_reply_json_roundtrip =
  QCheck.Test.make ~name:"Compile_reply JSON round-trips" ~count:200 reply_arb (fun r ->
      Reply.of_json (Reply.to_json r) = Ok r)

(* The content-addressed key is a pure function of the request: resizing
   the default pool (QCR_DOMAINS 1 vs 4) must not change it, and neither
   may edge order or orientation. *)
let prop_cache_key_pool_independent =
  QCheck.Test.make ~name:"cache key stable across pool sizes and edge order" ~count:100
    request_arb (fun r ->
      let at domains =
        let old = Pool.default_domain_count () in
        Pool.set_default_domains domains;
        Fun.protect
          ~finally:(fun () -> Pool.set_default_domains old)
          (fun () -> Request.cache_key r)
      in
      let flipped = { r with Request.edges = List.rev_map (fun (u, v) -> (v, u)) r.Request.edges } in
      at 1 = at 4 && Request.cache_key flipped = Request.cache_key r)

(* With a fake clock that jumps a full second on every reading, every
   tier misses admission, so a deadlined request must come back as a
   typed Timeout reply — never an exception across the API boundary. *)
let test_service_deadline_fake_clock () =
  let _fake, clock = Clock.fake ~auto_advance:1.0 () in
  let s = Service.create ~clock () in
  let req =
    Request.make ~mode:Request.Ours ~deadline_s:0.5 ~arch_kind:Qcr_arch.Arch.Line ~qubits:3
      ~edges:[ (0, 1); (1, 2) ] ()
  in
  let r = Service.submit s req in
  match r.Reply.outcome with
  | Reply.Failed (Pipeline.Timeout { deadline_s }) ->
      Alcotest.(check (float 1e-9)) "deadline echoed" 0.5 deadline_s
  | _ -> Alcotest.fail "expected a typed Timeout reply"

let suite =
  [
    Alcotest.test_case "two_qubit_gates" `Quick test_two_qubit_gates;
    Alcotest.test_case "component labels" `Quick test_component_labels;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "arch coupled" `Quick test_arch_coupled;
    Alcotest.test_case "density edges" `Quick test_density_edge_cases;
    Alcotest.test_case "max degree" `Quick test_max_degree;
    Alcotest.test_case "mapping phys_array" `Quick test_mapping_phys_array;
    Alcotest.test_case "bitset fold/key" `Quick test_bitset_fold_and_key;
    Alcotest.test_case "pqueue clear" `Quick test_pqueue_clear;
    Alcotest.test_case "prng pick/copy" `Quick test_prng_pick_and_copy;
    Alcotest.test_case "stats mean_int" `Quick test_stats_mean_int;
    Alcotest.test_case "layers skip barrier" `Quick test_circuit_layers_skip_barrier;
    Alcotest.test_case "pp functions" `Quick test_graph_pp_and_gate_pp;
    QCheck_alcotest.to_alcotest prop_request_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_reply_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_cache_key_pool_independent;
    Alcotest.test_case "deadline with fake clock" `Quick test_service_deadline_fake_clock;
  ]
