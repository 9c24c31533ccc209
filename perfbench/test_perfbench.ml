(* Tests of the benchmark's own code: seeded generation, the tail
   percentile, and exact counts across two replays of one seed. *)

open Perfbench

let all = List.map snd Gen.workloads

let test_same_seed_same_lines () =
  List.iter
    (fun w ->
      let a = Gen.make w ~seed:5 ~seconds:1 and b = Gen.make w ~seed:5 ~seconds:1 in
      Alcotest.(check (array string)) (Gen.name w ^ " warm-up") a.Gen.warmup b.Gen.warmup;
      Alcotest.(check (array string)) (Gen.name w ^ " timed") a.Gen.timed b.Gen.timed)
    all

let test_other_seed_other_lines () =
  List.iter
    (fun w ->
      let a = Gen.make w ~seed:5 ~seconds:1 and b = Gen.make w ~seed:6 ~seconds:1 in
      Alcotest.(check bool) (Gen.name w ^ " differs") true (a.Gen.timed <> b.Gen.timed))
    all

(* Every request decodes, validates, and carries no deadline. *)
let test_lines_valid () =
  List.iter
    (fun w ->
      let spec = Gen.make w ~seed:3 ~seconds:1 in
      Array.iter
        (fun l ->
          let r = Gen.request_of_line l in
          Alcotest.(check bool) "valid" true (Qcr_service.Compile_request.validate r = Ok ());
          Alcotest.(check bool) "no deadline" true (r.Qcr_service.Compile_request.deadline_s = None))
        (Array.append spec.Gen.warmup spec.Gen.timed))
    all

(* Every block of timed lines carries the same mix of sizes, device
   families, modes and noise as the first, so blocks are comparable. *)
let test_blocks_comparable () =
  let module R = Qcr_service.Compile_request in
  List.iter
    (fun w ->
      let seconds = match w with Gen.Compile_1k -> 10 | Gen.Qaoa_sweep | Gen.Suite_rerun -> 2 in
      let spec = Gen.make w ~seed:4 ~seconds in
      let shape l =
        let r = Gen.request_of_line l in
        (r.R.qubits, r.R.arch_kind, r.R.mode, r.R.noise_seed = None)
      in
      let mix k = List.sort compare (List.init spec.Gen.block (fun i -> shape spec.Gen.timed.((k * spec.Gen.block) + i))) in
      let n = Array.length spec.Gen.timed / spec.Gen.block in
      Alcotest.(check int) (Gen.name w ^ " whole blocks") 0 (Array.length spec.Gen.timed mod spec.Gen.block);
      Alcotest.(check bool) (Gen.name w ^ " several blocks") true (n >= 2);
      for k = 1 to n - 1 do
        Alcotest.(check bool) (Printf.sprintf "%s block %d" (Gen.name w) k) true (mix k = mix 0)
      done)
    all

let test_block_recorder () =
  let cpu = ref 0.0 in
  let on_done, blocks = Drive.block_recorder ~size:3 ~cpu:(fun () -> !cpu) in
  List.iter
    (fun l ->
      cpu := !cpu +. 1.0;
      on_done { Drive.reply = Drive.summary Qcr_obs.Json.Null; latency_ms = l; ok = true })
    [ 5.0; 1.0; 3.0; 2.0; 4.0; 6.0; 7.0 ];
  let bs = blocks () in
  Alcotest.(check (list (array (float 0.0)))) "whole blocks" [ [| 5.0; 1.0; 3.0 |]; [| 2.0; 4.0; 6.0 |] ]
    (List.map (fun b -> b.Drive.lat_ms) bs);
  Alcotest.(check (list (float 0.0))) "cpu per block" [ 3.0; 3.0 ] (List.map (fun b -> b.Drive.cpu_s) bs)

(* Windows of at least 1 s, a short remainder joining the last; the
   fastest tenth by wall time per block. *)
let test_fast_windows () =
  let block wall l = { Drive.wall_s = wall; cpu_s = 0.0; lat_ms = [| l |] } in
  let slow = List.init 19 (fun i -> block (1.0 +. (0.01 *. float_of_int i)) (100.0 +. float_of_int i)) in
  let fast = [ block 0.5 1.0; block 0.5 2.0; block 0.25 3.0 ] in
  Alcotest.(check (array (float 0.0))) "the fast window and the fastest slow one" [| 1.0; 2.0; 3.0; 100.0 |]
    (Tail.sorted (Drive.fast_window_latencies (slow @ fast)))

let test_tail_percentile () =
  let cases = [ (100_000, 99); (1000, 99); (999, 98); (500, 98); (100, 90); (25, 60); (24, 58); (10, 50); (1, 50) ] in
  List.iter
    (fun (n, q) ->
      Alcotest.(check int) (Printf.sprintf "n=%d" n) q (Tail.tail_percentile n);
      if q > 50 then begin
        Alcotest.(check bool) "leaves 10 beyond" true (Tail.beyond n q >= 10);
        Alcotest.(check bool) "highest such" true (q = 99 || Tail.beyond n (q + 1) < 10)
      end)
    cases;
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 (Tail.percentile (Tail.sorted xs) 99);
  Alcotest.(check (float 0.0)) "median of 1..1000" 500.0 (Tail.median xs)

(* A cut-down workload: the first [k] warm-up and timed lines. *)
let small w ~seed ~warmup ~timed =
  let s = Gen.make w ~seed ~seconds:1 in
  let take k a = Array.sub a 0 (min k (Array.length a)) in
  { s with Gen.warmup = take warmup s.Gen.warmup; timed = take timed s.Gen.timed }

let counts spec name =
  let dir = Printf.sprintf "perfbench-test-%s-%d" name (Unix.getpid ()) in
  Proc.rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> Proc.rm_rf dir)
    (fun () ->
      let m = Traced.main_replay ~spec ~dir in
      Qcr_service.Service.
        (m.Traced.stats.cache_hits, m.Traced.stats.cache_misses, m.Traced.appends, m.Traced.depth_sum, m.Traced.cx_sum))

let test_counts_repeat () =
  List.iter
    (fun (w, warmup, timed) ->
      let spec = small w ~seed:9 ~warmup ~timed in
      let hits, misses, appends, depth, cx = counts spec "a" in
      let hits', misses', appends', depth', cx' = counts spec "b" in
      Alcotest.(check (list int)) (Gen.name w ^ " counts")
        [ hits; misses; appends; depth; cx ]
        [ hits'; misses'; appends'; depth'; cx' ];
      Alcotest.(check bool) "compiled something" true (depth > 0 && cx > 0);
      match w with
      | Gen.Suite_rerun ->
          Alcotest.(check int) "every timed job hits" timed hits;
          Alcotest.(check int) "two appends per job" (2 * timed) appends
      | Gen.Qaoa_sweep | Gen.Compile_1k -> Alcotest.(check int) "every timed compile misses" timed misses)
    [ (Gen.Qaoa_sweep, 2, 4); (Gen.Suite_rerun, Gen.suite_size, 2 * Gen.suite_size) ]

let () =
  Alcotest.run "perfbench"
    [
      ( "gen",
        [
          Alcotest.test_case "same seed, byte-identical lines" `Quick test_same_seed_same_lines;
          Alcotest.test_case "other seed, other lines" `Quick test_other_seed_other_lines;
          Alcotest.test_case "lines decode, validate, no deadline" `Quick test_lines_valid;
          Alcotest.test_case "timed blocks are comparable" `Quick test_blocks_comparable;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "recorder cuts whole blocks" `Quick test_block_recorder;
          Alcotest.test_case "fastest tenth of windows" `Quick test_fast_windows;
        ] );
      ("tail", [ Alcotest.test_case "highest percentile with 10 beyond" `Quick test_tail_percentile ]);
      ("replay", [ Alcotest.test_case "counts repeat exactly" `Quick test_counts_repeat ]);
    ]
