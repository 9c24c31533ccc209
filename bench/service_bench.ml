(* Compilation-service benchmark, two sections into BENCH_service.json:

   - cold/warm: push a batch of mixed requests (sizes, devices, modes,
     with duplicates) through one [Qcr_service.Service] twice — a cold
     pass that fills the content-addressed compile cache and a warm pass
     served from it — recording throughput and hit rate.  The replies
     digest witnesses determinism: it must be identical across passes
     and for every QCR_DOMAINS value.
   - restart: fill a store-backed service, flush, reopen the same
     directory in a fresh service and replay — measuring cold vs
     warm-restart p99 submit latency and asserting the warm pass is
     all hits and bit-identical.

   The committed baseline lives in bench/baselines/BENCH_service.json
   and is generated with [QCR_DOMAINS=1]. *)

module Arch = Qcr_arch.Arch
module Graph = Qcr_graph.Graph
module Generate = Qcr_graph.Generate
module Prng = Qcr_util.Prng
module Digest64 = Qcr_util.Digest64
module Json = Qcr_obs.Json
module Service = Qcr_service.Service
module Cache_store = Qcr_service.Cache_store
module Compile_request = Qcr_service.Compile_request
module Compile_reply = Qcr_service.Compile_reply

let output_file = "BENCH_service.json"

(* Round-robin over device families and modes so the batch exercises
   every compile path.  Portfolio requests target a >16-qubit device so
   the A* arm (exponential in the coupling width) stays out of the race
   and the benchmark finishes in seconds. *)
let request i =
  let n = 8 + (i mod 5) in
  let kinds = [| Arch.Line; Arch.Grid; Arch.Heavy_hex; Arch.Hexagon |] in
  let kind = kinds.(i mod Array.length kinds) in
  let modes =
    [| Compile_request.Ours; Compile_request.Greedy; Compile_request.Ata; Compile_request.Portfolio |]
  in
  let mode = modes.(i mod Array.length modes) in
  let graph =
    Generate.erdos_renyi (Prng.create (100 + i)) ~n ~density:(min 1.0 (3.0 /. float_of_int (n - 1)))
  in
  Compile_request.make
    ~id:(Printf.sprintf "bench-%d" i)
    ~arch_size:(if mode = Compile_request.Portfolio then 18 else n)
    ~mode
    ?noise_seed:(if i mod 3 = 0 then Some (7 + i) else None)
    ~arch_kind:kind ~qubits:n ~edges:(Graph.edges graph) ()

let replies_digest replies =
  List.fold_left
    (fun d r ->
      Digest64.add_string d
        (Json.to_string (Compile_reply.strip_volatile (Compile_reply.to_json r))))
    Digest64.empty replies
  |> Digest64.to_hex

(* Cross-pass comparison additionally ignores the cache flag: the warm
   pass serves the same content from the cache. *)
let semantic_digest replies =
  List.fold_left
    (fun d r ->
      Digest64.add_string d
        (Json.to_string
           (Compile_reply.strip_volatile
              (Compile_reply.to_json { r with Compile_reply.cached = false }))))
    Digest64.empty replies
  |> Digest64.to_hex

let stats_fields (s : Service.stats) = Service.stats_to_json s

(* ---------- restart: cold start vs warm restart from disk ---------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let timed_submits service batch =
  let lat =
    List.map
      (fun req ->
        let t0 = Unix.gettimeofday () in
        let reply = Service.submit service req in
        ((Unix.gettimeofday () -. t0) *. 1000.0, reply))
      batch
  in
  let samples = Array.of_list (List.map fst lat) in
  Array.sort compare samples;
  (samples, List.map snd lat)

let restart_section batch =
  Common.with_temp_dir "qcr-bench-restart" @@ fun dir ->
  let store ()  =
    match Cache_store.open_dir dir with Ok s -> s | Error e -> failwith e
  in
  let n_requests = List.length batch in
  let cold_service = Service.create ~store:(store ()) () in
  let cold_lat, cold_replies = timed_submits cold_service batch in
  let persisted = match Service.flush cold_service with Ok n -> n | Error e -> failwith e in
  (* a fresh handle on the same directory: this is the process restart *)
  let warm_store = store () in
  let loaded = Cache_store.persisted warm_store in
  let warm_service = Service.create ~store:warm_store () in
  let warm_lat, warm_replies = timed_submits warm_service batch in
  let warm_stats = Service.stats warm_service in
  let hit_rate = float_of_int warm_stats.Service.cache_hits /. float_of_int (max 1 n_requests) in
  let identical = semantic_digest cold_replies = semantic_digest warm_replies in
  if not identical then
    Printf.printf "  WARNING: warm-restart replies differ from the run that filled the cache\n%!";
  let cold_p99 = percentile cold_lat 0.99 and warm_p99 = percentile warm_lat 0.99 in
  Printf.printf
    "  restart: persisted %d, loaded %d | cold p99 %8.3f ms  warm-restart p99 %8.3f ms  hits \
     %.0f%%\n\
     %!"
    persisted loaded cold_p99 warm_p99 (100.0 *. hit_rate);
  Json.Obj
    [
      ("requests", Json.Num (float_of_int n_requests));
      ("persisted", Json.Num (float_of_int persisted));
      ("loaded", Json.Num (float_of_int loaded));
      ("cold_p50_ms", Json.Num (percentile cold_lat 0.50));
      ("cold_p99_ms", Json.Num cold_p99);
      ("warm_p50_ms", Json.Num (percentile warm_lat 0.50));
      ("warm_p99_ms", Json.Num warm_p99);
      ("warm_hit_rate", Json.Num hit_rate);
      ("bit_identical", Json.Bool identical);
    ]

let run scale =
  Common.heading "Compilation service: cold vs warm batch (BENCH_service.json)";
  let unique, dup_factor =
    match scale with Common.Quick -> (4, 2) | Common.Default -> (12, 3) | Common.Full -> (24, 4)
  in
  let base = List.init unique request in
  let batch = List.concat (List.init dup_factor (fun _ -> base)) in
  let n_requests = List.length batch in
  let service = Service.create () in
  let timed_pass label =
    let before = Service.stats service in
    let t0 = Unix.gettimeofday () in
    let replies = Service.run_batch service batch in
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let delta = Service.stats_sub (Service.stats service) before in
    let hit_rate = float_of_int delta.Service.cache_hits /. float_of_int (max 1 n_requests) in
    Printf.printf
      "  %s pass: %3d requests in %8.2f ms  %8.1f req/s  hits %3d (%.0f%%)  misses %3d\n%!" label
      n_requests wall_ms
      (float_of_int n_requests /. (wall_ms /. 1000.0))
      delta.Service.cache_hits (100.0 *. hit_rate) delta.Service.cache_misses;
    ( replies,
      Json.Obj
        [
          ("label", Json.Str label);
          ("requests", Json.Num (float_of_int n_requests));
          ("wall_ms", Json.Num wall_ms);
          ("req_per_s", Json.Num (float_of_int n_requests /. (wall_ms /. 1000.0)));
          ("hit_rate", Json.Num hit_rate);
          ("stats", stats_fields delta);
        ] )
  in
  let cold_replies, cold_row = timed_pass "cold" in
  let warm_replies, warm_row = timed_pass "warm" in
  let identical = semantic_digest cold_replies = semantic_digest warm_replies in
  if not identical then Printf.printf "  WARNING: warm replies differ from cold replies\n%!";
  let restart = restart_section base in
  (* untimed counter pass on a fresh service, so the timed passes above
     ran with the telemetry sink off (comparable to the baseline) *)
  let _, counters =
    Common.counted (fun () -> ignore (Service.run_batch (Service.create ()) batch))
  in
  Json.to_file output_file
    (Json.Obj
       [
         ("schema", Json.Str "qcr-bench-service/v3");
         ("generated_by", Json.Str "dune exec bench/main.exe -- service");
         ( "scale",
           Json.Str
             (match scale with
             | Common.Quick -> "quick"
             | Common.Default -> "default"
             | Common.Full -> "full") );
         ("domains", Json.Num (float_of_int (Qcr_par.Pool.default_domain_count ())));
         ("unique_requests", Json.Num (float_of_int unique));
         ("batch_size", Json.Num (float_of_int n_requests));
         ("passes", Json.Arr [ cold_row; warm_row ]);
         ("cold_equals_warm", Json.Bool identical);
         ("replies_digest", Json.Str (replies_digest warm_replies));
         ("restart", restart);
         ( "counters",
           Json.Obj
             (List.map
                (fun (name, v) -> (name, Json.Num (float_of_int v)))
                counters.Qcr_obs.Obs.snap_counters) );
       ]);
  Printf.printf "  wrote %s\n%!" output_file
