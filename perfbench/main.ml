(* End-to-end benchmark of the qcr_cli server.

     main.exe --workload qaoa-sweep|compile-1k|suite-rerun --seed N
              --seconds S --trace 0|1

   --trace 0 starts the real server, drives it over one TCP connection
   with the workload's seeded request list and prints the end-to-end
   metrics; --trace 1 does the same once more, then replays the same
   lines in-process through the code the server runs per line and prints
   the per-layer metrics.  The last stdout line is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it is
   the run metadata; a readable table goes to stderr.  Exit status 0
   only when every reply was ok and every check passed. *)

open Perfbench
module Json = Qcr_obs.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload qaoa-sweep|compile-1k|suite-rerun --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Gen.of_name v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds >= 1 ->
      (w, seed, seconds, trace)
  | _ -> usage ()

(* Built by run.sh, relative to the root of the checkout. *)
let server_exe = "_build/default/bin/qcr_cli.exe"

(* Set-ups per run; setup_s is their median. *)
let setups = 3

let scratch_root = ".perfbench-tmp"

let with_scratch f =
  let dir = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o755;
  Proc.rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Proc.rm_rf dir;
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* Metrics are (name, unit, value). *)
let metrics_json ms =
  Json.Obj (List.map (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) ms)

let print_table title ms =
  Printf.eprintf "%s\n" title;
  List.iter (fun (n, u, v) -> Printf.eprintf "  %-34s %14.4f %s\n" n v u) ms;
  flush stderr

let () =
  let w, seed, seconds, trace = parse_args () in
  (* a server that dies mid-run must fail the run, not kill it unreported *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a terminated run still stops its server and removes its scratch
     directory: the exception unwinds through their finalizers *)
  let interrupted =
    Sys.Signal_handle
      (fun _ ->
        List.iter (fun s -> Sys.set_signal s Sys.Signal_ignore) [ Sys.sigterm; Sys.sigint; Sys.sighup ];
        failwith "perfbench: interrupted")
  in
  List.iter (fun s -> Sys.set_signal s interrupted) [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  if not (Sys.file_exists server_exe) then begin
    Printf.eprintf "perfbench: server binary %s not found (build it first)\n" server_exe;
    exit 1
  end;
  let spec = Gen.make w ~seed ~seconds in
  let domains = Meta.server_domains in
  Qcr_par.Pool.set_default_domains domains;
  let n_timed = Array.length spec.Gen.timed in
  (* exit only after [with_scratch] has removed the scratch directory:
     [exit] does not unwind its finalizer *)
  let correct =
    with_scratch @@ fun tmp ->
    (* Client and server share one CPU during the end-to-end pass (the
       server inherits the mask): on separate CPUs of a small VM the async
       workload's throughput swung by up to 1.8x between phases of one run;
       see the README. *)
    let cpus = Proc.allowed_cpus () in
    let cpu = Proc.first_cpu cpus in
    Proc.pin_self cpu;
    let r = Drive.e2e ~exe:server_exe ~domains ~tmp ~setups:(if trace then 1 else setups) spec in
    Proc.pin_self cpus;
    let fast = Tail.sorted (Drive.fast_window_latencies r.Drive.blocks) in
    let tail_q = Tail.tail_percentile (Array.length fast) in
    let meta =
      Meta.json ~workload:(Gen.name w) ~seed ~seconds ~trace ~cpu ~domains
        ~warmup:(Array.length spec.Gen.warmup) ~timed:n_timed ~block:spec.Gen.block
        ~blocks:(List.length r.Drive.blocks) ~tail_q ~tail_samples:(Array.length fast)
        ~tail_n:(Tail.beyond (Array.length fast) tail_q)
    in
    (* the traced replay runs first: its ATA schedule timing needs a
       process that has not compiled on the workload's devices yet *)
    let traced = if trace then Some (Traced.run ~spec ~domains ~tmp ~e2e:r) else None in
    let per_family = match w with Gen.Qaoa_sweep -> 2 | Gen.Compile_1k | Gen.Suite_rerun -> 1 in
    let mismatches =
      Check.run
        (Check.sample ~seed ~per_family spec.Gen.timed (Array.map (fun op -> op.Drive.reply) r.Drive.ops))
    in
    List.iter (fun m -> Printf.eprintf "perfbench: check failed: %s\n" m) mismatches;
    let timed_failed = Drive.failed r.Drive.ops in
    (match Array.find_index (fun op -> not op.Drive.ok) r.Drive.ops with
    | Some i ->
        Printf.eprintf "perfbench: first failed timed request: %s, status %S\n"
          (Gen.request_of_line spec.Gen.timed.(i)).Qcr_service.Compile_request.id
          r.Drive.ops.(i).Drive.reply.Drive.status
    | None -> ());
    let attempted = n_timed + r.Drive.warmup_ops in
    let failed = timed_failed + r.Drive.warmup_failed + List.length mismatches in
    let depth_sum, cx_sum = Drive.quality_sums r.Drive.ops in
    let n = float_of_int n_timed in
    let lat = Tail.sorted (Array.map (fun op -> op.Drive.latency_ms) r.Drive.ops) in
    (* The time metrics come from the timed phase's blocks: throughput,
       median latency and server CPU as the 10th percentile over blocks,
       the tail over the fastest tenth of one-second windows.  The
       reference host alternates, for seconds at a time, between a fast
       state and one where the same work takes up to ~1.6x longer, and a
       whole-run average, median or tail moves with the share of the run
       spent in each; these measure the program in the fast state whenever
       a run spends a tenth of its time there.  See the README's "Measured
       spread".  The whole-run figures go to stderr, ungated. *)
    let blocks = Array.of_list r.Drive.blocks in
    let p10 f = Tail.percentile (Tail.sorted (Array.map f blocks)) 10 in
    let block = float_of_int spec.Gen.block in
    Printf.eprintf
      "whole timed phase (not gated): %.4f req/s, latency p50 %.4f ms, p%d %.4f ms, server CPU %.4f ms/req\n"
      (n /. r.Drive.wall_s) (Tail.percentile lat 50) (Tail.tail_percentile n_timed)
      (Tail.percentile lat (Tail.tail_percentile n_timed))
      (r.Drive.server_cpu_s *. 1000.0 /. n);
    let e2e_metrics =
      [
        ("setup_s", "s", Tail.median (Array.of_list r.Drive.setup_s));
        ("throughput_rps", "req/s", block /. p10 (fun b -> b.Drive.wall_s));
        ("latency_p50_ms", "ms", p10 (fun b -> Tail.median b.Drive.lat_ms));
        ("latency_tail_ms", "ms", Tail.percentile fast tail_q);
        ("server_cpu_ms_per_req", "ms", p10 (fun b -> b.Drive.cpu_s) *. 1000.0 /. block);
        ("peak_rss_mb", "MB", r.Drive.rss_mb);
        ("depth_sum", "gates", float_of_int depth_sum);
        ("cx_sum", "gates", float_of_int cx_sum);
        ("ok_frac", "ratio", 1.0 -. (float_of_int failed /. float_of_int attempted));
      ]
    in
    let traced_metrics, traced_ok =
      match traced with None -> ([], true) | Some t -> (t.Traced.metrics, t.Traced.consistent)
    in
    print_table
      (Printf.sprintf "perfbench %s seed=%d: %d timed ops in %d blocks, tail=p%d of %d, %d failed"
         (Gen.name w) seed n_timed (Array.length blocks) tail_q (Array.length fast) failed)
      (e2e_metrics @ traced_metrics);
    let correct = failed = 0 && traced_ok in
    print_endline (Json.to_string (Json.Obj [ ("meta", meta) ]));
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool correct);
              ("attempted", Json.Num (float_of_int attempted));
              ("failed", Json.Num (float_of_int failed));
              ("metrics", metrics_json (if trace then traced_metrics else e2e_metrics));
            ]));
    correct
  in
  if not correct then exit 1
