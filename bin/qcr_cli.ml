(* Command-line front end.

   qcr_cli compile --arch heavyhex --n 64 --density 0.3 [--qasm out.qasm]
   qcr_cli ata     --arch sycamore --n 256
   qcr_cli solve   --line 5
   qcr_cli qaoa    --n 10 --rounds 20
   qcr_cli batch   jobs.json --out replies.json --repeat 2
   qcr_cli serve   [--batch jobs.json] [--listen HOST:PORT]   # JSONL protocol on stdio/TCP *)

open Cmdliner
module Arch = Qcr_arch.Arch
module Noise = Qcr_arch.Noise
module Graph = Qcr_graph.Graph
module Generate = Qcr_graph.Generate
module Program = Qcr_circuit.Program
module Qasm = Qcr_circuit.Qasm
module Mapping = Qcr_circuit.Mapping
module Schedule = Qcr_swapnet.Schedule
module Ata = Qcr_swapnet.Ata
module Pipeline = Qcr_core.Pipeline
module Prng = Qcr_util.Prng
module Fault = Qcr_fault.Fault

let arch_kind_of_string = function
  | "line" -> Ok Arch.Line
  | "grid" -> Ok Arch.Grid
  | "sycamore" -> Ok Arch.Sycamore
  | "grid3d" -> Ok Arch.Grid3d
  | "heavyhex" | "heavy-hex" -> Ok Arch.Heavy_hex
  | "hexagon" -> Ok Arch.Hexagon
  | s -> Error (Printf.sprintf "unknown architecture %S" s)

let arch_conv =
  let parse s =
    match arch_kind_of_string s with Ok k -> Ok k | Error e -> Error (`Msg e)
  in
  let print fmt k =
    Format.pp_print_string fmt
      (match k with
      | Arch.Line -> "line"
      | Arch.Grid -> "grid"
      | Arch.Grid3d -> "grid3d"
      | Arch.Sycamore -> "sycamore"
      | Arch.Heavy_hex -> "heavyhex"
      | Arch.Hexagon -> "hexagon"
      | Arch.Custom -> "custom")
  in
  Arg.conv (parse, print)

let arch_arg =
  Arg.(value & opt arch_conv Arch.Heavy_hex & info [ "arch" ] ~docv:"ARCH"
         ~doc:"Target architecture: line, grid, sycamore, heavyhex, hexagon.")

let n_arg =
  Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Problem-graph vertex count.")

let density_arg =
  Arg.(value & opt float 0.3 & info [ "density" ] ~docv:"D" ~doc:"Problem-graph density.")

let seed_arg = Arg.(value & opt int 2023 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* Telemetry flags, shared by every subcommand: --trace FILE captures the
   run as Chrome trace-event JSON; --metrics prints the summary tables. *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write compiler telemetry as Chrome trace-event JSON to $(docv) \
               (load it in Perfetto at ui.perfetto.dev or in about://tracing).")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the telemetry summary (per-phase spans, counters, histograms) after the run.")

let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
         ~doc:"Size of the domain pool parallel kernels, trajectory sampling and the \
               portfolio compiler fan out over (default: $(b,QCR_DOMAINS), else the \
               hardware thread count). 1 runs everything sequentially; results are \
               identical for every value.")

let fault_spec_conv =
  let parse s =
    match Fault.spec_of_string s with Ok spec -> Ok spec | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt spec -> Format.pp_print_string fmt (Fault.spec_to_string spec))

let inject_arg =
  Arg.(value & opt (some fault_spec_conv) None & info [ "inject" ] ~docv:"SPEC"
         ~doc:"Arm deterministic fault injection for this run. $(docv) is \
               $(b,seed=N,point:action[:trigger],...) with actions $(b,crash), \
               $(b,delay=S), $(b,corrupt) and triggers $(b,always), $(b,p=F), \
               $(b,nth=K), $(b,every=K) — e.g. \
               $(b,seed=7,service.tier:crash:p=0.1,cache.get:corrupt:nth=3). \
               Overrides $(b,QCR_FAULTS).")

(* Run [f] with the telemetry sink enabled when either flag asks for it —
   inside a root span named after the subcommand, so every trace carries
   at least the end-to-end command timing — then emit the requested
   outputs.  [--inject] arms its fault spec for the whole run (replacing
   whatever QCR_FAULTS armed at startup). *)
let with_telemetry ~cmd trace metrics domains inject f =
  Option.iter Fault.arm inject;
  Option.iter Qcr_par.Pool.set_default_domains domains;
  if trace <> None || metrics then Qcr_obs.Obs.enable ();
  let result = Qcr_obs.Obs.with_span ~cat:"cli" ("cli." ^ cmd) f in
  Option.iter
    (fun file ->
      Qcr_obs.Trace_json.write_file file;
      Printf.printf "wrote trace %s\n" file)
    trace;
  if metrics then print_string (Qcr_obs.Summary.render ());
  result

let compile_cmd =
  let qasm_arg =
    Arg.(value & opt (some string) None & info [ "qasm" ] ~docv:"FILE"
           ~doc:"Write the compiled circuit as OpenQASM 2.0.")
  in
  let noisy_arg =
    Arg.(value & flag & info [ "noise" ] ~doc:"Use a sampled calibration noise model.")
  in
  let portfolio_arg =
    Arg.(value & flag & info [ "portfolio" ]
           ~doc:"Race the ours/greedy/ata/astar compiler arms across the domain pool \
                 and keep the best circuit under the selector metric.")
  in
  let run kind n density seed qasm noisy portfolio trace metrics domains inject =
    with_telemetry ~cmd:"compile" trace metrics domains inject @@ fun () ->
    let rng = Prng.create seed in
    let graph = Generate.erdos_renyi rng ~n ~density in
    let program = Program.make graph (Program.Qaoa_maxcut { gamma = 0.4; beta = 0.35 }) in
    let arch = Arch.smallest_for kind n in
    let noise = if noisy then Some (Noise.sampled arch) else None in
    let strategy_name r =
      match r.Pipeline.strategy with
      | Pipeline.Pure_greedy -> "greedy"
      | Pipeline.Pure_ata -> "ata"
      | Pipeline.Hybrid c -> Printf.sprintf "hybrid@%d" c
    in
    Printf.printf "arch=%s qubits=%d | problem n=%d m=%d\n" (Arch.name arch)
      (Arch.qubit_count arch) n (Graph.edge_count graph);
    let r =
      if portfolio then begin
        let p = Pipeline.run_portfolio_exn (Pipeline.Request.make ?noise arch program) in
        List.iter
          (fun (name, r) ->
            Printf.printf "arm %-6s depth=%d cx=%d swaps=%d\n" name r.Pipeline.depth
              r.Pipeline.cx r.Pipeline.swap_count)
          p.Pipeline.arms;
        Printf.printf "winner=%s\n" p.Pipeline.winner_arm;
        p.Pipeline.winner
      end
      else Pipeline.run_exn (Pipeline.Request.make ?noise arch program)
    in
    Printf.printf "depth=%d cx=%d swaps=%d compile=%.3fs strategy=%s\n" r.Pipeline.depth
      r.Pipeline.cx r.Pipeline.swap_count r.Pipeline.compile_seconds (strategy_name r);
    if noisy then Printf.printf "estimated success probability: %.4f\n" (exp r.Pipeline.log_fidelity);
    Option.iter
      (fun file ->
        Qasm.write_file file r.Pipeline.circuit;
        Printf.printf "wrote %s\n" file)
      qasm
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a random QAOA instance.")
    Term.(
      const run $ arch_arg $ n_arg $ density_arg $ seed_arg $ qasm_arg $ noisy_arg
      $ portfolio_arg $ trace_arg $ metrics_arg $ domains_arg $ inject_arg)

let ata_cmd =
  let show_arg =
    Arg.(value & flag & info [ "show" ] ~doc:"Draw the schedule (one row per qubit, g = interaction, x = swap).")
  in
  let run kind n show trace metrics domains inject =
    with_telemetry ~cmd:"ata" trace metrics domains inject @@ fun () ->
    let arch = Arch.smallest_for kind n in
    let sched = Ata.schedule arch in
    let qubits = Arch.qubit_count arch in
    let missing = Schedule.uncovered_pairs ~n:qubits sched in
    Printf.printf "arch=%s qubits=%d cycles=%d swaps=%d touches=%d uncovered-pairs=%d\n"
      (Arch.name arch) qubits (Schedule.cycle_count sched) (Schedule.swap_count sched)
      (Schedule.touch_count sched) (List.length missing);
    if show then print_string (Qcr_swapnet.Render.schedule ~n:qubits sched)
  in
  Cmd.v
    (Cmd.info "ata" ~doc:"Print the structured all-to-all schedule statistics.")
    Term.(
      const run $ arch_arg $ n_arg $ show_arg $ trace_arg $ metrics_arg $ domains_arg
      $ inject_arg)

let solve_cmd =
  let line_arg =
    Arg.(value & opt int 4 & info [ "line" ] ~docv:"N" ~doc:"Clique size on an N-qubit line.")
  in
  let run n trace metrics domains inject =
    with_telemetry ~cmd:"solve" trace metrics domains inject @@ fun () ->
    let problem = Graph.complete n in
    let coupling = Generate.path n in
    let init = Mapping.identity ~logical:n ~physical:n in
    match Qcr_solver.Astar.solve ~problem ~coupling ~init () with
    | None -> print_endline "no solution found"
    | Some o ->
        Printf.printf "line-%d clique: optimal depth=%d swaps=%d (expanded %d states)\n" n
          o.Qcr_solver.Astar.depth o.Qcr_solver.Astar.swap_total o.Qcr_solver.Astar.expanded;
        List.iteri
          (fun i cycle ->
            let show = function
              | Qcr_solver.Astar.Do_gate (u, v) -> Printf.sprintf "g(%d,%d)" u v
              | Qcr_solver.Astar.Do_swap (p, q) -> Printf.sprintf "s(%d,%d)" p q
            in
            Printf.printf "  cycle %2d: %s\n" (i + 1) (String.concat " " (List.map show cycle)))
          o.Qcr_solver.Astar.cycles
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run the depth-optimal A* solver on a small clique instance.")
    Term.(const run $ line_arg $ trace_arg $ metrics_arg $ domains_arg $ inject_arg)

let qaoa_cmd =
  let rounds_arg =
    Arg.(value & opt int 20 & info [ "rounds" ] ~docv:"R" ~doc:"Optimizer rounds.")
  in
  let run n density seed rounds trace metrics domains inject =
    with_telemetry ~cmd:"qaoa" trace metrics domains inject @@ fun () ->
    let rng = Prng.create seed in
    let graph = Generate.erdos_renyi rng ~n ~density in
    let arch = Arch.mumbai_like () in
    let noise = Noise.sampled ~seed:9 arch in
    (* no compiler phase reads an angle: compile the graph once and
       re-stamp each evaluation's angles onto it *)
    let compiled =
      Pipeline.run_exn
        (Pipeline.Request.make ~noise arch
           (Program.make graph (Program.Qaoa_maxcut { gamma = 0.0; beta = 0.0 })))
    in
    let compile p =
      let r = Pipeline.rebind compiled p in
      (r.Pipeline.circuit, r.Pipeline.final)
    in
    let d = Qcr_sim.Qaoa.run_driver ~rounds ~noise ~graph ~compile () in
    Array.iteri (fun i e -> Printf.printf "round %2d: %.4f\n" (i + 1) e) d.Qcr_sim.Qaoa.energies;
    Printf.printf "best energy %.4f (max cut = %d)\n" d.Qcr_sim.Qaoa.best_energy
      d.Qcr_sim.Qaoa.optimum_cut
  in
  Cmd.v
    (Cmd.info "qaoa" ~doc:"Run the end-to-end QAOA loop on the Mumbai-like device.")
    Term.(
      const run $ n_arg $ density_arg $ seed_arg $ rounds_arg $ trace_arg $ metrics_arg
      $ domains_arg $ inject_arg)

(* ---------- compilation service: batch + serve ---------- *)

module Service = Qcr_service.Service
module Cache_store = Qcr_service.Cache_store
module Compile_request = Qcr_service.Compile_request
module Compile_reply = Qcr_service.Compile_reply
module Protocol = Qcr_service.Protocol
module Json = Qcr_obs.Json
module Registry = Qcr_obs.Registry
module Eventlog = Qcr_obs.Eventlog

(* Exit-code discipline (documented under EXIT STATUS in --help): 1 for
   runtime failures, 2 for usage and command-line parse errors. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("qcr: " ^ msg); exit 1) fmt

let die_usage fmt = Printf.ksprintf (fun msg -> prerr_endline ("qcr: " ^ msg); exit 2) fmt

let load_batch file =
  match Json.of_file file with
  | Error e -> die "cannot read %s: %s" file e
  | Ok j -> (
      match Service.requests_of_json j with
      | Error e -> die "%s: %s" file e
      | Ok reqs -> reqs)

(* Observability flags shared by batch and serve: --metrics-out keeps a
   registry snapshot file fresh (rewritten atomically after each pass /
   request), --eventlog captures the bounded slow-request and error
   channels as JSONL at exit. *)
let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Keep a JSON metrics snapshot (schema $(b,qcr-metrics/v1): counters, \
               gauges, per-tier latency quantiles) in $(docv), rewritten atomically \
               after every batch pass / served request and once more at exit.  \
               Implies the telemetry sink is enabled.")

let eventlog_arg =
  Arg.(value & opt (some string) None & info [ "eventlog" ] ~docv:"FILE"
         ~doc:"Write the bounded structured event log (schema $(b,qcr-eventlog/v1), \
               JSON lines: slow requests over the $(b,--slow-ms) threshold plus \
               sampled errors) to $(docv) at exit.")

let slow_ms_arg =
  Arg.(value & opt float Qcr_obs.Eventlog.default_slow_threshold_ms
       & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Slow-request threshold for $(b,--eventlog): requests slower than \
                 $(docv) milliseconds enter the slow channel.")

let make_eventlog eventlog slow_ms =
  match eventlog with
  | None -> None
  | Some _ -> Some (Eventlog.create ~slow_threshold_ms:slow_ms ())

(* Snapshot writes are best-effort: losing one periodic snapshot should
   never kill a serving loop, so failures are warnings on stderr — but
   counted, so a wedged snapshot path shows up in the metrics and the
   stats op instead of only scrolling by. *)
let c_metrics_out_failed = Qcr_obs.Obs.counter "cli.metrics_out_failed"

let write_metrics_out = function
  | None -> ()
  | Some path -> (
      match Registry.write_snapshot_file path with
      | Ok () -> ()
      | Error e ->
          Qcr_obs.Obs.incr c_metrics_out_failed;
          Printf.eprintf "qcr: warning: cannot write %s: %s\n%!" path e)

let write_eventlog log path =
  match (log, path) with
  | Some log, Some path -> (
      match Eventlog.write log path with
      | Ok n -> Printf.printf "wrote %s (%d events)\n%!" path n
      | Error e -> Printf.eprintf "qcr: warning: cannot write %s: %s\n%!" path e)
  | _ -> ()

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persist the compile cache under $(docv) (created if missing): the cache \
               warm-starts from the validated entries on disk and new entries are \
               flushed back as a crash-safe segment, so a restarted process answers \
               repeat requests from the cache, bit-identically.")

let open_store = function
  | None -> None
  | Some dir -> (
      match Cache_store.open_dir dir with
      | Ok store -> Some store
      | Error e -> die "cannot open cache dir: %s" e)

(* Flush the cache back to its store (if any); [on_error] decides whether
   a failed flush is fatal (batch) or a warning (serve's EOF path). *)
let flush_store ~on_error service =
  match Service.flush service with
  | Ok 0 -> ()
  | Ok n -> Printf.printf "persisted %d cache entries\n%!" n
  | Error e -> on_error e

let pass_summary label (d : Service.stats) =
  Printf.printf
    "%s: %d requests | %d hits %d misses | ok=%d degraded=%d timeouts=%d errors=%d \
     retries=%d trips=%d corrupt=%d\n\
     %!"
    label d.Service.requests d.Service.cache_hits d.Service.cache_misses d.Service.served_ok
    d.Service.degraded d.Service.timeouts d.Service.errors d.Service.retries
    d.Service.breaker_trips d.Service.cache_corrupt

let batch_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Batch file: {\"schema\": \"qcr-service-batch/v1\", \"requests\": [...]}.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the replies (last pass) and per-pass stats as JSON to $(docv).")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Run the batch $(docv) times through the same service; later passes \
                 exercise the compile cache.")
  in
  let run file out repeat cache_dir metrics_out eventlog slow_ms trace metrics domains
      inject =
    with_telemetry ~cmd:"batch" trace metrics domains inject @@ fun () ->
    if metrics_out <> None then Qcr_obs.Obs.enable ();
    let reqs = load_batch file in
    let log = make_eventlog eventlog slow_ms in
    let service = Service.create ?store:(open_store cache_dir) ?eventlog:log () in
    let passes = ref [] in
    let last_replies = ref [] in
    for pass = 1 to max 1 repeat do
      let before = Service.stats service in
      last_replies := Service.run_batch service reqs;
      let delta = Service.stats_sub (Service.stats service) before in
      passes := delta :: !passes;
      pass_summary (Printf.sprintf "pass %d" pass) delta;
      write_metrics_out metrics_out
    done;
    flush_store ~on_error:(fun e -> die "cache flush failed: %s" e) service;
    write_metrics_out metrics_out;
    write_eventlog log eventlog;
    let json =
      Service.replies_to_json ~passes:(List.rev !passes)
        ~breakers:(Service.breaker_states service)
        ~domains:(Qcr_par.Pool.default_domain_count ())
        ~stats:(Service.stats service) !last_replies
    in
    match out with
    | Some path ->
        Json.to_file path json;
        Printf.printf "wrote %s\n" path
    | None -> print_endline (Json.to_string json)
  in
  Cmd.v
    (Cmd.info "batch" ~doc:"Run a batch job file through the compilation service.")
    Term.(
      const run $ file_arg $ out_arg $ repeat_arg $ cache_dir_arg $ metrics_out_arg
      $ eventlog_arg $ slow_ms_arg $ trace_arg $ metrics_arg $ domains_arg $ inject_arg)

let serve_cmd =
  let batch_arg =
    Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE"
           ~doc:"Process this batch file first (replies on stdout, one JSON per line), \
                 warming the compile cache, then serve.")
  in
  let listen_arg =
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT"
           ~doc:"Serve the same wire protocol over TCP instead of stdio: concurrent \
                 connections, one JSONL request/reply stream each, async job ops \
                 included.  PORT 0 binds an ephemeral port (printed on startup).  \
                 SIGTERM/SIGINT drain gracefully: queued jobs finish, waiters are \
                 notified, buffers flush, then the cache is persisted.")
  in
  let max_queue_arg =
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission control for the async job API: at most $(docv) jobs queued \
                 at once; beyond that, $(b,submit) answers with a typed overloaded \
                 error instead of queueing unbounded work.")
  in
  let journal_dir_arg =
    Arg.(value & opt (some string) None & info [ "journal-dir" ] ~docv:"DIR"
           ~doc:"Write-ahead job journal: every admitted $(b,submit) is recorded in \
                 $(docv) before its ack, and its terminal outcome after.  On startup \
                 the journal is replayed — finished jobs are restored as done, \
                 admitted-but-unfinished jobs are re-enqueued and recomputed (warm \
                 via $(b,--cache-dir)), so acked work survives even $(b,kill -9).  \
                 Resubmits carrying the same \"idem\" key dedupe to the original \
                 job across restarts.")
  in
  let run batch listen max_queue journal_dir cache_dir metrics_out eventlog slow_ms trace
      metrics domains inject =
    with_telemetry ~cmd:"serve" trace metrics domains inject @@ fun () ->
    (* A server always runs with the sink on: the {"op":"metrics"} line
       and --metrics-out must see live meters, whatever the CLI flags. *)
    Qcr_obs.Obs.enable ();
    let log = make_eventlog eventlog slow_ms in
    let service = Service.create ?store:(open_store cache_dir) ?eventlog:log () in
    let journal =
      Option.map
        (fun dir ->
          match Qcr_net.Journal.open_dir dir with
          | Ok j -> j
          | Error e -> die "cannot open job journal: %s" e)
        journal_dir
    in
    let emit j =
      print_endline (Json.to_string j);
      flush stdout
    in
    Option.iter
      (fun file ->
        List.iter
          (fun r -> emit (Protocol.with_version (Compile_reply.to_json r)))
          (Service.run_batch service (load_batch file)))
      batch;
    (* The EOF/shutdown path persists the cache with the same
       fatal-on-failure policy as batch: losing the flush is data loss,
       not a warning. *)
    let finish () =
      Option.iter Qcr_net.Journal.close journal;
      flush_store ~on_error:(fun e -> die "cache flush failed: %s" e) service;
      write_metrics_out metrics_out;
      write_eventlog log eventlog;
      pass_summary "served" (Service.stats service)
    in
    match listen with
    | Some hostport ->
        let host, port =
          match Qcr_net.Server.parse_listen hostport with
          | Ok hp -> hp
          | Error e -> die_usage "--listen: %s" e
        in
        let config = { Qcr_net.Server.default_config with host; port; max_queue } in
        let stop_flag = ref false in
        let on_stop_signal = Sys.Signal_handle (fun _ -> stop_flag := true) in
        (try Sys.set_signal Sys.sigterm on_stop_signal with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigint on_stop_signal with Invalid_argument _ -> ());
        (* [stop] is polled once per loop pass — piggyback the periodic
           metrics snapshot on it (throttled to ~1s). *)
        let last_snapshot = ref 0.0 in
        let stop () =
          if metrics_out <> None && Unix.gettimeofday () -. !last_snapshot > 1.0 then begin
            last_snapshot := Unix.gettimeofday ();
            write_metrics_out metrics_out
          end;
          !stop_flag
        in
        Qcr_net.Server.serve ~config ?journal
          ~on_listen:(fun p -> Printf.printf "listening on %s:%d\n%!" host p)
          ~stop service;
        finish ()
    | None ->
        (* stdio: one implicit client on stdin/stdout, same protocol.
           The job queue drains between lines, so a submit is running by
           the time the next poll arrives, and wait drives the queue
           inline until its job is terminal. *)
        let jobs = Qcr_net.Jobs.create ~max_queue ?journal ~submit:(Service.submit service) () in
        let session = Qcr_net.Session.create ~service ~jobs () in
        (* recovered jobs run before the first input line is read *)
        while Qcr_net.Jobs.run_next jobs <> None do
          ()
        done;
        let emit_reaction = function
          | Qcr_net.Session.Reply j -> emit j
          | Qcr_net.Session.Wait_for id ->
              let rec drive () =
                match Qcr_net.Jobs.find jobs id with
                | Some st when Qcr_net.Jobs.is_terminal st ->
                    emit (Qcr_net.Session.job_state_reply id st)
                | Some _ ->
                    ignore (Qcr_net.Jobs.run_next jobs);
                    drive ()
                | None ->
                    emit
                      (Protocol.job_error_reply ~kind:"unknown_job" ~job:id
                         ~message:(Printf.sprintf "job %S vanished while waiting" id))
              in
              drive ()
        in
        (try
           while true do
             let line = input_line stdin in
             if String.trim line <> "" then begin
               emit_reaction (Qcr_net.Session.handle session ~client:0 line);
               while Qcr_net.Jobs.run_next jobs <> None do
                 ()
               done;
               (* span buffers are per-request; counters, histograms and
                  meters keep accumulating across the loop *)
               Qcr_obs.Obs.clear_spans ();
               write_metrics_out metrics_out
             end
           done
         with End_of_file -> ());
        finish ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve compile requests as JSON lines — version-2 typed wire protocol \
             (README \"Serving\" has the spec) — over stdio, or over TCP with \
             $(b,--listen).  Synchronous ops: bare request objects or \
             {\"op\":\"compile\"}; async job ops: {\"op\":\"submit\"} answers with a \
             job id immediately and $(b,poll)/$(b,wait)/$(b,cancel)/$(b,result) \
             retrieve status and replies; control ops $(b,health), $(b,stats), \
             $(b,metrics) (registry snapshot as JSON plus Prometheus text) and \
             $(b,flush) (persist the cache to $(b,--cache-dir) immediately; it is \
             also flushed at EOF/shutdown).  $(b,--journal-dir) adds a write-ahead \
             job journal: admitted submits survive crashes — even $(b,kill -9) — \
             and are restored or recomputed on restart, with \"idem\" keys deduping \
             resubmits to the original job ({\"op\":\"jobs\"} lists the live table). \
             Version-1 lines (no \"v\" field) are still accepted; every reply is \
             stamped with \"v\":2.")
    Term.(const run $ batch_arg $ listen_arg $ max_queue_arg $ journal_dir_arg
          $ cache_dir_arg $ metrics_out_arg $ eventlog_arg $ slow_ms_arg $ trace_arg
          $ metrics_arg $ domains_arg $ inject_arg)

let () =
  (* QCR_FAULTS arms process-wide fault injection before any command
     runs; --inject (parsed later by cmdliner) overrides it. *)
  (match Fault.arm_from_env () with
  | Ok _ -> ()
  | Error e -> die_usage "QCR_FAULTS: %s" e);
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"on runtime failure: malformed input files, I/O errors.";
      Cmd.Exit.info 2
        ~doc:"on usage errors: unknown options or commands, nonexistent file arguments, \
              malformed option values (including $(b,--inject) and $(b,QCR_FAULTS) \
              fault specs).";
    ]
  in
  let info = Cmd.info "qcr_cli" ~exits ~doc:"Regular-architecture quantum compiler tools." in
  let code =
    Cmd.eval (Cmd.group info [ compile_cmd; ata_cmd; solve_cmd; qaoa_cmd; batch_cmd; serve_cmd ])
  in
  (* cmdliner reports CLI parse errors as 124; fold that into the
     documented usage code. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
