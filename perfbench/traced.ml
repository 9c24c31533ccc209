(* The traced run: the workload's lines replayed in-process through the
   code the server runs per line — [Protocol.decode], [Session.handle],
   [Jobs.run_next] until idle, and [Json.to_string] of each reply — with
   the sink on, as in [qcr_cli serve].

   What it records:
   - the time of each of those calls, taken here, and of the
     [Service.submit] calls [Jobs] makes (through the [~submit] wrapper);
   - the program's own phase spans and counters ([service.compile_cold],
     [pipeline.*], [greedy.*]);
   - separately, on the same inputs: [Compile_request.cache_key], the
     request realization ([arch_of], [program_of], [noise_of]),
     [Compile_reply.metrics_of_result] and [to_json], and the journal
     appends;
   - Gc deltas over the replay.

   A layer's self time is its span minus its child spans; a separately
   timed call is subtracted from the boundary that contains it.  The
   per-layer self times plus an explicit [unaccounted] row sum to the
   traced per-request total.  The async workload is replayed a window at
   a time (the window's submits, then the queue until idle, then the
   window's waits), which is the order the server sees a burst of
   pipelined submits in, so queue wait is measured as a job sees it. *)

module Json = Qcr_obs.Json
module Obs = Qcr_obs.Obs
module Service = Qcr_service.Service
module Protocol = Qcr_service.Protocol
module Request = Qcr_service.Compile_request
module Reply = Qcr_service.Compile_reply
module Jobs = Qcr_net.Jobs
module Journal = Qcr_net.Journal
module Session = Qcr_net.Session
module Pipeline = Qcr_core.Pipeline
module Pool = Qcr_par.Pool

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The median and the mean, 0 for no samples (a layer the workload never
   reaches). *)
let median0 xs = if xs = [] then 0.0 else Tail.median (Array.of_list xs)

let mean0 xs = if xs = [] then 0.0 else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Wall time of one call of [f], as the program makes it.  A call too
   short for the clock's microsecond granularity is repeated until the
   total is long enough; only such calls are looped, because a loop of
   allocating calls pays garbage-collection work that a single call in
   the program would leave to later phases. *)
let mean_time f =
  let _, once = time (fun () -> ignore (Sys.opaque_identity (f ()))) in
  let rec go reps =
    let _, dt = time (fun () -> for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done) in
    if dt >= 0.002 then dt /. float_of_int reps else go (2 * reps)
  in
  if once >= 50e-6 then once else go 1

(* ---------- spans to layers ---------- *)

(* A span of a name not listed counts toward its nearest listed
   ancestor's layer (e.g. [swapnet.realize] inside materialization). *)
let layer_of_span = function
  | "service.compile_cold" -> Some "service"
  | "pipeline.placement" | "pipeline.placement_selection" -> Some "placement"
  | "pipeline.greedy" -> Some "greedy"
  | "pipeline.checkpoint_predict" -> Some "predict"
  | "pipeline.greedy_replay" -> Some "replay"
  | "pipeline.ata_materialize" -> Some "materialize"
  | "pipeline.finalize" -> Some "finalize"
  | s when String.starts_with ~prefix:"pipeline." s -> Some "pipeline"
  | _ -> None

type spans = {
  self_s : (string, float) Hashtbl.t;  (** self seconds per layer *)
  mutable cold_s : float;  (** Σ service.compile_cold *)
  mutable run_s : float;  (** Σ pipeline.run *)
}

let new_spans () = { self_s = Hashtbl.create 16; cold_s = 0.0; run_s = 0.0 }

let self_of acc layer = Option.value ~default:0.0 (Hashtbl.find_opt acc.self_s layer)

(* Fold the spans recorded since the last call into [acc] and clear
   them.  Spans come in order of their start with their nesting depth,
   so the latest span one level up is a span's parent. *)
let collect acc =
  let arr = Array.of_list (Obs.spans ()) in
  Obs.clear_spans ();
  let n = Array.length arr in
  let parent = Array.make n (-1) and children_s = Array.make n 0.0 in
  let latest = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      let d = s.Obs.span_depth in
      (match Hashtbl.find_opt latest (d - 1) with
      | Some p when d > 0 ->
          parent.(i) <- p;
          children_s.(p) <- children_s.(p) +. s.Obs.span_dur
      | _ -> ());
      Hashtbl.replace latest d i)
    arr;
  let rec layer i =
    match layer_of_span arr.(i).Obs.span_name with
    | Some l -> l
    | None -> if parent.(i) < 0 then "other" else layer parent.(i)
  in
  Array.iteri
    (fun i s ->
      let l = layer i in
      Hashtbl.replace acc.self_s l (self_of acc l +. s.Obs.span_dur -. children_s.(i));
      if s.Obs.span_name = "service.compile_cold" then acc.cold_s <- acc.cold_s +. s.Obs.span_dur;
      if s.Obs.span_name = "pipeline.run" then acc.run_s <- acc.run_s +. s.Obs.span_dur)
    arr

(* ---------- the replay harness ---------- *)

(* The [Service.submit] calls [Jobs.run_next] makes, timed through the
   [~submit] wrapper.  One client owns every job, so [run_next] runs them
   in admission order and the wrapper's k-th call is the k-th admitted
   job. *)
type submits = {
  mutable submit_s : float;
  mutable hit_s : float;
  mutable hits : int;
  admitted : float Queue.t;  (** admission times of queued jobs, in order *)
  mutable waits_s : float list;  (** queue wait of each job run *)
}

type harness = {
  service : Service.t;
  jobs : Jobs.t;
  session : Session.t;
  subs : submits;
}

let harness ?journal service =
  let subs = { submit_s = 0.0; hit_s = 0.0; hits = 0; admitted = Queue.create (); waits_s = [] } in
  let submit req =
    let t0 = now () in
    (match Queue.take_opt subs.admitted with
    | Some a -> subs.waits_s <- (t0 -. a) :: subs.waits_s
    | None -> ());
    let reply = Service.submit service req in
    let dt = now () -. t0 in
    subs.submit_s <- subs.submit_s +. dt;
    if reply.Reply.cached then begin
      subs.hit_s <- subs.hit_s +. dt;
      subs.hits <- subs.hits + 1
    end;
    reply
  in
  let jobs = Jobs.create ?journal ~submit () in
  { service; jobs; session = Session.create ~service ~jobs (); subs }

(* Boundary times of one replay, summed. *)
type bounds = {
  mutable decode_s : float;
  mutable handle_s : float;
  mutable run_next_s : float;
  mutable encode_s : float;
  mutable reply_bytes : int;
  mutable replies : int;
  mutable sampled : Json.t list;  (** every [sample_every]-th compile reply *)
  mutable depth_sum : int;
  mutable cx_sum : int;
  mutable failed : int;
}

(* Replies kept for the separately timed [to_json]; keeping them all would
   make the replay's own heap the largest thing it measures. *)
let sample_every = 64

let new_bounds () =
  {
    decode_s = 0.0;
    handle_s = 0.0;
    run_next_s = 0.0;
    encode_s = 0.0;
    reply_bytes = 0;
    replies = 0;
    sampled = [];
    depth_sum = 0;
    cx_sum = 0;
    failed = 0;
  }

(* One wire line as the server handles it; returns the reply object. *)
let line h b l =
  let _, td = time (fun () -> Protocol.decode l) in
  let reaction, th = time (fun () -> Session.handle h.session ~client:1 l) in
  let reply =
    match reaction with
    | Session.Reply j -> j
    | Session.Wait_for id -> failwith ("traced replay: job " ^ id ^ " not terminal at its wait")
  in
  let s, te = time (fun () -> Json.to_string reply) in
  b.decode_s <- b.decode_s +. td;
  b.handle_s <- b.handle_s +. th;
  b.encode_s <- b.encode_s +. te;
  b.reply_bytes <- b.reply_bytes + String.length s + 1;
  reply

let run_queue h b =
  let rec go () =
    let r, dt = time (fun () -> Jobs.run_next h.jobs) in
    b.run_next_s <- b.run_next_s +. dt;
    if r <> None then go ()
  in
  go ()

let record b reply =
  let s = Drive.summary reply in
  if s.Drive.status = "ok" then begin
    b.depth_sum <- b.depth_sum + s.Drive.depth;
    b.cx_sum <- b.cx_sum + s.Drive.cx
  end
  else b.failed <- b.failed + 1;
  if b.replies mod sample_every = 0 then b.sampled <- reply :: b.sampled;
  b.replies <- b.replies + 1

(* Replay [lines]; [on_step] runs after each unit of work (a sync line,
   or a window of jobs) and is where spans are collected. *)
let replay ~(spec : Gen.t) h b ~on_step lines =
  if not spec.Gen.async then
    Array.iter
      (fun l ->
        record b (line h b l);
        run_queue h b;
        on_step ())
      lines
  else begin
    let n = Array.length lines in
    let i = ref 0 in
    while !i < n do
      let window = Array.sub lines !i (min spec.Gen.window (n - !i)) in
      i := !i + Array.length window;
      let ids =
        Array.to_list window
        |> List.filter_map (fun l ->
               let ack = line h b l in
               match Drive.str_member "job" ack with
               | Some id ->
                   Queue.push (now ()) h.subs.admitted;
                   Some id
               | None ->
                   b.failed <- b.failed + 1;
                   None)
      in
      run_queue h b;
      List.iter
        (fun id ->
          let j = line h b (Gen.wait_line id) in
          match Json.member "reply" j with
          | Some reply when Drive.str_member "state" j = Some "done" -> record b reply
          | _ -> b.failed <- b.failed + 1)
        ids;
      on_step ()
    done
  end

let counter snap name = Option.value ~default:0 (List.assoc_opt name snap.Obs.snap_counters)

(* ---------- separately timed calls ---------- *)

let realize r =
  let arch = Request.arch_of r in
  ignore (Sys.opaque_identity (Request.program_of r, Request.noise_of r arch))

(* At most [k] elements of [xs], evenly spaced. *)
let spread_sample k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n <= k then xs else List.init k (fun i -> a.(i * n / k))

(* ---------- comparisons ---------- *)

(* Wall per request of Pipeline.run over [reqs] at [domains]. *)
let compile_wall ~domains reqs =
  Pool.set_default_domains domains;
  let results, dt =
    time (fun () ->
        List.map
          (fun r ->
            let _, preq = Check.pipeline_request r in
            (r, Pipeline.run preq))
          reqs)
  in
  (results, dt /. float_of_int (max 1 (List.length reqs)))

(* Per-op wall of replaying [lines] through a fresh harness: over the
   warm [service] for the hit workload, a fresh one for compile
   workloads, so both sides do the same work. *)
let prefix_wall ~spec ~service ?journal ~sink lines =
  if sink then Obs.enable () else Obs.disable ();
  let service = match service with Some s -> s | None -> Service.create () in
  let h = harness ?journal service in
  let b = new_bounds () in
  let _, dt = time (fun () -> replay ~spec h b ~on_step:Obs.clear_spans lines) in
  Obs.enable ();
  Obs.clear_spans ();
  dt /. float_of_int (Array.length lines)

(* ---------- the main replay ---------- *)

type replayed = {
  h : harness;
  b : bounds;  (** boundary times of the timed lines *)
  acc : spans;  (** program spans of the timed lines *)
  stats : Service.stats;  (** service counter deltas over the timed lines *)
  appends : int;  (** journal appends over the timed lines *)
  journal_bytes : int;
  append_failed : int;
  wall : float;
  cpu : float;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  snap : Obs.snapshot;  (** counters of the timed lines *)
  depth_sum : int;
  cx_sum : int;
}

(* Warm-up lines, then the timed lines, through a harness set up like the
   server: with the sink on, and for the async workload with a job
   journal in [dir]. *)
let main_replay ~(spec : Gen.t) ~dir =
  let journal =
    if spec.Gen.async then
      match Journal.open_dir (Filename.concat dir "traced-journal") with
      | Ok j -> Some j
      | Error e -> failwith e
    else None
  in
  Obs.enable ();
  Obs.reset ();
  let service = Service.create () in
  let h = harness ?journal service in
  replay ~spec h (new_bounds ()) ~on_step:Obs.clear_spans spec.Gen.warmup;
  h.subs.submit_s <- 0.0;
  h.subs.hit_s <- 0.0;
  h.subs.hits <- 0;
  h.subs.waits_s <- [];
  Obs.reset ();
  let b = new_bounds () and acc = new_spans () in
  let st0 = Service.stats service in
  let journal_count f = Option.fold ~none:0 ~some:f journal in
  let appends0 = journal_count Journal.appends and bytes0 = journal_count Journal.bytes in
  let gc0 = Gc.quick_stat () and cpu0 = Sys.time () in
  let _, wall = time (fun () -> replay ~spec h b ~on_step:(fun () -> collect acc) spec.Gen.timed) in
  let cpu = Sys.time () -. cpu0 and gc1 = Gc.quick_stat () in
  let snap = Obs.snapshot () in
  let appends = journal_count Journal.appends - appends0 in
  let journal_bytes = journal_count Journal.bytes - bytes0 in
  let append_failed = journal_count Journal.append_failed in
  Option.iter Journal.close journal;
  {
    h;
    b;
    acc;
    stats = Service.stats_sub (Service.stats service) st0;
    appends;
    journal_bytes;
    append_failed;
    wall;
    cpu;
    gc0;
    gc1;
    snap;
    depth_sum = b.depth_sum;
    cx_sum = b.cx_sum;
  }

(* ---------- the run ---------- *)

type t = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  consistent : bool;  (** counts and sums equal the end-to-end run's *)
}

(* Ops in a comparison prefix and distinct requests compiled for the
   pool comparison, per workload: about a second or two of work each. *)
let prefix_ops = function Gen.Qaoa_sweep -> 48 | Gen.Compile_1k -> 3 | Gen.Suite_rerun -> 32 * Gen.suite_size

let pool_reqs = function Gen.Qaoa_sweep -> 24 | Gen.Compile_1k -> 2 | Gen.Suite_rerun -> 36

let run ~(spec : Gen.t) ~domains ~tmp ~(e2e : Drive.e2e) =
  let w = spec.Gen.workload in
  Obs.disable ();
  (* ATA schedule build: the first compile on a device in this process
     minus the median of three warm compiles of the same request. *)
  let firsts =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun r ->
        let k = r.Request.arch_kind in
        if Hashtbl.mem seen k then false else (Hashtbl.add seen k (); true))
      (List.map snd (Gen.distinct spec.Gen.warmup))
  in
  Pool.set_default_domains domains;
  let ata_build_s =
    List.map
      (fun r ->
        let _, preq = Check.pipeline_request r in
        let _, cold = time (fun () -> Pipeline.run preq) in
        let warm = median0 (List.init 3 (fun _ -> snd (time (fun () -> Pipeline.run preq)))) in
        cold -. warm)
      firsts
  in
  let dir name = Filename.concat tmp name in
  let m = main_replay ~spec ~dir:tmp in
  let { h; b; acc; stats = st; appends; journal_bytes; append_failed; wall; cpu; gc0; gc1; snap; _ } = m in
  let service = h.service in
  let n_ops = Array.length spec.Gen.timed in
  let n = float_of_int n_ops in
  let misses = st.Service.cache_misses in
  let per_miss x = if misses = 0 then 0.0 else x /. float_of_int misses in
  let depth_sum, cx_sum = (m.depth_sum, m.cx_sum) in
  (* separately timed calls, on the same inputs *)
  Obs.disable ();
  let reqs = List.map snd (Gen.distinct spec.Gen.timed) in
  (* every distinct request occurs equally often in a timed list, so a
     sample's mean stands for the list *)
  let timing_sample = spread_sample 64 reqs in
  let key_s =
    n *. mean0 (List.map (fun r -> mean_time (fun () -> Request.cache_key r)) timing_sample)
  in
  let realize_each = List.map (fun r -> mean_time (fun () -> realize r)) timing_sample in
  let realize_mean = mean0 realize_each in
  let realize_s = float_of_int misses *. realize_mean in
  let reply_ts = spread_sample 64 b.sampled in
  let to_json_mean =
    mean0
      (List.filter_map
         (fun j ->
           match Reply.of_json j with
           | Ok r -> Some (mean_time (fun () -> Reply.to_json r))
           | Error _ -> None)
         reply_ts)
  in
  let to_json_s = n *. to_json_mean in
  let journal_admit_s, journal_outcome_s =
    if not spec.Gen.async then (0.0, 0.0)
    else
      match Journal.open_dir (dir "scratch-journal") with
      | Error e -> failwith e
      | Ok jr ->
          let sample = spread_sample 512 reqs in
          let reply =
            match b.sampled with
            | j :: _ -> ( match Reply.of_json j with Ok r -> r | Error e -> failwith e)
            | [] -> failwith "traced replay: no replies"
          in
          let seq = ref 0 in
          let admit_t = ref 0.0 and outcome_t = ref 0.0 in
          List.iter
            (fun r ->
              incr seq;
              let _, ta = time (fun () -> Journal.admit jr ~seq:!seq r) in
              let _, to_ = time (fun () -> Journal.outcome jr ~seq:!seq ~state:"done" reply) in
              admit_t := !admit_t +. ta;
              outcome_t := !outcome_t +. to_)
            sample;
          Journal.close jr;
          let k = float_of_int (max 1 !seq) in
          (n *. !admit_t /. k, n *. !outcome_t /. k)
  in
  (* pool comparison; its results also time the reply digest *)
  let pool_set = spread_sample (pool_reqs w) reqs in
  let results1, wall1 = compile_wall ~domains:1 pool_set in
  let _, wall2 = compile_wall ~domains:2 pool_set in
  Pool.set_default_domains domains;
  let digest_mean =
    mean0
      (List.filter_map
         (function
           | _, Ok res -> Some (mean_time (fun () -> Reply.metrics_of_result res))
           | _, Error _ -> None)
         results1)
  in
  let digest_s = float_of_int misses *. digest_mean in
  (* sink and journal comparisons over a prefix, alternated *)
  let prefix = Array.sub spec.Gen.timed 0 (min (prefix_ops w) n_ops) in
  let warm = if spec.Gen.async then Some service else None in
  let alternate ~reps a b_ =
    let xs = ref [] and ys = ref [] in
    for _ = 1 to reps do
      xs := a () :: !xs;
      ys := b_ () :: !ys
    done;
    (median0 !xs, median0 !ys)
  in
  let reps = 3 in
  let sink_off, sink_on =
    alternate ~reps
      (fun () -> prefix_wall ~spec ~service:warm ~sink:false prefix)
      (fun () -> prefix_wall ~spec ~service:warm ~sink:true prefix)
  in
  let journal_cost_s =
    if not spec.Gen.async then 0.0
    else
      let k = ref 0 in
      let without, with_ =
        alternate ~reps
          (fun () -> prefix_wall ~spec ~service:warm ~sink:true prefix)
          (fun () ->
            incr k;
            match Journal.open_dir (dir (Printf.sprintf "cost-journal-%d" !k)) with
            | Error e -> failwith e
            | Ok jr ->
                Fun.protect
                  ~finally:(fun () -> Journal.close jr)
                  (fun () -> prefix_wall ~spec ~service:warm ~journal:jr ~sink:true prefix))
      in
      with_ -. without
  in
  Obs.enable ();
  (* accounting: per-layer self time per request, in ms *)
  let ms x = x *. 1000.0 /. n in
  let sync_handle_service = if spec.Gen.async then 0.0 else acc.cold_s +. key_s in
  let async_submit = if spec.Gen.async then h.subs.submit_s else 0.0 in
  let rows =
    [
      ("protocol", ms (b.decode_s +. b.encode_s));
      ( "session",
        ms (b.handle_s -. b.decode_s -. sync_handle_service -. to_json_s -. journal_admit_s) );
      ("jobs", ms (b.run_next_s -. async_submit -. journal_outcome_s));
      ("journal", ms (journal_admit_s +. journal_outcome_s));
      ( "service",
        ms
          ((if spec.Gen.async then h.subs.submit_s -. key_s -. acc.cold_s else 0.0)
          +. self_of acc "service" -. realize_s -. digest_s) );
      ("request", ms (key_s +. realize_s));
      ("placement", ms (self_of acc "placement"));
      ("greedy", ms (self_of acc "greedy"));
      ("predict", ms (self_of acc "predict"));
      ("replay", ms (self_of acc "replay"));
      ("materialize", ms (self_of acc "materialize"));
      ("finalize", ms (self_of acc "finalize"));
      ("pipeline", ms (self_of acc "pipeline" +. self_of acc "other"));
      ("reply", ms (digest_s +. to_json_s));
    ]
  in
  (* the separately timed decode is a duplicate of the one inside
     handle, so it is not part of the per-request total *)
  let total_ms = ms (wall -. b.decode_s) in
  let accounted = List.fold_left (fun s (_, v) -> s +. v) 0.0 rows in
  let unaccounted_ms = total_ms -. accounted in
  Printf.eprintf "traced accounting (ms per request, %d requests):\n" n_ops;
  List.iter
    (fun (l, v) -> Printf.eprintf "  %-12s %12.5f  %5.1f%%\n" l v (100.0 *. v /. total_ms))
    (rows @ [ ("unaccounted", unaccounted_ms) ]);
  Printf.eprintf "  %-12s %12.5f\n%!" "total" total_ms;
  (* cross-check against the end-to-end run of the same seed *)
  let e2e_depth, e2e_cx = Drive.quality_sums e2e.Drive.ops in
  let checks =
    [
      ("cache hits", st.Service.cache_hits, e2e.Drive.counts.Drive.hits);
      ("cache misses", misses, e2e.Drive.counts.Drive.misses);
      ("journal appends", appends, e2e.Drive.counts.Drive.journal_appends);
      ("depth_sum", depth_sum, e2e_depth);
      ("cx_sum", cx_sum, e2e_cx);
      ("failed replies", b.failed, Drive.failed e2e.Drive.ops);
    ]
  in
  let consistent =
    List.for_all
      (fun (what, traced, e2e) ->
        if traced <> e2e then
          Printf.eprintf "perfbench: traced %s = %d, end-to-end %d\n%!" what traced e2e;
        traced = e2e)
      checks
  in
  let jobs = if spec.Gen.async then n else 0.0 in
  let per_job x = if jobs = 0.0 then 0.0 else x /. jobs in
  let us x = x *. 1e6 /. n in
  let cpu_us_per_req = (cpu -. b.decode_s) *. 1e6 /. n in
  let e2e_cpu_us = e2e.Drive.server_cpu_s *. 1e6 /. n in
  let c name = float_of_int (counter snap name) in
  let checkpoints = c "pipeline.checkpoints_recorded" in
  let minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let metrics =
    [
      ("server.residual_cpu_us_per_req", "us", e2e_cpu_us -. cpu_us_per_req);
      ("protocol.decode_us", "us", us b.decode_s);
      ("protocol.encode_us", "us", us b.encode_s);
      ("protocol.reply_bytes", "B", float_of_int b.reply_bytes /. n);
      ("session.self_us", "us", List.assoc "session" rows *. 1000.0);
      ("jobs.queue_wait_ms_p50", "ms", median0 h.subs.waits_s *. 1000.0);
      ("jobs.self_us", "us", List.assoc "jobs" rows *. 1000.0);
      ("jobs.shed", "count", float_of_int e2e.Drive.counts.Drive.shed);
      ("journal.appends_per_job", "count", per_job (float_of_int appends));
      ("journal.bytes_per_job", "B", per_job (float_of_int journal_bytes));
      ("journal.cost_us_per_job", "us", journal_cost_s *. 1e6);
      ("journal.append_failed", "count", float_of_int append_failed);
      ( "service.hit_ratio",
        "ratio",
        float_of_int st.Service.cache_hits /. float_of_int (max 1 (st.Service.cache_hits + misses)) );
      ("service.hit_us", "us", if h.subs.hits = 0 then 0.0 else h.subs.hit_s *. 1e6 /. float_of_int h.subs.hits);
      ( "service.miss_overhead_ms",
        "ms",
        if misses = 0 then 0.0 else per_miss ((acc.cold_s -. acc.run_s) *. 1000.0) +. (key_s *. 1000.0 /. n) );
      ("service.tier_attempts_per_miss", "count", per_miss (c "service.tier_attempts"));
      ("service.retries", "count", float_of_int st.Service.retries);
      ("request.key_us", "us", us key_s);
      ("request.realize_ms", "ms", realize_mean *. 1000.0);
      ("placement.self_ms", "ms", per_miss (self_of acc "placement" *. 1000.0));
      ("placement.candidates_per_compile", "count", per_miss (c "pipeline.placements_tried"));
      ("pool.speedup", "ratio", wall1 /. wall2);
      ("greedy.self_ms", "ms", per_miss (self_of acc "greedy" *. 1000.0));
      ("greedy.cycles_per_compile", "count", per_miss (c "greedy.cycles"));
      ("greedy.swaps_per_compile", "count", per_miss (c "greedy.swaps_committed"));
      ("predict.self_ms", "ms", per_miss (self_of acc "predict" *. 1000.0));
      ("predict.checkpoints_per_compile", "count", per_miss checkpoints);
      ( "predict.win_ratio",
        "ratio",
        if checkpoints = 0.0 then 0.0
        else (c "pipeline.strategy.hybrid" +. c "pipeline.strategy.ata") /. checkpoints );
      ("replay.self_ms", "ms", per_miss (self_of acc "replay" *. 1000.0));
      ("materialize.self_ms", "ms", per_miss (self_of acc "materialize" *. 1000.0));
      ("finalize.self_ms", "ms", per_miss (self_of acc "finalize" *. 1000.0));
      ("pipeline.self_ms", "ms", per_miss ((self_of acc "pipeline" +. self_of acc "other") *. 1000.0));
      ("ata.schedule_build_ms", "ms", 1000.0 *. median0 ata_build_s);
      ("reply.digest_ms", "ms", digest_mean *. 1000.0);
      ("reply.encode_us", "us", to_json_mean *. 1e6);
      ("obs.overhead_pct", "%", 100.0 *. (sink_on -. sink_off) /. sink_off);
      ("gc.minor_mwords_per_req", "Mwords", minor_words /. 1e6 /. n);
      ( "gc.major_per_kreq",
        "count",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) *. 1000.0 /. n );
      ("gc.top_heap_mb", "MB", float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      ("layers.total_ms_per_req", "ms", total_ms);
      ("layers.unaccounted_ms_per_req", "ms", unaccounted_ms);
    ]
  in
  { metrics; consistent }
