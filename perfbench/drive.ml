(* The closed-loop client: one process, one thread, one connection.  Sync
   workloads keep one [compile] in flight; the async workload keeps up to
   [window] jobs in flight, each as submit -> ack -> wait, and sends the
   next submit only when a job's terminal reply arrives. *)

module Json = Qcr_obs.Json
module Client = Qcr_net.Client

let recv_timeout_s = 120.0

let str_member k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let num_member k j = match Json.member k j with Some (Json.Num x) -> Some x | _ -> None

let recv_json client =
  match Client.recv_line ~timeout_s:recv_timeout_s client with
  | Error e -> failwith ("server connection: " ^ e)
  | Ok line -> (
      match Json.of_string line with
      | Ok j -> j
      | Error e -> failwith (Printf.sprintf "unparseable reply %S: %s" line e))

(* The fields of a compile reply the benchmark checks and sums.  Whole
   replies are not kept: for a long async run they would make the
   client's heap, which the traced run measures, grow with the run. *)
type summary = { status : string; depth : int; cx : int; swaps : int; digest : string }

let summary j =
  let int k = int_of_float (Option.value ~default:0.0 (num_member k j)) in
  let str k = Option.value ~default:"" (str_member k j) in
  { status = str "status"; depth = int "depth"; cx = int "cx"; swaps = int "swaps"; digest = str "circuit_digest" }

(* One timed operation: a sync compile, or a whole async job. *)
type op = {
  reply : summary;  (** of the compile reply (embedded under "reply" for jobs) *)
  latency_ms : float;
  ok : bool;  (** reply status "ok" (and, for a job, state "done") *)
}

let compile_ok reply = str_member "status" reply = Some "ok"

(* [on_done] sees every operation as it completes. *)
let run_sync ~on_done client lines =
  Array.map
    (fun line ->
      let t0 = Unix.gettimeofday () in
      Client.send_line client line;
      let reply = recv_json client in
      let t1 = Unix.gettimeofday () in
      let op = { reply = summary reply; latency_ms = (t1 -. t0) *. 1000.0; ok = compile_ok reply } in
      on_done op;
      op)
    lines

(* Acks come back in submit order (the server answers each line as it
   reads it), so a FIFO of sent-but-unacked submits maps each ack to its
   operation; terminal wait replies name their job id.  An ack that is a
   refusal (e.g. overloaded) ends that operation as failed. *)
let run_async ~on_done client ~window lines =
  let n = Array.length lines in
  let ops = Array.make n { reply = summary Json.Null; latency_ms = 0.0; ok = false } in
  let sent_at = Array.make n 0.0 in
  let unacked = Queue.create () in
  let by_job = Hashtbl.create (2 * window) in
  let next = ref 0 and finished = ref 0 in
  let send_next () =
    if !next < n then begin
      let i = !next in
      incr next;
      Queue.push i unacked;
      sent_at.(i) <- Unix.gettimeofday ();
      Client.send_line client lines.(i)
    end
  in
  let finish i reply ok =
    ops.(i) <-
      { reply = summary reply; latency_ms = (Unix.gettimeofday () -. sent_at.(i)) *. 1000.0; ok };
    on_done ops.(i);
    incr finished;
    send_next ()
  in
  for _ = 1 to min window n do
    send_next ()
  done;
  while !finished < n do
    let j = recv_json client in
    match (str_member "job" j, Json.member "reply" j) with
    | Some job, Some reply -> (
        match Hashtbl.find_opt by_job job with
        | Some i ->
            Hashtbl.remove by_job job;
            finish i reply (str_member "state" j = Some "done" && compile_ok reply)
        | None -> failwith ("terminal reply for unknown job " ^ job))
    | Some job, None when str_member "state" j = Some "queued" ->
        let i = Queue.pop unacked in
        Hashtbl.replace by_job job i;
        Client.send_line client (Gen.wait_line job)
    | _ ->
        (* a refused submit: its ack is the typed error reply *)
        finish (Queue.pop unacked) j false
  done;
  ops

let run ?(on_done = ignore) client ~async ~window lines =
  if async then run_async ~on_done client ~window lines else run_sync ~on_done client lines

(* ---------- blocks ---------- *)

(* [size] consecutive completions of the timed phase: the wall time and
   server CPU time between the completions that bound it, and the
   latencies of its operations. *)
type block = {
  wall_s : float;
  cpu_s : float;
  lat_ms : float array;  (** latencies of its operations, in completion order *)
}

(* An [on_done] callback that cuts the operations into blocks, reading
   the clock and [cpu] at every [size]-th completion, and the blocks so
   far; a trailing partial block is dropped. *)
let block_recorder ~size ~cpu =
  let blocks = ref [] and lat = Array.make size 0.0 and k = ref 0 in
  let t = ref (Unix.gettimeofday ()) and c = ref (cpu ()) in
  let on_done op =
    lat.(!k) <- op.latency_ms;
    incr k;
    if !k = size then begin
      let t' = Unix.gettimeofday () and c' = cpu () in
      blocks := { wall_s = t' -. !t; cpu_s = c' -. !c; lat_ms = Array.copy lat } :: !blocks;
      t := t';
      c := c';
      k := 0
    end
  in
  (on_done, fun () -> List.rev !blocks)

(* Seconds in a window of blocks: long enough to hold the program's own
   slow events (collections, queue build-ups), so that a window's speed
   follows the host's state rather than those events. *)
let window_s = 1.0

(* The latencies of the fastest tenth of the run's windows.  A window is
   a run of consecutive blocks lasting at least [window_s] (a shorter
   remainder joins the last window); windows are ranked by wall time per
   block. *)
let fast_window_latencies blocks =
  let rec windows acc cur cur_s = function
    | [] -> (
        match (cur, acc) with
        | [], _ -> List.rev acc
        | _, last :: rest -> List.rev ((cur @ last) :: rest)
        | _, [] -> [ cur ])
    | b :: rest ->
        let cur = b :: cur and cur_s = cur_s +. b.wall_s in
        if cur_s >= window_s then windows (cur :: acc) [] 0.0 rest else windows acc cur cur_s rest
  in
  let per_block w = List.fold_left (fun s b -> s +. b.wall_s) 0.0 w /. float_of_int (List.length w) in
  let ranked =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (List.map (fun w -> (per_block w, w)) (windows [] [] 0.0 blocks))
  in
  let k = Tail.rank (List.length ranked) 10 in
  Array.concat (List.concat_map (fun (_, w) -> List.map (fun b -> b.lat_ms) w) (List.filteri (fun i _ -> i < k) ranked))

let control client op =
  Client.send_line client (Json.to_string (Qcr_service.Protocol.encode op));
  recv_json client

(* Cumulative server counters behind the cross-check of the traced
   replay: cache hits and misses, and journal appends. *)
type counters = { hits : int; misses : int; journal_appends : int; shed : int }

let counters client =
  let stats = control client Qcr_service.Protocol.Op.Stats in
  let metrics = control client Qcr_service.Protocol.Op.Metrics in
  let int_at path j =
    let rec go j = function
      | [] -> ( match j with Json.Num x -> int_of_float x | _ -> 0)
      | k :: rest -> ( match Json.member k j with Some j' -> go j' rest | None -> 0)
    in
    go j path
  in
  {
    hits = int_at [ "stats"; "cache_hits" ] stats;
    misses = int_at [ "stats"; "cache_misses" ] stats;
    journal_appends = int_at [ "metrics"; "counters"; "net.journal_appends" ] metrics;
    shed = int_at [ "jobs"; "shed" ] stats;
  }

let counters_sub a b =
  {
    hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    journal_appends = a.journal_appends - b.journal_appends;
    shed = a.shed - b.shed;
  }

(* Σ compiled 2q depth and Σ CX count over the replies that compiled. *)
let quality_sums ops =
  Array.fold_left
    (fun (d, c) op -> if op.ok then (d + op.reply.depth, c + op.reply.cx) else (d, c))
    (0, 0) ops

(* ---------- one end-to-end run ---------- *)

type e2e = {
  setup_s : float list;  (** one per set-up: spawn, health, warm-up *)
  warmup_failed : int;  (** non-ok warm-up replies, over every set-up *)
  warmup_ops : int;
  ops : op array;  (** the timed list, in order *)
  blocks : block list;  (** the timed phase in blocks of [spec.block] completions *)
  wall_s : float;  (** of the timed phase *)
  server_cpu_s : float;  (** over the timed phase *)
  rss_mb : float;  (** server VmHWM at the end of the run *)
  counts : counters;  (** server counter deltas over the timed phase *)
}

let failed ops = Array.fold_left (fun n op -> if op.ok then n else n + 1) 0 ops

(* Spawn a server, bring it to the state the timed phase starts from —
   listening, answering [health], and past the workload's warm-up — and
   run [f] on it; the server is stopped however [f] ends. *)
let with_server ~exe ~domains ~dir (spec : Gen.t) f =
  let args =
    if spec.Gen.async then
      [ "--journal-dir"; Filename.concat dir "journal"; "--cache-dir"; Filename.concat dir "cache" ]
    else []
  in
  let t0 = Unix.gettimeofday () in
  let server = Proc.spawn ~exe ~domains ~args in
  Fun.protect
    ~finally:(fun () -> Proc.stop server)
    (fun () ->
      let client = Client.connect ~port:server.Proc.port () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let health = control client Qcr_service.Protocol.Op.Health in
          if str_member "status" health <> Some "ok" then failwith "health check failed";
          let warm = run client ~async:spec.Gen.async ~window:spec.Gen.window spec.Gen.warmup in
          f server client (Unix.gettimeofday () -. t0) warm))

let e2e ~exe ~domains ~tmp ~setups (spec : Gen.t) =
  let dir i = Filename.concat tmp (Printf.sprintf "server-%d" i) in
  (* the earlier set-ups only time themselves *)
  let earlier =
    List.init (setups - 1) (fun i ->
        with_server ~exe ~domains ~dir:(dir (i + 1)) spec (fun _ _ s warm -> (s, warm)))
  in
  with_server ~exe ~domains ~dir:(dir setups) spec (fun server client s warm ->
      let before = counters client in
      let cpu0 = Proc.cpu_seconds server in
      let on_done, blocks =
        block_recorder ~size:spec.Gen.block ~cpu:(fun () -> Proc.cpu_seconds server)
      in
      let t0 = Unix.gettimeofday () in
      let ops = run ~on_done client ~async:spec.Gen.async ~window:spec.Gen.window spec.Gen.timed in
      let wall_s = Unix.gettimeofday () -. t0 in
      let cpu1 = Proc.cpu_seconds server in
      let after = counters client in
      let all = earlier @ [ (s, warm) ] in
      {
        setup_s = List.map fst all;
        warmup_failed = List.fold_left (fun n (_, w) -> n + failed w) 0 all;
        warmup_ops = List.fold_left (fun n (_, w) -> n + Array.length w) 0 all;
        ops;
        blocks = blocks ();
        wall_s;
        server_cpu_s = cpu1 -. cpu0;
        rss_mb = Proc.peak_rss_mb server;
        counts = counters_sub after before;
      })
