(* Chaos soak: run a mixed batch through one [Qcr_service.Service] for
   several rounds with faults armed at every injection point the serving
   stack declares — crashing compile tiers, corrupting cache entries on
   both sides, killing pool workers — and assert the robustness
   invariants the service promises:

     1. no exception escapes the service boundary,
     2. replies come back in request order, every round,
     3. every full-quality reply (compiled at the requested tier) is
        bit-identical to the fault-free reference run.

   A second phase soaks the disk-backed cache store: segments are
   physically damaged (flipped bytes, truncated tails) and the
   [cache.load]/[cache.flush] fault points armed between warm restarts,
   asserting damaged records are evicted and recompiled — never served,
   never fatal — and that flushes self-heal the directory.

   A final phase certifies crash recovery for real: the CLI binary runs
   as a child process with a job journal, is SIGKILLed at seeded
   instants mid-burst, and is restarted over the same directories —
   every acked admission must be served bit-identically after the
   restart, deduped to its original job id by its idempotency key.

   The report goes to BENCH_chaos.json: invariant verdicts, outcome
   counts, service stats (corrupt evictions among them), the per-point
   fault table, pool supervision counts and the persist-soak verdicts.
   Any violated invariant exits non-zero, so CI can gate on it. *)

module Arch = Qcr_arch.Arch
module Graph = Qcr_graph.Graph
module Generate = Qcr_graph.Generate
module Prng = Qcr_util.Prng
module Digest64 = Qcr_util.Digest64
module Json = Qcr_obs.Json
module Fault = Qcr_fault.Fault
module Pool = Qcr_par.Pool
module Service = Qcr_service.Service
module Protocol = Qcr_service.Protocol
module Cache_store = Qcr_service.Cache_store
module Compile_request = Qcr_service.Compile_request
module Compile_reply = Qcr_service.Compile_reply

let output_file = "BENCH_chaos.json"

(* Same mixed-request shape as the service benchmark: all device
   families, all modes, some noise models, duplicates for cache
   pressure. *)
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
    ~id:(Printf.sprintf "chaos-%d" i)
    ~arch_size:(if mode = Compile_request.Portfolio then 18 else n)
    ~mode
    ?noise_seed:(if i mod 3 = 0 then Some (7 + i) else None)
    ~arch_kind:kind ~qubits:n ~edges:(Graph.edges graph) ()

(* Content digest of one reply, ignoring id/timing/cache flag — what
   "bit-identical" means across runs. *)
let reply_digest r =
  Digest64.of_string
    (Json.to_string
       (Compile_reply.strip_volatile
          (Compile_reply.to_json { r with Compile_reply.id = ""; cached = false })))

let full_quality (r : Compile_reply.t) =
  match r.Compile_reply.outcome with
  | Compile_reply.Compiled { mode; _ } -> mode = r.Compile_reply.requested_mode
  | Compile_reply.Failed _ -> false

(* The soak spec.  service.tier crashes often enough that requests fall
   down the tier ladder; both cache sides corrupt entries so digest
   validation must evict; pool.worker dies on its first task of each
   arming, exercising respawn.  All streams derive from seed=11. *)
let soak_spec =
  "seed=11,service.tier:crash:p=0.25,cache.get:corrupt:p=0.2,cache.put:corrupt:p=0.15,pool.worker:crash:nth=1"

(* ---------- persist soak: the disk-backed store under damage ----------

   Fill a cache directory from a fault-free run, then for [rounds] rounds
   alternate physical damage (a flipped byte or a truncated tail in a
   segment file) with injected [cache.load]/[cache.flush] faults, reopen
   the directory in a fresh service each round (a process restart), and
   replay the batch.  Invariants:

     - damaged records are evicted and recompiled, never served: every
       full-quality reply stays bit-identical to the reference,
     - nothing escapes: physical corruption, injected load corruption
       and injected flush crashes all surface as counters and [Error]s,
     - the store self-heals: each round's flush re-appends what damage
       removed, and a final clean reopen serves the whole batch from
       the warm cache. *)
let persist_soak ~rounds batch expected =
  Common.with_temp_dir "qcr-chaos-persist" @@ fun dir ->
  Fault.disarm ();
  let open_store () =
    match Cache_store.open_dir dir with Ok s -> s | Error e -> failwith ("open_dir: " ^ e)
  in
  let seed_service = Service.create ~store:(open_store ()) () in
  ignore (Service.run_batch seed_service batch);
  (match Service.flush seed_service with
  | Ok _ -> ()
  | Error e -> failwith ("seed flush: " ^ e));
  let n_requests = List.length batch in
  let rng = Prng.create 1107 in
  let escaped = ref [] in
  let mismatches = ref 0 in
  let ok_compared = ref 0 in
  let corrupt_total = ref 0 in
  let recompiles = ref 0 in
  let flush_errors = ref 0 in
  let damage round =
    let segs =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".qcs")
      |> List.sort compare
    in
    match segs with
    | [] -> ()
    | segs -> (
        let seg = Filename.concat dir (List.nth segs (Prng.int rng (List.length segs))) in
        let data = Common.read_file seg in
        match round mod 3 with
        | 1 when String.length data > 0 ->
            (* flip one byte anywhere: body or digest damage fails the
               digest check; key damage fails the service-side key
               check; header damage abandons the segment tail *)
            let b = Bytes.of_string data in
            let i = Prng.int rng (Bytes.length b) in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
            Common.write_file seg (Bytes.to_string b)
        | 0 -> Common.write_file seg (String.sub data 0 (String.length data * 3 / 5))
        | _ -> () (* injected faults only this round *))
  in
  for round = 1 to rounds do
    match
      damage round;
      if round mod 2 = 0 then begin
        let spec_str =
          Printf.sprintf "seed=%d,cache.load:corrupt:p=0.2,cache.flush:crash:nth=%d"
            (1200 + round)
            (1 + (round mod 5))
        in
        match Fault.spec_of_string spec_str with
        | Ok s -> Fault.arm s
        | Error e -> failwith e
      end
      else Fault.disarm ();
      let service = Service.create ~store:(open_store ()) () in
      let replies = Service.run_batch service batch in
      List.iter
        (fun (r : Compile_reply.t) ->
          if full_quality r then begin
            incr ok_compared;
            match Hashtbl.find_opt expected r.Compile_reply.key with
            | Some d when d = reply_digest r -> ()
            | Some _ | None -> incr mismatches
          end)
        replies;
      let st = Service.stats service in
      corrupt_total := !corrupt_total + st.Service.cache_corrupt;
      recompiles := !recompiles + st.Service.cache_misses;
      (* self-heal: re-append whatever the damage removed; an injected
         flush crash must surface as [Error], never corrupt state, and
         the disarmed retry must succeed *)
      (match Service.flush service with
      | Ok _ -> ()
      | Error _ -> (
          incr flush_errors;
          Fault.disarm ();
          match Service.flush service with
          | Ok _ -> ()
          | Error e -> failwith ("flush retry: " ^ e)))
    with
    | () -> ()
    | exception e ->
        escaped := Printf.sprintf "persist round %d: %s" round (Printexc.to_string e) :: !escaped
  done;
  Fault.disarm ();
  (* convergence: a clean reopen serves the whole batch warm *)
  let final_service = Service.create ~store:(open_store ()) () in
  let final_replies = Service.run_batch final_service batch in
  let final_st = Service.stats final_service in
  let final_identical =
    List.for_all
      (fun (r : Compile_reply.t) ->
        (not (full_quality r))
        || Hashtbl.find_opt expected r.Compile_reply.key = Some (reply_digest r))
      final_replies
  in
  let healed = final_st.Service.cache_hits = n_requests && final_identical in
  let no_escape = !escaped = [] in
  let bit_identical = !mismatches = 0 in
  let observed = !corrupt_total > 0 in
  Printf.printf
    "  persist: %d rounds | corrupt=%d recompiles=%d flush-errors=%d mismatches=%d healed=%b\n%!"
    rounds !corrupt_total !recompiles !flush_errors !mismatches healed;
  ( no_escape && bit_identical && observed && healed,
    Json.Obj
      [
        ("rounds", Json.Num (float_of_int rounds));
        ( "invariants",
          Json.Obj
            [
              ("no_escaped_exceptions", Json.Bool no_escape);
              ("ok_replies_bit_identical", Json.Bool bit_identical);
              ("corruption_observed", Json.Bool observed);
              ("self_heals", Json.Bool healed);
            ] );
        ("escaped", Json.Arr (List.rev_map (fun e -> Json.Str e) !escaped));
        ("ok_replies_compared", Json.Num (float_of_int !ok_compared));
        ("corrupt_evictions", Json.Num (float_of_int !corrupt_total));
        ("recompiles", Json.Num (float_of_int !recompiles));
        ("flush_errors", Json.Num (float_of_int !flush_errors));
      ] )

(* ---------- serve soak: the TCP front-end under socket faults ----------

   A real [Qcr_net.Server] on a loopback port, with faults armed at the
   socket injection points: reads corrupt (mangled request bytes arrive
   as typed malformed replies, or as broken frames), the write path
   hard-closes mid-frame once (a disconnect exactly as a client sees
   one), accepts are delayed, and the compile tiers behind the service
   keep crashing.  Clients follow the contract the README documents:
   reconnect on any transport error and resubmit, treat typed error
   replies as retriable.  Invariants:

     - the server never dies: it answers a clean health check after the
       soak, and its drain exits without an escaped exception,
     - starvation-freedom (the fairness the round-robin scheduler
       promises): every client finishes its whole workload within a
       bounded number of attempts even while faults keep firing,
     - every full-quality reply stays bit-identical to the fault-free
       reference. *)

let serve_spec =
  "seed=23,net.read:corrupt:p=0.05,net.write:crash:nth=7,net.accept:delay=0.001:every=3,service.tier:crash:p=0.1"

let strip_v = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "v") fields)
  | j -> j

let serve_soak ~rounds batch expected =
  Fault.disarm ();
  (* portfolio compiles fan out over the default domain pool, whose
     single-driver contract belongs to this driver domain — the server
     domain serves the pool-free tiers *)
  let batch =
    List.filter
      (fun (r : Compile_request.t) -> r.Compile_request.mode <> Compile_request.Portfolio)
      batch
  in
  let service = Service.create () in
  let port = Atomic.make 0 in
  let stopping = Atomic.make false in
  let config = { Qcr_net.Server.default_config with port = 0; tick_s = 0.002 } in
  let dom =
    Domain.spawn (fun () ->
        Qcr_net.Server.serve ~config
          ~on_listen:(fun p -> Atomic.set port p)
          ~stop:(fun () -> Atomic.get stopping)
          service)
  in
  while Atomic.get port = 0 do
    Unix.sleepf 0.001
  done;
  let port = Atomic.get port in
  let n_clients = 4 in
  let reconnects = ref 0 and resubmits = ref 0 and gave_up = ref 0 in
  let mismatches = ref 0 and ok_compared = ref 0 and completed = ref 0 in
  let conns = Array.make n_clients None in
  let conn i =
    match conns.(i) with
    | Some c -> c
    | None ->
        let c = Qcr_net.Client.connect ~port () in
        conns.(i) <- Some c;
        c
  in
  let drop i =
    (match conns.(i) with Some c -> Qcr_net.Client.close c | None -> ());
    conns.(i) <- None
  in
  (* [true] iff this reply settles [req].  Corruption on the read path
     can mangle a request into a different — still valid — one, so a
     compiled reply only counts when its content-addressed key matches
     the key computed from the request we actually sent; an
     [Invalid_request] can only be a mangled frame (the batch is
     well-formed) and is likewise retried. *)
  let settles (req : Compile_request.t) j =
    match Compile_reply.of_json (strip_v j) with
    | Error _ -> false
    | Ok r ->
        if r.Compile_reply.id <> req.Compile_request.id then false
        else (
          match r.Compile_reply.outcome with
          | Compile_reply.Compiled _
            when r.Compile_reply.key = Compile_request.cache_key req ->
              incr completed;
              if full_quality r then begin
                incr ok_compared;
                match Hashtbl.find_opt expected r.Compile_reply.key with
                | Some d when d = reply_digest r -> ()
                | _ -> incr mismatches
              end;
              true
          | Compile_reply.Compiled _ -> false
          | Compile_reply.Failed (Qcr_core.Pipeline.Invalid_request _) -> false
          | Compile_reply.Failed _ ->
              (* a genuine typed failure (every tier of the ladder
                 crashed): served, not comparable *)
              incr completed;
              true)
  in
  (* One request, at-least-once: resubmit until a reply settles it.
     Every retry reconnects — a corrupted frame can smuggle extra reply
     lines into the stream, and a fresh connection is the only way to
     guarantee the next reply answers the next request.  The attempt
     bound turns a starved client into a failed invariant instead of a
     hung soak. *)
  let do_request i req =
    let rec attempt n =
      if n > 100 then incr gave_up
      else
        let retry () =
          drop i;
          incr reconnects;
          incr resubmits;
          attempt (n + 1)
        in
        match
          Qcr_net.Client.request ~timeout_s:10.0 (conn i)
            (Protocol.encode (Protocol.Op.Compile req))
        with
        | exception _ -> retry ()
        | Error _ -> retry ()
        | Ok j -> if settles req j then () else retry ()
    in
    attempt 1
  in
  let work = Array.of_list batch in
  let t0 = Unix.gettimeofday () in
  let spec =
    match Fault.spec_of_string serve_spec with
    | Ok s -> s
    | Error e -> failwith ("serve soak spec: " ^ e)
  in
  for _round = 1 to rounds do
    (* re-arming each round resets the nth=1-style counters, so the
       mid-frame write crash fires every round *)
    Fault.arm spec;
    (* interleave clients request-by-request so the round-robin
       scheduler sees competing connections *)
    Array.iteri (fun k req -> do_request (k mod n_clients) req) work
  done;
  Fault.disarm ();
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  (* the server must still answer a clean op after the soak *)
  Array.iteri (fun i _ -> drop i) conns;
  let alive =
    match
      Qcr_net.Client.request ~timeout_s:10.0 (conn 0) (Protocol.encode Protocol.Op.Health)
    with
    | Ok j -> ( match Json.member "status" j with Some (Json.Str "ok") -> true | _ -> false)
    | Error _ | (exception _) -> false
  in
  Array.iteri (fun i _ -> drop i) conns;
  Atomic.set stopping true;
  let drained = match Domain.join dom with () -> true | exception _ -> false in
  let expected_total = rounds * Array.length work in
  let all_served = !gave_up = 0 && !completed = expected_total in
  let bit_identical = !mismatches = 0 in
  let ok = alive && drained && all_served && bit_identical in
  Printf.printf
    "  serve: %d rounds x %d requests x %d clients in %.1f ms | reconnects=%d resubmits=%d \
     served=%d/%d mismatches=%d alive=%b\n\
     %!"
    rounds (Array.length work) n_clients wall_ms !reconnects !resubmits !completed expected_total
    !mismatches alive;
  ( ok,
    Json.Obj
      [
        ("spec", Json.Str serve_spec);
        ("rounds", Json.Num (float_of_int rounds));
        ("clients", Json.Num (float_of_int n_clients));
        ("requests_per_round", Json.Num (float_of_int (Array.length work)));
        ("wall_ms", Json.Num wall_ms);
        ( "invariants",
          Json.Obj
            [
              ("server_alive_after_soak", Json.Bool alive);
              ("drain_clean", Json.Bool drained);
              ("every_client_served", Json.Bool all_served);
              ("ok_replies_bit_identical", Json.Bool bit_identical);
            ] );
        ("reconnects", Json.Num (float_of_int !reconnects));
        ("resubmits", Json.Num (float_of_int !resubmits));
        ("served", Json.Num (float_of_int !completed));
        ("gave_up", Json.Num (float_of_int !gave_up));
        ("ok_replies_compared", Json.Num (float_of_int !ok_compared));
        ("mismatches", Json.Num (float_of_int !mismatches));
      ] )

(* ---------- recovery soak: kill -9 against the journaled CLI ----------

   The real binary as a child process: [qcr serve --listen 127.0.0.1:0
   --journal-dir J --cache-dir C], SIGKILLed at a seeded instant
   mid-burst, restarted over the same directories.  Every job whose
   admission was acked before the kill must be served after the restart
   — deduped to its original job id by its idempotency key, its reply
   bit-identical to the fault-free reference — and admitted-but-
   unfinished jobs must be recomputed.  This is the crash the
   in-process soaks cannot model: the process is gone mid-write, and
   only the journal and the cache directory survive. *)

let find_cli () =
  match Sys.getenv_opt "QCR_CLI" with
  | Some p when Sys.file_exists p -> Some p
  | _ ->
      let p =
        List.fold_left Filename.concat
          (Filename.dirname Sys.executable_name)
          [ Filename.parent_dir_name; "bin"; "qcr_cli.exe" ]
      in
      if Sys.file_exists p then Some p else None

type incarnation = { pid : int; port : int; out : Unix.file_descr }

let start_server ~cli ~journal_dir ~cache_dir =
  let out_r, out_w = Unix.pipe () in
  let argv =
    [|
      cli; "serve"; "--listen"; "127.0.0.1:0"; "--journal-dir"; journal_dir; "--cache-dir";
      cache_dir;
    |]
  in
  let pid = Unix.create_process cli argv Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  (* the child prints "listening on 127.0.0.1:PORT" once bound *)
  let buf = Buffer.create 128 in
  let scratch = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let parse_port () =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.find_map (fun line ->
           if String.length line > 13 && String.sub line 0 13 = "listening on " then
             Option.bind (String.rindex_opt line ':') (fun i ->
                 int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
           else None)
  in
  let rec wait_port () =
    match parse_port () with
    | Some p -> p
    | None ->
        if Unix.gettimeofday () > deadline then failwith "recovery: server never listened";
        (match Unix.select [ out_r ] [] [] 1.0 with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read out_r scratch 0 (Bytes.length scratch) with
            | 0 -> failwith "recovery: server exited before listening"
            | n -> Buffer.add_subbytes buf scratch 0 n));
        wait_port ()
  in
  let port = wait_port () in
  { pid; port; out = out_r }

let stop_server ~signal inc =
  (try Unix.kill inc.pid signal with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] inc.pid);
  try Unix.close inc.out with Unix.Unix_error _ -> ()

let recovery_soak ~rounds batch expected =
  Fault.disarm ();
  match find_cli () with
  | None ->
      Printf.printf "  recovery: bin/qcr_cli.exe not built — skipped (run dune build first)\n%!";
      (true, Json.Obj [ ("skipped", Json.Bool true); ("invariants", Json.Obj []) ])
  | Some cli ->
      Common.with_temp_dir "qcr-chaos-recovery" @@ fun root ->
      let journal_dir = Filename.concat root "journal" in
      let cache_dir = Filename.concat root "cache" in
      let work = Array.of_list batch in
      let n = Array.length work in
      let rng = Prng.create 4242 in
      let mismatches = ref 0 and unserved = ref 0 and unstable_ids = ref 0 in
      let acked_total = ref 0 and recovered_total = ref 0 and ids_checked = ref 0 in
      let t0 = Unix.gettimeofday () in
      for round = 1 to rounds do
        (* incarnation A: burst every submit in one write, read a seeded
           number of acks, then kill -9 with the rest in flight *)
        let inc = start_server ~cli ~journal_dir ~cache_dir in
        let idem i = Printf.sprintf "rec-%d-%d" round i in
        let acks = Hashtbl.create 16 in
        let c = Qcr_net.Client.connect ~port:inc.port () in
        Array.to_list work
        |> List.mapi (fun i r ->
               Json.to_string (Protocol.encode (Protocol.Op.Submit (r, Some (idem i)))))
        |> String.concat "\n"
        |> Qcr_net.Client.send_line c;
        let k = 1 + Prng.int rng n in
        (try
           for i = 0 to k - 1 do
             match Qcr_net.Client.recv ~timeout_s:10.0 c with
             | Ok j -> (
                 match Json.member "job" j with
                 | Some (Json.Str id) -> Hashtbl.replace acks i id
                 | _ -> ())
             | Error _ -> ()
           done
         with _ -> ());
        (* even rounds linger briefly so some outcomes reach the journal
           and the restored-as-done path is exercised too *)
        if round mod 2 = 0 then Unix.sleepf (0.002 *. float_of_int (Prng.int rng 8));
        stop_server ~signal:Sys.sigkill inc;
        Qcr_net.Client.close c;
        acked_total := !acked_total + Hashtbl.length acks;
        (* incarnation B: replay the journal over the same directories,
           then re-drive every request through the idempotent client *)
        let inc2 = start_server ~cli ~journal_dir ~cache_dir in
        (match
           let c2 = Qcr_net.Client.connect ~port:inc2.port () in
           Fun.protect
             ~finally:(fun () -> Qcr_net.Client.close c2)
             (fun () ->
               Qcr_net.Client.request ~timeout_s:10.0 c2 (Protocol.encode Protocol.Op.Jobs))
         with
        | Ok j -> (
            match Option.bind (Json.member "counts" j) (Json.member "recovered") with
            | Some (Json.Num r) -> recovered_total := !recovered_total + int_of_float r
            | _ -> ())
        | Error _ | (exception _) -> ());
        Array.iteri
          (fun i r ->
            match Qcr_net.Client.submit_idempotent ~port:inc2.port ~idem:(idem i) r with
            | Error _ -> incr unserved
            | Ok fin ->
                (* an acked admission is durable: the resubmit must land
                   on the id the dead incarnation acked *)
                (match (Hashtbl.find_opt acks i, Json.member "job" fin) with
                | Some id, Some (Json.Str id') ->
                    incr ids_checked;
                    if id <> id' then incr unstable_ids
                | _ -> ());
                (match Option.bind (Json.member "reply" fin) (fun rj ->
                         Result.to_option (Compile_reply.of_json (strip_v rj)))
                 with
                | Some rep -> (
                    match Hashtbl.find_opt expected rep.Compile_reply.key with
                    | Some d when d = reply_digest rep -> ()
                    | _ -> incr mismatches)
                | None -> incr mismatches))
          work;
        (* the last incarnation drains cleanly; the others die hard so
           the next round replays them too *)
        stop_server ~signal:(if round = rounds then Sys.sigterm else Sys.sigkill) inc2
      done;
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let served_ok = !unserved = 0 in
      let bit_identical = !mismatches = 0 in
      let ids_stable = !unstable_ids = 0 in
      let recovered_obs = !recovered_total > 0 in
      let ok = served_ok && bit_identical && ids_stable && recovered_obs in
      Printf.printf
        "  recovery: %d rounds x %d jobs, kill -9 each | acked=%d ids-stable=%d/%d recovered=%d \
         unserved=%d mismatches=%d\n\
         %!"
        rounds n !acked_total
        (!ids_checked - !unstable_ids)
        !ids_checked !recovered_total !unserved !mismatches;
      ( ok,
        Json.Obj
          [
            ("rounds", Json.Num (float_of_int rounds));
            ("jobs_per_round", Json.Num (float_of_int n));
            ("wall_ms", Json.Num wall_ms);
            ( "invariants",
              Json.Obj
                [
                  ("every_job_served_after_kill", Json.Bool served_ok);
                  ("replies_bit_identical", Json.Bool bit_identical);
                  ("acked_ids_stable_across_restart", Json.Bool ids_stable);
                  ("recovery_observed", Json.Bool recovered_obs);
                ] );
            ("acked", Json.Num (float_of_int !acked_total));
            ("acked_ids_checked", Json.Num (float_of_int !ids_checked));
            ("recovered", Json.Num (float_of_int !recovered_total));
            ("unserved", Json.Num (float_of_int !unserved));
            ("mismatches", Json.Num (float_of_int !mismatches));
          ] )

let run scale =
  Common.heading "Chaos soak: batch service under injected faults (BENCH_chaos.json)";
  let unique, dup_factor, rounds =
    match scale with
    | Common.Quick -> (4, 2, 2)
    | Common.Default -> (8, 2, 4)
    | Common.Full -> (12, 3, 8)
  in
  let base = List.init unique request in
  let batch = List.concat (List.init dup_factor (fun _ -> base)) in
  let n_requests = List.length batch in
  (* Reference: fault-free, deadline-free — fully deterministic. *)
  Fault.disarm ();
  let reference = Service.run_batch (Service.create ()) batch in
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (r : Compile_reply.t) ->
      if full_quality r then Hashtbl.replace expected r.Compile_reply.key (reply_digest r))
    reference;
  (* Soak: same batch, same service, [rounds] rounds under faults. *)
  let spec =
    match Fault.spec_of_string soak_spec with
    | Ok s -> s
    | Error e -> failwith ("chaos soak spec: " ^ e)
  in
  Fault.arm spec;
  let pool = Pool.default () in
  let deaths0 = Pool.worker_deaths pool and respawns0 = Pool.respawns pool in
  let service = Service.create () in
  let escaped = ref [] in
  let order_ok = ref true in
  let mismatches = ref 0 in
  let ok_compared = ref 0 in
  let outcomes = Hashtbl.create 4 in
  let count_outcome r =
    let cls =
      match r.Compile_reply.outcome with
      | Compile_reply.Compiled _ when full_quality r -> "ok"
      | Compile_reply.Compiled _ -> "degraded"
      | Compile_reply.Failed (Qcr_core.Pipeline.Timeout _) -> "timeout"
      | Compile_reply.Failed (Qcr_core.Pipeline.Invalid_request _) -> "invalid"
      | Compile_reply.Failed (Qcr_core.Pipeline.Internal _) -> "internal"
      | Compile_reply.Failed (Qcr_core.Pipeline.Overloaded _) -> "overloaded"
      | Compile_reply.Failed Qcr_core.Pipeline.Canceled -> "canceled"
    in
    Hashtbl.replace outcomes cls (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes cls))
  in
  let t0 = Unix.gettimeofday () in
  for round = 1 to rounds do
    match Service.run_batch service batch with
    | exception e -> escaped := Printf.sprintf "round %d: %s" round (Printexc.to_string e) :: !escaped
    | replies ->
        if
          List.length replies <> n_requests
          || not
               (List.for_all2
                  (fun (req : Compile_request.t) (r : Compile_reply.t) ->
                    req.Compile_request.id = r.Compile_reply.id)
                  batch replies)
        then order_ok := false;
        List.iter
          (fun (r : Compile_reply.t) ->
            count_outcome r;
            if full_quality r then begin
              incr ok_compared;
              match Hashtbl.find_opt expected r.Compile_reply.key with
              | Some d when d = reply_digest r -> ()
              | Some _ -> incr mismatches
              | None -> incr mismatches
            end)
          replies
  done;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let fault_table = Fault.snapshot () in
  Fault.disarm ();
  let deaths = Pool.worker_deaths pool - deaths0 and respawns = Pool.respawns pool - respawns0 in
  let st = Service.stats service in
  let no_escape = !escaped = [] in
  let bit_identical = !mismatches = 0 in
  let persist_ok, persist_row = persist_soak ~rounds batch expected in
  let serve_ok, serve_row = serve_soak ~rounds batch expected in
  let recovery_ok, recovery_row = recovery_soak ~rounds batch expected in
  let ok = no_escape && !order_ok && bit_identical && persist_ok && serve_ok && recovery_ok in
  Printf.printf
    "  %d rounds x %d requests in %.1f ms | escapes=%d order_ok=%b ok-replies=%d mismatches=%d\n%!"
    rounds n_requests wall_ms (List.length !escaped) !order_ok !ok_compared !mismatches;
  Printf.printf "  corrupt-evictions=%d | pool deaths=%d respawns=%d\n%!" st.Service.cache_corrupt
    deaths respawns;
  List.iter
    (fun (name, hits, fired) -> Printf.printf "  point %-14s hits=%-5d fired=%d\n%!" name hits fired)
    fault_table;
  Json.to_file output_file
    (Json.Obj
       [
         ("schema", Json.Str "qcr-bench-chaos/v5");
         ("generated_by", Json.Str "dune exec bench/main.exe -- chaos");
         ( "scale",
           Json.Str
             (match scale with
             | Common.Quick -> "quick"
             | Common.Default -> "default"
             | Common.Full -> "full") );
         ("domains", Json.Num (float_of_int (Pool.default_domain_count ())));
         ("spec", Json.Str soak_spec);
         ("rounds", Json.Num (float_of_int rounds));
         ("batch_size", Json.Num (float_of_int n_requests));
         ("wall_ms", Json.Num wall_ms);
         ( "invariants",
           Json.Obj
             [
               ("no_escaped_exceptions", Json.Bool no_escape);
               ("replies_in_request_order", Json.Bool !order_ok);
               ("ok_replies_bit_identical", Json.Bool bit_identical);
             ] );
         ("escaped", Json.Arr (List.rev_map (fun e -> Json.Str e) !escaped));
         ("ok_replies_compared", Json.Num (float_of_int !ok_compared));
         ( "outcomes",
           Json.Obj
             (Hashtbl.fold (fun k v acc -> (k, Json.Num (float_of_int v)) :: acc) outcomes []
             |> List.sort compare) );
         ("stats", Service.stats_to_json st);
         ( "faults",
           Json.Arr
             (List.map
                (fun (name, hits, fired) ->
                  Json.Obj
                    [
                      ("point", Json.Str name);
                      ("hits", Json.Num (float_of_int hits));
                      ("fired", Json.Num (float_of_int fired));
                    ])
                fault_table) );
         ( "pool",
           Json.Obj
             [
               ("worker_deaths", Json.Num (float_of_int deaths));
               ("respawns", Json.Num (float_of_int respawns));
             ] );
         ("persist", persist_row);
         ("serve", serve_row);
         ("recovery", recovery_row);
       ]);
  Printf.printf "  wrote %s\n%!" output_file;
  if not ok then begin
    Printf.eprintf "  CHAOS INVARIANT VIOLATED (see %s)\n%!" output_file;
    exit 1
  end
