module Service = Qcr_service.Service
module Protocol = Qcr_service.Protocol
module Reply = Qcr_service.Compile_reply
module Json = Qcr_obs.Json
module Registry = Qcr_obs.Registry
module Obs = Qcr_obs.Obs

let c_wire_errors = Obs.counter "net.wire_errors"

type t = {
  service : Service.t;
  jobs : Jobs.t;
  extra_stats : unit -> (string * Json.t) list;
}

let create ?(extra_stats = fun () -> []) ~service ~jobs () = { service; jobs; extra_stats }

let jobs t = t.jobs
let service t = t.service

type reaction =
  | Reply of Json.t
  | Wait_for of string

let job_state_reply id state =
  let base = [ ("job", Json.Str id); ("state", Json.Str (Jobs.state_name state)) ] in
  match state with
  | Jobs.Done r | Jobs.Canceled r ->
      Protocol.ok_reply (base @ [ ("reply", Protocol.with_version (Reply.to_json r)) ])
  | Jobs.Queued | Jobs.Running -> Protocol.ok_reply base

let unknown_job id =
  Protocol.job_error_reply ~kind:"unknown_job" ~job:id
    ~message:(Printf.sprintf "no such job %S (never submitted, or already evicted)" id)

let handle_op t ~client op =
  match op with
  | Protocol.Op.Compile req ->
      Reply (Protocol.with_version (Reply.to_json (Service.submit t.service req)))
  | Protocol.Op.Submit (req, idem) -> (
      match Jobs.submit t.jobs ~client ?idem req with
      | Ok (Jobs.Admitted id) ->
          Reply (Protocol.ok_reply [ ("job", Json.Str id); ("state", Json.Str "queued") ])
      | Ok (Jobs.Deduped id) ->
          (* the idempotency key matched an existing job: answer with
             that job's id and current state, flagged so the client can
             tell a dedupe from a fresh admission *)
          let state =
            match Jobs.find t.jobs id with
            | Some st -> Jobs.state_name st
            | None -> "queued" (* unreachable: dedupe checks liveness *)
          in
          Reply
            (Protocol.ok_reply
               [ ("job", Json.Str id); ("state", Json.Str state); ("dedup", Json.Bool true) ])
      | Error reply ->
          (* the typed Overloaded / journal-failure refusal — same
             envelope as any failed compile reply *)
          Reply (Protocol.with_version (Reply.to_json reply)))
  | Protocol.Op.Poll id -> (
      match Jobs.find t.jobs id with
      | None -> Reply (unknown_job id)
      | Some st -> Reply (job_state_reply id st))
  | Protocol.Op.Wait id -> (
      match Jobs.find t.jobs id with
      | None -> Reply (unknown_job id)
      | Some st when Jobs.is_terminal st -> Reply (job_state_reply id st)
      | Some _ -> Wait_for id)
  | Protocol.Op.Cancel id -> (
      match Jobs.cancel t.jobs id with
      | None -> Reply (unknown_job id)
      | Some st -> Reply (job_state_reply id st))
  | Protocol.Op.Result id -> (
      match Jobs.take t.jobs id with
      | None -> Reply (unknown_job id)
      | Some st when Jobs.is_terminal st -> Reply (job_state_reply id st)
      | Some st ->
          Reply
            (Protocol.job_error_reply ~kind:"not_finished" ~job:id
               ~message:(Printf.sprintf "job %s is still %s" id (Jobs.state_name st))))
  | Protocol.Op.Jobs ->
      Reply
        (Protocol.ok_reply
           [ ("jobs", Jobs.list_json t.jobs); ("counts", Jobs.stats_json t.jobs) ])
  | Protocol.Op.Health ->
      Reply
        (Protocol.ok_reply
           [
             ("requests", Json.Num (float_of_int (Service.stats t.service).Service.requests));
             ("queued", Json.Num (float_of_int (Jobs.queued t.jobs)));
           ])
  | Protocol.Op.Stats ->
      Reply
        (Protocol.ok_reply
           ([
              ( "stats",
                Service.stats_to_json ~cache_bytes:(Service.cache_bytes t.service)
                  (Service.stats t.service) );
              ("jobs", Jobs.stats_json t.jobs);
            ]
           @ t.extra_stats ()))
  | Protocol.Op.Metrics ->
      Reply
        (Protocol.ok_reply
           [
             ("metrics", Service.metrics_json t.service);
             ("prometheus", Json.Str (Registry.prometheus (Registry.snapshot ())));
           ])
  | Protocol.Op.Flush -> (
      match Service.flush t.service with
      | Ok n -> Reply (Protocol.ok_reply [ ("persisted", Json.Num (float_of_int n)) ])
      | Error e ->
          Reply
            (Protocol.with_version
               (Json.Obj
                  [
                    ("status", Json.Str "error");
                    ( "error",
                      Json.Obj
                        [
                          ("kind", Json.Str "flush_failed");
                          ("message", Json.Str ("cache flush failed: " ^ e));
                        ] );
                  ])))

let handle t ~client line =
  match Protocol.decode line with
  | Error e ->
      Obs.incr c_wire_errors;
      Reply (Protocol.error_reply e)
  | Ok op -> (
      try handle_op t ~client op
      with
      | (Out_of_memory | Stack_overflow) as e -> raise e
      | e ->
          Reply
            (Protocol.with_version
               (Json.Obj
                  [
                    ("status", Json.Str "error");
                    ( "error",
                      Json.Obj
                        [
                          ("kind", Json.Str "internal");
                          ( "message",
                            Json.Str ("uncaught exception: " ^ Printexc.to_string e) );
                        ] );
                  ])))
