module Pipeline = Qcr_core.Pipeline
module Circuit = Qcr_circuit.Circuit
module Gate = Qcr_circuit.Gate
module Json = Qcr_obs.Json
module Digest64 = Qcr_util.Digest64

type metrics = {
  depth : int;
  cx : int;
  swap_count : int;
  log_fidelity : float;
  strategy : string;
  circuit_digest : string;
}

type outcome =
  | Compiled of { mode : Compile_request.mode; metrics : metrics }
  | Failed of Pipeline.error

type phase = {
  p_phase : string;
  p_detail : string;
  p_outcome : string;
  p_retries : int;
  p_ms : float;
}

type t = {
  id : string;
  key : string;
  requested_mode : Compile_request.mode;
  outcome : outcome;
  cached : bool;
  compile_ms : float;
  trace : phase list option;
}

let degraded t =
  match t.outcome with
  | Compiled { mode; _ } -> mode <> t.requested_mode
  | Failed _ -> false

let status_name t =
  match t.outcome with
  | Failed _ -> "error"
  | Compiled _ -> if degraded t then "degraded" else "ok"

let strategy_name = function
  | Pipeline.Pure_greedy -> "greedy"
  | Pipeline.Pure_ata -> "ata"
  | Pipeline.Hybrid c -> Printf.sprintf "hybrid@%d" c

let gates_digest ~qubits gates =
  List.fold_left
    (fun d g -> Digest64.add_string d (Gate.to_string g))
    (Digest64.add_int Digest64.empty qubits)
    gates
  |> Digest64.to_hex

let metrics_of_result (r : Pipeline.result) =
  {
    depth = r.Pipeline.depth;
    cx = r.Pipeline.cx;
    swap_count = r.Pipeline.swap_count;
    log_fidelity = r.Pipeline.log_fidelity;
    strategy = strategy_name r.Pipeline.strategy;
    circuit_digest =
      gates_digest ~qubits:(Circuit.qubit_count r.Pipeline.circuit) (Circuit.gates r.Pipeline.circuit);
  }

(* ---------- JSON ---------- *)

let error_to_json = function
  | Pipeline.Timeout { deadline_s } ->
      Json.Obj [ ("kind", Json.Str "timeout"); ("deadline_s", Json.Num deadline_s) ]
  | Pipeline.Invalid_request msg ->
      Json.Obj [ ("kind", Json.Str "invalid_request"); ("message", Json.Str msg) ]
  | Pipeline.Internal msg ->
      Json.Obj [ ("kind", Json.Str "internal"); ("message", Json.Str msg) ]
  | Pipeline.Overloaded { queued; limit } ->
      Json.Obj
        [
          ("kind", Json.Str "overloaded");
          ("queued", Json.Num (float_of_int queued));
          ("limit", Json.Num (float_of_int limit));
        ]
  | Pipeline.Canceled -> Json.Obj [ ("kind", Json.Str "canceled") ]

let to_json t =
  let base =
    [
      ("id", Json.Str t.id);
      ("key", Json.Str t.key);
      ("requested_mode", Json.Str (Compile_request.mode_name t.requested_mode));
      ("status", Json.Str (status_name t));
    ]
  in
  let body =
    match t.outcome with
    | Compiled { mode; metrics = m } ->
        [
          ("mode", Json.Str (Compile_request.mode_name mode));
          ("depth", Json.Num (float_of_int m.depth));
          ("cx", Json.Num (float_of_int m.cx));
          ("swaps", Json.Num (float_of_int m.swap_count));
          ("log_fidelity", Json.Num m.log_fidelity);
          ("strategy", Json.Str m.strategy);
          ("circuit_digest", Json.Str m.circuit_digest);
        ]
    | Failed e -> [ ("error", error_to_json e) ]
  in
  let phase_json p =
    Json.Obj
      [
        ("phase", Json.Str p.p_phase);
        ("detail", Json.Str p.p_detail);
        ("outcome", Json.Str p.p_outcome);
        ("retries", Json.Num (float_of_int p.p_retries));
        ("ms", Json.Num p.p_ms);
      ]
  in
  let trace =
    match t.trace with
    | None -> []
    | Some ps -> [ ("trace", Json.Arr (List.map phase_json ps)) ]
  in
  Json.Obj
    (base @ body
    @ [ ("cached", Json.Bool t.cached); ("compile_ms", Json.Num t.compile_ms) ]
    @ trace)

let ( let* ) r f = Result.bind r f

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_str name = function
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let as_num name = function
  | Json.Num f -> Ok f
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

let as_int name j =
  let* f = as_num name j in
  if Float.is_integer f then Ok (int_of_float f)
  else Error (Printf.sprintf "field %S must be an integer" name)

let as_bool name = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let str_field name j = Result.bind (field name j) (as_str name)

let num_field name j = Result.bind (field name j) (as_num name)

let int_field name j = Result.bind (field name j) (as_int name)

let error_of_json j =
  let* kind = str_field "kind" j in
  match kind with
  | "timeout" ->
      let* deadline_s = num_field "deadline_s" j in
      Ok (Pipeline.Timeout { deadline_s })
  | "invalid_request" ->
      let* msg = str_field "message" j in
      Ok (Pipeline.Invalid_request msg)
  | "internal" ->
      let* msg = str_field "message" j in
      Ok (Pipeline.Internal msg)
  | "overloaded" ->
      let* queued = int_field "queued" j in
      let* limit = int_field "limit" j in
      Ok (Pipeline.Overloaded { queued; limit })
  | "canceled" -> Ok Pipeline.Canceled
  | s -> Error (Printf.sprintf "unknown error kind %S" s)

let of_json j =
  let* id = str_field "id" j in
  let* key = str_field "key" j in
  let* requested_mode = Result.bind (str_field "requested_mode" j) Compile_request.mode_of_name in
  let* status = str_field "status" j in
  let* outcome =
    match status with
    | "error" ->
        let* e = Result.bind (field "error" j) error_of_json in
        Ok (Failed e)
    | "ok" | "degraded" ->
        let* mode = Result.bind (str_field "mode" j) Compile_request.mode_of_name in
        let* depth = int_field "depth" j in
        let* cx = int_field "cx" j in
        let* swap_count = int_field "swaps" j in
        let* log_fidelity = num_field "log_fidelity" j in
        let* strategy = str_field "strategy" j in
        let* circuit_digest = str_field "circuit_digest" j in
        Ok (Compiled { mode; metrics = { depth; cx; swap_count; log_fidelity; strategy; circuit_digest } })
    | s -> Error (Printf.sprintf "unknown status %S" s)
  in
  let* cached = Result.bind (field "cached" j) (as_bool "cached") in
  let* compile_ms = num_field "compile_ms" j in
  let* trace =
    match Json.member "trace" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.Arr items) ->
        let rec go acc = function
          | [] -> Ok (Some (List.rev acc))
          | item :: rest ->
              let* p_phase = str_field "phase" item in
              let* p_detail = str_field "detail" item in
              let* p_outcome = str_field "outcome" item in
              let* p_retries = int_field "retries" item in
              let* p_ms = num_field "ms" item in
              go ({ p_phase; p_detail; p_outcome; p_retries; p_ms } :: acc) rest
        in
        go [] items
    | Some _ -> Error "field \"trace\" must be an array"
  in
  Ok { id; key; requested_mode; outcome; cached; compile_ms; trace }

(* Volatile fields are the timing ones: the reply's own [compile_ms] and
   each trace phase's [ms].  Everything else — including the phase
   sequence itself — is deterministic for a given seed and batch, which
   is what the cross-pool-size bit-identity tests check. *)
let rec strip_volatile = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "compile_ms" || k = "ms" then None else Some (k, strip_volatile v))
           fields)
  | Json.Arr items -> Json.Arr (List.map strip_volatile items)
  | j -> j
