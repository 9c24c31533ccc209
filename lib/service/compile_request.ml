module Arch = Qcr_arch.Arch
module Noise = Qcr_arch.Noise
module Graph = Qcr_graph.Graph
module Program = Qcr_circuit.Program
module Config = Qcr_core.Config
module Pipeline = Qcr_core.Pipeline
module Json = Qcr_obs.Json
module Digest64 = Qcr_util.Digest64

type mode =
  | Ours
  | Greedy
  | Ata
  | Portfolio

type t = {
  id : string;
  arch_kind : Arch.kind;
  arch_size : int;
  qubits : int;
  edges : (int * int) list;
  interaction : Program.interaction;
  mode : mode;
  alpha : float option;
  noise_seed : int option;
  deadline_s : float option;
  trace : bool; (* opt-in per-request phase breakdown on the reply *)
}

let default_interaction = Program.Qaoa_maxcut { gamma = 0.4; beta = 0.35 }

let make ?(id = "") ?arch_size ?(interaction = default_interaction) ?(mode = Ours) ?alpha
    ?noise_seed ?deadline_s ?(trace = false) ~arch_kind ~qubits ~edges () =
  {
    id;
    arch_kind;
    arch_size = (match arch_size with Some n -> n | None -> qubits);
    qubits;
    edges;
    interaction;
    mode;
    alpha;
    noise_seed;
    deadline_s;
    trace;
  }

(* ---------- names ---------- *)

let mode_name = function
  | Ours -> "ours"
  | Greedy -> "greedy"
  | Ata -> "ata"
  | Portfolio -> "portfolio"

let mode_of_name = function
  | "ours" -> Ok Ours
  | "greedy" -> Ok Greedy
  | "ata" -> Ok Ata
  | "portfolio" -> Ok Portfolio
  | s -> Error (Printf.sprintf "unknown mode %S" s)

let kind_name = function
  | Arch.Line -> "line"
  | Arch.Grid -> "grid"
  | Arch.Grid3d -> "grid3d"
  | Arch.Sycamore -> "sycamore"
  | Arch.Heavy_hex -> "heavyhex"
  | Arch.Hexagon -> "hexagon"
  | Arch.Custom -> "custom"

let kind_of_name = function
  | "line" -> Ok Arch.Line
  | "grid" -> Ok Arch.Grid
  | "grid3d" -> Ok Arch.Grid3d
  | "sycamore" -> Ok Arch.Sycamore
  | "heavyhex" | "heavy-hex" -> Ok Arch.Heavy_hex
  | "hexagon" -> Ok Arch.Hexagon
  | s -> Error (Printf.sprintf "unknown architecture %S" s)

(* ---------- validation and canonicalization ---------- *)

let validate t =
  let ( let* ) r f = Result.bind r f in
  let check cond msg = if cond then Ok () else Error msg in
  let finite name = function
    | Some f when not (Float.is_finite f) -> Error (name ^ " must be finite")
    | _ -> Ok ()
  in
  let* () = check (t.arch_kind <> Arch.Custom) "custom architectures have no wire form" in
  let* () = check (t.qubits >= 1) "qubits must be positive" in
  let* () = check (t.arch_size >= 1) "arch size must be positive" in
  let* () =
    List.fold_left
      (fun acc (u, v) ->
        let* () = acc in
        let* () = check (u <> v) (Printf.sprintf "self-loop on vertex %d" u) in
        check
          (u >= 0 && v >= 0 && u < t.qubits && v < t.qubits)
          (Printf.sprintf "edge (%d, %d) out of range for %d qubits" u v t.qubits))
      (Ok ()) t.edges
  in
  let* () =
    match t.interaction with
    | Program.Qaoa_maxcut { gamma; beta } | Program.Qaoa_level { gamma; beta } ->
        let* () = finite "gamma" (Some gamma) in
        finite "beta" (Some beta)
    | Program.Two_local { theta } -> finite "theta" (Some theta)
    | Program.Bare_cz -> Ok ()
  in
  let* () = finite "alpha" t.alpha in
  let* () = finite "deadline_s" t.deadline_s in
  match t.deadline_s with
  | Some d when d <= 0.0 -> Error "deadline_s must be positive"
  | _ -> Ok ()

let canonical_edges t =
  t.edges
  |> List.map (fun (u, v) -> if u <= v then (u, v) else (v, u))
  |> List.sort_uniq compare

(* ---------- cache key ---------- *)

(* The interaction's kind, then (with [angles]) its angles. *)
let interaction_digest ~angles d i =
  let add_angles d xs = if angles then List.fold_left Digest64.add_float d xs else d in
  match i with
  | Program.Qaoa_maxcut { gamma; beta } -> add_angles (Digest64.add_string d "qaoa_maxcut") [ gamma; beta ]
  | Program.Qaoa_level { gamma; beta } -> add_angles (Digest64.add_string d "qaoa_level") [ gamma; beta ]
  | Program.Two_local { theta } -> add_angles (Digest64.add_string d "two_local") [ theta ]
  | Program.Bare_cz -> Digest64.add_string d "bare_cz"

let add_opt add d = function
  | None -> Digest64.add_bool d false
  | Some x -> add (Digest64.add_bool d true) x

(* Content only: [id], [deadline_s] and [trace] are excluded — the same
   content compiles identically regardless of who asked, how urgently,
   or whether they want a phase breakdown. *)
let content_key ~tag ~angles t =
  let d = Digest64.add_string Digest64.empty tag in
  let d = Digest64.add_string d (kind_name t.arch_kind) in
  let d = Digest64.add_int d (max t.arch_size t.qubits) in
  let d = Digest64.add_int d t.qubits in
  let d = Digest64.add_pairs d (canonical_edges t) in
  let d = interaction_digest ~angles d t.interaction in
  let d = Digest64.add_string d (mode_name t.mode) in
  let d = add_opt Digest64.add_float d t.alpha in
  let d = add_opt Digest64.add_int d t.noise_seed in
  Digest64.to_hex d

let cache_key t = content_key ~tag:"qcr-service/v1" ~angles:true t

let route_key t =
  match t.interaction with
  | Program.Bare_cz -> None
  | Program.Qaoa_maxcut _ | Program.Qaoa_level _ | Program.Two_local _ ->
      Some (content_key ~tag:"qcr-route/v1" ~angles:false t)

(* ---------- realization ---------- *)

let arch_of t = Arch.smallest_for t.arch_kind (max t.arch_size t.qubits)

let program_of t =
  let graph = Graph.create t.qubits in
  List.iter (fun (u, v) -> Graph.add_edge graph u v) (canonical_edges t);
  Program.make graph t.interaction

let noise_of t arch = Option.map (fun seed -> Noise.sampled ~seed arch) t.noise_seed

let config_of t =
  match t.alpha with None -> Config.default | Some alpha -> { Config.default with alpha }

let pipeline_mode ~astar_budget t =
  match t.mode with
  | Ours -> Pipeline.Request.Ours
  | Greedy -> Pipeline.Request.Greedy
  | Ata -> Pipeline.Request.Ata
  | Portfolio -> Pipeline.Request.Portfolio { astar_budget }

(* ---------- JSON ---------- *)

let interaction_to_json = function
  | Program.Qaoa_maxcut { gamma; beta } ->
      Json.Obj [ ("kind", Json.Str "qaoa_maxcut"); ("gamma", Json.Num gamma); ("beta", Json.Num beta) ]
  | Program.Qaoa_level { gamma; beta } ->
      Json.Obj [ ("kind", Json.Str "qaoa_level"); ("gamma", Json.Num gamma); ("beta", Json.Num beta) ]
  | Program.Two_local { theta } ->
      Json.Obj [ ("kind", Json.Str "two_local"); ("theta", Json.Num theta) ]
  | Program.Bare_cz -> Json.Obj [ ("kind", Json.Str "bare_cz") ]

let to_json t =
  let opt name f = function Some x -> [ (name, f x) ] | None -> [] in
  Json.Obj
    ([
       ("id", Json.Str t.id);
       ( "arch",
         Json.Obj
           [
             ("kind", Json.Str (kind_name t.arch_kind));
             ("n", Json.Num (float_of_int t.arch_size));
           ] );
       ( "program",
         Json.Obj
           [
             ("qubits", Json.Num (float_of_int t.qubits));
             ( "edges",
               Json.Arr
                 (List.map
                    (fun (u, v) ->
                      Json.Arr [ Json.Num (float_of_int u); Json.Num (float_of_int v) ])
                    t.edges) );
             ("interaction", interaction_to_json t.interaction);
           ] );
       ("mode", Json.Str (mode_name t.mode));
     ]
    @ opt "alpha" (fun a -> Json.Num a) t.alpha
    @ opt "noise_seed" (fun s -> Json.Num (float_of_int s)) t.noise_seed
    @ opt "deadline_s" (fun d -> Json.Num d) t.deadline_s
    @ if t.trace then [ ("trace", Json.Bool true) ] else [])

(* Small decoding helpers over the Json AST; every failure carries the
   field path so batch files are debuggable. *)

let ( let* ) r f = Result.bind r f

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_field name j = Json.member name j

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

let opt_num name j =
  match opt_field name j with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* f = as_num name v in
      Ok (Some f)

let opt_int name j =
  match opt_field name j with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* i = as_int name v in
      Ok (Some i)

let interaction_of_json j =
  let* kind = Result.bind (field "kind" j) (as_str "interaction.kind") in
  match kind with
  | "qaoa_maxcut" | "qaoa_level" ->
      let* gamma = Result.bind (field "gamma" j) (as_num "gamma") in
      let* beta = Result.bind (field "beta" j) (as_num "beta") in
      Ok
        (if kind = "qaoa_maxcut" then Program.Qaoa_maxcut { gamma; beta }
         else Program.Qaoa_level { gamma; beta })
  | "two_local" ->
      let* theta = Result.bind (field "theta" j) (as_num "theta") in
      Ok (Program.Two_local { theta })
  | "bare_cz" -> Ok Program.Bare_cz
  | s -> Error (Printf.sprintf "unknown interaction kind %S" s)

let edges_of_json = function
  | Json.Arr items ->
      List.fold_left
        (fun acc item ->
          let* edges = acc in
          match item with
          | Json.Arr [ u; v ] ->
              let* u = as_int "edge endpoint" u in
              let* v = as_int "edge endpoint" v in
              Ok ((u, v) :: edges)
          | _ -> Error "each edge must be a two-element array")
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error "field \"edges\" must be an array"

let of_json j =
  let* id =
    match opt_field "id" j with None -> Ok "" | Some v -> as_str "id" v
  in
  let* arch = field "arch" j in
  let* kind_str = Result.bind (field "kind" arch) (as_str "arch.kind") in
  let* arch_kind = kind_of_name kind_str in
  let* arch_size = Result.bind (field "n" arch) (as_int "arch.n") in
  let* program = field "program" j in
  let* qubits = Result.bind (field "qubits" program) (as_int "program.qubits") in
  let* edges = Result.bind (field "edges" program) edges_of_json in
  let* interaction = Result.bind (field "interaction" program) interaction_of_json in
  let* mode =
    match opt_field "mode" j with
    | None -> Ok Ours
    | Some v -> Result.bind (as_str "mode" v) mode_of_name
  in
  let* alpha = opt_num "alpha" j in
  let* noise_seed = opt_int "noise_seed" j in
  let* deadline_s = opt_num "deadline_s" j in
  let* trace =
    match opt_field "trace" j with
    | None | Some Json.Null -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "field \"trace\" must be a boolean"
  in
  Ok
    {
      id;
      arch_kind;
      arch_size;
      qubits;
      edges;
      interaction;
      mode;
      alpha;
      noise_seed;
      deadline_s;
      trace;
    }
