module Arch = Qcr_arch.Arch
module Noise = Qcr_arch.Noise
module Graph = Qcr_graph.Graph
module Mapping = Qcr_circuit.Mapping
module Circuit = Qcr_circuit.Circuit
module Program = Qcr_circuit.Program
module Gate = Qcr_circuit.Gate
module Schedule = Qcr_swapnet.Schedule
module Ata = Qcr_swapnet.Ata
module Obs = Qcr_obs.Obs

let c_compiles = Obs.counter "pipeline.compiles"

let c_checkpoints = Obs.counter "pipeline.checkpoints_recorded"

let c_placements_tried = Obs.counter "pipeline.placements_tried"

let c_strategy_greedy = Obs.counter "pipeline.strategy.greedy"

let c_strategy_ata = Obs.counter "pipeline.strategy.ata"

let c_strategy_hybrid = Obs.counter "pipeline.strategy.hybrid"

(* Scale gauges: last-compile device size and throughput, exposed through
   Qcr_obs.Registry so {"op":"metrics"} reports compiler throughput at
   1000-qubit scale without any extra plumbing. *)
let g_device_qubits = Qcr_obs.Registry.gauge "pipeline.device_qubits"

let g_gates_per_second = Qcr_obs.Registry.gauge "pipeline.gates_per_second"

type strategy =
  | Pure_greedy
  | Pure_ata
  | Hybrid of int

type result = {
  circuit : Circuit.t;
  initial : Mapping.t;
  final : Mapping.t;
  depth : int;
  cx : int;
  swap_count : int;
  log_fidelity : float;
  strategy : strategy;
  compile_seconds : float;
}

(* finalize is defined below and re-exported as finalize_body *)

let count_swaps circuit =
  List.fold_left
    (fun acc g ->
      match g with Gate.Swap _ | Gate.Swap_interact _ -> acc + 1 | _ -> acc)
    0 (Circuit.gates circuit)

(* Wrap a routed interaction block with the program's prologue (under the
   initial mapping) and epilogue (under the final mapping). *)
let finalize ~arch ~program ~noise ~initial ~final ~strategy ~seconds body =
  Obs.with_span ~cat:"pipeline" "pipeline.finalize" @@ fun () ->
  Obs.incr
    (match strategy with
    | Pure_greedy -> c_strategy_greedy
    | Pure_ata -> c_strategy_ata
    | Hybrid _ -> c_strategy_hybrid);
  let n_phys = Arch.qubit_count arch in
  let circuit = Circuit.create n_phys in
  let place mapping gate = Gate.map_qubits (fun l -> Mapping.phys_of_log mapping l) gate in
  List.iter (fun g -> Circuit.add circuit (place initial g)) (Program.prologue program);
  List.iter (Circuit.add circuit) (Circuit.gates body);
  List.iter (fun g -> Circuit.add circuit (place final g)) (Program.epilogue program);
  let circuit = Circuit.merge_swaps circuit in
  Qcr_obs.Registry.set_gauge g_device_qubits (float_of_int n_phys);
  if seconds > 0.0 then
    Qcr_obs.Registry.set_gauge g_gates_per_second
      (float_of_int (List.length (Circuit.gates circuit)) /. seconds);
  {
    circuit;
    initial;
    final;
    depth = Circuit.depth2q circuit;
    cx = Circuit.cx_count circuit;
    swap_count = count_swaps circuit;
    log_fidelity = (match noise with Some m -> Circuit.log_fidelity m circuit | None -> 0.0);
    strategy;
    compile_seconds = seconds;
  }

let default_init arch program = Placement.auto arch program

let ata_impl ?noise ?init arch program =
  Obs.with_span ~cat:"pipeline" "pipeline.compile_ata" @@ fun () ->
  let t0 = Sys.time () in
  let initial =
    match init with
    | Some m -> m
    | None -> Obs.with_span ~cat:"pipeline" "pipeline.placement" (fun () -> default_init arch program)
  in
  let mapping = Mapping.copy initial in
  let body =
    Obs.with_span ~cat:"pipeline" "pipeline.ata_materialize" @@ fun () ->
    Predict.materialize ~use_regions:false ~arch ~program
      ~remaining:(Graph.copy (Program.graph program)) ~mapping ()
  in
  finalize ~arch ~program ~noise ~initial ~final:mapping ~strategy:Pure_ata
    ~seconds:(Sys.time () -. t0) body

let greedy_impl ?(config = Config.pure_greedy) ?noise ?init arch program =
  Obs.with_span ~cat:"pipeline" "pipeline.compile_greedy" @@ fun () ->
  let t0 = Sys.time () in
  let config = { config with Config.use_selector = false } in
  let initial =
    match init with
    | Some m -> m
    | None -> Obs.with_span ~cat:"pipeline" "pipeline.placement" (fun () -> default_init arch program)
  in
  let engine = Greedy.create ~config ?noise ~arch ~program ~init:initial () in
  Obs.with_span ~cat:"pipeline" "pipeline.greedy" (fun () -> Greedy.run_to_completion engine);
  finalize ~arch ~program ~noise ~initial ~final:(Greedy.mapping engine) ~strategy:Pure_greedy
    ~seconds:(Sys.time () -. t0)
    (Greedy.circuit engine)

(* Cheap cost projection of "greedy prefix + ATA completion": depth uses
   the committed prefix depth plus the prediction's cycles; CX counts
   2 per remaining interaction and 3 per predicted swap, minus the 2-CX
   credit for each predicted interaction+swap fusion; fidelity uses the
   device's mean link error. *)
let project ~noise ~prefix_depth ~prefix_cx ~prefix_logfid ~mean_log_success
    (p : Predict.estimate) ~checkpoint_cycle =
  let added_cx =
    (2 * p.Predict.gates) + (3 * p.Predict.swaps) - (2 * p.Predict.merged)
  in
  let cx = prefix_cx + added_cx in
  let log_fid =
    match noise with
    | Some _ -> prefix_logfid +. (float_of_int added_cx *. mean_log_success)
    | None -> 0.0
  in
  {
    Selector.checkpoint_cycle;
    depth = prefix_depth + p.Predict.cycles;
    cx;
    log_fid;
  }

let mean_log_success_of ~noise ~arch =
  match noise with
  | None -> 0.0
  | Some m ->
      let total = ref 0.0 and count = ref 0 in
      Graph.iter_edges
        (fun u v ->
          total := !total +. Noise.log_success_cx m u v;
          incr count)
        (Arch.graph arch);
      if !count = 0 then 0.0 else !total /. float_of_int !count

let rec ours_impl ?(config = Config.default) ?noise ?init arch program =
  Obs.incr c_compiles;
  match (init, noise) with
  | None, Some _ when Arch.qubit_count arch <= 128 && config.Config.use_selector ->
      (* Qubit error variability (§5.3): on device sizes where a real run
         is plausible, compile each candidate placement and keep the best
         final circuit under the selector cost F. *)
      Obs.with_span ~cat:"pipeline" "pipeline.placement_selection" @@ fun () ->
      let t0 = Sys.time () in
      (* Candidate placements compile independently; fan them out over the
         pool.  Each compilation is deterministic and the best-of fold
         below runs in candidate order, so the winner does not depend on
         the pool size. *)
      let results =
        Array.to_list
          (Qcr_par.Pool.map
             (Qcr_par.Pool.default ())
             (fun candidate ->
               Obs.incr c_placements_tried;
               ours_impl ~config ?noise ~init:candidate arch program)
             (Array.of_list (Placement.candidates ?noise arch program)))
      in
      (* Expected fidelity of a run: gate errors (log_fidelity) plus the
         idle-decoherence term (duration x active qubits).  Larger is
         better. *)
      let n_log = Program.qubit_count program in
      let expected_log_fid r =
        r.log_fidelity +. Noise.decoherence_log_fidelity ~depth:r.depth ~qubits:n_log
      in
      let best =
        match results with
        | [] -> assert false
        | first :: rest ->
            List.fold_left
              (fun acc r -> if expected_log_fid r > expected_log_fid acc then r else acc)
              first rest
      in
      { best with compile_seconds = Sys.time () -. t0 }
  | _ -> compile_one ~config ?noise ?init arch program

and compile_one ?(config = Config.default) ?noise ?init arch program =
  Obs.with_span ~cat:"pipeline" "pipeline.compile" @@ fun () ->
  let t0 = Sys.time () in
  let initial =
    match init with
    | Some m -> m
    | None -> Obs.with_span ~cat:"pipeline" "pipeline.placement" (fun () -> default_init arch program)
  in
  let n_phys = Arch.qubit_count arch in
  let stride =
    match config.Config.predict_stride with
    | Some s -> max 1 s
    | None -> max 1 (n_phys / 8)
  in
  let cycle_cap =
    match config.Config.max_greedy_cycles with
    | Some c -> c
    | None -> (20 * n_phys) + 200
  in
  let engine = Greedy.create ~config ?noise ~arch ~program ~init:initial () in
  let mean_log_success = mean_log_success_of ~noise ~arch in
  let use_regions = config.Config.use_regions in
  let checkpoints = ref [] in
  let record () =
    Obs.with_span ~cat:"pipeline" "pipeline.checkpoint_predict" @@ fun () ->
    Obs.incr c_checkpoints;
    let prefix = Greedy.circuit engine in
    let prediction =
      Predict.estimate ~use_regions ~arch ~remaining:(Greedy.remaining engine)
        ~mapping:(Greedy.mapping engine) ()
    in
    let candidate =
      project ~noise
        ~prefix_depth:(Circuit.depth2q prefix)
        ~prefix_cx:(Circuit.cx_count prefix)
        ~prefix_logfid:
          (match noise with Some m -> Circuit.log_fidelity m prefix | None -> 0.0)
        ~mean_log_success prediction ~checkpoint_cycle:(Greedy.cycle engine)
    in
    checkpoints := candidate :: !checkpoints
  in
  if config.Config.use_selector then record (); (* cc0: pure ATA *)
  let last_recorded = ref 0 in
  let aborted = ref false in
  Obs.with_span ~cat:"pipeline" "pipeline.greedy" (fun () ->
      while (not (Greedy.finished engine)) && not !aborted do
        let mapping_changed = Greedy.step engine in
        if Greedy.cycle engine > cycle_cap then aborted := true
        else if
          config.Config.use_selector && mapping_changed
          && Greedy.cycle engine - !last_recorded >= stride
          && not (Greedy.finished engine)
        then begin
          last_recorded := Greedy.cycle engine;
          record ()
        end
      done);
  if !aborted then record ();
  let greedy_body = Greedy.circuit engine in
  let greedy_depth = Circuit.depth2q greedy_body in
  let greedy_cx = Circuit.cx_count greedy_body in
  let greedy_log_fid =
    match noise with Some m -> Circuit.log_fidelity m greedy_body | None -> 0.0
  in
  let choice =
    if !aborted then begin
      (* greedy did not converge within the linear-depth budget: take the
         best hybrid (cc0 exists, so one is always available) *)
      match
        List.sort (fun a b -> compare a.Selector.checkpoint_cycle b.Selector.checkpoint_cycle)
          !checkpoints
      with
      | [] -> `Greedy
      | cs ->
          let score_of =
            Selector.score ~alpha:config.Config.alpha ~ref_depth:(max greedy_depth 1)
              ~ref_cx:(max greedy_cx 1) ~ref_log_fid:greedy_log_fid
          in
          `Hybrid
            (List.fold_left
               (fun best c -> if score_of c < score_of best then c else best)
               (List.hd cs) cs)
    end
    else if config.Config.use_selector then
      Selector.best ~alpha:config.Config.alpha ~greedy_depth ~greedy_cx ~greedy_log_fid
        !checkpoints
    else `Greedy
  in
  match choice with
  | `Greedy ->
      finalize ~arch ~program ~noise ~initial ~final:(Greedy.mapping engine)
        ~strategy:Pure_greedy
        ~seconds:(Sys.time () -. t0)
        greedy_body
  | `Hybrid candidate ->
      (* Replay greedy deterministically up to the checkpoint, then append
         the materialized ATA completion. *)
      let cut = candidate.Selector.checkpoint_cycle in
      let engine2 = Greedy.create ~config ?noise ~arch ~program ~init:initial () in
      Obs.with_span ~cat:"pipeline" "pipeline.greedy_replay" (fun () ->
          Greedy.run_until engine2 cut);
      let mapping = Mapping.copy (Greedy.mapping engine2) in
      let completion =
        Obs.with_span ~cat:"pipeline" "pipeline.ata_materialize" @@ fun () ->
        Predict.materialize ~use_regions ~arch ~program
          ~remaining:(Graph.copy (Greedy.remaining engine2))
          ~mapping ()
      in
      let body = Circuit.concat (Greedy.circuit engine2) completion in
      let strategy = if cut = 0 then Pure_ata else Hybrid cut in
      finalize ~arch ~program ~noise ~initial ~final:mapping ~strategy
        ~seconds:(Sys.time () -. t0)
        body

let finalize_body = finalize

(* Re-stamp every angle with [program]'s; an epilogue Rz takes the degree
   of the logical qubit the final mapping leaves on its wire. *)
let rebind r program =
  let interaction = Program.interaction program and graph = Program.graph program in
  let circuit = Circuit.create (Circuit.qubit_count r.circuit) in
  List.iter
    (fun g ->
      let degree =
        match g with Gate.Rz (q, _) -> Graph.degree graph (Mapping.log_of_phys r.final q) | _ -> 0
      in
      Circuit.add circuit (Program.rebind_gate interaction ~degree g))
    (Circuit.gates r.circuit);
  { r with circuit }

(* ---------- parallel compiler portfolio ---------- *)

type portfolio = {
  winner : result;
  winner_arm : string;
  arms : (string * result) list;
}

let c_portfolios = Obs.counter "pipeline.portfolios"

(* Depth-optimal (or anytime weighted) A* arm.  Only viable on small
   devices: each search edge enumerates vertex-disjoint action sets, so
   the branching factor explodes with the coupling width.  [None] when
   the device is too large or the node budget exhausts. *)
let astar_arm ?noise ?init ~node_budget arch program =
  if Arch.qubit_count arch > 16 then None
  else begin
    let t0 = Sys.time () in
    let initial =
      match init with Some m -> m | None -> default_init arch program
    in
    match
      Qcr_solver.Astar.solve ~node_budget ~weight:1.5
        ~problem:(Program.graph program) ~coupling:(Arch.graph arch)
        ~init:initial ()
    with
    | None -> None
    | Some o ->
        let sched = Qcr_solver.Astar.schedule_of_outcome o ~init:initial in
        let mapping = Mapping.copy initial in
        let r =
          Schedule.realize ~program ~mapping ~n_phys:(Arch.qubit_count arch) sched
        in
        Some
          (finalize ~arch ~program ~noise ~initial ~final:mapping
             ~strategy:Pure_ata
             ~seconds:(Sys.time () -. t0)
             r.Schedule.circuit)
  end

let portfolio_impl ?(config = Config.default) ?noise ?init
    ?(astar_budget = 30_000) arch program =
  Obs.with_span ~cat:"pipeline" "pipeline.compile_portfolio" @@ fun () ->
  Obs.incr c_portfolios;
  let t0 = Sys.time () in
  let arms =
    [|
      ("ours", fun () -> Some (ours_impl ~config ?noise ?init arch program));
      ("greedy", fun () -> Some (greedy_impl ?noise ?init arch program));
      ("ata", fun () -> Some (ata_impl ?noise ?init arch program));
      ("astar", fun () -> astar_arm ?noise ?init ~node_budget:astar_budget arch program);
    |]
  in
  let completed =
    Qcr_par.Pool.map
      (Qcr_par.Pool.default ())
      (fun (name, run) -> Option.map (fun r -> (name, r)) (run ()))
    arms
    |> Array.to_list |> List.filter_map Fun.id
  in
  (* Every arm is deterministic on its own, [Pool.map] preserves arm
     order, and the fold below takes a later arm only on a strict
     improvement — so the winner is independent of the pool size. *)
  let reference =
    match List.assoc_opt "greedy" completed with
    | Some r -> r
    | None -> snd (List.hd completed)
  in
  let score r =
    Selector.score ~alpha:config.Config.alpha
      ~ref_depth:(Stdlib.max reference.depth 1)
      ~ref_cx:(Stdlib.max reference.cx 1)
      ~ref_log_fid:reference.log_fidelity
      {
        Selector.checkpoint_cycle = 0;
        depth = r.depth;
        cx = r.cx;
        log_fid = r.log_fidelity;
      }
  in
  let winner_arm, winner =
    match completed with
    | [] -> assert false (* "ours"/"greedy"/"ata" always complete *)
    | first :: rest ->
        List.fold_left
          (fun ((_, best) as acc) ((_, r) as cand) ->
            if score r < score best then cand else acc)
          first rest
  in
  { winner = { winner with compile_seconds = Sys.time () -. t0 }; winner_arm; arms = completed }

(* ---------- unified request/reply entry point ---------- *)

module Request = struct
  type mode =
    | Ours
    | Greedy
    | Ata
    | Portfolio of { astar_budget : int }

  type t = {
    id : string; (* request id propagated into spans; "" when anonymous *)
    arch : Arch.t;
    program : Program.t;
    config : Config.t;
    noise : Noise.t option;
    init : Mapping.t option;
    mode : mode;
  }

  let make ?(id = "") ?(config = Config.default) ?noise ?init ?(mode = Ours) arch program =
    { id; arch; program; config; noise; init; mode }

  let mode_name = function
    | Ours -> "ours"
    | Greedy -> "greedy"
    | Ata -> "ata"
    | Portfolio _ -> "portfolio"
end

type error =
  | Timeout of { deadline_s : float }
  | Invalid_request of string
  | Internal of string
  | Overloaded of { queued : int; limit : int }
  | Canceled

let error_to_string = function
  | Timeout { deadline_s } -> Printf.sprintf "deadline of %gs expired" deadline_s
  | Invalid_request msg -> "invalid request: " ^ msg
  | Internal msg -> "internal error: " ^ msg
  | Overloaded { queued; limit } ->
      Printf.sprintf "overloaded: %d jobs queued (limit %d)" queued limit
  | Canceled -> "canceled"

let validate (req : Request.t) =
  let n_log = Program.qubit_count req.Request.program in
  let n_phys = Arch.qubit_count req.Request.arch in
  if n_log > n_phys then
    Error
      (Invalid_request
         (Printf.sprintf "program needs %d qubits but %s has only %d" n_log
            (Arch.name req.Request.arch) n_phys))
  else
    match req.Request.init with
    | Some m when Mapping.physical_count m <> n_phys ->
        Error
          (Invalid_request
             (Printf.sprintf "initial mapping covers %d physical qubits, device has %d"
                (Mapping.physical_count m) n_phys))
    | Some m when Mapping.logical_count m < n_log ->
        Error
          (Invalid_request
             (Printf.sprintf "initial mapping covers %d logical qubits, program has %d"
                (Mapping.logical_count m) n_log))
    | _ -> (
        match req.Request.noise with
        | Some nm when Arch.qubit_count (Noise.arch nm) <> n_phys ->
            Error (Invalid_request "noise model was sampled for a different device")
        | _ -> Ok ())

let run (req : Request.t) =
  match validate req with
  | Error _ as e -> e
  | Ok () -> (
      let { Request.id; arch; program; config; noise; init; mode } = req in
      let args =
        let mode_arg = ("mode", Request.mode_name mode) in
        if id = "" then [ mode_arg ] else [ ("req", id); mode_arg ]
      in
      Obs.with_span ~cat:"pipeline" ~args "pipeline.run" @@ fun () ->
      try
        Ok
          (match mode with
          | Request.Ours -> ours_impl ~config ?noise ?init arch program
          | Request.Greedy -> greedy_impl ~config ?noise ?init arch program
          | Request.Ata -> ata_impl ?noise ?init arch program
          | Request.Portfolio { astar_budget } ->
              (portfolio_impl ~config ?noise ?init ~astar_budget arch program).winner)
      with
      | (Out_of_memory | Stack_overflow) as e -> raise e
      | e -> Error (Internal (Printexc.to_string e)))

(* Exception-raising conveniences over [run]: a typed error surfaces as
   [Invalid_argument] or [Failure].  Callers that care about the error
   constructor use [run] / [run_portfolio] directly. *)

let unwrap = function
  | Ok r -> r
  | Error (Invalid_request msg) -> invalid_arg ("Pipeline: " ^ msg)
  | Error e -> failwith ("Pipeline: " ^ error_to_string e)

let run_exn req = unwrap (run req)

let run_portfolio (req : Request.t) =
  match validate req with
  | Error _ as e -> e
  | Ok () -> (
      let { Request.arch; program; config; noise; init; mode; _ } = req in
      let astar_budget =
        match mode with Request.Portfolio { astar_budget } -> astar_budget | _ -> 30_000
      in
      try Ok (portfolio_impl ~config ?noise ?init ~astar_budget arch program) with
      | (Out_of_memory | Stack_overflow) as e -> raise e
      | e -> Error (Internal (Printexc.to_string e)))

let run_portfolio_exn req =
  match run_portfolio req with
  | Ok p -> p
  | Error (Invalid_request msg) -> invalid_arg ("Pipeline: " ^ msg)
  | Error e -> failwith ("Pipeline: " ^ error_to_string e)
