module Graph = Qcr_graph.Graph

type interaction =
  | Qaoa_maxcut of { gamma : float; beta : float }
  | Qaoa_level of { gamma : float; beta : float }
  | Two_local of { theta : float }
  | Bare_cz

type t = { name : string; graph : Graph.t; interaction : interaction }

let make ?(name = "program") graph interaction = { name; graph; interaction }

let graph t = t.graph

let interaction t = t.interaction

let name t = t.name

let qubit_count t = Graph.vertex_count t.graph

let edge_count t = Graph.edge_count t.graph

(* Every angle a program's gates carry, in one place: [edge_gate],
   [epilogue] and [rebind_gate] all take them from here, so re-stamping a
   compiled circuit reproduces a fresh compile's angles bit for bit. *)
let phase_angle gamma = 2.0 *. gamma

let rz_angle gamma degree = -.gamma *. float_of_int degree

let mixer_angle beta = 2.0 *. beta

let edge_gate t u v =
  match t.interaction with
  | Qaoa_maxcut { gamma; _ } | Qaoa_level { gamma; _ } -> Gate.Cphase (u, v, phase_angle gamma)
  | Two_local { theta } -> Gate.Rzz (u, v, theta)
  | Bare_cz -> Gate.Cz (u, v)

let prologue t =
  match t.interaction with
  | Qaoa_maxcut _ -> List.init (qubit_count t) (fun q -> Gate.H q)
  | Qaoa_level _ | Two_local _ | Bare_cz -> []

let epilogue t =
  match t.interaction with
  | Qaoa_maxcut { gamma; beta } | Qaoa_level { gamma; beta } ->
      (* The maxcut phase separator e^{-i gamma (1-Z_u Z_v)/2} per edge is
         CPHASE(2 gamma) plus Rz(-gamma) on both endpoints (up to global
         phase); the Rz corrections commute with everything diagonal, so
         we fold them here and the edge gates stay single two-qubit
         operators. *)
      let rz =
        List.concat_map
          (fun q ->
            let d = Graph.degree t.graph q in
            if d = 0 then [] else [ Gate.Rz (q, rz_angle gamma d) ])
          (List.init (qubit_count t) (fun q -> q))
      in
      rz @ List.init (qubit_count t) (fun q -> Gate.Rx (q, mixer_angle beta))
  | Two_local _ | Bare_cz -> []

let rebind_gate interaction ~degree g =
  match (interaction, g) with
  | (Qaoa_maxcut { gamma; beta } | Qaoa_level { gamma; beta }), g -> (
      match g with
      | Gate.Cphase (a, b, _) -> Gate.Cphase (a, b, phase_angle gamma)
      | Gate.Swap_interact (a, b, _) -> Gate.Swap_interact (a, b, phase_angle gamma)
      | Gate.Rz (q, _) -> Gate.Rz (q, rz_angle gamma degree)
      | Gate.Rx (q, _) -> Gate.Rx (q, mixer_angle beta)
      | g -> g)
  | Two_local { theta }, Gate.Rzz (a, b, _) -> Gate.Rzz (a, b, theta)
  | Two_local { theta }, Gate.Swap_rzz (a, b, _) -> Gate.Swap_rzz (a, b, theta)
  | (Two_local _ | Bare_cz), g -> g

let logical_circuit t =
  let c = Circuit.create (qubit_count t) in
  Circuit.add_list c (prologue t);
  Graph.iter_edges (fun u v -> Circuit.add c (edge_gate t u v)) t.graph;
  Circuit.add_list c (epilogue t);
  c

let with_angles t ~gamma ~beta =
  match t.interaction with
  | Qaoa_maxcut _ -> { t with interaction = Qaoa_maxcut { gamma; beta } }
  | Qaoa_level _ -> { t with interaction = Qaoa_level { gamma; beta } }
  | Two_local _ | Bare_cz -> t
