(* One function per table/figure of the paper's evaluation (§7).  Each
   prints the same rows/series the paper reports; EXPERIMENTS.md records
   the paper-vs-measured comparison. *)

module Arch = Qcr_arch.Arch
module Noise = Qcr_arch.Noise
module Graph = Qcr_graph.Graph
module Generate = Qcr_graph.Generate
module Mapping = Qcr_circuit.Mapping
module Program = Qcr_circuit.Program
module Pipeline = Qcr_core.Pipeline
module Config = Qcr_core.Config
module Astar = Qcr_solver.Astar
module Suite = Qcr_workloads.Suite
module Hamiltonian = Qcr_workloads.Hamiltonian
module Tablefmt = Qcr_util.Tablefmt
module Prng = Qcr_util.Prng
module Qaoa = Qcr_sim.Qaoa
module Channel = Qcr_sim.Channel
module Sv = Qcr_sim.Statevector
open Common

(* ------------------------------------------------------------------ *)
(* Fig 17: greedy vs solver-guided (ATA) vs ours, normalized to greedy. *)

let fig17 scale =
  heading "Fig 17: pure-greedy vs solver(ATA) vs ours (normalized to greedy)";
  let sizes = match scale with Quick -> [ 64 ] | Default -> [ 64; 256; 1024 ] | Full -> [ 64; 256; 1024 ] in
  List.iter
    (fun kind ->
      let depth_table =
        Tablefmt.create [ "graph"; "greedy"; "solver"; "ours"; "(depth, normalized)" ]
      in
      let gate_table =
        Tablefmt.create [ "graph"; "greedy"; "solver"; "ours"; "(gate count, normalized)" ]
      in
      List.iter
        (fun n ->
          List.iter
            (fun density ->
              let cases = scale_cases scale ~at_n:n in
              let instances = Suite.random_instances ~cases ~n ~density () in
              let g = measure greedy_arm kind instances in
              let s = measure ata_arm kind instances in
              let o = measure ours kind instances in
              let label = Printf.sprintf "%d-%g" n density in
              let norm x base = Tablefmt.cell_ratio (x /. base) in
              Tablefmt.add_row depth_table
                [ label; "1.00"; norm s.mean_depth g.mean_depth; norm o.mean_depth g.mean_depth ];
              Tablefmt.add_row gate_table
                [ label; "1.00"; norm s.mean_cx g.mean_cx; norm o.mean_cx g.mean_cx ])
            [ 0.1; 0.3 ])
        sizes;
      Printf.printf "\n-- %s --\n" (kind_label kind);
      Tablefmt.print depth_table;
      print_newline ();
      Tablefmt.print gate_table)
    [ Arch.Heavy_hex; Arch.Sycamore ]

(* ------------------------------------------------------------------ *)
(* Figs 20-23: ours vs QAIM vs Paulihedral on heavy-hex / Sycamore. *)

let fig20_23 kind scale =
  heading
    (Printf.sprintf
       "Figs %s: depth and gate count on %s (ours vs QAIM_IC vs Paulihedral)"
       (match kind with Arch.Heavy_hex -> "20-21" | _ -> "22-23")
       (kind_label kind));
  let sizes = match scale with Quick -> [ 64 ] | _ -> [ 64; 128; 256 ] in
  List.iter
    (fun graph_type ->
      let depth_table =
        Tablefmt.create [ "graph"; "Ours"; "QAIM_IC"; "Paulihedral"; "(depth)" ]
      in
      let gate_table =
        Tablefmt.create [ "graph"; "Ours"; "QAIM_IC"; "Paulihedral"; "(gate count)" ]
      in
      List.iter
        (fun n ->
          List.iter
            (fun density ->
              let cases = scale_cases scale ~at_n:n in
              let instances =
                match graph_type with
                | `Random -> Suite.random_instances ~cases ~n ~density ()
                | `Regular -> Suite.regular_instances ~cases ~n ~density ()
              in
              let o = measure ours kind instances in
              let q = measure qaim kind instances in
              let p = measure paulihedral kind instances in
              let label =
                Printf.sprintf "%s-%d-%g"
                  (match graph_type with `Random -> "rand" | `Regular -> "reg")
                  n density
              in
              Tablefmt.add_row depth_table
                [ label; cell_mean o.mean_depth; cell_mean q.mean_depth; cell_mean p.mean_depth ];
              Tablefmt.add_row gate_table
                [ label; cell_mean o.mean_cx; cell_mean q.mean_cx; cell_mean p.mean_cx ])
            [ 0.3; 0.5 ])
        sizes;
      Printf.printf "\n-- %s graphs --\n"
        (match graph_type with `Random -> "random" | `Regular -> "regular");
      Tablefmt.print depth_table;
      print_newline ();
      Tablefmt.print gate_table)
    [ `Random; `Regular ]

let fig20_21 scale = fig20_23 Arch.Heavy_hex scale

let fig22_23 scale = fig20_23 Arch.Sycamore scale

(* ------------------------------------------------------------------ *)
(* Table 1: ours vs 2QAN vs QAIM.  2QAN's quadratic placement times out
   beyond 128 qubits on heavy-hex (and 64 on Sycamore) exactly as in the
   paper, so those cells print "-". *)

let tab1 scale =
  heading "Table 1: ours vs 2QAN vs QAIM (random graphs)";
  let table =
    Tablefmt.create
      [ "arch"; "graph"; "Ours D"; "2QAN D"; "QAIM D"; "Ours CX"; "2QAN CX"; "QAIM CX" ]
  in
  let sizes = match scale with Quick -> [ 64 ] | _ -> [ 64; 128; 256 ] in
  List.iter
    (fun kind ->
      let twoqan_limit = match kind with Arch.Heavy_hex -> 128 | _ -> 64 in
      List.iter
        (fun n ->
          List.iter
            (fun density ->
              let cases = scale_cases scale ~at_n:n in
              let instances = Suite.random_instances ~cases ~n ~density () in
              let o = measure ours kind instances in
              let q = measure qaim kind instances in
              let t =
                if n <= twoqan_limit then Some (measure twoqan kind instances) else None
              in
              let cell f = function Some p -> cell_mean (f p) | None -> "-" in
              Tablefmt.add_row table
                [
                  kind_label kind;
                  Printf.sprintf "%d-%g" n density;
                  cell_mean o.mean_depth;
                  cell (fun p -> p.mean_depth) t;
                  cell_mean q.mean_depth;
                  cell_mean o.mean_cx;
                  cell (fun p -> p.mean_cx) t;
                  cell_mean q.mean_cx;
                ])
            [ 0.3; 0.5 ])
        sizes)
    [ Arch.Heavy_hex; Arch.Sycamore ];
  Tablefmt.print table

(* ------------------------------------------------------------------ *)
(* Table 2: 1024-qubit graphs, ours vs Paulihedral. *)

let tab2 scale =
  heading "Table 2: 1024-qubit graphs (ours vs Paulihedral)";
  let n = match scale with Quick -> 128 | _ -> 1024 in
  let table =
    Tablefmt.create [ "arch"; "graph"; "Ours D"; "Pauli D"; "Ours CX"; "Pauli CX" ]
  in
  let workloads =
    [
      (Printf.sprintf "%d-0.3" n, Suite.random_instances ~cases:1 ~n ~density:0.3 ());
      (Printf.sprintf "%d-0.5" n, Suite.random_instances ~cases:1 ~n ~density:0.5 ());
      (Printf.sprintf "%d-%d" n (n * 5 / 16), Suite.regular_by_degree ~cases:1 ~n ~degree:(n * 5 / 16) ());
      (Printf.sprintf "%d-%d" n (n * 15 / 32), Suite.regular_by_degree ~cases:1 ~n ~degree:(n * 15 / 32) ());
    ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun (label, instances) ->
          let o = measure ours kind instances in
          let p = measure paulihedral kind instances in
          Tablefmt.add_row table
            [
              kind_label kind;
              label;
              cell_mean o.mean_depth;
              cell_mean p.mean_depth;
              cell_mean o.mean_cx;
              cell_mean p.mean_cx;
            ])
        workloads)
    [ Arch.Heavy_hex; Arch.Sycamore ];
  Tablefmt.print table

(* ------------------------------------------------------------------ *)
(* Table 3: 2-local Hamiltonian simulation at 64-qubit heavy-hex. *)

let tab3 _scale =
  heading "Table 3: 2-local Hamiltonians on heavy-hex (ours vs 2QAN)";
  let arch = Arch.smallest_for Arch.Heavy_hex 64 in
  let table =
    Tablefmt.create [ "benchmark"; "Ours D"; "2QAN D"; "Ours CX"; "2QAN CX" ]
  in
  let run name graph =
    let program = Hamiltonian.trotter_step graph in
    let o = Pipeline.run_exn (Pipeline.Request.make arch program) in
    let t = Qcr_baselines.Twoqan_like.compile arch program in
    Tablefmt.add_row table
      [
        name;
        string_of_int o.Pipeline.depth;
        string_of_int t.Pipeline.depth;
        string_of_int o.Pipeline.cx;
        string_of_int t.Pipeline.cx;
      ]
  in
  run "1D-Ising" (Hamiltonian.nnn_1d_ising 64);
  run "2D-XY" (Hamiltonian.nnn_2d_xy ~rows:8 ~cols:8);
  run "3D-Heisenberg" (Hamiltonian.nnn_3d_heisenberg ~dim:4);
  Tablefmt.print table

(* ------------------------------------------------------------------ *)
(* Table 4: ours vs the depth-optimal solver (OLSQ/SATMAP substitute) on
   small 2D-grid instances. *)

let tab4 scale =
  heading "Table 4: ours vs SAT-style optimal solver on 2D grid (tiny graphs)";
  let table =
    Tablefmt.create
      [ "graph"; "Ours D"; "solver D"; "Ours CX"; "solver CX"; "Ours s"; "solver s"; "opt?" ]
  in
  let cases = match scale with Quick -> [ (10, 0.2) ] | _ -> [ (10, 0.2); (10, 0.3); (12, 0.2); (12, 0.3); (15, 0.2) ] in
  List.iter
    (fun (n, density) ->
      let rng = Prng.create ((n * 100) + int_of_float (density *. 10.0)) in
      let graph = Generate.erdos_renyi rng ~n ~density in
      let program = Program.make graph Program.Bare_cz in
      let arch = Arch.smallest_for Arch.Grid n in
      let o = Pipeline.run_exn (Pipeline.Request.make arch program) in
      let n_phys = Arch.qubit_count arch in
      let init = Mapping.identity ~logical:n ~physical:n_phys in
      let t0 = Unix.gettimeofday () in
      let outcome =
        Astar.solve ~node_budget:40_000 ~time_budget:20.0 ~weight:1.5 ~problem:graph
          ~coupling:(Arch.graph arch) ~init ()
      in
      let solver_seconds = Unix.gettimeofday () -. t0 in
      let row =
        match outcome with
        | Some s ->
            [
              Printf.sprintf "%d-%g" n density;
              string_of_int o.Pipeline.depth;
              string_of_int s.Astar.depth;
              string_of_int o.Pipeline.cx;
              (* solver gate count: 2 CX per program edge + 3 per swap *)
              string_of_int ((2 * Graph.edge_count graph) + (3 * s.Astar.swap_total));
              Printf.sprintf "%.3f" o.Pipeline.compile_seconds;
              Printf.sprintf "%.2f" solver_seconds;
              (if s.Astar.optimal then "yes" else "anytime");
            ]
        | None ->
            [
              Printf.sprintf "%d-%g" n density;
              string_of_int o.Pipeline.depth;
              "-";
              string_of_int o.Pipeline.cx;
              "-";
              Printf.sprintf "%.3f" o.Pipeline.compile_seconds;
              Printf.sprintf "%.2f" solver_seconds;
              "budget";
            ]
      in
      Tablefmt.add_row table row)
    cases;
  Tablefmt.print table

(* ------------------------------------------------------------------ *)
(* Figs 24-25 + §7.4: QAOA on the Mumbai-like noisy device. *)

let qaoa_figure ~n ~rounds =
  let graph = Generate.erdos_renyi (Prng.create (31 + n)) ~n ~density:0.3 in
  let arch = Arch.mumbai_like () in
  let noise = Noise.sampled ~seed:9 arch in
  (* ours compiles the graph once and re-stamps each evaluation's angles
     (no compiler phase reads one); the baseline compiles every time *)
  let ours =
    Pipeline.run_exn
      (Pipeline.Request.make ~noise arch
         (Program.make graph (Program.Qaoa_maxcut { gamma = 0.0; beta = 0.0 })))
  in
  let compile_ours p =
    let r = Pipeline.rebind ours p in
    (r.Pipeline.circuit, r.Pipeline.final)
  in
  let compile_baseline p =
    let r = Qcr_baselines.Twoqan_like.compile ~noise ~anneal_moves:3000 arch p in
    (r.Pipeline.circuit, r.Pipeline.final)
  in
  let o = Qaoa.run_driver ~rounds ~noise ~graph ~compile:compile_ours () in
  let b = Qaoa.run_driver ~rounds ~noise ~graph ~compile:compile_baseline () in
  let table = Tablefmt.create [ "round"; "Ours"; "Baseline"; "(expectation value)" ] in
  Array.iteri
    (fun i e ->
      Tablefmt.add_row table
        [ string_of_int (i + 1); Tablefmt.cell_float e; Tablefmt.cell_float b.Qaoa.energies.(i) ])
    o.Qaoa.energies;
  Tablefmt.print table;
  print_newline ();
  print_string
    (Qcr_util.Asciiplot.series ~names:[ "ours"; "baseline" ]
       [ o.Qaoa.energies; b.Qaoa.energies ]);
  Printf.printf "best: ours %.3f | baseline %.3f | ideal floor %d\n" o.Qaoa.best_energy
    b.Qaoa.best_energy (-o.Qaoa.optimum_cut);
  (o, b, graph, noise, compile_ours, compile_baseline)

let fig24 scale =
  heading "Fig 24: full QAOA on Mumbai-like device, 10-qubit random graph (density 0.3)";
  let rounds = match scale with Quick -> 8 | _ -> 30 in
  ignore (qaoa_figure ~n:10 ~rounds)

let fig25 scale =
  heading "Fig 25: full QAOA on Mumbai-like device, 20-qubit random graph (density 0.3)";
  let rounds = match scale with Quick -> 4 | _ -> 25 in
  ignore (qaoa_figure ~n:20 ~rounds)

let tvd scale =
  heading "TVD (§7.4): compiled-circuit output vs ideal distribution";
  let table = Tablefmt.create [ "benchmark"; "Ours"; "2QAN" ] in
  let sizes = match scale with Quick -> [ 10 ] | _ -> [ 10; 20 ] in
  List.iter
    (fun n ->
      let graph = Generate.erdos_renyi (Prng.create (31 + n)) ~n ~density:0.3 in
      let arch = Arch.mumbai_like () in
      let noise = Noise.sampled ~seed:9 arch in
      let program = Program.make graph (Program.Qaoa_maxcut { gamma = 0.4; beta = 0.35 }) in
      let ideal = Sv.probabilities (Sv.run (Program.logical_circuit program)) in
      (* shot sampling over 2^20 bins saturates TVD for any circuit, so
         the distance is taken on the exact channel output *)
      let tvd_of compiled final =
        let e = Qaoa.evaluate ~noise ~graph ~compiled ~final () in
        Channel.tvd e.Qaoa.distribution ideal
      in
      let o = Pipeline.run_exn (Pipeline.Request.make ~noise arch program) in
      let b = Qcr_baselines.Twoqan_like.compile ~noise ~anneal_moves:3000 arch program in
      Tablefmt.add_row table
        [
          Printf.sprintf "random %d-0.3" n;
          Printf.sprintf "%.2f" (tvd_of o.Pipeline.circuit o.Pipeline.final);
          Printf.sprintf "%.2f" (tvd_of b.Pipeline.circuit b.Pipeline.final);
        ])
    sizes;
  Tablefmt.print table

(* ------------------------------------------------------------------ *)
(* Fig 26: compilation time scaling. *)

let fig26 scale =
  heading "Fig 26: compilation time vs problem size (heavy-hex, density 0.3)";
  let sizes =
    match scale with
    | Quick -> [ 64; 128 ]
    | Default | Full -> [ 64; 128; 256; 384; 512; 768; 1024 ]
  in
  let table = Tablefmt.create [ "qubits"; "compile (s)"; "depth"; "CX" ] in
  let times = ref [] in
  List.iter
    (fun n ->
      let inst = List.hd (Suite.random_instances ~cases:1 ~n ~density:0.3 ()) in
      let program = Suite.program_of inst in
      let arch = Arch.smallest_for Arch.Heavy_hex n in
      let r = Pipeline.run_exn (Pipeline.Request.make arch program) in
      times := r.Pipeline.compile_seconds :: !times;
      Tablefmt.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.2f" r.Pipeline.compile_seconds;
          string_of_int r.Pipeline.depth;
          string_of_int r.Pipeline.cx;
        ])
    sizes;
  Tablefmt.print table;
  print_newline ();
  print_string
    (Qcr_util.Asciiplot.series ~height:10 ~names:[ "compile seconds" ]
       [ Array.of_list (List.rev !times) ])

(* ------------------------------------------------------------------ *)
(* Ablations (§5.4-flavoured): which design choices carry the result. *)

let ablation scale =
  heading "Ablation: compiler design choices (heavy-hex, random 0.3)";
  let sizes = match scale with Quick -> [ 64 ] | _ -> [ 64; 256 ] in
  let table = Tablefmt.create [ "config"; "n"; "depth"; "CX"; "compile (s)" ] in
  let configs =
    [
      ("full (default)", Config.default);
      ("conflict-graph MIS sched", { Config.default with Config.use_coloring = true });
      ("single-swap (no matching)", { Config.default with Config.use_matching = false });
      ("no selector", { Config.default with Config.use_selector = false });
      ("no region detection", { Config.default with Config.use_regions = false });
      ("crosstalk-aware", { Config.default with Config.crosstalk_aware = true });
    ]
  in
  List.iter
    (fun n ->
      let cases = scale_cases scale ~at_n:n in
      let instances = Suite.random_instances ~cases ~n ~density:0.3 () in
      List.iter
        (fun (name, config) ->
          let arm =
            { arm_name = name; compile = (fun a p -> Pipeline.run_exn (Pipeline.Request.make ~config a p)) }
          in
          let m = measure arm Arch.Heavy_hex instances in
          Tablefmt.add_row table
            [
              name;
              string_of_int n;
              cell_mean m.mean_depth;
              cell_mean m.mean_cx;
              Printf.sprintf "%.2f" m.mean_seconds;
            ])
        configs;
      (* reference: a generic SABRE-style router with no regularity or
         parallel-SWAP machinery *)
      if n <= 128 then begin
        let arm =
          {
            arm_name = "generic SABRE-style";
            compile = (fun a p -> Qcr_baselines.Sabre_like.compile a p);
          }
        in
        let m = measure arm Arch.Heavy_hex instances in
        Tablefmt.add_row table
          [
            "generic SABRE-style (ref)";
            string_of_int n;
            cell_mean m.mean_depth;
            cell_mean m.mean_cx;
            Printf.sprintf "%.2f" m.mean_seconds;
          ]
      end)
    sizes;
  Tablefmt.print table
