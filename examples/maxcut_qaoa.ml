(* End-to-end QAOA Max-Cut on a noisy Mumbai-like 27-qubit device
   (paper §7.4, Figs 24-25): compile with our pipeline and with the
   2QAN-like baseline, run the angle-optimization loop, and print the
   expectation-value convergence plus TVD.

   Run with:  dune exec examples/maxcut_qaoa.exe *)

module Arch = Qcr_arch.Arch
module Noise = Qcr_arch.Noise
module Generate = Qcr_graph.Generate
module Program = Qcr_circuit.Program
module Pipeline = Qcr_core.Pipeline
module Twoqan = Qcr_baselines.Twoqan_like
module Qaoa = Qcr_sim.Qaoa
module Channel = Qcr_sim.Channel
module Sv = Qcr_sim.Statevector
module Tablefmt = Qcr_util.Tablefmt
module Prng = Qcr_util.Prng

let () =
  let n = 10 in
  let graph = Generate.erdos_renyi (Prng.create 31) ~n ~density:0.3 in
  let arch = Arch.mumbai_like () in
  let noise = Noise.sampled ~seed:9 arch in
  Printf.printf "QAOA Max-Cut, %d-qubit random graph (density 0.3) on %s\n\n" n (Arch.name arch);

  (* Our compiler never reads an angle: compile the graph once and
     re-stamp each evaluation's angles onto it.  The baseline compiles at
     every evaluation. *)
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
    let r = Twoqan.compile ~noise ~anneal_moves:3000 arch p in
    (r.Pipeline.circuit, r.Pipeline.final)
  in

  let rounds = 25 in
  let ours = Qaoa.run_driver ~rounds ~noise ~graph ~compile:compile_ours () in
  let base = Qaoa.run_driver ~rounds ~noise ~graph ~compile:compile_baseline () in

  let table = Tablefmt.create [ "round"; "ours"; "baseline (2QAN-like)" ] in
  Array.iteri
    (fun i e ->
      if i mod 4 = 0 || i = rounds - 1 then
        Tablefmt.add_row table
          [
            string_of_int (i + 1);
            Tablefmt.cell_float e;
            Tablefmt.cell_float base.Qaoa.energies.(i);
          ])
    ours.Qaoa.energies;
  Tablefmt.print table;
  Printf.printf "\nbrute-force max cut = %d (so the ideal energy floor is %d)\n"
    ours.Qaoa.optimum_cut (-ours.Qaoa.optimum_cut);
  Printf.printf "best energy: ours %.3f at (gamma=%.2f, beta=%.2f) | baseline %.3f\n"
    ours.Qaoa.best_energy ours.Qaoa.best_gamma ours.Qaoa.best_beta base.Qaoa.best_energy;

  (* TVD of each compiled circuit's noisy output vs the ideal distribution *)
  let program = Program.make graph (Program.Qaoa_maxcut { gamma = ours.Qaoa.best_gamma; beta = ours.Qaoa.best_beta }) in
  let ideal = Sv.probabilities (Sv.run (Program.logical_circuit program)) in
  let tvd_of compile =
    let compiled, final = compile program in
    let e = Qaoa.evaluate ~noise ~graph ~compiled ~final () in
    Channel.tvd e.Qaoa.distribution ideal
  in
  Printf.printf "TVD vs ideal: ours %.3f | baseline %.3f (smaller is better)\n"
    (tvd_of compile_ours) (tvd_of compile_baseline)
