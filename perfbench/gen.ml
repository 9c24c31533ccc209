(* Seeded request lists for the three workloads.

   Each workload is a fixed list: a warm-up part (outside the timed
   phase, inside setup_s) and a timed part whose length depends only on
   the seed and the requested run length, so two runs with the same
   arguments send byte-identical lines and their request counts and
   quality sums (depth_sum, cx_sum) agree exactly.  The structure of
   every list (sizes, device families, modes, order) is fixed; the seed
   draws the graph instances, noise seeds and angles, so runs with
   different seeds measure the same mix of work.  No request carries
   deadline_s: deadline replies depend on timing. *)

module Arch = Qcr_arch.Arch
module Graph = Qcr_graph.Graph
module Generate = Qcr_graph.Generate
module Prng = Qcr_util.Prng
module Program = Qcr_circuit.Program
module Request = Qcr_service.Compile_request
module Protocol = Qcr_service.Protocol
module Json = Qcr_obs.Json

type workload = Qaoa_sweep | Compile_1k | Suite_rerun

let workloads = [ ("qaoa-sweep", Qaoa_sweep); ("compile-1k", Compile_1k); ("suite-rerun", Suite_rerun) ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let of_name s = List.assoc_opt s workloads

type t = {
  workload : workload;
  warmup : string array;  (** wire lines sent during set-up *)
  timed : string array;  (** wire lines of the timed phase, in order *)
  async : bool;  (** submit -> ack -> wait per job; otherwise sync compile *)
  window : int;  (** operations in flight on the one connection *)
  block : int;
      (** operations in one cycle of the timed list's fixed structure: every
          [block] consecutive timed operations carry the same mix of
          sizes, device families and modes, so blocks are comparable *)
}

let line ~async req =
  Json.to_string
    (Protocol.encode (if async then Protocol.Op.Submit (req, None) else Protocol.Op.Compile req))

let lines ~async reqs = Array.of_list (List.map (line ~async) reqs)

(* Operations per second of the timed phase on the reference host (2-core
   x86-64, server at 1 domain).  They only size the fixed lists so a run
   measures for about [seconds]; they never make a list time-bounded. *)
let rate = function Qaoa_sweep -> 48.0 | Compile_1k -> 1.45 | Suite_rerun -> 3100.0

let target_ops w ~seconds = float_of_int seconds *. rate w

(* ---------- qaoa-sweep: the paper's variational loop (§7.4) ---------- *)

(* Graph [i] of the sweep.  Its stratum [i mod 12] fixes the size (spread
   over 20..54 logical qubits), the kind (3-regular or Erdős–Rényi of mean
   degree 3, alternating) and the device (noisy heavy-hex or Sycamore,
   both at most 128 qubits, so placement is the noise-aware candidate
   selection of §5.3); the seed draws the instance.  Many short loops
   rather than a few long ones: per-instance compile cost varies by tens
   of percent, and a run's sums and medians are steady across seeds only
   when they average over many instances. *)
let qaoa_graphs = 144

let qaoa_strata = 12

let qaoa_graph rng i =
  let s = i mod qaoa_strata in
  let n = 20 + (34 * s / (qaoa_strata - 1)) in
  let regular = s mod 2 = 0 in
  let n = if regular && n mod 2 = 1 then n - 1 else n in
  let graph =
    if regular then Generate.random_regular rng ~n ~degree:3
    else Generate.erdos_renyi rng ~n ~density:(3.0 /. float_of_int (n - 1))
  in
  let kind = if s / 2 mod 2 = 0 then Arch.Heavy_hex else Arch.Sycamore in
  (n, graph, kind)

(* An optimizer-like walk: a seeded start, then small seeded steps, so
   every point is distinct (the angles are part of the cache key). *)
let angle_walk rng points =
  let gamma = ref (0.2 +. Prng.float rng 0.6) and beta = ref (0.1 +. Prng.float rng 0.4) in
  List.init points (fun _ ->
      let p = (!gamma, !beta) in
      gamma := !gamma +. Prng.gaussian rng ~mu:0.0 ~sigma:0.05;
      beta := !beta +. Prng.gaussian rng ~mu:0.0 ~sigma:0.03;
      p)

let qaoa_sweep ~seed ~seconds =
  let rng = Prng.create seed in
  let timed_points =
    max 2 (int_of_float (ceil (target_ops Qaoa_sweep ~seconds /. float_of_int qaoa_graphs)))
  in
  let loops =
    List.init qaoa_graphs (fun g ->
        let n, graph, kind = qaoa_graph rng g in
        let noise_seed = Prng.int rng 1_000_000 in
        List.mapi
          (fun p (gamma, beta) ->
            Request.make
              ~id:(Printf.sprintf "qs-%d-%d" g p)
              ~interaction:(Program.Qaoa_maxcut { gamma; beta })
              ~noise_seed ~arch_kind:kind ~qubits:n ~edges:(Graph.edges graph) ())
          (angle_walk rng (1 + timed_points)))
  in
  (* the loops advance in lockstep, one point of every graph in turn, so
     each run of 12 consecutive requests covers the 12 strata once *)
  let timed =
    List.init timed_points (fun p -> List.map (fun loop -> List.nth loop (p + 1)) loops)
  in
  {
    workload = Qaoa_sweep;
    warmup = lines ~async:false (List.map List.hd loops);
    timed = lines ~async:false (List.concat timed);
    async = false;
    window = 1;
    block = qaoa_strata;
  }

(* ---------- compile-1k: thousand-qubit scale ---------- *)

let big_n = 1024

type program_kind = Qaoa3 | Ising_nnn

(* Every (program kind, device family) pair in a fixed cycle; the first
   three cover the three device families for the warm-up. *)
let combos =
  [|
    (Qaoa3, Arch.Grid);
    (Ising_nnn, Arch.Heavy_hex);
    (Qaoa3, Arch.Sycamore);
    (Ising_nnn, Arch.Grid);
    (Qaoa3, Arch.Heavy_hex);
    (Ising_nnn, Arch.Sycamore);
  |]

(* A 3-regular MaxCut graph, or a next-nearest-neighbour Ising chain whose
   NNN couplings are each present with probability 1/2 — so no two
   requests share structure. *)
let big_request rng ~id (kind, arch_kind) =
  let edges, interaction =
    match kind with
    | Qaoa3 ->
        let g = Generate.random_regular rng ~n:big_n ~degree:3 in
        let gamma = 0.2 +. Prng.float rng 0.6 and beta = 0.1 +. Prng.float rng 0.4 in
        (Graph.edges g, Program.Qaoa_maxcut { gamma; beta })
    | Ising_nnn ->
        let nn = List.init (big_n - 1) (fun i -> (i, i + 1)) in
        let nnn =
          List.filter_map
            (fun i -> if Prng.bool rng then Some (i, i + 2) else None)
            (List.init (big_n - 2) Fun.id)
        in
        (nn @ nnn, Program.Two_local { theta = 0.1 +. Prng.float rng 0.5 })
  in
  Request.make ~id ~interaction ~arch_kind ~qubits:big_n ~edges ()

let compile_1k ~seed ~seconds =
  let rng = Prng.create seed in
  let n_timed =
    let c = Array.length combos in
    c * max 1 (int_of_float (Float.round (target_ops Compile_1k ~seconds /. float_of_int c)))
  in
  let warmup = List.init 3 (fun i -> big_request rng ~id:(Printf.sprintf "1k-w%d" i) combos.(i)) in
  let timed =
    List.init n_timed (fun i ->
        big_request rng ~id:(Printf.sprintf "1k-%d" i) combos.(i mod Array.length combos))
  in
  {
    workload = Compile_1k;
    warmup = lines ~async:false warmup;
    timed = lines ~async:false timed;
    async = false;
    window = 1;
    block = Array.length combos;
  }

(* ---------- suite-rerun: a benchmarking client over the async API ---------- *)

(* K distinct circuits: every (family, mode) pair equally often, a third
   of them noisy, sizes 8..27 and densities 0.2..0.5 in fixed strata (the
   seed draws the instances); K stays well inside the default 512-entry
   cache. *)
let suite_size = 108

let suite_families = [| Arch.Line; Arch.Grid; Arch.Grid3d; Arch.Sycamore; Arch.Heavy_hex; Arch.Hexagon |]

let suite_modes = [| Request.Ours; Request.Greedy; Request.Ata |]

let suite_densities = [| 0.2; 0.3; 0.4; 0.5 |]

let suite_window = 32

let suite_circuit rng i =
  let n = 8 + (i * 7 mod 20) in
  let g = Generate.erdos_renyi rng ~n ~density:suite_densities.(i / 3 mod 4) in
  let edges = match Graph.edges g with [] -> [ (0, 1) ] | es -> es in
  let noise_seed = if i / 18 mod 3 = 0 then Some (Prng.int rng 1_000_000) else None in
  Request.make
    ~id:(Printf.sprintf "sr-%d" i)
    ~mode:suite_modes.(i / 6 mod 3)
    ?noise_seed ~arch_kind:suite_families.(i mod 6) ~qubits:n ~edges ()

let suite_rerun ~seed ~seconds =
  let rng = Prng.create seed in
  let suite = lines ~async:true (List.init suite_size (suite_circuit rng)) in
  let reps =
    max 2 (int_of_float (Float.round (target_ops Suite_rerun ~seconds /. float_of_int suite_size)))
  in
  {
    workload = Suite_rerun;
    warmup = suite;
    timed = Array.concat (List.init reps (fun _ -> suite));
    async = true;
    window = suite_window;
    block = suite_size;
  }

let make w ~seed ~seconds =
  match w with
  | Qaoa_sweep -> qaoa_sweep ~seed ~seconds
  | Compile_1k -> compile_1k ~seed ~seconds
  | Suite_rerun -> suite_rerun ~seed ~seconds

let wait_line job = Json.to_string (Protocol.encode (Protocol.Op.Wait job))

(* The request exactly as the server sees it: decoded from its wire
   line, so in-process replays and checks use identical float bits. *)
let request_of_line l =
  match Protocol.decode l with
  | Ok (Protocol.Op.Compile r) | Ok (Protocol.Op.Submit (r, _)) -> r
  | _ -> invalid_arg "Gen.request_of_line: not a compile or submit line"

(* The distinct lines of [lines] in order of first occurrence, each as
   the index where it first occurs and its request. *)
let distinct lines =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  Array.iteri
    (fun i l ->
      if not (Hashtbl.mem seen l) then begin
        Hashtbl.add seen l ();
        acc := (i, request_of_line l) :: !acc
      end)
    lines;
  List.rev !acc
