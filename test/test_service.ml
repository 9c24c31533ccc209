(* The compilation service: content-addressed caching, batch semantics,
   typed errors, and the deadline-degradation ladder (driven by a
   scripted clock, so every timing decision in the test is exact). *)

module Clock = Qcr_obs.Clock
module Json = Qcr_obs.Json
module Pool = Qcr_par.Pool
module Program = Qcr_circuit.Program
module Pipeline = Qcr_core.Pipeline
module Request = Qcr_service.Compile_request
module Reply = Qcr_service.Compile_reply
module Service = Qcr_service.Service

let triangle = [ (0, 1); (1, 2); (0, 2) ]

let path = [ (0, 1); (1, 2); (2, 3) ]

let star = [ (0, 1); (0, 2); (0, 3) ]

(* Distinct [gamma] values give distinct cache keys over the same shape,
   but one route key: a new [gamma] on a compiled shape is a route hit,
   so a test that needs a cold compile changes the [edges] instead. *)
let req ?mode ?deadline_s ?id ?trace ?(edges = triangle) gamma =
  Request.make ?id ?mode ?deadline_s ?trace
    ~interaction:(Program.Qaoa_maxcut { gamma; beta = 0.25 })
    ~arch_kind:Qcr_arch.Arch.Line ~qubits:4 ~edges ()

let reply_body r = Json.to_string (Reply.strip_volatile (Reply.to_json { r with Reply.cached = false }))

let test_submit_caches () =
  let s = Service.create () in
  let r1 = Service.submit s (req 0.4 ~id:"first") in
  let r2 = Service.submit s (req 0.4 ~id:"second") in
  Alcotest.(check bool) "first is cold" false r1.Reply.cached;
  Alcotest.(check bool) "second is a hit" true r2.Reply.cached;
  Alcotest.(check string) "ids follow the request" "second" r2.Reply.id;
  Alcotest.(check string) "same key" r1.Reply.key r2.Reply.key;
  let content r = reply_body { r with Reply.id = "" } in
  Alcotest.(check string) "hit is bit-identical" (content r1) (content r2);
  let st = Service.stats s in
  Alcotest.(check int) "requests" 2 st.Service.requests;
  Alcotest.(check int) "hits" 1 st.Service.cache_hits;
  Alcotest.(check int) "misses" 1 st.Service.cache_misses;
  Alcotest.(check int) "served_ok" 1 st.Service.served_ok

let test_cache_key_canonical () =
  let base = req 0.4 in
  let shuffled = { base with Request.edges = [ (2, 0); (2, 1); (1, 0); (0, 1) ] } in
  Alcotest.(check string) "edge order/orientation/duplicates do not matter"
    (Request.cache_key base) (Request.cache_key shuffled);
  let renamed = { base with Request.id = "other" } in
  let dead = { base with Request.deadline_s = Some 3.0 } in
  Alcotest.(check string) "id excluded" (Request.cache_key base) (Request.cache_key renamed);
  Alcotest.(check string) "deadline excluded" (Request.cache_key base) (Request.cache_key dead);
  let hotter = req 0.5 in
  let seeded = { base with Request.noise_seed = Some 7 } in
  let tuned = { base with Request.alpha = Some 0.9 } in
  Alcotest.(check bool) "interaction matters" true (Request.cache_key base <> Request.cache_key hotter);
  Alcotest.(check bool) "noise seed matters" true (Request.cache_key base <> Request.cache_key seeded);
  Alcotest.(check bool) "alpha matters" true (Request.cache_key base <> Request.cache_key tuned)

let test_lru_eviction () =
  let s = Service.create ~cache_capacity:1 () in
  ignore (Service.submit s (req 0.1));
  ignore (Service.submit s (req 0.2));
  (* 0.1 was evicted by 0.2, so it compiles again *)
  let r = Service.submit s (req 0.1) in
  Alcotest.(check bool) "evicted entry recompiles" false r.Reply.cached;
  Alcotest.(check int) "three misses" 3 (Service.stats s).Service.cache_misses;
  (* a cache of capacity 8 keeps 8 distinct replies, whatever their keys *)
  let s = Service.create ~cache_capacity:8 () in
  let eight = List.init 8 (fun k -> req (0.1 *. float_of_int (k + 1))) in
  List.iter (fun r -> ignore (Service.submit s r)) eight;
  Alcotest.(check int) "all 8 served as hits" 8
    (List.length (List.filter (fun r -> (Service.submit s r).Reply.cached) eight))

let test_invalid_request_is_typed () =
  let s = Service.create () in
  let bad = Request.make ~arch_kind:Qcr_arch.Arch.Line ~qubits:3 ~edges:[ (0, 5) ] () in
  let r = Service.submit s bad in
  (match r.Reply.outcome with
  | Reply.Failed (Pipeline.Invalid_request _) -> ()
  | _ -> Alcotest.fail "expected a typed Invalid_request reply");
  Alcotest.(check string) "status" "error" (Reply.status_name r);
  Alcotest.(check int) "counted as error" 1 (Service.stats s).Service.errors;
  Alcotest.(check int) "not a cache miss" 0 (Service.stats s).Service.cache_misses

let test_batch_dedup_and_order () =
  let s = Service.create () in
  let batch = [ req 0.1 ~id:"a"; req 0.2 ~id:"b"; req 0.1 ~id:"c"; req 0.2 ~id:"d" ] in
  let replies = Service.run_batch s batch in
  Alcotest.(check (list string)) "request order preserved" [ "a"; "b"; "c"; "d" ]
    (List.map (fun r -> r.Reply.id) replies);
  Alcotest.(check (list bool)) "first occurrence cold, duplicates cached"
    [ false; false; true; true ]
    (List.map (fun r -> r.Reply.cached) replies);
  let st = Service.stats s in
  Alcotest.(check int) "two misses" 2 st.Service.cache_misses;
  Alcotest.(check int) "two hits" 2 st.Service.cache_hits;
  (* a second pass over the same batch is served entirely from cache *)
  let again = Service.run_batch s batch in
  Alcotest.(check bool) "second pass all cached" true
    (List.for_all (fun r -> r.Reply.cached) again);
  Alcotest.(check (list string)) "second pass bit-identical"
    (List.map reply_body replies) (List.map reply_body again)

(* Drive the degradation ladder with a scripted clock: [on_attempt] sets
   the per-reading advancement to the simulated cost of the tier about to
   run, so the service's own [t_start]/[t_end] readings observe exactly
   that cost and feed it to the admission model. *)
let test_deadline_degradation () =
  let tick = ref 0.0 and step = ref 0.0 in
  let clock =
    Clock.make ~name:"scripted" (fun () ->
        let v = !tick in
        tick := v +. !step;
        v)
  in
  let sim_cost = function
    | Request.Ours -> 10.0
    | Request.Greedy -> 0.1
    | Request.Ata | Request.Portfolio -> 50.0
  in
  let s = Service.create ~clock ~on_attempt:(fun mode -> step := sim_cost mode) () in
  (* Warm the per-tier cost model: one greedy and one full compile, no
     deadline, distinct content so neither is a cache hit. *)
  ignore (Service.submit s (req 0.11 ~mode:Request.Greedy));
  step := 0.0;
  ignore (Service.submit s (req 0.22 ~mode:Request.Ours));
  step := 0.0;
  (* 1 s budget: ours (predicted 10 s) is skipped, greedy (0.1 s) fits.
     A new shape, so the route table cannot serve it at full quality. *)
  let degraded = Service.submit s (req 0.33 ~edges:path ~mode:Request.Ours ~deadline_s:1.0) in
  step := 0.0;
  (match degraded.Reply.outcome with
  | Reply.Compiled { mode = Request.Greedy; _ } -> ()
  | _ -> Alcotest.fail "expected degradation to the greedy tier");
  Alcotest.(check string) "status" "degraded" (Reply.status_name degraded);
  Alcotest.(check bool) "marked degraded" true (Reply.degraded degraded);
  (* 0.05 s budget: no tier fits; the reply is a typed timeout. *)
  let late = Service.submit s (req 0.44 ~edges:star ~mode:Request.Ours ~deadline_s:0.05) in
  step := 0.0;
  (match late.Reply.outcome with
  | Reply.Failed (Pipeline.Timeout { deadline_s }) ->
      Alcotest.(check (float 1e-9)) "deadline echoed" 0.05 deadline_s
  | _ -> Alcotest.fail "expected a typed Timeout reply");
  let st = Service.stats s in
  Alcotest.(check int) "one degraded" 1 st.Service.degraded;
  Alcotest.(check int) "one timeout" 1 st.Service.timeouts;
  (* degraded replies are not cached: resubmitting the degraded content
     misses again rather than replaying a deadline-shaped answer *)
  let misses_before = (Service.stats s).Service.cache_misses in
  ignore (Service.submit s (req 0.33 ~edges:path ~mode:Request.Ours ~deadline_s:1.0));
  step := 0.0;
  Alcotest.(check int) "degraded reply was not cached" (misses_before + 1)
    (Service.stats s).Service.cache_misses

let test_wire_roundtrip () =
  let reqs = [ req 0.4 ~id:"x"; req 0.5 ~id:"y" ~mode:Request.Greedy ] in
  (match Service.requests_of_json (Service.requests_to_json reqs) with
  | Ok back ->
      Alcotest.(check (list string)) "batch file round-trips" [ "x"; "y" ]
        (List.map (fun r -> r.Request.id) back);
      Alcotest.(check bool) "records equal" true (back = reqs)
  | Error e -> Alcotest.fail e);
  (match Service.requests_of_json (Json.Arr (List.map Request.to_json reqs)) with
  | Ok back -> Alcotest.(check int) "bare array accepted" 2 (List.length back)
  | Error e -> Alcotest.fail e);
  match
    Service.requests_of_json
      (Json.Obj [ ("schema", Json.Str "bogus/v9"); ("requests", Json.Arr []) ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus schema accepted"

let test_batch_stable_across_pool_sizes () =
  let batch =
    [
      req 0.1 ~id:"a";
      req 0.2 ~id:"b" ~mode:Request.Greedy;
      req 0.3 ~id:"c" ~mode:Request.Ata;
      req 0.1 ~id:"d";
      req 0.2 ~id:"e" ~mode:Request.Greedy;
    ]
  in
  let run_at domains =
    let old = Pool.default_domain_count () in
    Pool.set_default_domains domains;
    Fun.protect
      ~finally:(fun () -> Pool.set_default_domains old)
      (fun () ->
        let s = Service.create () in
        let replies = Service.run_batch s batch in
        ( List.map (fun r -> Json.to_string (Reply.strip_volatile (Reply.to_json r))) replies,
          Json.to_string (Service.stats_to_json (Service.stats s)) ))
  in
  let replies1, stats1 = run_at 1 and replies4, stats4 = run_at 4 in
  Alcotest.(check (list string)) "replies (including cache flags) identical at 1 and 4 domains"
    replies1 replies4;
  Alcotest.(check string) "stats identical at 1 and 4 domains" stats1 stats4

(* ---------- per-request tracing ---------- *)

let phase_triple p = (p.Reply.p_phase, p.Reply.p_detail, p.Reply.p_outcome)

let test_trace_phase_breakdown () =
  let s = Service.create () in
  (* tracing is opt-in: the default reply carries no trace at all *)
  let plain = Service.submit s (req 0.4 ~id:"plain") in
  Alcotest.(check bool) "no trace unless requested" true (plain.Reply.trace = None);
  (* a traced miss records the cache probe and the winning compile tier
     (a new shape: a new gamma alone would be a route hit) *)
  let miss = Service.submit s (req 0.5 ~edges:path ~id:"cold" ~trace:true) in
  (match miss.Reply.trace with
  | Some phases ->
      Alcotest.(check (list (triple string string string))) "miss phases"
        [ ("cache", "miss", "miss"); ("compile", "ours", "ok") ]
        (List.map phase_triple phases);
      List.iter
        (fun p -> Alcotest.(check int) "no retries" 0 p.Reply.p_retries)
        phases
  | None -> Alcotest.fail "traced request must carry a trace");
  (* a traced hit is a single cache phase *)
  let hit = Service.submit s (req 0.5 ~edges:path ~id:"warm" ~trace:true) in
  (match hit.Reply.trace with
  | Some phases ->
      Alcotest.(check (list (triple string string string))) "hit phases"
        [ ("cache", "hit", "hit") ]
        (List.map phase_triple phases)
  | None -> Alcotest.fail "traced hit must carry a trace");
  (* validation failures trace too *)
  let bad =
    { (req 0.6 ~trace:true) with Request.edges = [ (0, 9) ] }
  in
  (match (Service.submit s bad).Reply.trace with
  | Some phases ->
      Alcotest.(check (list (triple string string string))) "invalid phases"
        [ ("validate", "request", "invalid_request") ]
        (List.map phase_triple phases)
  | None -> Alcotest.fail "traced invalid request must carry a trace");
  (* the trace survives the wire format *)
  match Reply.of_json (Reply.to_json miss) with
  | Ok back -> Alcotest.(check bool) "trace round-trips" true (back.Reply.trace = miss.Reply.trace)
  | Error e -> Alcotest.fail e

let test_trace_stable_across_pool_sizes () =
  (* phase sequences are part of the reply contract: with the volatile
     ms fields stripped, traced batches are bit-identical whatever the
     pool size *)
  let batch =
    [
      req 0.1 ~id:"a" ~trace:true;
      req 0.2 ~id:"b" ~mode:Request.Greedy ~trace:true;
      req 0.3 ~id:"c" ~mode:Request.Ata ~trace:true;
      req 0.1 ~id:"d" ~trace:true;
    ]
  in
  let run_at domains =
    let old = Pool.default_domain_count () in
    Pool.set_default_domains domains;
    Fun.protect
      ~finally:(fun () -> Pool.set_default_domains old)
      (fun () ->
        List.map
          (fun r -> Json.to_string (Reply.strip_volatile (Reply.to_json r)))
          (Service.run_batch (Service.create ()) batch))
  in
  let at1 = run_at 1 in
  Alcotest.(check (list string)) "traced replies identical at 1 and 4 domains" at1 (run_at 4);
  (* the stripped wire form must not leak any per-run timing *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "no ms fields survive stripping" false
        (let nl = String.length "\"ms\"" and tl = String.length s in
         let rec scan i = i + nl <= tl && (String.sub s i nl = "\"ms\"" || scan (i + 1)) in
         scan 0))
    at1

(* ---------- route table ---------- *)

(* An angle sweep over one noisy structure, as a QAOA loop sends it. *)
let sweep ?deadline_s n =
  List.init n (fun k ->
      let x = float_of_int k in
      Request.make ~id:(Printf.sprintf "p%d" k) ~trace:true ?deadline_s
        ~interaction:(Program.Qaoa_maxcut { gamma = 0.1 +. (0.07 *. x); beta = 0.3 -. (0.05 *. x) })
        ~arch_kind:Qcr_arch.Arch.Grid ~qubits:6 ~noise_seed:3
        ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (0, 5); (1, 4) ]
        ())

let untraced r = Json.to_string (Reply.strip_volatile (Reply.to_json { r with Reply.trace = None }))

let phases r = List.map phase_triple (Option.value r.Reply.trace ~default:[])

let route_hits replies =
  List.length (List.filter (fun r -> List.mem ("route", "hit", "hit") (phases r)) replies)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Qcr_obs.Obs.snapshot ()).Qcr_obs.Obs.snap_counters)

(* Every point after the first is a route hit: one tier attempt for the
   whole sweep, through [submit] and through [run_batch], at 1 and 4
   domains — and every reply equals a fresh service's cold compile of
   that point, with the same phases on every path and pool size. *)
let test_route_sweep () =
  let n = 6 in
  let reqs = sweep n in
  let fresh = List.map (fun r -> untraced (Service.submit (Service.create ()) r)) reqs in
  let run_at domains path =
    let old = Pool.default_domain_count () in
    Pool.set_default_domains domains;
    Fun.protect
      ~finally:(fun () -> Pool.set_default_domains old)
      (fun () ->
        let attempts = ref 0 in
        let s = Service.create ~on_attempt:(fun _ -> incr attempts) () in
        let replies, path_name =
          match path with
          | `Submit -> (List.map (Service.submit s) reqs, "submit")
          | `Batch -> (Service.run_batch s reqs, "batch")
        in
        let label = Printf.sprintf "%s at %d domains" path_name domains in
        Alcotest.(check (list string)) (label ^ ": replies equal fresh compiles") fresh
          (List.map untraced replies);
        Alcotest.(check int) (label ^ ": one tier attempt") 1 !attempts;
        Alcotest.(check int) (label ^ ": route hits") (n - 1) (route_hits replies);
        let st = Service.stats s in
        Alcotest.(check (list int)) (label ^ ": hits, misses, served_ok") [ 0; n; n ]
          [ st.Service.cache_hits; st.Service.cache_misses; st.Service.served_ok ];
        List.map phases replies)
  in
  let reference = run_at 1 `Submit in
  Alcotest.(check (list (list (triple string string string)))) "first compiles, the rest re-stamp"
    ([ ("cache", "miss", "miss"); ("compile", "ours", "ok") ]
    :: List.init (n - 1) (fun _ -> [ ("cache", "miss", "miss"); ("route", "hit", "hit") ]))
    reference;
  List.iter
    (fun (domains, path) ->
      Alcotest.(check (list (list (triple string string string)))) "identical trace phases" reference
        (run_at domains path))
    [ (4, `Submit); (1, `Batch); (4, `Batch) ]

let test_route_counters () =
  let was = Qcr_obs.Obs.enabled () in
  Qcr_obs.Obs.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Qcr_obs.Obs.disable ())
    (fun () ->
      let hit0 = counter "service.route.hit" and miss0 = counter "service.route.miss" in
      let s = Service.create () in
      List.iter (fun r -> ignore (Service.submit s r)) (sweep 4);
      (* an exact repeat is a cache hit and never consults the route table *)
      ignore (Service.submit s (List.hd (sweep 1)));
      Alcotest.(check (pair int int)) "route hits and misses" (3, 1)
        (counter "service.route.hit" - hit0, counter "service.route.miss" - miss0))

let test_route_capacity_zero () =
  let attempts = ref 0 in
  let s = Service.create ~cache_capacity:0 ~on_attempt:(fun _ -> incr attempts) () in
  let replies = List.map (Service.submit s) (sweep 4) in
  Alcotest.(check int) "no route hits" 0 (route_hits replies);
  Alcotest.(check int) "every point compiles" 4 !attempts

(* A route hit is served before the ladder: a deadline far too short for
   any compile still gets the full-quality circuit of a known structure. *)
let test_route_hit_beats_deadline () =
  let first, point = match sweep ~deadline_s:1e-9 2 with [ a; b ] -> (a, b) | _ -> assert false in
  let cold = Service.submit (Service.create ()) point in
  (match cold.Reply.outcome with
  | Reply.Failed (Pipeline.Timeout _) -> ()
  | _ -> Alcotest.fail "a cold 1 ns deadline must time out");
  let s = Service.create () in
  ignore (Service.submit s { first with Request.deadline_s = None });
  let warm = Service.submit s point in
  Alcotest.(check string) "status" "ok" (Reply.status_name warm);
  Alcotest.(check string) "the deadline-free compile"
    (untraced (Service.submit (Service.create ()) { point with Request.deadline_s = None }))
    (untraced warm)

(* Seed 701's sr-59 of the suite-rerun benchmark: a noisy hexagon compile
   whose ATA prediction once used a region schedule with uncoupled pairs,
   so fidelity scoring raised and the reply degraded to the greedy tier. *)
let sr_59 =
  {|{"id":"sr-59","arch":{"kind":"hexagon","n":21},"program":{"qubits":21,"edges":[[0,2],[0,3],[0,10],[0,12],[0,15],[0,17],[1,2],[1,3],[1,7],[1,12],[1,13],[1,14],[1,15],[1,16],[1,17],[1,20],[2,4],[2,5],[2,6],[2,7],[2,8],[2,11],[2,12],[2,14],[2,17],[2,18],[2,20],[3,4],[3,5],[3,6],[3,9],[3,10],[3,11],[3,13],[3,14],[3,16],[3,17],[3,18],[3,20],[4,5],[4,13],[4,14],[4,15],[4,17],[4,18],[5,6],[5,7],[5,8],[5,11],[5,15],[5,17],[5,18],[5,19],[6,7],[6,9],[6,12],[6,13],[6,16],[6,17],[6,18],[7,13],[7,16],[7,17],[8,9],[8,11],[8,14],[8,17],[9,10],[9,14],[9,15],[9,16],[9,17],[9,18],[9,19],[10,11],[10,13],[10,14],[10,16],[10,17],[10,20],[11,16],[11,19],[12,13],[12,14],[12,17],[12,18],[12,19],[13,16],[13,18],[13,19],[14,15],[14,17],[14,18],[14,19],[15,17],[15,18],[15,19],[15,20],[17,19],[18,19]],"interaction":{"kind":"qaoa_maxcut","gamma":0.4,"beta":0.35}},"mode":"ours","noise_seed":755922}|}

let test_hexagon_regression () =
  let req =
    match Result.bind (Json.of_string sr_59) Request.of_json with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let r = Service.submit (Service.create ()) req in
  Alcotest.(check string) "sr-59 compiles at full quality" "ok" (Reply.status_name r)

let suite =
  [
    Alcotest.test_case "submit caches repeats" `Quick test_submit_caches;
    Alcotest.test_case "cache key canonical" `Quick test_cache_key_canonical;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "invalid request typed" `Quick test_invalid_request_is_typed;
    Alcotest.test_case "batch dedup and order" `Quick test_batch_dedup_and_order;
    Alcotest.test_case "deadline degradation" `Quick test_deadline_degradation;
    Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "batch stable across pool sizes" `Quick test_batch_stable_across_pool_sizes;
    Alcotest.test_case "trace phase breakdown" `Quick test_trace_phase_breakdown;
    Alcotest.test_case "traced batch stable across pool sizes" `Quick
      test_trace_stable_across_pool_sizes;
    Alcotest.test_case "route sweep compiles once" `Quick test_route_sweep;
    Alcotest.test_case "route counters" `Quick test_route_counters;
    Alcotest.test_case "route capacity zero" `Quick test_route_capacity_zero;
    Alcotest.test_case "route hit beats deadline" `Quick test_route_hit_beats_deadline;
    Alcotest.test_case "hexagon sr-59 regression" `Quick test_hexagon_regression;
  ]
