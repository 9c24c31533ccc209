(* Deterministic fault injection and the robustness it buys: spec
   grammar round-trips, zero-cost disarmed probes, seeded determinism,
   pool worker supervision, the service's single-attempt tier ladder and
   cache digest validation, the hardened JSON parser, and the chaos batch
   invariants the [bench chaos] soak gates on.

   Every test that arms a spec disarms in a [Fun.protect] finally: the
   registry is global, and no fault may leak into later tests. *)

module Fault = Qcr_fault.Fault
module Json = Qcr_obs.Json
module Pool = Qcr_par.Pool
module Program = Qcr_circuit.Program
module Pipeline = Qcr_core.Pipeline
module Request = Qcr_service.Compile_request
module Reply = Qcr_service.Compile_reply
module Service = Qcr_service.Service

let with_faults spec_string f =
  (match Fault.spec_of_string spec_string with
  | Ok spec -> Fault.arm spec
  | Error e -> Alcotest.fail ("bad spec in test: " ^ e));
  Fun.protect ~finally:Fault.disarm f

(* ---------- spec grammar ---------- *)

let test_spec_roundtrip () =
  let cases =
    [
      "seed=7,pool.worker:crash";
      "seed=0,cache.get:corrupt:nth=3";
      "seed=42,service.tier:delay=0.001:every=2,clock.read:crash:p=0.25";
      "seed=1,json.decode:corrupt:always";
    ]
  in
  List.iter
    (fun s ->
      match Fault.spec_of_string s with
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" s e)
      | Ok spec -> (
          match Fault.spec_of_string (Fault.spec_to_string spec) with
          | Ok again -> Alcotest.(check bool) ("round-trips: " ^ s) true (spec = again)
          | Error e -> Alcotest.fail (Printf.sprintf "reparse %s: %s" s e)))
    cases;
  List.iter
    (fun s ->
      match Fault.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed spec %S" s))
    [
      "";
      "seed=7";
      "point";
      "point:explode";
      "point:crash:sometimes";
      "point:crash:p=2.5";
      "point:crash:nth=0";
      "bad name:crash";
      "seed=x,point:crash";
      "point:delay=abc";
    ]

let spec_gen =
  QCheck.Gen.(
    let point =
      oneofl [ "pool.worker"; "service.tier"; "cache.get"; "cache.put"; "json.decode"; "clock.read" ]
    in
    let action =
      oneof
        [
          return Fault.Crash;
          map (fun s -> Fault.Delay s) (float_range 0.0 2.0);
          return Fault.Corrupt;
        ]
    in
    let trigger =
      oneof
        [
          return Fault.Always;
          map (fun p -> Fault.Prob p) (float_range 0.0 1.0);
          map (fun n -> Fault.Nth n) (int_range 1 1000);
          map (fun k -> Fault.Every k) (int_range 1 1000);
        ]
    in
    let rule =
      map3 (fun point action trigger -> { Fault.point; action; trigger }) point action trigger
    in
    map2
      (fun seed rules -> { Fault.seed; rules })
      (int_range 0 max_int)
      (list_size (int_range 1 6) rule))

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"fault specs round-trip through the grammar" ~count:300
    (QCheck.make spec_gen ~print:Fault.spec_to_string)
    (fun spec -> Fault.spec_of_string (Fault.spec_to_string spec) = Ok spec)

(* ---------- probes ---------- *)

let test_disarmed_probes_are_noops () =
  Fault.disarm ();
  let p = Fault.point "test.noop" in
  Fault.fire p;
  let payload = "payload" in
  Alcotest.(check bool) "corrupt returns the payload itself" true (Fault.corrupt p payload == payload);
  Alcotest.(check (float 0.0)) "skew returns the reading" 1.5 (Fault.skew p 1.5);
  Alcotest.(check bool) "nothing armed" false (Fault.armed ())

let test_deterministic_firing () =
  let p = Fault.point "test.det" in
  let pattern () =
    with_faults "seed=9,test.det:corrupt:p=0.5" (fun () ->
        let corrupted = List.init 32 (fun i -> Fault.corrupt p (Printf.sprintf "payload-%02d" i)) in
        Alcotest.(check int) "all probes counted" 32 (Fault.hits p);
        Alcotest.(check bool) "some fired, some did not" true
          (Fault.fired p > 0 && Fault.fired p < 32);
        corrupted)
  in
  Alcotest.(check (list string)) "re-arming replays the same corruption pattern" (pattern ())
    (pattern ());
  with_faults "seed=9,test.det:crash:nth=3" (fun () ->
      Fault.fire p;
      Fault.fire p;
      (match Fault.fire p with
      | () -> Alcotest.fail "third probe should crash"
      | exception Fault.Injected name -> Alcotest.(check string) "payload is the point" "test.det" name);
      Fault.fire p;
      Alcotest.(check int) "nth fires exactly once" 1 (Fault.fired p))

(* ---------- hardened JSON parser ---------- *)

let test_json_depth_limit () =
  let nest depth = String.make depth '[' ^ "1" ^ String.make depth ']' in
  (match Json.of_string (nest 1000) with
  | Error e ->
      Alcotest.(check bool) "deep nesting is a parse error" true
        (String.length e > 0 && not (String.equal e ""))
  | Ok _ -> Alcotest.fail "1000-deep nesting accepted");
  match Json.of_string (nest (Json.max_depth - 1)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("nesting below the limit rejected: " ^ e)

let json_never_raises s =
  match Json.of_string s with
  | Ok _ | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) s

let prop_json_fuzz_bytes =
  QCheck.Test.make ~name:"Json.of_string never raises on arbitrary bytes" ~count:2000
    QCheck.(string_gen QCheck.Gen.char)
    json_never_raises

let prop_json_fuzz_structured =
  let soup =
    QCheck.Gen.(string_size ~gen:(oneofl [ '['; ']'; '{'; '}'; '"'; ','; ':'; '0'; '-'; 'e'; '.'; '\\'; 'u'; 't'; 'n'; ' ' ]) (int_range 0 80))
  in
  QCheck.Test.make ~name:"Json.of_string never raises on syntax soup" ~count:2000
    (QCheck.make soup ~print:(Printf.sprintf "%S"))
    json_never_raises

(* ---------- pool supervision ---------- *)

let test_pool_supervision () =
  let pool = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let input = Array.init 64 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) input in
  let slow_square i =
    Unix.sleepf 0.0002;
    i * i
  in
  (* Workers crash on every claim: each round kills whatever workers got
     to a chunk, the chunks requeue, the submitter finishes them, and the
     next round respawns the dead domains. *)
  with_faults "seed=5,pool.worker:crash:always" (fun () ->
      let rounds = ref 0 in
      while Pool.worker_deaths pool = 0 && !rounds < 200 do
        incr rounds;
        Alcotest.(check bool)
          (Printf.sprintf "round %d results correct under worker crashes" !rounds)
          true
          (Pool.map pool slow_square input = expected)
      done;
      Alcotest.(check bool) "at least one worker died" true (Pool.worker_deaths pool > 0));
  Pool.supervise pool;
  Alcotest.(check int) "every death was respawned" (Pool.worker_deaths pool) (Pool.respawns pool);
  Alcotest.(check bool) "pool serves correctly after recovery" true
    (Pool.map pool slow_square input = expected)

(* ---------- service resilience ---------- *)

let triangle = [ (0, 1); (1, 2); (0, 2) ]

let req ?mode ?deadline_s ?id gamma =
  Request.make ?id ?mode ?deadline_s
    ~interaction:(Program.Qaoa_maxcut { gamma; beta = 0.25 })
    ~arch_kind:Qcr_arch.Arch.Line ~qubits:4 ~edges:triangle ()

let reply_body r =
  Json.to_string (Reply.strip_volatile (Reply.to_json { r with Reply.id = ""; cached = false }))

(* A service tier that fails is attempted once: the ladder falls
   through to the next tier, and the failure leaves nothing behind. *)
let test_failed_tier_falls_through_once () =
  Fault.disarm ();
  let reference = Service.submit (Service.create ()) (req 0.4) in
  with_faults "seed=3,service.tier:crash:nth=1" (fun () ->
      let attempts = ref [] in
      let s = Service.create ~on_attempt:(fun mode -> attempts := mode :: !attempts) () in
      let r = Service.submit s (req 0.4) in
      Alcotest.(check (list string)) "ours once, then greedy" [ "ours"; "greedy" ]
        (List.rev_map Request.mode_name !attempts);
      (match r.Reply.outcome with
      | Reply.Compiled { mode = Request.Greedy; _ } -> ()
      | _ -> Alcotest.fail "expected the greedy tier to serve the request");
      Alcotest.(check string) "degraded" "degraded" (Reply.status_name r);
      let again = Service.submit s (req 0.4) in
      Alcotest.(check int) "one more attempt" 3 (List.length !attempts);
      Alcotest.(check string) "next submit bit-identical to fault-free" (reply_body reference)
        (reply_body again))

(* However many requests fail, later clean requests on the same service
   compile at full quality: no tier is ever skipped for past failures. *)
let test_failures_do_not_spill_over () =
  Fault.disarm ();
  let clean = [ req 0.9 ~mode:Request.Ours; req 0.9 ~mode:Request.Greedy ] in
  let reference = List.map (fun r -> reply_body (Service.submit (Service.create ()) r)) clean in
  let s = Service.create () in
  with_faults "seed=2,service.tier:crash:always" (fun () ->
      for k = 1 to 8 do
        let mode = if k mod 4 = 0 then Request.Greedy else Request.Ours in
        match (Service.submit s (req (0.1 *. float_of_int k) ~mode)).Reply.outcome with
        | Reply.Failed (Pipeline.Internal _) -> ()
        | _ -> Alcotest.failf "request %d: expected a typed Internal failure" k
      done);
  List.iter2
    (fun r expected ->
      let reply = Service.submit s r in
      Alcotest.(check string)
        (Request.mode_name r.Request.mode ^ " request at full quality")
        "ok" (Reply.status_name reply);
      Alcotest.(check string) "bit-identical to a fresh service" expected (reply_body reply))
    clean reference

let test_cache_corruption_evicted () =
  Fault.disarm ();
  let s = Service.create () in
  let first = Service.submit s (req 0.4) in
  with_faults "seed=8,cache.get:corrupt:always" (fun () ->
      let r = Service.submit s (req 0.4) in
      Alcotest.(check bool) "corrupted hit recompiles instead of serving" false r.Reply.cached;
      Alcotest.(check string) "recompiled reply matches the original" (reply_body first)
        (reply_body r);
      let st = Service.stats s in
      Alcotest.(check int) "corruption counted" 1 st.Service.cache_corrupt;
      Alcotest.(check int) "corrupt lookup is not a hit" 0 st.Service.cache_hits;
      Alcotest.(check int) "corrupt lookup is a miss" 2 st.Service.cache_misses);
  let clean = Service.submit s (req 0.4) in
  Alcotest.(check bool) "re-cached entry serves again once disarmed" true clean.Reply.cached;
  Alcotest.(check int) "and counts as a hit" 1 (Service.stats s).Service.cache_hits;
  Alcotest.(check string) "and is bit-identical" (reply_body first) (reply_body clean)

let test_cache_put_corruption_detected () =
  with_faults "seed=8,cache.put:corrupt:always" (fun () ->
      let s = Service.create () in
      let first = Service.submit s (req 0.4) in
      (* the entry was stored corrupted: the next lookup's digest check
         must evict it rather than serve it *)
      let r = Service.submit s (req 0.4) in
      Alcotest.(check bool) "poisoned entry never served" false r.Reply.cached;
      Alcotest.(check string) "recompile matches" (reply_body first) (reply_body r);
      Alcotest.(check int) "detected once so far" 1 (Service.stats s).Service.cache_corrupt)

let test_boundary_catches_everything () =
  with_faults "seed=1,clock.read:crash:nth=1" (fun () ->
      let s = Service.create () in
      (* the very first clock read inside the service raises [Injected];
         the boundary must turn it into a typed Internal reply *)
      let r = Service.submit s (req 0.4 ~id:"boom") in
      (match r.Reply.outcome with
      | Reply.Failed (Pipeline.Internal msg) ->
          Alcotest.(check bool) "message names the boundary" true
            (String.length msg > 0
            && String.sub msg 0 (min 18 (String.length msg)) = "uncaught exception")
      | _ -> Alcotest.fail "expected a typed Internal reply from the boundary");
      Alcotest.(check string) "id preserved" "boom" r.Reply.id;
      Alcotest.(check int) "counted as error" 1 (Service.stats s).Service.errors;
      (* the fault was one-shot: the service keeps serving *)
      match (Service.submit s (req 0.5)).Reply.outcome with
      | Reply.Compiled _ -> ()
      | _ -> Alcotest.fail "service wedged after a boundary catch")

(* ---------- chaos batch invariants ---------- *)

let test_chaos_batch_invariants () =
  let batch =
    List.concat_map
      (fun gamma ->
        [
          req gamma ~id:(Printf.sprintf "o-%f" gamma);
          req gamma ~id:(Printf.sprintf "g-%f" gamma) ~mode:Request.Greedy;
          req gamma ~id:(Printf.sprintf "a-%f" gamma) ~mode:Request.Ata;
        ])
      [ 0.1; 0.2; 0.3; 0.1 ]
  in
  Fault.disarm ();
  let reference = Service.run_batch (Service.create ()) batch in
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (r : Reply.t) ->
      match r.Reply.outcome with
      | Reply.Compiled { mode; _ } when mode = r.Reply.requested_mode ->
          Hashtbl.replace expected r.Reply.key (reply_body r)
      | _ -> ())
    reference;
  with_faults
    "seed=11,service.tier:crash:p=0.3,cache.get:corrupt:p=0.25,cache.put:corrupt:p=0.2,pool.worker:crash:nth=1"
    (fun () ->
      let s = Service.create () in
      for round = 1 to 3 do
        let replies =
          try Service.run_batch s batch
          with e ->
            Alcotest.failf "round %d: exception escaped the boundary: %s" round
              (Printexc.to_string e)
        in
        Alcotest.(check (list string))
          (Printf.sprintf "round %d replies in request order" round)
          (List.map (fun (r : Request.t) -> r.Request.id) batch)
          (List.map (fun (r : Reply.t) -> r.Reply.id) replies);
        List.iter
          (fun (r : Reply.t) ->
            match r.Reply.outcome with
            | Reply.Compiled { mode; _ } when mode = r.Reply.requested_mode -> (
                match Hashtbl.find_opt expected r.Reply.key with
                | Some body ->
                    Alcotest.(check string)
                      (Printf.sprintf "round %d: %s bit-identical to fault-free" round r.Reply.id)
                      body (reply_body r)
                | None -> Alcotest.failf "unexpected ok reply for key %s" r.Reply.key)
            | _ -> ())
          replies
      done)

let suite =
  [
    Alcotest.test_case "spec grammar round-trip" `Quick test_spec_roundtrip;
    QCheck_alcotest.to_alcotest prop_spec_roundtrip;
    Alcotest.test_case "disarmed probes are no-ops" `Quick test_disarmed_probes_are_noops;
    Alcotest.test_case "seeded firing is deterministic" `Quick test_deterministic_firing;
    Alcotest.test_case "json depth limit" `Quick test_json_depth_limit;
    QCheck_alcotest.to_alcotest prop_json_fuzz_bytes;
    QCheck_alcotest.to_alcotest prop_json_fuzz_structured;
    Alcotest.test_case "pool supervision" `Quick test_pool_supervision;
    Alcotest.test_case "failed tier falls through once" `Quick test_failed_tier_falls_through_once;
    Alcotest.test_case "failures do not spill over" `Quick test_failures_do_not_spill_over;
    Alcotest.test_case "cache.get corruption evicted" `Quick test_cache_corruption_evicted;
    Alcotest.test_case "cache.put corruption detected" `Quick test_cache_put_corruption_detected;
    Alcotest.test_case "boundary catches everything" `Quick test_boundary_catches_everything;
    Alcotest.test_case "chaos batch invariants" `Quick test_chaos_batch_invariants;
  ]
