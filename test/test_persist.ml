(* The persistent compile-cache store and warm restarts: record-encoding
   round-trips, crash safety of the flush protocol (including a kill
   injected between the segment rename and the index rename), corruption
   containment on load, and service-level warm-restart bit-identity. *)

module Json = Qcr_obs.Json
module Fault = Qcr_fault.Fault
module Request = Qcr_service.Compile_request
module Reply = Qcr_service.Compile_reply
module Service = Qcr_service.Service
module Store = Qcr_service.Cache_store

(* Fresh scratch directory per call, removed by the caller's process
   exit being irrelevant: tests clean up eagerly via [Fun.protect]. *)
let counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  incr counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qcr-test-persist-%d-%d" (Unix.getpid ()) !counter)
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      rm_rf dir)
    (fun () -> f dir)

let open_ok dir =
  match Store.open_dir dir with Ok s -> s | Error e -> Alcotest.fail ("open_dir: " ^ e)

let append_ok store records =
  match Store.append store records with
  | Ok n -> n
  | Error e -> Alcotest.fail ("append: " ^ e)

let arm spec_str =
  match Fault.spec_of_string spec_str with
  | Ok s -> Fault.arm s
  | Error e -> Alcotest.fail ("fault spec: " ^ e)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc content)

let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".qcs")
  |> List.sort compare

(* ---------- record encoding ---------- *)

let test_record_roundtrip_basic () =
  let enc = Store.encode_record ~key:"abc" "payload bytes" in
  (match Store.decode_record enc ~pos:0 with
  | Ok (key, body, next) ->
      Alcotest.(check string) "key" "abc" key;
      Alcotest.(check string) "body" "payload bytes" body;
      Alcotest.(check int) "consumed everything" (String.length enc) next
  | Error e -> Alcotest.fail e);
  (match Store.decode_record (String.sub enc 0 (String.length enc - 1)) ~pos:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated record must not decode");
  let flipped = Bytes.of_string enc in
  Bytes.set flipped (Bytes.length flipped - 1)
    (Char.chr (Char.code (Bytes.get flipped (Bytes.length flipped - 1)) lxor 1));
  (match Store.decode_record (Bytes.to_string flipped) ~pos:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flipped body byte must fail the digest check");
  Alcotest.check_raises "oversized key rejected"
    (Invalid_argument "Cache_store.encode_record: key too long") (fun () ->
      ignore (Store.encode_record ~key:(String.make 65536 'k') ""))

let prop_record_roundtrip =
  QCheck.Test.make ~name:"cache store record encoding round-trips" ~count:200
    QCheck.(list (pair (string_of_size Gen.(0 -- 80)) string))
    (fun records ->
      let encoded =
        String.concat "" (List.map (fun (key, body) -> Store.encode_record ~key body) records)
      in
      let rec decode pos acc =
        if pos >= String.length encoded then List.rev acc
        else
          match Store.decode_record encoded ~pos with
          | Ok (key, body, next) -> decode next ((key, body) :: acc)
          | Error e -> QCheck.Test.fail_reportf "decode at %d: %s" pos e
      in
      decode 0 [] = records)

(* ---------- store round-trips and idempotence ---------- *)

let test_store_roundtrip () =
  with_dir @@ fun dir ->
  let s1 = open_ok dir in
  Alcotest.(check int) "fresh store is empty" 0 (Store.persisted s1);
  Alcotest.(check int) "two written" 2 (append_ok s1 [ ("k1", "body one"); ("k2", "body two") ]);
  Alcotest.(check int) "idempotent re-append" 0 (append_ok s1 [ ("k1", "body one") ]);
  Alcotest.(check int) "one segment" 1 (Store.segment_count s1);
  let s2 = open_ok dir in
  Alcotest.(check (list (pair string string)))
    "reopen sees both, oldest first"
    [ ("k1", "body one"); ("k2", "body two") ]
    (Store.entries s2);
  Alcotest.(check int) "no skips" 0 (Store.corrupt_skipped s2);
  Alcotest.(check int) "third record in a second segment" 1 (append_ok s2 [ ("k3", "3") ]);
  Alcotest.(check int) "two segments" 2 (Store.segment_count s2);
  let s3 = open_ok dir in
  Alcotest.(check int) "all three after reopen" 3 (Store.persisted s3)

let test_store_crash_between_renames () =
  with_dir @@ fun dir ->
  let s = open_ok dir in
  ignore (append_ok s [ ("k1", "one") ]);
  (* two fresh records probe [cache.flush] twice while encoding; the
     third hit is [fire] in the window between the segment rename and
     the index rename *)
  arm "seed=5,cache.flush:crash:nth=3";
  (match Store.append s [ ("k2", "two"); ("k3", "three") ] with
  | Error _ -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "append must fail mid-crash, wrote %d" n));
  Fault.disarm ();
  Alcotest.(check bool) "handle state rolled back" false (Store.mem s "k2");
  Alcotest.(check int) "orphan segment on disk" 2 (List.length (segment_files dir));
  let reopened = open_ok dir in
  Alcotest.(check (list (pair string string)))
    "old index ignores the orphan"
    [ ("k1", "one") ]
    (Store.entries reopened);
  (* the retry overwrites the orphan at the same sequence number *)
  Alcotest.(check int) "retry succeeds" 2 (append_ok reopened [ ("k2", "two"); ("k3", "three") ]);
  Alcotest.(check int) "still two segments" 2 (List.length (segment_files dir));
  Alcotest.(check int) "all keys after retry" 3 (Store.persisted (open_ok dir))

let test_store_damage_contained () =
  with_dir @@ fun dir ->
  let s = open_ok dir in
  ignore (append_ok s [ ("k1", "first body"); ("k2", "second body"); ("k3", "third body") ]);
  let seg = Filename.concat dir (List.hd (segment_files dir)) in
  let data = read_file seg in
  (* truncate mid-record: the tail record is lost, earlier ones survive *)
  write_file seg (String.sub data 0 (String.length data - 5));
  let t = open_ok dir in
  Alcotest.(check int) "truncation skipped the tail" 1 (Store.corrupt_skipped t);
  Alcotest.(check (list string)) "first two survive" [ "k1"; "k2" ]
    (List.map fst (Store.entries t));
  (* flip one byte in the first record's body: digest validation rejects
     it and — boundaries being untrustworthy — the rest of the segment *)
  write_file seg data;
  let flipped = Bytes.of_string data in
  let pos = String.length (Store.encode_record ~key:"k1" "") + 2 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x10));
  write_file seg (Bytes.to_string flipped);
  let f = open_ok dir in
  Alcotest.(check bool) "damage counted" true (Store.corrupt_skipped f >= 1);
  Alcotest.(check bool) "damaged record never loads" false
    (List.mem_assoc "k1" (Store.entries f));
  (* a deleted segment is one skip, not an error *)
  write_file seg data;
  Sys.remove seg;
  let g = open_ok dir in
  Alcotest.(check int) "missing segment skipped" 1 (Store.corrupt_skipped g);
  (* malformed index: cold start, not a crash *)
  write_file (Filename.concat dir "index.json") "{not json";
  let m = open_ok dir in
  Alcotest.(check int) "malformed index = empty store" 0 (Store.persisted m);
  Alcotest.(check int) "and one skip" 1 (Store.corrupt_skipped m)

let test_store_load_fault_injection () =
  with_dir @@ fun dir ->
  let s = open_ok dir in
  ignore (append_ok s [ ("k1", "first body"); ("k2", "second body") ]);
  arm "seed=9,cache.load:corrupt:always";
  let t = open_ok dir in
  Fault.disarm ();
  Alcotest.(check int) "every record rejected" 2 (Store.corrupt_skipped t);
  Alcotest.(check int) "nothing served" 0 (List.length (Store.entries t))

(* ---------- service-level warm restart ---------- *)

let triangle = [ (0, 1); (1, 2); (0, 2) ]

let req ?id gamma =
  Request.make ?id
    ~interaction:(Qcr_circuit.Program.Qaoa_maxcut { gamma; beta = 0.25 })
    ~arch_kind:Qcr_arch.Arch.Line ~qubits:4 ~edges:triangle ()

let reply_content r =
  Json.to_string
    (Reply.strip_volatile (Reply.to_json { r with Reply.id = ""; cached = false }))

let test_service_warm_restart () =
  with_dir @@ fun dir ->
  let cold = Service.create ~store:(open_ok dir) () in
  let c1 = Service.submit cold (req 0.1) in
  let c2 = Service.submit cold (req 0.2) in
  (match Service.flush cold with
  | Ok n -> Alcotest.(check int) "both persisted" 2 n
  | Error e -> Alcotest.fail e);
  (match Service.flush cold with
  | Ok n -> Alcotest.(check int) "second flush is empty" 0 n
  | Error e -> Alcotest.fail e);
  (* the restart: a fresh handle and a fresh service on the same dir *)
  let warm = Service.create ~store:(open_ok dir) () in
  let w1 = Service.submit warm (req 0.1) in
  let w2 = Service.submit warm (req 0.2) in
  Alcotest.(check bool) "first served from disk" true w1.Reply.cached;
  Alcotest.(check bool) "second served from disk" true w2.Reply.cached;
  Alcotest.(check string) "bit-identical 0.1" (reply_content c1) (reply_content w1);
  Alcotest.(check string) "bit-identical 0.2" (reply_content c2) (reply_content w2);
  let st = Service.stats warm in
  Alcotest.(check int) "all hits" 2 st.Service.cache_hits;
  Alcotest.(check int) "no misses" 0 st.Service.cache_misses

let test_service_survives_store_damage () =
  with_dir @@ fun dir ->
  let cold = Service.create ~store:(open_ok dir) () in
  let reference = Service.submit cold (req 0.3) in
  (match Service.flush cold with Ok _ -> () | Error e -> Alcotest.fail e);
  (* flip a byte in the only segment: the warm service must reject the
     record, recompile cold, and still answer bit-identically *)
  let seg = Filename.concat dir (List.hd (segment_files dir)) in
  let data = Bytes.of_string (read_file seg) in
  Bytes.set data
    (Bytes.length data - 3)
    (Char.chr (Char.code (Bytes.get data (Bytes.length data - 3)) lxor 0x40));
  write_file seg (Bytes.to_string data);
  let warm = Service.create ~store:(open_ok dir) () in
  let r = Service.submit warm (req 0.3) in
  Alcotest.(check bool) "damaged entry recompiles" false r.Reply.cached;
  Alcotest.(check string) "recompiled bit-identically" (reply_content reference)
    (reply_content r);
  let st = Service.stats warm in
  Alcotest.(check bool) "damage surfaced as corruption" true (st.Service.cache_corrupt >= 1);
  (* self-heal: the re-flush persists the recompiled entry again *)
  (match Service.flush warm with
  | Ok n -> Alcotest.(check int) "healed" 1 n
  | Error e -> Alcotest.fail e);
  let healed = Service.create ~store:(open_ok dir) () in
  Alcotest.(check bool) "served warm after healing" true
    (Service.submit healed (req 0.3)).Reply.cached

let test_service_flush_crash_is_an_error () =
  with_dir @@ fun dir ->
  let s = Service.create ~store:(open_ok dir) () in
  ignore (Service.submit s (req 0.4));
  arm "seed=3,cache.flush:crash:nth=1";
  (match Service.flush s with
  | Error _ -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "flush must surface the crash, wrote %d" n));
  Fault.disarm ();
  (match Service.flush s with
  | Ok n -> Alcotest.(check int) "retry persists" 1 n
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "entry on disk after retry" 1 (Store.persisted (open_ok dir))

let test_stats_export_cache_gauges () =
  let s = Service.create () in
  ignore (Service.submit s (req 0.5));
  let bytes = Service.cache_bytes s in
  Alcotest.(check bool) "cached bytes tracked" true (bytes > 0);
  Alcotest.(check int) "one live entry" 1 (Service.cache_entries s);
  ignore (Service.submit s (req 0.5));
  Alcotest.(check int) "a hit adds no bytes" bytes (Service.cache_bytes s);
  ignore (Service.submit s (req 0.6));
  Alcotest.(check bool) "a second entry adds bytes" true (Service.cache_bytes s > bytes);
  let j = Service.stats_to_json ~cache_bytes:bytes (Service.stats s) in
  Alcotest.(check bool) "no shards gauge" true (Json.member "shards" j = None);
  match Json.member "cache_bytes" j with
  | Some (Json.Num n) -> Alcotest.(check int) "cache_bytes exported" bytes (int_of_float n)
  | _ -> Alcotest.fail "stats_to_json must export \"cache_bytes\""

let suite =
  [
    Alcotest.test_case "record round-trip and rejects" `Quick test_record_roundtrip_basic;
    QCheck_alcotest.to_alcotest prop_record_roundtrip;
    Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
    Alcotest.test_case "crash between flush and rename" `Quick test_store_crash_between_renames;
    Alcotest.test_case "on-disk damage contained" `Quick test_store_damage_contained;
    Alcotest.test_case "load fault injection" `Quick test_store_load_fault_injection;
    Alcotest.test_case "service warm restart" `Quick test_service_warm_restart;
    Alcotest.test_case "service survives store damage" `Quick test_service_survives_store_damage;
    Alcotest.test_case "flush crash is a typed error" `Quick test_service_flush_crash_is_an_error;
    Alcotest.test_case "stats export cache gauges" `Quick test_stats_export_cache_gauges;
  ]
