(* The output check of every run, after the timed phase and untimed:
   every reply must be ok (counted by the client, [Drive]), and for a seeded
   sample of distinct requests covering every device family, an
   in-process recompile must match the wire reply and pass the
   independent structural certificate. *)

module Prng = Qcr_util.Prng
module Service = Qcr_service.Service
module Request = Qcr_service.Compile_request
module Reply = Qcr_service.Compile_reply
module Pipeline = Qcr_core.Pipeline
module Checker = Qcr_core.Checker

type sampled = {
  request : Request.t;
  wire : Drive.summary;  (** the server's reply to this request in the timed phase *)
}

(* Distinct requests (by wire line) with their first wire reply, then
   [per_family] of each device family in seeded order. *)
let sample ~seed ~per_family (lines : string array) (replies : Drive.summary array) =
  let distinct =
    Array.of_list (List.map (fun (i, r) -> { request = r; wire = replies.(i) }) (Gen.distinct lines))
  in
  Prng.shuffle (Prng.create (seed + 7919)) distinct;
  let taken = Hashtbl.create 8 in
  List.filter
    (fun s ->
      let k = s.request.Request.arch_kind in
      let c = Option.value ~default:0 (Hashtbl.find_opt taken k) in
      if c < per_family then (Hashtbl.replace taken k (c + 1); true) else false)
    (Array.to_list distinct)

(* The pipeline request the service builds for [r] at its default A*
   budget; [run] checks that its result is the circuit the server sent. *)
let pipeline_request (r : Request.t) =
  let arch = Request.arch_of r in
  ( arch,
    Pipeline.Request.make ~id:r.Request.id ~config:(Request.config_of r)
      ?noise:(Request.noise_of r arch)
      ~mode:(Request.pipeline_mode ~astar_budget:30000 r)
      arch (Request.program_of r) )

let fields (s : Drive.summary) =
  [
    ("status", s.Drive.status);
    ("depth", string_of_int s.Drive.depth);
    ("cx", string_of_int s.Drive.cx);
    ("swaps", string_of_int s.Drive.swaps);
    ("circuit_digest", s.Drive.digest);
  ]

(* The certified circuit's fields, as a reply would carry them. *)
let result_fields res =
  let m = Reply.metrics_of_result res in
  [
    ("status", "ok");
    ("depth", string_of_int m.Reply.depth);
    ("cx", string_of_int m.Reply.cx);
    ("swaps", string_of_int m.Reply.swap_count);
    ("circuit_digest", m.Reply.circuit_digest);
  ]

(* One line per failed comparison or certificate. *)
let run samples =
  let service = Service.create () in
  let mismatches = ref [] in
  let fail r fmt =
    Printf.ksprintf (fun m -> mismatches := (r.Request.id ^ ": " ^ m) :: !mismatches) fmt
  in
  let match_wire r what wire local =
    List.iter2
      (fun (k, a) (_, b) -> if a <> b then fail r "%s: wire %s, %s %s" k a what b)
      (fields wire) local
  in
  List.iter
    (fun { request = r; wire } ->
      match_wire r "Service.submit" wire (fields (Drive.summary (Reply.to_json (Service.submit service r))));
      let arch, preq = pipeline_request r in
      match Pipeline.run preq with
      | Error e -> fail r "Pipeline.run: %s" (Pipeline.error_to_string e)
      | Ok res -> (
          match_wire r "Pipeline.run" wire (result_fields res);
          match Checker.certify ~arch ~program:(Request.program_of r) res with
          | Ok () -> ()
          | Error vs -> fail r "certify: %s" (String.concat "; " vs)))
    samples;
  List.rev !mismatches
