(* Run metadata, so reports from different hosts, settings or commits
   are never compared unknowingly. *)

module Json = Qcr_obs.Json

let nproc () = Domain.recommended_domain_count ()

(* The end-to-end pass runs the client and the server on one CPU, so the
   server gets one domain; see [Proc.pin_self] and the README. *)
let server_domains = 1

(* [git rev-parse HEAD] when the tree is a git checkout, else "none". *)
let commit () =
  if not (Sys.file_exists ".git") then "none"
  else
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "none"

let json ~workload ~seed ~seconds ~trace ~cpu ~domains ~warmup ~timed ~block ~blocks ~tail_q
    ~tail_samples ~tail_n =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num (float_of_int seconds));
      ("trace", Json.Bool trace);
      ("commit", Json.Str (commit ()));
      ("nproc", Json.Num (float_of_int (nproc ())));
      ("e2e_cpu", Json.Str cpu);
      ("server_domains", Json.Num (float_of_int domains));
      ("warmup_requests", Json.Num (float_of_int warmup));
      ("timed_requests", Json.Num (float_of_int timed));
      ("block_requests", Json.Num (float_of_int block));
      ("blocks", Json.Num (float_of_int blocks));
      ("tail_samples", Json.Num (float_of_int tail_samples));
      ("tail_percentile", Json.Num (float_of_int tail_q));
      ("tail_samples_beyond", Json.Num (float_of_int tail_n));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]
