(* The server under test: a real [qcr_cli serve --listen 127.0.0.1:0]
   child process, with its CPU time and peak memory read from /proc. *)

type t = {
  pid : int;
  port : int;
  out : in_channel;  (** the server's stdout; its first line names the port *)
}

let listening_prefix = "listening on "

(* The port from the server's first stdout line, ["listening on HOST:PORT"]. *)
let port_of_line line =
  let p = String.length listening_prefix in
  if String.length line <= p || String.sub line 0 p <> listening_prefix then None
  else
    match String.rindex_opt line ':' with
    | None -> None
    | Some i -> int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))

(* The child inherits the environment minus QCR_FAULTS, so a fault spec
   armed in the caller's shell never reaches the measured server. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"QCR_FAULTS=" kv))
       (Array.to_list (Unix.environment ())))

let rec wait_exit pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Unix.gettimeofday () > deadline then false
      else begin
        Unix.sleepf 0.01;
        wait_exit pid ~deadline
      end
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM (the server drains and persists its cache), then SIGKILL if it
   has not exited within [grace_s]; always reaps the child.  SIGTERM,
   SIGINT and SIGHUP to the benchmark itself are held back meanwhile, so
   an interrupted run cannot abandon a half-stopped server. *)
let stop ?(grace_s = 30.0) t =
  let held = Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint; Sys.sighup ] in
  Fun.protect
    ~finally:(fun () -> ignore (Unix.sigprocmask Unix.SIG_SETMASK held))
    (fun () ->
      (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
      if not (wait_exit t.pid ~deadline:(Unix.gettimeofday () +. grace_s)) then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (wait_exit t.pid ~deadline:infinity)
      end;
      close_in_noerr t.out)

let spawn ~exe ~domains ~args =
  let argv =
    Array.of_list
      ([ exe; "serve"; "--listen"; "127.0.0.1:0"; "--domains"; string_of_int domains ] @ args)
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env exe argv (child_env ()) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let fail msg = failwith (Printf.sprintf "server %s: %s" exe msg) in
  try
    match input_line out with
    | exception End_of_file -> fail "exited before listening"
    | line -> (
        match port_of_line line with
        | Some port -> { pid; port; out }
        | None -> fail (Printf.sprintf "unexpected first line %S" line))
  with e ->
    stop { pid; port = 0; out };
    raise e

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* CPU seconds the process has run, summed over its threads: the first
   field of /proc/<pid>/task/<tid>/schedstat, in nanoseconds.  A thread
   that exits between the listing and the read counts as 0. *)
let cpu_seconds t =
  let dir = Printf.sprintf "/proc/%d/task" t.pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> acc +. (float_of_string (List.hd (String.split_on_char ' ' s)) /. 1e9)
      | exception Sys_error _ -> acc)
    0.0 (Sys.readdir dir)

(* Peak resident set size (VmHWM) in MB. *)
let peak_rss_mb t =
  let s = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' s)
  in
  let kb = Scanf.sscanf line "VmHWM: %d kB" Fun.id in
  float_of_int kb /. 1024.0

(* ---------- CPU placement ---------- *)

(* The CPUs this process may run on, as /proc/self/status lists them
   (e.g. "0-1"). *)
let allowed_cpus () =
  let s = read_file "/proc/self/status" in
  let line =
    List.find (String.starts_with ~prefix:"Cpus_allowed_list:") (String.split_on_char '\n' s)
  in
  String.trim (String.sub line 18 (String.length line - 18))

(* The first CPU of such a list. *)
let first_cpu cpus =
  let digits = String.to_seq cpus |> Seq.take_while (fun c -> c >= '0' && c <= '9') in
  String.of_seq digits

(* Restrict every thread of this process to [cpus]; children spawned
   afterwards inherit the mask. *)
let pin_self cpus =
  let ic =
    Unix.open_process_args_in "taskset"
      [| "taskset"; "-a"; "-p"; "-c"; cpus; string_of_int (Unix.getpid ()) |]
  in
  ignore (In_channel.input_all ic);
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("taskset could not set the CPU affinity to " ^ cpus)
