(* Child processes: the per-solve ops (this executable's [op] mode) under a
   wall-clock limit, and the daemon.  Every child started here is waited
   for before the run ends. *)

module J = Obs.Json

type result =
  | Done of J.t  (** the child's JSON line *)
  | Over_limit
  | Crashed of string

let live : int list ref = ref []

let reap pid =
  let rec loop () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | _, st -> st
  in
  let st = loop () in
  live := List.filter (( <> ) pid) !live;
  st

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !live

(* Run [argv] with stdout on a pipe; kill it once [limit_s] has passed. *)
let run ~limit_s argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  live := pid :: !live;
  Unix.close w;
  let deadline = Unix.gettimeofday () +. limit_s in
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec read () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then false
    else
      match Unix.select [ r ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
      | [], _, _ -> false
      | _ -> (
          match Unix.read r chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              read ())
  in
  let finished = read () in
  Unix.close r;
  if not finished then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap pid);
    Over_limit
  end
  else
    match reap pid with
    | Unix.WEXITED 0 -> (
        let lines = List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents buf)) in
        match List.rev lines with
        | last :: _ -> (
            try Done (J.of_string last) with Failure m -> Crashed ("unparseable op output: " ^ m))
        | [] -> Crashed "op printed nothing")
    | Unix.WEXITED c -> Crashed (Printf.sprintf "op exited with code %d" c)
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Crashed (Printf.sprintf "op killed by signal %d" s)

let op ~limit_s ~trace ~out kind extra input =
  run ~limit_s
    (Array.of_list
       ([ Sys.executable_name; "op"; kind; "--trace"; (if trace then "1" else "0"); "--out"; out ]
       @ extra @ [ input ]))

let num j k = match Option.bind (J.member k j) J.to_float with Some f -> f | None -> Float.nan
let str j k = Option.value ~default:"" (Option.bind (J.member k j) J.to_str)

(* The daemon: [semimatch_cli serve] on a Unix socket with a persist dir,
   its log in [log]. *)
let daemon ~cli ~socket ~persist ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--persist-dir"; persist |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  live := pid :: !live;
  pid

let connect ~socket ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.02;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  go ()

(* Peak RSS of a live process ("self" or a pid), in MB. *)
let rss_mb pid =
  let hwm = ref 0.0 in
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      Seq.iter
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> hwm := float_of_string (List.hd (Check.words v)) /. 1024.0
          | _ -> ())
        (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
  !hwm

(* One request, one reply: a blocking round trip for set-up and checks. *)
let request fd line =
  Openloop.write_all fd (line ^ "\n");
  let buf = Buffer.create 4096 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> failwith "daemon closed the connection"
    | _ when Bytes.get c 0 = '\n' -> Buffer.contents buf
    | _ ->
        Buffer.add_char buf (Bytes.get c 0);
        go ()
  in
  J.of_string (go ())
