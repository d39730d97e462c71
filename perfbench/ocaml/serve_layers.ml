(* The server layers of serve-mixed, timed in process on a replay of the
   same mix: protocol parsing, the engine through its loopback transport
   (no socket), the session operations, and journal appends at the
   daemon's default fsync policy.  Each layer's median per-call time is
   recorded; the engine's per-op service times are returned (ms) so the
   socket run's queueing and transport can be told apart. *)

module P = Server.Protocol
module J = Obs.Json

let replay_len = 1500

let us_of f =
  let r, s = Tr.timed f in
  (r, s *. 1e6)

let record_medians prefix samples =
  Hashtbl.iter
    (fun op l -> Hashtbl.replace Tr.counts (prefix ^ op ^ "_us") (Openloop.quantile !l 0.5))
    samples

let add samples op us =
  match Hashtbl.find_opt samples op with
  | Some l -> l := us :: !l
  | None -> Hashtbl.replace samples op (ref [ us ])

let policy = Server.Journal.policy_of_string "interval:100"

let replay ~dir ~seed ~tasks ~procs ~preload =
  let mix = Mix.create ~seed ~tasks ~procs in
  let lines = List.init replay_len (fun id -> let op, fields = Mix.next mix in (op, Mix.line ~id fields)) in
  (* protocol *)
  let parse = Hashtbl.create 1 in
  let reqs =
    List.map
      (fun (op, line) ->
        let r, us = us_of (fun () -> Tr.span "server.protocol.parse" (fun () -> P.parse line)) in
        add parse "parse" us;
        match r with Ok p -> (op, line, p.P.req) | Error _ -> failwith "mix line rejected")
      lines
  in
  Hashtbl.replace Tr.counts "server.protocol.parse_us"
    (Openloop.quantile !(Hashtbl.find parse "parse") 0.5);
  (* engine through the loopback, journaling like the daemon *)
  let persist, _ =
    Server.Persist.open_ ~dir:(Filename.concat dir "loopback-persist") ~policy ~version:"perfbench"
  in
  let lb = Server.Loopback.create ~persist () in
  List.iteri
    (fun i text ->
      ignore
        (Server.Loopback.request lb
           (Mix.line ~id:(-1)
              [ ("op", J.Str "load"); ("session", J.Str (Mix.session i)); ("instance", J.Str text) ])))
    preload;
  let engine = Hashtbl.create 8 in
  List.iter
    (fun (op, line, _) ->
      let _, us =
        us_of (fun () -> Tr.span ("server.engine." ^ op) (fun () -> Server.Loopback.request lb line))
      in
      add engine op us)
    reqs;
  record_medians "server.engine." engine;
  Server.Persist.close persist;
  (* session operations directly *)
  let sessions =
    List.mapi
      (fun i text ->
        let id = Mix.session i in
        (id, fst (Server.Session.of_graph ~id (Hyper.Io.of_string text))))
      preload
  in
  let session = Hashtbl.create 4 in
  let of_req = function
    | P.Add_task { session; _ } | P.Remove_task { session; _ } | P.Resolve { session; _ } ->
        List.assoc session sessions
    | _ -> snd (List.hd sessions)
  in
  List.iter
    (fun (op, _, req) ->
      let s = of_req req in
      match req with
      | P.Add_task { configs; _ } ->
          let _, us =
            us_of (fun () ->
                Tr.span "server.session.add_task" (fun () -> Server.Session.add_tasks s [ configs ]))
          in
          add session op us
      | P.Remove_task { task; _ } ->
          let _, us =
            us_of (fun () ->
                Tr.span "server.session.remove_task" (fun () -> Server.Session.remove_task s task))
          in
          add session op us
      | P.Resolve { budget_ms; _ } ->
          let _, us =
            us_of (fun () ->
                Tr.span "server.session.resolve" (fun () ->
                    Server.Session.resolve ~jobs:1 ~budget_s:(budget_ms /. 1000.0) s))
          in
          add session op us
      | _ -> ())
    reqs;
  record_medians "server.session." session;
  (* journal appends *)
  let p, _ = Server.Persist.open_ ~dir:(Filename.concat dir "journal") ~policy ~version:"perfbench" in
  let log = Hashtbl.create 1 in
  List.iter
    (fun (op, line, _) ->
      if op = "add_task" || op = "remove_task" then begin
        let (), us =
          us_of (fun () ->
              Tr.span "server.persist.log" (fun () -> Server.Persist.log p ~lines:[ line ] ~cached:[]))
        in
        add log "log" us
      end)
    reqs;
  Server.Persist.close p;
  Hashtbl.replace Tr.counts "server.persist.log_us" (Openloop.quantile !(Hashtbl.find log "log") 0.5);
  Hashtbl.fold (fun op l acc -> (op, Openloop.quantile !l 0.5 /. 1000.0) :: acc) engine []
