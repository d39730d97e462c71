(* perfbench runner.  [bench run --workload W --seed N --seconds S --trace
   0|1 --work DIR --cli EXE [--tiny]] runs one workload and prints its
   result as the last line of standard output; [bench op ...] is the
   child-process side of one measured op; [bench selftest] checks the
   checker and the open-loop load generator. *)

let fmt_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (x : Metric.t) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name (fmt_num x.m_value)
              x.m_unit)
          metrics))

let run args =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref false in
  let dir = ref "" and cli = ref "" and tiny = ref false in
  let rec go = function
    | "--workload" :: v :: r -> workload := v; go r
    | "--seed" :: v :: r -> seed := int_of_string v; go r
    | "--seconds" :: v :: r -> seconds := float_of_string v; go r
    | "--trace" :: v :: r -> trace := v = "1"; go r
    | "--work" :: v :: r -> dir := v; go r
    | "--cli" :: v :: r -> cli := v; go r
    | "--tiny" :: r -> tiny := true; go r
    | [] -> ()
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go args;
  let ctx =
    { Work.dir = !dir; seed = !seed; seconds = !seconds; trace = !trace; tiny = !tiny; cli = !cli }
  in
  let f =
    match !workload with
    | "mp-portfolio" -> Work.mp
    | "sp-solve" -> Work.sp
    | "serve-mixed" -> Work.serve
    | w -> failwith ("unknown workload " ^ w)
  in
  let o = Fun.protect ~finally:Child.kill_all (fun () -> f ctx) in
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) o.Work.problems;
  Out_channel.with_open_bin (Filename.concat !dir "ledger.jsonl") (fun oc ->
      List.iter (fun r -> output_string oc (Obs.Json.to_string r ^ "\n")) (List.rev !Work.ledger));
  if !trace then Tr.write (Filename.concat !dir "spans.jsonl");
  let finite = List.for_all (fun (x : Metric.t) -> Float.is_finite x.m_value) o.metrics in
  if not finite then prerr_endline "a metric is not finite";
  print_endline
    (result ~correct:(o.problems = [] && finite) ~attempted:o.attempted ~failed:o.failed
       (List.map
          (fun (x : Metric.t) -> if Float.is_finite x.m_value then x else { x with m_value = -1.0 })
          o.metrics))

let () =
  match Array.to_list Sys.argv with
  | _ :: "op" :: rest -> Op.main rest
  | _ :: "run" :: rest -> run rest
  | _ :: "selftest" :: _ -> Selftest.main ()
  | _ ->
      prerr_endline "usage: bench run --workload W --seed N --seconds S --trace 0|1 --work DIR --cli EXE";
      exit 2
