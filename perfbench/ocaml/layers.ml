(* The per-layer metrics of a traced run, from the recorded spans (self
   time per layer) and the counts taken at the same boundaries.  Every
   workload prints every name; a layer the workload does not reach reads
   0. *)

let greedies = [ "sgh"; "egh"; "vgh"; "evg" ]
let matchings = [ "dfs"; "hk"; "pr" ]
let engines = [ "bs-dfs"; "bs-hk"; "bs-pr"; "gen-hk"; "dnc"; "harvey" ]
let server_ops = [ "add_task"; "remove_task"; "resolve"; "ping"; "stats" ]

(* name, unit *)
let names =
  [
    ("hyper.io.parse_s", "s");
    ("hyper.stream.read_mb_per_s", "MB/s");
    ("hyper.stream.write_s", "s");
    ("hyper.graph.build_s", "s");
    ("semimatch.lower_bound_s", "s");
  ]
  @ List.map (fun g -> ("semimatch.greedy." ^ g ^ "_s", "s")) greedies
  @ [
      ("semimatch.local_search_s", "s");
      ("semimatch.local_search.moves", "count");
      ("semimatch.anneal_s", "s");
      ("semimatch.portfolio.residual_s", "s");
      ("semimatch.portfolio.useful_ratio", "ratio");
    ]
  @ List.map (fun e -> ("matching." ^ e ^ "_s", "s")) matchings
  @ List.map (fun e -> ("matching." ^ e ^ ".scans", "count")) matchings
  @ List.map (fun e -> ("exact." ^ e ^ "_s", "s")) engines
  @ List.map (fun e -> ("exact." ^ e ^ ".deadlines", "count")) engines
  @ [
      ("exact.limit_hits", "count");
      ("exact.race_s", "s");
      ("stream.one_pass_s", "s");
      ("stream.few_pass_s", "s");
      ("stream.passes", "count");
      ("stream.state_words", "count");
      ("server.protocol.parse_us", "us");
    ]
  @ List.map (fun o -> ("server.session." ^ o ^ "_us", "us")) [ "add_task"; "remove_task"; "resolve" ]
  @ [ ("server.persist.log_us", "us") ]
  @ List.map (fun o -> ("server.engine." ^ o ^ "_us", "us")) server_ops
  @ [
      ("server.queue_wait_ms.low", "ms");
      ("server.queue_wait_ms.high", "ms");
      ("server.transport_us", "us");
      ("obs.trace_overhead_share", "ratio");
      ("obs.unattributed_s", "s");
      ("obs.spans", "count");
    ]

let count k = Option.value ~default:0.0 (Hashtbl.find_opt Tr.counts k)

(* Seconds of self time under span [name]. *)
let self_of selfs name = match Hashtbl.find_opt selfs name with Some (t, _) -> t | None -> 0.0

let value selfs name =
  let strip suffix s = String.sub s 0 (String.length s - String.length suffix) in
  match name with
  | "hyper.stream.read_mb_per_s" ->
      let s = count "hyper.stream.read_s" in
      if s > 0.0 then count "hyper.stream.read_bytes" /. s /. 1e6 else 0.0
  | "semimatch.portfolio.useful_ratio" ->
      let run = count "semimatch.portfolio.run" in
      if run > 0.0 then count "semimatch.portfolio.useful" /. run else 0.0
  | "semimatch.portfolio.residual_s" | "obs.trace_overhead_share" -> count name
  | "obs.unattributed_s" ->
      count name
      +. List.fold_left (fun a k -> a +. self_of selfs k) 0.0 [ "op.mp"; "op.exact"; "op.ingest" ]
  | "obs.spans" -> float_of_int (List.length !Tr.recorded)
  | n when String.starts_with ~prefix:"exact." n && String.ends_with ~suffix:"_s" n ->
      let base = strip "_s" n in
      self_of selfs base +. count (base ^ ".limit_s")
  | n when String.ends_with ~suffix:"_s" n -> self_of selfs (strip "_s" n)
  | n -> count n

let all () =
  let selfs = Tr.self_times () in
  List.map (fun (name, u) -> (name, value selfs name, u)) names

(* Record the tracing overhead between the untraced and the traced
   measurement of the same work, and return every per-layer metric. *)
let overhead ~untraced ~traced =
  if untraced > 0.0 then
    Hashtbl.replace Tr.counts "obs.trace_overhead_share" ((traced -. untraced) /. untraced);
  List.map (fun (m_name, m_value, m_unit) -> { Metric.m_name; m_value; m_unit }) (all ())
