(* One measured op, run in a child process of its own so that a per-solve
   time limit can kill it and its peak RSS is its own.  The child prints
   one JSON line: the op's seconds, its answer's makespan, its peak RSS,
   and (traced) its spans; the assignment goes to a file for the parent's
   independent check. *)

module J = Obs.Json
module E = Semimatch.Exact_unit

let num f = J.Num f

let write_ints path a =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter (fun x -> output_string oc (string_of_int x); output_char oc '\n') a)

let read_ints path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map int_of_string |> Array.of_list

(* Per-task position of the chosen hyperedge among the task's own, i.e.
   the configuration's index in the instance text. *)
let local_choice (h : Hyper.Graph.t) choice =
  Array.mapi (fun v e -> e - h.Hyper.Graph.task_off.(v)) choice

let local_edge (g : Bipartite.Graph.t) edge = Array.mapi (fun v e -> e - g.Bipartite.Graph.off.(v)) edge

let engine_of_name n =
  match List.find_opt (fun e -> E.exact_engine_name e = n) E.all_exact_engines with
  | Some e -> e
  | None -> failwith ("unknown engine " ^ n)

let matching_tag = function
  | Matching.Dfs -> "dfs"
  | Matching.Hopcroft_karp -> "hk"
  | Matching.Push_relabel -> "pr"

let exact_fields op_s (sol : E.solution) =
  [
    ("op_s", num op_s);
    ("makespan", num (float_of_int sol.makespan));
    ("deadlines", num (float_of_int sol.deadlines_tried));
  ]

(* mp: parse + the heuristic portfolio (the path behind [solve
   --portfolio]).  Traced, the portfolio's parts are replayed one by one
   afterwards for the per-layer figures. *)
let mp ~replay ~file ~out =
  let text = Inst.read_file file in
  let portfolio_s = ref 0.0 in
  let (h, r), op_s =
    Tr.timed (fun () ->
        Tr.span "op.mp" (fun () ->
            let h = Tr.span "hyper.io.parse" (fun () -> Hyper.Io.of_string text) in
            let r, s =
              Tr.timed (fun () ->
                  Tr.span "semimatch.portfolio" (fun () -> Semimatch.Portfolio.solve ~jobs:1 h))
            in
            portfolio_s := s;
            (h, r)))
  in
  let open Semimatch.Portfolio in
  write_ints out (local_choice h r.assignment.Semimatch.Hyp_assignment.choice);
  if replay then begin
    let solved = List.filter_map (fun o -> Option.map (fun m -> (o, m)) o.o_makespan) r.outcomes in
    let busy = List.fold_left (fun a o -> a +. o.o_time_s) 0.0 r.outcomes in
    Tr.count "semimatch.portfolio.residual_s" (!portfolio_s -. busy);
    Tr.count "semimatch.portfolio.run" (float_of_int (List.length solved));
    Tr.count "semimatch.portfolio.useful"
      (float_of_int (List.length (List.filter (fun (_, m) -> m <= r.best_makespan) solved)));
    Tr.new_op ();
    Tr.span "replay.mp" (fun () ->
        ignore
          (Tr.span "semimatch.lower_bound" (fun () -> Semimatch.Lower_bound.multiproc_refined h));
        List.iter
          (fun a ->
            let tag = String.lowercase_ascii (Semimatch.Greedy_hyper.short_name a) in
            let start =
              Tr.span ("semimatch.greedy." ^ tag) (fun () -> Semimatch.Greedy_hyper.run a h)
            in
            if a = Semimatch.Greedy_hyper.Expected_vector_greedy_hyp then begin
              let _, moves =
                Tr.span "semimatch.local_search" (fun () -> Semimatch.Local_search.refine h start)
              in
              Tr.count "semimatch.local_search.moves" (float_of_int moves)
            end)
          Semimatch.Greedy_hyper.all;
        ignore
          (Tr.span "semimatch.anneal" (fun () ->
               Semimatch.Annealing.solve (Randkit.Prng.create ~seed:1) h)))
  end;
  [ ("op_s", num op_s); ("makespan", num r.best_makespan); ("lb", num r.lower_bound) ]

(* exact: the [exact] CLI path — parse, lower to bipartite, the default
   engine and strategy.  Traced, each matching engine then runs once at
   the optimal capacity. *)
let exact ~replay ~file ~out =
  let text = Inst.read_file file in
  let (g, sol), op_s =
    Tr.timed (fun () ->
        Tr.span "op.exact" (fun () ->
            let h = Tr.span "hyper.io.parse" (fun () -> Hyper.Io.of_string text) in
            let g = Option.get (Hyper.Graph.to_bipartite h) in
            (g, Tr.span "exact.default" (fun () -> E.solve g))))
  in
  write_ints out (local_edge g sol.E.assignment.Semimatch.Bip_assignment.edge);
  if replay then begin
    Tr.new_op ();
    Tr.span "replay.matching" (fun () ->
        List.iter
          (fun engine ->
            let tag = matching_tag engine in
            let capacities = Array.make g.Bipartite.Graph.n2 sol.E.makespan in
            let _, st =
              Tr.span ("matching." ^ tag) (fun () -> Matching.solve_with_stats ~engine ~capacities g)
            in
            Tr.count ("matching." ^ tag ^ ".scans") (float_of_int st.Matching.scans))
          Matching.all_engines)
  end;
  exact_fields op_s sol

(* ingest: [Stream.Ingest.solve] at the default threshold — the [solve
   --stream] and daemon [stream_end] path.  In-core instances go to the
   exact-engine race; the large stream stays on the streamed tier.
   Traced, the tier's parts are replayed: one read pass, the
   materialization, and the race or the streamed solvers. *)
let ingest ~replay ~file ~out =
  let o, op_s =
    Tr.timed (fun () ->
        Tr.span "op.ingest" (fun () -> Tr.span "stream.ingest" (fun () -> Stream.Ingest.solve file)))
  in
  let open Stream.Ingest in
  (match o.assignment with Some a -> write_ints out a | None -> write_ints out [||]);
  if replay then begin
    Tr.new_op ();
    Tr.span "replay.ingest" (fun () ->
        let bytes = float_of_int (Unix.stat file).Unix.st_size in
        let rd = Hyper.Stream_io.open_reader file in
        let (), read_s =
          Tr.timed (fun () ->
              Tr.span "hyper.stream.read" (fun () ->
                  Hyper.Stream_io.iter rd (fun ~task:_ ~procs:_ ~weight:_ -> ())))
        in
        Tr.count "hyper.stream.read_bytes" bytes;
        Tr.count "hyper.stream.read_s" read_s;
        match o.tier with
        | Stream_kr _ ->
            List.iter
              (fun (tag, solve) ->
                Hyper.Stream_io.rewind rd;
                let sol = Tr.span ("stream." ^ tag) (fun () -> solve rd) in
                if tag = "few_pass" then begin
                  Tr.count "stream.passes" (float_of_int sol.Stream.Kr.passes);
                  Tr.count "stream.state_words" (float_of_int sol.Stream.Kr.state_words)
                end)
              [ ("one_pass", Stream.Kr.one_pass); ("few_pass", Stream.Kr.few_pass) ];
            Hyper.Stream_io.close_reader rd
        | _ ->
            Hyper.Stream_io.close_reader rd;
            let h = Tr.span "hyper.graph.build" (fun () -> Hyper.Stream_io.load file) in
            let g = Option.get (Hyper.Graph.to_bipartite h) in
            ignore
              (Tr.span "exact.race" (fun () -> Semimatch.Portfolio.solve_exact_unit ~jobs:1 g)))
  end;
  [
    ("op_s", num op_s);
    ("makespan", num o.makespan);
    ("lb", num o.lower_bound);
    ("factor", num (if Float.is_nan o.factor then -1.0 else o.factor));
    ("tier", J.Str (tier_name o.tier));
  ]

(* engine: one exact engine alone, for the engine census of the traced
   run. *)
let engine ~name ~file ~out =
  let text = Inst.read_file file in
  let g = Option.get (Hyper.Graph.to_bipartite (Hyper.Io.of_string text)) in
  let sol, op_s =
    Tr.timed (fun () ->
        Tr.span ("exact." ^ name) (fun () -> E.solve_with ~exact:(engine_of_name name) g))
  in
  write_ints out (local_edge g sol.E.assignment.Semimatch.Bip_assignment.edge);
  exact_fields op_s sol

(* [bench op KIND --trace 0|1 --out FILE [--replay] [--engine NAME] INPUT];
   [--replay] (traced only) adds the per-layer replays after the op. *)
let main args =
  let trace = ref false and replay = ref false and out = ref "" in
  let name = ref "" and kind = ref "" and input = ref "" in
  let rec go = function
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | "--out" :: v :: rest -> out := v; go rest
    | "--engine" :: v :: rest -> name := v; go rest
    | "--replay" :: rest -> replay := true; go rest
    | k :: rest when !kind = "" -> kind := k; go rest
    | f :: rest -> input := f; go rest
    | [] -> ()
  in
  go args;
  Tr.on := !trace;
  let replay = !trace && !replay in
  let fields =
    match !kind with
    | "mp" -> mp ~replay ~file:!input ~out:!out
    | "exact" -> exact ~replay ~file:!input ~out:!out
    | "ingest" -> ingest ~replay ~file:!input ~out:!out
    | "engine" -> engine ~name:!name ~file:!input ~out:!out
    | k -> failwith ("unknown op kind " ^ k)
  in
  let counts = Hashtbl.fold (fun k v acc -> (k, J.Num v) :: acc) Tr.counts [] in
  print_endline
    (J.to_string
       (J.Obj
          (fields
          @ [
              ("rss_mb", num (Child.rss_mb "self"));
              ("spans", J.List (List.rev_map Tr.to_json !Tr.recorded));
              ("counts", J.Obj counts);
            ])))
