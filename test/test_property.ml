(* Property-based tests over random instances, on a small self-contained
   generator/shrinker substrate seeded through Randkit.Prng (reproducible
   across runs and machines, unlike Stdlib.Random).

   A case is the edge list a hypergraph is built from; properties get the
   built graph.  On failure the case is greedily shrunk — drop a spare
   configuration, drop a processor from a configuration, simplify a weight —
   and the minimal counterexample is printed in the Hyper.Io text format, so
   it can be saved and replayed with `semimatch_cli solve`. *)

module H = Hyper.Graph
module Gh = Semimatch.Greedy_hyper
module Gb = Semimatch.Greedy_bipartite
module Prng = Randkit.Prng

type case = { n1 : int; n2 : int; edges : (int * int array * float) list }

let graph_of c = H.create ~n1:c.n1 ~n2:c.n2 ~hyperedges:c.edges

let weight_palette = [| 1.0; 0.5; 2.0; 3.0; 1.25 |]

(* Every task gets 1..3 configurations of 1..3 distinct processors each, so
   instances are always feasible (no isolated task). *)
let gen_case rng =
  let n1 = 1 + Prng.int rng 10 and n2 = 1 + Prng.int rng 6 in
  let edges = ref [] in
  for v = n1 - 1 downto 0 do
    let d = 1 + Prng.int rng 3 in
    for _ = 1 to d do
      let k = 1 + Prng.int rng (min 3 n2) in
      let procs = Prng.sample_without_replacement rng ~k ~n:n2 in
      let w = weight_palette.(Prng.int rng (Array.length weight_palette)) in
      edges := (v, procs, w) :: !edges
    done
  done;
  { n1; n2; edges = !edges }

(* Shrink candidates, most aggressive first.  All moves keep every task
   covered, so candidates never leave the valid-instance space. *)
let shrink_candidates c =
  let degree v = List.length (List.filter (fun (t, _, _) -> t = v) c.edges) in
  let nth_removed i = List.filteri (fun j _ -> j <> i) c.edges in
  let drop_edges =
    List.filteri (fun _ (t, _, _) -> degree t > 1) c.edges
    |> List.map (fun e ->
           let i = ref (-1) in
           List.iteri (fun j e' -> if !i < 0 && e' == e then i := j) c.edges;
           { c with edges = nth_removed !i })
  in
  let drop_procs =
    List.concat
      (List.mapi
         (fun i (t, procs, w) ->
           if Array.length procs <= 1 then []
           else
             List.init (Array.length procs) (fun k ->
                 let smaller = Array.of_list (List.filteri (fun j _ -> j <> k) (Array.to_list procs)) in
                 {
                   c with
                   edges = List.mapi (fun j e -> if j = i then (t, smaller, w) else e) c.edges;
                 }))
         c.edges)
  in
  let unit_weights =
    List.mapi
      (fun i (t, procs, w) ->
        if w = 1.0 then None
        else Some { c with edges = List.mapi (fun j e -> if j = i then (t, procs, 1.0) else e) c.edges })
      c.edges
    |> List.filter_map Fun.id
  in
  drop_edges @ drop_procs @ unit_weights

let rec shrink ~budget prop c =
  if budget = 0 then c
  else
    match List.find_opt (fun c' -> Result.is_error (prop c')) (shrink_candidates c) with
    | Some smaller -> shrink ~budget:(budget - 1) prop smaller
    | None -> c

(* [run_prop] generates [count] cases from [seed]; the first failure is
   shrunk and reported with its Io rendering and the message the property
   produced on the shrunk case. *)
let run_prop ~seed ~count prop =
  let rng = Prng.create ~seed in
  for i = 1 to count do
    let case = gen_case (Prng.split rng) in
    match prop case with
    | Ok () -> ()
    | Error _ ->
        let small = shrink ~budget:500 prop case in
        let msg = match prop small with Error m -> m | Ok () -> "(unshrinkable)" in
        Alcotest.failf "case %d/%d failed: %s\nshrunk counterexample (Hyper.Io format):\n%s" i
          count msg
          (Hyper.Io.to_string (graph_of small))
  done

let recomputed_makespan h (a : Semimatch.Hyp_assignment.t) =
  let loads = Array.make h.H.n2 0.0 in
  Array.iter
    (fun e -> H.iter_h_procs h e (fun u -> loads.(u) <- loads.(u) +. H.h_weight h e))
    a.Semimatch.Hyp_assignment.choice;
  Array.fold_left Float.max 0.0 loads

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let feasible_with_consistent_makespan ~name run c =
  let h = graph_of c in
  let a = run h in
  if not (Semimatch.Hyp_assignment.is_valid h a) then
    Error (Printf.sprintf "%s returned an invalid assignment" name)
  else begin
    let reported = Semimatch.Hyp_assignment.makespan h a in
    let actual = recomputed_makespan h a in
    if not (close reported actual) then
      Error
        (Printf.sprintf "%s reports makespan %.17g but its loads give %.17g" name reported actual)
    else Ok ()
  end

let test_greedy_feasible () =
  List.iter
    (fun algo ->
      run_prop ~seed:(Hashtbl.hash (Gh.short_name algo)) ~count:100
        (feasible_with_consistent_makespan ~name:(Gh.name algo) (Gh.run algo)))
    Gh.all

let test_local_search_feasible () =
  run_prop ~seed:11 ~count:100 (fun c ->
      let h = graph_of c in
      let start = Gh.run Gh.Sorted_greedy_hyp h in
      let m0 = Semimatch.Hyp_assignment.makespan h start in
      match
        feasible_with_consistent_makespan ~name:"local search"
          (fun h -> fst (Semimatch.Local_search.refine h start))
          c
      with
      | Error _ as e -> e
      | Ok () ->
          let refined, _ = Semimatch.Local_search.refine h start in
          let m = Semimatch.Hyp_assignment.makespan h refined in
          if m > m0 +. 1e-9 then
            Error (Printf.sprintf "local search worsened the makespan: %g -> %g" m0 m)
          else Ok ())

let test_annealing_feasible () =
  run_prop ~seed:12 ~count:60 (fun c ->
      let h = graph_of c in
      let a, reported = Semimatch.Annealing.solve (Prng.create ~seed:5) h in
      if not (Semimatch.Hyp_assignment.is_valid h a) then
        Error "annealing returned an invalid assignment"
      else if not (close reported (recomputed_makespan h a)) then
        Error
          (Printf.sprintf "annealing reports %.17g but its loads give %.17g" reported
             (recomputed_makespan h a))
      else Ok ())

let test_portfolio_feasible () =
  run_prop ~seed:13 ~count:40 (fun c ->
      let h = graph_of c in
      let r = Semimatch.Portfolio.solve h in
      if not (Semimatch.Hyp_assignment.is_valid h r.Semimatch.Portfolio.assignment) then
        Error "portfolio returned an invalid assignment"
      else if
        not
          (close r.Semimatch.Portfolio.best_makespan
             (recomputed_makespan h r.Semimatch.Portfolio.assignment))
      then Error "portfolio best_makespan disagrees with its assignment"
      else if
        r.Semimatch.Portfolio.best_makespan < r.Semimatch.Portfolio.lower_bound -. 1e-9
      then Error "portfolio beat the lower bound: impossible"
      else Ok ())

(* The bipartite heuristics, via the degenerate SINGLEPROC embedding:
   singleton unit-weight configurations are plain bipartite edges. *)
let bip_case rng =
  let c = gen_case rng in
  { c with edges = List.map (fun (t, procs, _) -> (t, [| procs.(0) |], 1.0)) c.edges }

let bipartite_of c =
  Bipartite.Graph.unit_weights ~n1:c.n1 ~n2:c.n2
    ~edges:(List.map (fun (t, procs, _) -> (t, procs.(0))) c.edges)

let test_bipartite_greedy_feasible () =
  let prop algo c =
    let g = bipartite_of c in
    let a = Gb.run algo g in
    if not (Semimatch.Bip_assignment.is_valid g a) then
      Error (Printf.sprintf "%s returned an invalid assignment" (Gb.name algo))
    else begin
      let reported = Semimatch.Bip_assignment.makespan g a in
      let loads = Semimatch.Bip_assignment.loads g a in
      let actual = Array.fold_left Float.max 0.0 loads in
      if not (close reported actual) then
        Error (Printf.sprintf "%s reports %.17g, loads give %.17g" (Gb.name algo) reported actual)
      else Ok ()
    end
  in
  List.iter
    (fun algo ->
      let rng = Prng.create ~seed:(17 + Hashtbl.hash (Gb.name algo)) in
      for i = 1 to 100 do
        let case = bip_case (Prng.split rng) in
        match prop algo case with
        | Ok () -> ()
        | Error _ ->
            let small = shrink ~budget:500 (prop algo) case in
            let msg = match prop algo small with Error m -> m | Ok () -> "(unshrinkable)" in
            Alcotest.failf "bipartite case %d failed: %s\nshrunk (Hyper.Io embedding):\n%s" i msg
              (Hyper.Io.to_string (graph_of small))
      done)
    Gb.all

(* Flow-cost characterization of optimal semi-matchings: a schedule that
   admits no cost-reducing path minimizes Sigma l(l+1)/2 over *all* feasible
   assignments (Harvey et al.).  The direct exact engines claim exactly
   that, so on brute-forceable instances their total flow time must equal
   the enumerated minimum.  Failures shrink to a minimal counterexample and
   print it in the Hyper.Io format like every other property here. *)
let enum_min_flow_cost g =
  let module B = Bipartite.Graph in
  let loads = Array.make g.B.n2 0 in
  let best = ref max_int in
  let rec go v =
    if v = g.B.n1 then begin
      let c = Array.fold_left (fun acc l -> acc + (l * (l + 1) / 2)) 0 loads in
      if c < !best then best := c
    end
    else
      B.iter_neighbors g v (fun u _w ->
          loads.(u) <- loads.(u) + 1;
          go (v + 1);
          loads.(u) <- loads.(u) - 1)
  in
  go 0;
  !best

let test_optimal_flow_cost () =
  let prop c =
    let g = bipartite_of c in
    let space =
      List.fold_left
        (fun acc d -> if acc > 200_000 then acc else acc * max 1 d)
        1
        (List.init c.n1 (fun v -> Bipartite.Graph.degree g v))
    in
    if space > 200_000 then Ok () (* too big to enumerate; skip *)
    else begin
      let optimum = enum_min_flow_cost g in
      let check name flow =
        if flow <> optimum then
          Error (Printf.sprintf "%s flow cost %d, enumerated optimum %d" name flow optimum)
        else Ok ()
      in
      match check "gen-hk" (Semimatch.Gen_hk.solve g).Semimatch.Gen_hk.total_flow_time with
      | Error _ as e -> e
      | Ok () -> check "harvey" (Semimatch.Harvey.solve g).Semimatch.Harvey.total_flow_time
    end
  in
  let rng = Prng.create ~seed:31 in
  for i = 1 to 120 do
    let case = bip_case (Prng.split rng) in
    match prop case with
    | Ok () -> ()
    | Error _ ->
        let small = shrink ~budget:500 prop case in
        let msg = match prop small with Error m -> m | Ok () -> "(unshrinkable)" in
        Alcotest.failf "flow-cost case %d failed: %s\nshrunk (Hyper.Io embedding):\n%s" i msg
          (Hyper.Io.to_string (graph_of small))
  done

let test_shrinker_minimizes () =
  (* The shrinker itself: on an always-failing property it must reach a
     1-task, 1-configuration, 1-processor, unit-weight fixpoint. *)
  let rng = Prng.create ~seed:99 in
  let c = gen_case rng in
  let small = shrink ~budget:10_000 (fun _ -> Error "always") c in
  List.iter
    (fun (_, procs, w) ->
      Alcotest.(check int) "singleton configurations" 1 (Array.length procs);
      Alcotest.(check (float 0.0)) "unit weights" 1.0 w)
    small.edges;
  Alcotest.(check int) "one configuration per task" small.n1 (List.length small.edges)

let suite =
  [
    Alcotest.test_case "greedy heuristics: feasible, makespan consistent" `Quick
      test_greedy_feasible;
    Alcotest.test_case "local search: feasible, never worse" `Quick test_local_search_feasible;
    Alcotest.test_case "annealing: feasible, makespan consistent" `Quick test_annealing_feasible;
    Alcotest.test_case "portfolio: feasible, above LB" `Quick test_portfolio_feasible;
    Alcotest.test_case "bipartite greedies: feasible, makespan consistent" `Quick
      test_bipartite_greedy_feasible;
    Alcotest.test_case "direct exact engines minimize total flow cost" `Quick
      test_optimal_flow_cost;
    Alcotest.test_case "shrinker reaches the minimal instance" `Quick test_shrinker_minimizes;
  ]
