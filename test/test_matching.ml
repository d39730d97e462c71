module G = Bipartite.Graph

let check = Alcotest.(check bool)

(* Reference: maximum capacitated matching size by exhaustive search over
   per-task choices (processor or unassigned). *)
let brute_force_max_size g caps =
  let n1 = g.G.n1 in
  let count = Array.make g.G.n2 0 in
  let best = ref 0 in
  let rec go v matched =
    if matched + (n1 - v) <= !best then ()
    else if v = n1 then best := max !best matched
    else begin
      (* Leave v exposed... *)
      go (v + 1) matched;
      (* ...or match it to any processor with residual capacity. *)
      G.iter_neighbors g v (fun u _w ->
          if count.(u) < caps.(u) then begin
            count.(u) <- count.(u) + 1;
            go (v + 1) (matched + 1);
            count.(u) <- count.(u) - 1
          end)
    end
  in
  go 0 0;
  !best

let random_graph rng ~n1 ~n2 ~edge_prob =
  let edges = ref [] in
  for v = 0 to n1 - 1 do
    for u = 0 to n2 - 1 do
      if Randkit.Prng.float rng 1.0 < edge_prob then edges := (v, u) :: !edges
    done
  done;
  G.unit_weights ~n1 ~n2 ~edges:!edges

let engines_optimal_prop engine =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches brute force" (Matching.engine_name engine))
    ~count:150
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 7 and n2 = 1 + Randkit.Prng.int rng 5 in
      let g = random_graph rng ~n1 ~n2 ~edge_prob:0.4 in
      let caps = Array.init n2 (fun _ -> Randkit.Prng.int rng 3) in
      let result = Matching.solve ~engine ~capacities:caps g in
      Matching.is_maximal_valid ~capacities:caps g result
      && result.Matching.size = brute_force_max_size g caps)

let engines_agree_prop =
  QCheck.Test.make ~name:"all engines return the same cardinality" ~count:150
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Randkit.Prng.create ~seed in
      let n1 = 1 + Randkit.Prng.int rng 30 and n2 = 1 + Randkit.Prng.int rng 15 in
      let g = random_graph rng ~n1 ~n2 ~edge_prob:0.15 in
      let caps = Array.init n2 (fun _ -> Randkit.Prng.int rng 4) in
      let sizes =
        List.map
          (fun engine -> (Matching.solve ~engine ~capacities:caps g).Matching.size)
          Matching.all_engines
      in
      match sizes with [ a; b; c ] -> a = b && b = c | _ -> false)

let test_empty_graph () =
  let g = G.unit_weights ~n1:0 ~n2:3 ~edges:[] in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine g in
      Alcotest.(check int) "empty" 0 r.Matching.size)
    Matching.all_engines

let test_no_edges () =
  let g = G.unit_weights ~n1:3 ~n2:3 ~edges:[] in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine g in
      Alcotest.(check int) "nothing matched" 0 r.Matching.size;
      Alcotest.(check (array int)) "all exposed" [| -1; -1; -1 |] r.Matching.mate1)
    Matching.all_engines

let test_perfect_matching_cycle () =
  (* Even cycle as bipartite graph: v_i -- u_i, u_(i+1). *)
  let n = 50 in
  let edges = List.concat (List.init n (fun i -> [ (i, i); (i, (i + 1) mod n) ])) in
  let g = G.unit_weights ~n1:n ~n2:n ~edges in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine g in
      Alcotest.(check int) (Matching.engine_name engine ^ " perfect") n r.Matching.size;
      check "valid" true (Matching.is_maximal_valid g r))
    Matching.all_engines

let test_capacity_zero_blocks () =
  let g = G.unit_weights ~n1:2 ~n2:1 ~edges:[ (0, 0); (1, 0) ] in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine ~capacities:[| 0 |] g in
      Alcotest.(check int) "capacity 0" 0 r.Matching.size)
    Matching.all_engines

let test_capacity_two_absorbs () =
  let g = G.unit_weights ~n1:2 ~n2:1 ~edges:[ (0, 0); (1, 0) ] in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine ~capacities:[| 2 |] g in
      Alcotest.(check int) "capacity 2" 2 r.Matching.size)
    Matching.all_engines

let test_augmenting_chain () =
  (* A chain forcing a long augmenting path: greedy init matches v0-u0;
     v1 only knows u0, v0 also knows u1, etc. *)
  let n = 30 in
  let edges = List.concat (List.init n (fun i -> if i = 0 then [ (0, 0) ] else [ (i, i - 1); (i, i) ])) in
  (* Reverse roles so the chain propagates: v_i -- {u_(i-1), u_i}; v_0 -- u_0. *)
  let g = G.unit_weights ~n1:n ~n2:n ~edges in
  List.iter
    (fun engine ->
      let r = Matching.solve ~engine g in
      Alcotest.(check int) (Matching.engine_name engine ^ " chain") n r.Matching.size)
    Matching.all_engines

let test_capacity_length_mismatch () =
  let g = G.unit_weights ~n1:1 ~n2:2 ~edges:[ (0, 0) ] in
  Alcotest.check_raises "bad capacity length" (Invalid_argument "Matching: capacities length mismatch")
    (fun () -> ignore (Matching.solve ~capacities:[| 1 |] g))

let test_occupancy () =
  let g = G.unit_weights ~n1:3 ~n2:2 ~edges:[ (0, 0); (1, 0); (2, 1) ] in
  let r = Matching.solve ~capacities:[| 2; 1 |] g in
  Alcotest.(check int) "all matched" 3 r.Matching.size;
  Alcotest.(check (array int)) "occupancy" [| 2; 1 |] (Matching.occupancy g r)

let test_stats () =
  let n = 40 in
  let edges = List.concat (List.init n (fun i -> [ (i, i); (i, (i + 1) mod n) ])) in
  let g = G.unit_weights ~n1:n ~n2:n ~edges in
  List.iter
    (fun engine ->
      let result, stats = Matching.solve_with_stats ~engine g in
      Alcotest.(check int) "size" n result.Matching.size;
      (* The greedy initialization is not counted, so augmentations only
         cover the residual work. *)
      check "augmentations bounded" true
        (stats.Matching.augmentations >= 0 && stats.Matching.augmentations <= result.Matching.size);
      check "scan counter plausible" true (stats.Matching.scans >= 0);
      match engine with
      | Matching.Hopcroft_karp -> check "phases counted" true (stats.Matching.phases >= 1)
      | Matching.Push_relabel ->
          (* One global relabel at initialization; this instance needs
             fewer than n1 + n2 local relabels, so no periodic one. *)
          Alcotest.(check int) "init relabel" 1 stats.Matching.phases
      | Matching.Dfs -> Alcotest.(check int) "no phases" 0 stats.Matching.phases)
    Matching.all_engines

let test_stats_steals_only_push_relabel () =
  (* Force contention: two tasks, one processor of capacity 1 plus a
     fallback, so push-relabel must relocate at least once. *)
  let g = G.unit_weights ~n1:2 ~n2:2 ~edges:[ (0, 0); (1, 0); (1, 1) ] in
  let _, dfs_stats = Matching.solve_with_stats ~engine:Matching.Dfs g in
  Alcotest.(check int) "dfs never steals" 0 dfs_stats.Matching.steals;
  let _, hk_stats = Matching.solve_with_stats ~engine:Matching.Hopcroft_karp g in
  Alcotest.(check int) "hk never steals" 0 hk_stats.Matching.steals

(* ManyG with groups of one or two processors, capacities one below the
   optimum: a Hall violator that a single initial global relabel leaves to
   the local relabels, which then ratchet every contested row up to the
   height limit one step at a time (~700x the scans below).  The periodic
   global relabel keeps the work near-linear. *)
let test_push_relabel_infeasible_scans () =
  let g =
    Bipartite.Fewg_manyg.generate (Randkit.Prng.create ~seed:5) ~n1:2000 ~n2:200 ~g:128 ~d:5
  in
  let size engine d =
    Matching.solve_with_stats ~engine ~capacities:(Array.make g.G.n2 d) g
  in
  let rec optimum d =
    if (fst (size Matching.Hopcroft_karp d)).Matching.size = g.G.n1 then d else optimum (d + 1)
  in
  let d = optimum 1 - 1 in
  let hk, _ = size Matching.Hopcroft_karp d in
  let pr, stats = size Matching.Push_relabel d in
  check "deadline below the optimum is infeasible" true (hk.Matching.size < g.G.n1);
  Alcotest.(check int) "same cardinality as Hopcroft-Karp" hk.Matching.size pr.Matching.size;
  let bound = 10 * (g.G.n1 + g.G.n2) in
  if stats.Matching.scans > bound then
    Alcotest.failf "push-relabel scanned %d rows at capacity %d (bound %d)" stats.Matching.scans d
      bound

let suite =
  [
    Alcotest.test_case "engine statistics" `Quick test_stats;
    Alcotest.test_case "steal counter" `Quick test_stats_steals_only_push_relabel;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "no edges" `Quick test_no_edges;
    Alcotest.test_case "perfect matching on a cycle" `Quick test_perfect_matching_cycle;
    Alcotest.test_case "capacity 0 blocks" `Quick test_capacity_zero_blocks;
    Alcotest.test_case "capacity 2 absorbs" `Quick test_capacity_two_absorbs;
    Alcotest.test_case "long augmenting chains" `Quick test_augmenting_chain;
    Alcotest.test_case "capacity length mismatch" `Quick test_capacity_length_mismatch;
    Alcotest.test_case "occupancy" `Quick test_occupancy;
    QCheck_alcotest.to_alcotest (engines_optimal_prop Matching.Dfs);
    QCheck_alcotest.to_alcotest (engines_optimal_prop Matching.Hopcroft_karp);
    QCheck_alcotest.to_alcotest (engines_optimal_prop Matching.Push_relabel);
    QCheck_alcotest.to_alcotest engines_agree_prop;
    Alcotest.test_case "push-relabel near-linear below the optimum" `Quick
      test_push_relabel_infeasible_scans;
  ]
