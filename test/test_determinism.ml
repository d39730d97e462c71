(* Determinism under parallelism: fanning work out over domains must change
   wall-clock only, never results — rendered tables are compared byte for
   byte (after stripping the timing columns, which are genuinely
   nondeterministic).  Also the sharded-metrics contract: the merged value
   is exactly the sum of the per-domain shards. *)

module Pool = Parpool.Pool
module P = Semimatch.Portfolio

let test_sweep_identical_across_jobs () =
  let run jobs =
    Experiments.Sweep.run ~seeds:1 ~n:40 ~p:8 ~dvs:[ 2 ] ~dhs:[ 2; 3 ] ~gs:[ 4 ] ~jobs
      ~weights:Hyper.Weights.Related ()
  in
  let sequential = run 1 and parallel = run 4 in
  (* combo_result carries no timings, so whole rendered tables must match. *)
  Alcotest.(check string) "rendered sweep tables identical"
    (Experiments.Sweep.render sequential)
    (Experiments.Sweep.render parallel)

let test_runner_table_identical_across_jobs () =
  let spec =
    {
      Experiments.Instances.name = "DET-MP";
      family = Hyper.Generate.Hilo;
      n = 60;
      p = 12;
      dv = 2;
      dh = 3;
      g = 4;
    }
  in
  let strip rows =
    List.map
      (fun row ->
        List.map
          (fun r -> (r.Experiments.Runner.algo, r.Experiments.Runner.ratio))
          row.Experiments.Runner.results)
      rows
  in
  (* The full paper grid is too slow for a unit test; fan the same tiny spec
     out as four rows instead, exactly as [Runner.run ~jobs] does. *)
  let rows jobs =
    Pool.map_list ~jobs
      ~f:(fun s -> Experiments.Runner.run_row ~seeds:2 ~weights:Hyper.Weights.Unit s)
      [ spec; spec; spec; spec ]
  in
  Alcotest.(check bool) "ratio tables identical" true (strip (rows 1) = strip (rows 4))

let test_portfolio_identical_across_jobs () =
  let rng = Randkit.Prng.create ~seed:7 in
  for _ = 1 to 10 do
    let r = Randkit.Prng.split rng in
    let n1 = 10 + Randkit.Prng.int r 40 and n2 = 4 + Randkit.Prng.int r 8 in
    let hyperedges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Randkit.Prng.int r 3 in
      for _ = 1 to d do
        let k = 1 + Randkit.Prng.int r (min 3 n2) in
        let procs = Randkit.Prng.sample_without_replacement r ~k ~n:n2 in
        hyperedges := (v, procs, float_of_int (1 + Randkit.Prng.int r 3)) :: !hyperedges
      done
    done;
    let h = Hyper.Graph.create ~n1 ~n2 ~hyperedges:!hyperedges in
    let m jobs = (P.solve ~jobs h).P.best_makespan in
    let sequential = m 1 in
    Alcotest.(check (float 0.0)) "jobs=2" sequential (m 2);
    Alcotest.(check (float 0.0)) "jobs=4" sequential (m 4);
    (* Without the cutoff the whole outcome list is deterministic, winner
       included. *)
    let outcomes jobs =
      List.map
        (fun o -> (P.solver_name o.P.o_solver, o.P.o_makespan))
        (P.solve ~jobs ~cutoff:false h).P.outcomes
    in
    Alcotest.(check bool) "outcome table identical without cutoff" true
      (outcomes 1 = outcomes 4)
  done

let test_exact_engines_identical_across_jobs () =
  (* The direct exact engines are pure functions of the instance bytes:
     repeated runs and any pool size must return byte-identical edge
     choices, not merely equal makespans.  Raced through the portfolio
     with a singleton engine list, the winner is forced, so the raced
     assignment must equal the sequential one at jobs 1, 4 and 8. *)
  let module E = Semimatch.Exact_unit in
  let rng = Randkit.Prng.create ~seed:23 in
  for _ = 1 to 8 do
    let r = Randkit.Prng.split rng in
    let n1 = 5 + Randkit.Prng.int r 40 and n2 = 2 + Randkit.Prng.int r 8 in
    let edges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Randkit.Prng.int r (min 4 n2) in
      let procs = Randkit.Prng.sample_without_replacement r ~k:d ~n:n2 in
      Array.iter (fun u -> edges := (v, u) :: !edges) procs
    done;
    let g = Bipartite.Graph.unit_weights ~n1 ~n2 ~edges:!edges in
    List.iter
      (fun exact ->
        let name = E.exact_engine_name exact in
        let edges_of (s : E.solution) = s.E.assignment.Semimatch.Bip_assignment.edge in
        let reference = edges_of (E.solve_with ~exact g) in
        Alcotest.(check (array int))
          (name ^ " repeated run byte-identical") reference
          (edges_of (E.solve_with ~exact g));
        List.iter
          (fun jobs ->
            let s, _ = Semimatch.Portfolio.solve_exact_unit ~jobs ~engines:[ exact ] g in
            Alcotest.(check (array int))
              (Printf.sprintf "%s raced at jobs=%d byte-identical" name jobs)
              reference (edges_of s))
          [ 1; 4; 8 ])
      [ E.Gen_hk ];
    (* The full five-engine race: makespan independent of jobs. *)
    let m jobs = (fst (Semimatch.Portfolio.solve_exact_unit ~jobs g)).E.makespan in
    let sequential = m 1 in
    Alcotest.(check int) "race jobs=4" sequential (m 4);
    Alcotest.(check int) "race jobs=8" sequential (m 8)
  done

let test_merged_counters_equal_shard_sum () =
  let c = Obs.Metrics.counter "test.determinism.sharded" in
  Obs.with_recording (fun () ->
      (* Increments from the main domain, a raw spawned domain, and pool
         workers; the merged value must equal both the expected total and
         the sum of the per-domain shards. *)
      for _ = 1 to 10 do
        Obs.Metrics.incr c
      done;
      let d = Domain.spawn (fun () -> for _ = 1 to 5 do Obs.Metrics.incr c done) in
      Domain.join d;
      let items = Array.init 200 Fun.id in
      ignore (Pool.map ~jobs:4 ~f:(fun i -> Obs.Metrics.incr c; i) items);
      let total = Obs.Metrics.value c in
      Alcotest.(check int) "merged value" (10 + 5 + 200) total;
      let shard_sum = List.fold_left ( + ) 0 (Obs.Metrics.shard_values c) in
      Alcotest.(check int) "sum of shards = merged value" total shard_sum;
      Alcotest.(check bool) "several domains recorded" true (Obs.Metrics.shard_count () >= 2))

let test_local_diff_is_exact_under_concurrency () =
  let c = Obs.Metrics.counter "test.determinism.localdiff" in
  Obs.with_recording (fun () ->
      (* A sibling domain hammers the counter while the main domain diffs
         its own shard; the diff must see exactly the local increments. *)
      let stop = Atomic.make false in
      let noise =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Obs.Metrics.incr c
            done)
      in
      let snap = Obs.Metrics.local_snapshot () in
      for _ = 1 to 1234 do
        Obs.Metrics.incr c
      done;
      let counters, _histos = Obs.Metrics.diff_since snap in
      Atomic.set stop true;
      Domain.join noise;
      Alcotest.(check (list (pair string int)))
        "local delta unaffected by the other domain"
        [ ("test.determinism.localdiff", 1234) ]
        (List.filter (fun (n, _) -> n = "test.determinism.localdiff") counters))

(* Golden pin of the MULTIPROC heuristic layer.  Nine paper-generator
   instances at n = 640, p = 128 (three families, three seeds each); every
   default portfolio solver's choice array is digested and compared with a
   pinned hex string, and so is the local-search move count.  A change to
   any single comparison, rounding or tie order changes some digest. *)
let golden_heuristic_digests =
  [
    "MG/1 SGH 558c58067eb859855a0dc520a1e2c36c";
    "MG/1 EGH 43310b0d7208824163f796efb8329fda";
    "MG/1 VGH a9d0447b15adbe5ec1cc9b3eeea75558";
    "MG/1 EVG 057418207815f8b642edfca46f153521";
    "MG/1 EVG+ls e4106bd91fe1ee733ad214c67d48229b";
    "MG/1 EVG+ls moves=55";
    "MG/1 anneal@1 2650fce26199425aa1c6b615a19a7ba3";
    "MG/2 SGH 2b5bef908098a5d082a075c65a429e38";
    "MG/2 EGH aa3c589aff1bb9772a41e995c69e8437";
    "MG/2 VGH 170d2a87368e3214f65815ff8dbd5849";
    "MG/2 EVG c7b80c0a18c47068c3d7a74928bb0abf";
    "MG/2 EVG+ls caa9b85ea95733efd31e529708718089";
    "MG/2 EVG+ls moves=62";
    "MG/2 anneal@1 6e8da6fa2e3fb332fb6e49e42813c700";
    "MG/3 SGH 98fdf01a5a89438c82240bd223bab1b0";
    "MG/3 EGH 9e4f96637a8fed3410319348dc46eda3";
    "MG/3 VGH 8342fd66100c5fcf7e1fcfb715675600";
    "MG/3 EVG 45b69c5282d0d84a58398b78710f5d3a";
    "MG/3 EVG+ls 2fd58ec28798345f18f9434571523745";
    "MG/3 EVG+ls moves=64";
    "MG/3 anneal@1 98fdf01a5a89438c82240bd223bab1b0";
    "HLF/1 SGH de398b26193ccce4e1393fa55a027685";
    "HLF/1 EGH 3bed673f671a34c7e275b10b8a783148";
    "HLF/1 VGH a44d343e5ba8c292f7db696bdec2cceb";
    "HLF/1 EVG cec46e13a3eea084f403bb69ce2f33fc";
    "HLF/1 EVG+ls 6e327e5ccf9b0f1af57358a8d726e9fa";
    "HLF/1 EVG+ls moves=1";
    "HLF/1 anneal@1 de398b26193ccce4e1393fa55a027685";
    "HLF/2 SGH f3af3cc2c08c39a4380cda81a29b8b1e";
    "HLF/2 EGH 7298b813b3ec9957e797979c10803e25";
    "HLF/2 VGH f3af3cc2c08c39a4380cda81a29b8b1e";
    "HLF/2 EVG 40aaae0191e5fe586afe800d0460adf6";
    "HLF/2 EVG+ls 40aaae0191e5fe586afe800d0460adf6";
    "HLF/2 EVG+ls moves=0";
    "HLF/2 anneal@1 b9261e9737a62104d99a2127e4755837";
    "HLF/3 SGH 9e5a65f2a1e2ac4ff4340cc61ecdaa09";
    "HLF/3 EGH 7268fd1a5e76ad126431ce7a034319eb";
    "HLF/3 VGH dbc6c19642a38d110101185421386e04";
    "HLF/3 EVG 73503ec5ebff60c8876663be44f0d3b9";
    "HLF/3 EVG+ls 22cad331220ca2741fbc890c49c0f30f";
    "HLF/3 EVG+ls moves=2";
    "HLF/3 anneal@1 9e5a65f2a1e2ac4ff4340cc61ecdaa09";
    "FG/1 SGH 07547a5513efd1b10125bdd19880b82d";
    "FG/1 EGH 344d1884d42ffee495db73fbd4c51dc3";
    "FG/1 VGH 211257e672a218dabfec7455c6a7b2b4";
    "FG/1 EVG 52cbda377af75eb096fbd972c97f59c5";
    "FG/1 EVG+ls 2b3e04f0aa0576bc1046a34c606b0e2f";
    "FG/1 EVG+ls moves=273";
    "FG/1 anneal@1 6e698c4bb6391c1f40efe7ea9f1570a6";
    "FG/2 SGH 97008e59b89fd14da4973a75933ab999";
    "FG/2 EGH da58b78ff61552fa800a02ce1a6e996e";
    "FG/2 VGH 368c1106c87dae17a67a76021223f34a";
    "FG/2 EVG cf79f09836a6fafa7eec333f4104649e";
    "FG/2 EVG+ls b78ac2018a2a02bd6d09d6132bf9a865";
    "FG/2 EVG+ls moves=170";
    "FG/2 anneal@1 97008e59b89fd14da4973a75933ab999";
    "FG/3 SGH e632d371f0bc6c0c5d38e1ca6532719d";
    "FG/3 EGH 9a9ad231653b629cf2ab07b83b106dd9";
    "FG/3 VGH fd2d4edeb5172ca98d8e648745c5a0f0";
    "FG/3 EVG 5c9ce72be7ec6938d59074eb9482543f";
    "FG/3 EVG+ls 8a51af8f0d51f554aae225d8cd34e023";
    "FG/3 EVG+ls moves=202";
    "FG/3 anneal@1 26e324349dceee3ce5d0528ad66c01a3";
  ]

let test_heuristic_choices_pinned () =
  let module S = Semimatch in
  let instances =
    List.concat_map
      (fun (tag, family, g, weights) ->
        List.map
          (fun seed ->
            let rng = Randkit.Prng.create ~seed in
            ( Printf.sprintf "%s/%d" tag seed,
              Hyper.Generate.generate rng ~family ~n:640 ~p:128 ~dv:5 ~dh:10 ~g ~weights ))
          [ 1; 2; 3 ])
      [
        ("MG", Hyper.Generate.Fewg_manyg, 128, Hyper.Weights.default_random);
        ("HLF", Hyper.Generate.Hilo, 32, Hyper.Weights.Related);
        ("FG", Hyper.Generate.Fewg_manyg, 32, Hyper.Weights.Related);
      ]
  in
  let digest a =
    Array.to_list a.S.Hyp_assignment.choice
    |> List.map string_of_int |> String.concat "," |> Digest.string |> Digest.to_hex
  in
  let lines =
    List.concat_map
      (fun (tag, h) ->
        List.concat_map
          (fun s ->
            let line fmt = Printf.sprintf ("%s %s " ^^ fmt) tag (P.solver_name s) in
            match s with
            | P.Greedy a -> [ line "%s" (digest (S.Greedy_hyper.run a h)) ]
            | P.Refined a ->
                let asg, moves = S.Local_search.refine h (S.Greedy_hyper.run a h) in
                [ line "%s" (digest asg); line "moves=%d" moves ]
            | P.Annealed seed ->
                let asg, _ = S.Annealing.solve (Randkit.Prng.create ~seed) h in
                [ line "%s" (digest asg) ])
          P.default_solvers)
      instances
  in
  Alcotest.(check (list string)) "choice digests and move counts" golden_heuristic_digests lines

let suite =
  [
    Alcotest.test_case "sweep tables identical across jobs" `Quick
      test_sweep_identical_across_jobs;
    Alcotest.test_case "runner ratio tables identical across jobs" `Quick
      test_runner_table_identical_across_jobs;
    Alcotest.test_case "portfolio makespans identical across jobs" `Quick
      test_portfolio_identical_across_jobs;
    Alcotest.test_case "direct exact engines byte-identical across jobs 1/4/8" `Quick
      test_exact_engines_identical_across_jobs;
    Alcotest.test_case "merged counters = sum of shards" `Quick
      test_merged_counters_equal_shard_sum;
    Alcotest.test_case "local shard diff exact under concurrency" `Quick
      test_local_diff_is_exact_under_concurrency;
    Alcotest.test_case "heuristic choices pinned to golden digests" `Quick
      test_heuristic_choices_pinned;
  ]
