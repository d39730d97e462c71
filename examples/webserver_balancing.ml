(* Request routing with machine eligibility — the SINGLEPROC-UNIT special
   case, solved *exactly* in polynomial time.

     dune exec examples/webserver_balancing.exe

   A CDN edge site has a fleet of identical workers, but each request class
   can only run on workers holding the right data shard (resource
   constraints).  All requests cost one slot (unit weights), so the optimal
   assignment is computable with the repeated-matching algorithm of the
   paper's Sec. IV-A; we compare it with the four greedy heuristics. *)

let workers = 64
let shards = 16
let requests = 4000

(* Each worker holds 3 shards; each request needs one shard and may run on
   any worker holding it. *)
let build seed =
  let rng = Randkit.Prng.create ~seed in
  let shard_of_worker =
    Array.init workers (fun _ -> Randkit.Prng.sample_without_replacement rng ~k:3 ~n:shards)
  in
  let workers_of_shard = Array.make shards [] in
  Array.iteri
    (fun w held -> Array.iter (fun s -> workers_of_shard.(s) <- w :: workers_of_shard.(s)) held)
    shard_of_worker;
  (* A skewed shard popularity: shard s drawn with weight 1/(s+1). *)
  let total = Array.fold_left ( +. ) 0.0 (Array.init shards (fun s -> 1.0 /. float_of_int (s + 1))) in
  let draw_shard () =
    let x = Randkit.Prng.float rng total in
    let rec pick s acc =
      let acc = acc +. (1.0 /. float_of_int (s + 1)) in
      if x < acc || s = shards - 1 then s else pick (s + 1) acc
    in
    pick 0 0.0
  in
  let edges = ref [] in
  for r = 0 to requests - 1 do
    let s = draw_shard () in
    if workers_of_shard.(s) = [] then
      (* Unpopulated shard: fall back to worker 0 holding everything. *)
      edges := (r, 0) :: !edges
    else List.iter (fun w -> edges := (r, w) :: !edges) workers_of_shard.(s)
  done;
  Bipartite.Graph.unit_weights ~n1:requests ~n2:workers ~edges:(List.rev !edges)

let () =
  let g = build 7 in
  Printf.printf "site: %d workers, %d shards, %d unit requests\n" workers shards requests;
  Printf.printf "trivial lower bound ceil(n/p) = %d\n\n" (Semimatch.Lower_bound.singleproc_unit g);
  let exact = Semimatch.Exact_unit.solve g in
  Printf.printf "exact optimum: %d slots (%d matchings computed)\n" exact.Semimatch.Exact_unit.makespan
    exact.Semimatch.Exact_unit.deadlines_tried;
  let scan = Semimatch.Exact_unit.solve ~strategy:Semimatch.Exact_unit.Incremental g in
  Printf.printf "incremental search agrees: %d (%d matchings)\n\n"
    scan.Semimatch.Exact_unit.makespan scan.Semimatch.Exact_unit.deadlines_tried;
  Printf.printf "%-20s %10s %10s\n" "heuristic" "makespan" "vs OPT";
  List.iter
    (fun algo ->
      let m = Semimatch.Greedy_bipartite.makespan algo g in
      Printf.printf "%-20s %10.0f %10.3f\n"
        (Semimatch.Greedy_bipartite.name algo)
        m
        (m /. float_of_int exact.Semimatch.Exact_unit.makespan))
    Semimatch.Greedy_bipartite.all
