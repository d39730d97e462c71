module G = Bipartite.Graph

type strategy = Incremental | Bisection

let strategy_name = function Incremental -> "incremental" | Bisection -> "bisection"

type guarantee = Makespan_optimal | Load_vector_optimal

let guarantee_name = function
  | Makespan_optimal -> "makespan-optimal"
  | Load_vector_optimal -> "load-vector-optimal"

type solution = {
  makespan : int;
  assignment : Bip_assignment.t;
  deadlines_tried : int;
  guarantee : guarantee;
}

let check g =
  if not (G.is_unit_weighted g) then invalid_arg "Exact_unit: weights must all be 1";
  if G.has_isolated_task g then invalid_arg "Exact_unit: task with no allowed processor";
  if g.G.n1 > 0 && g.G.n2 = 0 then invalid_arg "Exact_unit: no processors"

let feasible ?engine g ~d =
  if d < 0 then invalid_arg "Exact_unit.feasible: negative deadline";
  let caps = Array.make g.G.n2 d in
  let result = Matching.solve ?engine ~capacities:caps g in
  if result.Matching.size = g.G.n1 then Some (Bip_assignment.of_mates g result.Matching.mate1)
  else None

let default_engine = Matching.Push_relabel
let default_strategy = Bisection

let solve ?(engine = default_engine) ?(strategy = default_strategy) g =
  check g;
  if g.G.n1 = 0 then
    {
      makespan = 0;
      assignment = Bip_assignment.of_edges g [||];
      deadlines_tried = 0;
      guarantee = Makespan_optimal;
    }
  else begin
    let tried = ref 0 in
    let attempt d =
      incr tried;
      feasible ~engine g ~d
    in
    let lo0 = Lower_bound.singleproc_unit g in
    match strategy with
    | Incremental ->
        let rec search d =
          match attempt d with
          | Some assignment ->
              { makespan = d; assignment; deadlines_tried = !tried; guarantee = Makespan_optimal }
          | None -> search (d + 1)
        in
        search lo0
    | Bisection ->
        (* Invariant: makespan lo-1 infeasible (lo0-1 < LB is), hi feasible. *)
        let rec bisect lo hi best =
          if lo >= hi then
            { makespan = hi; assignment = best; deadlines_tried = !tried; guarantee = Makespan_optimal }
          else begin
            let mid = (lo + hi) / 2 in
            match attempt mid with
            | Some assignment -> bisect lo mid assignment
            | None -> bisect (mid + 1) hi best
          end
        in
        (* Gallop up from the lower bound by doubling, then bisect between
           the last infeasible probe and the first feasible one: at most
           2⌈log₂ opt⌉ + 1 matchings, and exactly one when the lower bound
           is tight.  n1 is always feasible (every task on one allowed
           processor), so the doubling stops there at the latest. *)
        let rec gallop lo d =
          match attempt d with
          | Some assignment -> bisect lo d assignment
          | None -> gallop (d + 1) (min g.G.n1 (2 * d))
        in
        gallop lo0 (max lo0 1)
  end

(* ---- the unified exact-engine catalogue ------------------------------ *)

type exact_engine =
  | Binary_search of Matching.engine
  | Harvey_online
  | Gen_hk

let all_exact_engines =
  List.map (fun e -> Binary_search e) Matching.all_engines
  @ [ Harvey_online; Gen_hk ]

let exact_engine_name = function
  | Binary_search Matching.Dfs -> "bs-dfs"
  | Binary_search Matching.Hopcroft_karp -> "bs-hk"
  | Binary_search Matching.Push_relabel -> "bs-pr"
  | Harvey_online -> "harvey"
  | Gen_hk -> "gen-hk"

let exact_engine_guarantee = function
  | Binary_search _ -> Makespan_optimal
  | Harvey_online | Gen_hk -> Load_vector_optimal

let solve_with ?strategy ~exact g =
  match exact with
  | Binary_search engine -> solve ~engine ?strategy g
  | Harvey_online ->
      let s = Harvey.solve g in
      {
        makespan = s.Harvey.makespan;
        assignment = s.Harvey.assignment;
        deadlines_tried = 0;
        guarantee = Load_vector_optimal;
      }
  | Gen_hk ->
      let s = Gen_hk.solve g in
      {
        makespan = s.Gen_hk.makespan;
        assignment = s.Gen_hk.assignment;
        deadlines_tried = s.Gen_hk.phases;
        guarantee = Load_vector_optimal;
      }
