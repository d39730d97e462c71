(** Exact polynomial-time algorithms for SINGLEPROC-UNIT.

    Two distinct optimality levels live here, and they are {e not} the same
    thing:

    - {e Makespan optimality}: no schedule has a smaller maximum load.  This
      is what the paper's binary-search algorithm (Sec. IV-A) certifies: for
      a trial deadline D, a schedule of makespan ≤ D exists iff the graph
      G_D — D copies of every processor — admits a matching covering all
      tasks, and the smallest feasible D is searched for.  Loads below the
      maximum are whatever the matching happened to produce.
    - {e Load-vector optimality}: the schedule admits no cost-reducing path,
      which by Harvey et al.'s characterization minimizes {e every}
      symmetric convex cost simultaneously — the makespan, the total flow
      time Σ l(l+1)/2, and the lexicographic order of the sorted load
      vector.  The direct engines ({!Harvey}, {!Gen_hk}) certify this
      strictly stronger property.

    Every {!solution} records which level its engine guarantees, so callers
    racing engines know what the winner's bytes actually promise. *)

type strategy = Incremental | Bisection

val strategy_name : strategy -> string

type guarantee =
  | Makespan_optimal  (** minimal maximum load; other loads unconstrained *)
  | Load_vector_optimal
      (** no cost-reducing path: minimal makespan {e and} flow time {e and}
          lexicographic sorted load vector *)

val guarantee_name : guarantee -> string
(** ["makespan-optimal"] / ["load-vector-optimal"]. *)

type solution = {
  makespan : int;  (** the optimal makespan M_opt *)
  assignment : Bip_assignment.t;
  deadlines_tried : int;
      (** search/phase bookkeeping: matching computations for the binary
          searches, BFS phases for {!Gen_hk}, 0 for Harvey insertion *)
  guarantee : guarantee;  (** what the producing engine certifies *)
}

val default_engine : Matching.engine
(** [Push_relabel], the matching engine the paper used (Sec. IV-A). *)

val default_strategy : strategy
(** [Bisection]. *)

val solve :
  ?engine:Matching.engine -> ?strategy:strategy -> Bipartite.Graph.t -> solution
(** [solve g] computes a makespan-optimal SINGLEPROC-UNIT schedule by
    deadline search (paper Sec. IV-A).  Requires unit weights and no
    isolated task; raises [Invalid_argument] otherwise.  Defaults:
    {!default_engine} and {!default_strategy}.  [Bisection] gallops up from
    the trivial lower bound ⌈n/p⌉ by doubling, then bisects, so it tries at
    most 2⌈log₂ opt⌉ + 1 deadlines and exactly one when the bound is tight;
    [Incremental] tries every deadline from ⌈n/p⌉ up to the optimum.  This
    default is the one exact rule of the production paths ([exact], stream
    ingest): measured per call it beat Hopcroft–Karp with either strategy,
    the jobs=1 engine race and the direct engines from 20k to 100k tasks
    (EXPERIMENTS.md, SINGLEPROC-UNIT summary).  The result's [guarantee] is
    [Makespan_optimal] only. *)

val feasible : ?engine:Matching.engine -> Bipartite.Graph.t -> d:int -> Bip_assignment.t option
(** [feasible g ~d] is a schedule of makespan ≤ [d] if one exists — the
    single decision step, exposed for tests and for external search
    loops. *)

(** {2 The unified exact-engine catalogue}

    Everything that computes a provably optimal makespan, under one type so
    the portfolio, the CLI and the benches can race and compare them. *)

type exact_engine =
  | Binary_search of Matching.engine
      (** {!solve}: O(log n) capacitated matchings; makespan only *)
  | Harvey_online
      (** {!Harvey.solve}: one augmentation per task, O(n·m); load-vector *)
  | Gen_hk
      (** {!Gen_hk.solve}: shortest cost-reducing path phases
          (Katrenič–Semanišin); load-vector *)

val all_exact_engines : exact_engine list
(** The three binary searches then the two direct engines. *)

val exact_engine_name : exact_engine -> string
(** "bs-dfs", "bs-hk", "bs-pr", "harvey", "gen-hk". *)

val exact_engine_guarantee : exact_engine -> guarantee

val solve_with : ?strategy:strategy -> exact:exact_engine -> Bipartite.Graph.t -> solution
(** Run one engine.  [strategy] applies to [Binary_search] only.  All
    engines return the same optimal makespan; assignments (and therefore
    load vectors) may differ within each engine's [guarantee]. *)
