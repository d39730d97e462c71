(** Maximum-cardinality bipartite matching with optional V2-side capacities.

    The exact SINGLEPROC-UNIT algorithm (paper Sec. IV-A) needs, for a trial
    deadline D, a maximum matching in the graph G_D that contains D copies of
    every processor.  Rather than materializing copies we give every V2
    vertex a capacity: a "matching" is a set of edges with every V1 vertex
    covered at most once and every V2 vertex [u] covered at most
    [capacities.(u)] times.  Three interchangeable engines are provided; the
    paper uses push-relabel (MatchMaker [9], [15]), and the ablation bench
    [ablation/matching-engines] compares all three. *)

type engine =
  | Dfs  (** augmenting DFS with lookahead, Karp–Sipser-style greedy start *)
  | Hopcroft_karp  (** shortest augmenting phases; best asymptotics *)
  | Push_relabel  (** FIFO push-relabel, the paper's engine *)

val all_engines : engine list
val engine_name : engine -> string

type result = {
  mate1 : int array;  (** V1 vertex → matched V2 vertex, or −1 if exposed *)
  size : int;  (** number of matched V1 vertices *)
}

val solve : ?engine:engine -> ?capacities:int array -> Bipartite.Graph.t -> result
(** [solve g] computes a maximum matching.  [capacities] defaults to all 1;
    entries must be non-negative and the array length must be [g.n2].
    All engines return matchings of identical (maximum) cardinality. *)

type stats = {
  phases : int;
      (** BFS phases (Hopcroft–Karp), global relabels (push-relabel); 0 for
          DFS *)
  augmentations : int;  (** augmenting paths completed / pushes into slack *)
  steals : int;  (** double-push relocations (push-relabel only) *)
  scans : int;  (** vertex processing steps *)
}
(** Operation counts, for the matching-engine ablation. *)

val solve_with_stats :
  ?engine:engine -> ?capacities:int array -> Bipartite.Graph.t -> result * stats
(** Like {!solve}, additionally reporting operation counts. *)

val is_maximal_valid : ?capacities:int array -> Bipartite.Graph.t -> result -> bool
(** Validity check used by tests: every matched pair is an edge, no V1 vertex
    is double-covered, no V2 capacity is exceeded, and no trivially
    augmentable edge remains (v exposed next to a slack processor). *)

val occupancy : Bipartite.Graph.t -> result -> int array
(** Per-V2-vertex cover counts. *)
