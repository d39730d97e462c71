(** Processor load vectors with lexicographic comparison of hypothetical
    updates — the engine behind the [vector-greedy-hyp] family (paper
    Sec. IV-D3).

    The structure stores only the per-processor loads.  Two hypothetical
    updates are compared without materializing either vector: both sorted
    vectors have the same length [p], so their lexicographic order is
    decided by the largest value whose multiplicity differs between them,
    and the signed multiset X − Y = (new_a ⊎ old_b) − (old_a ⊎ new_b) only
    involves the processors the two updates change.  A processor changed
    by both sides contributes its two new values (its old value cancels),
    and none at all when they are equal.

    Cost of one comparison with [k = |procs_a| + |procs_b|]: O(k) to
    collect the at most 2k surviving values into reusable scratch space
    (no sort, no walk over the other [p − k] loads, no allocation once the
    scratch has grown), plus O(k) per distinct top value whose net
    multiplicity is zero.  The worst case, when ties among distinct
    processors' values keep cancelling, is O(k²); with no such ties it is
    O(k).  This is the "list representation" improvement the paper
    describes but did not implement; its experiments use the naive
    re-sorting variant, kept here as [hypothetical_sorted] for the
    ablation bench and tests. *)

type t

val create : int -> t
(** [create p] has all [p] loads at 0. *)

val size : t -> int
val load : t -> int -> float

val max_load : t -> float
(** 0 when [size t = 0].  O(p) scan. *)

val sorted_desc : t -> float array
(** Copy of the current load values, descending.  Sorts on every call. *)

val apply : t -> procs:int array -> w:float -> unit
(** Add [w] to the load of every processor in [procs] (a realized hyperedge).
    [procs] must not contain duplicates.  O(|procs|). *)

val add : t -> proc:int -> w:float -> unit
(** Single-processor convenience wrapper over [apply]. *)

val compare_hypothetical :
  t -> a:int array * float -> b:int array * float -> int
(** [compare_hypothetical t ~a:(procs_a, wa) ~b:(procs_b, wb)] orders the two
    hypothetical descending load vectors lexicographically; negative means
    realizing [a] leads to the lexicographically smaller (better) vector.
    Neither candidate is applied.  Wrapper over {!compare_delta}. *)

val hypothetical_sorted : t -> procs:int array -> w:float -> float array
(** Fully materialized hypothetical vector (descending), for the naive
    variant and for tests. *)

(** {2 General per-processor deltas}

    [expected-vector-greedy-hyp] perturbs each processor of a task's
    neighbourhood by a different signed amount (realize one hyperedge,
    tentatively discard the others).  Processors must be distinct within
    one delta.  Loads may legitimately decrease (discarding expectations);
    they are not required to stay non-negative.  Processor [procs.(i)]
    would carry [load + amounts.(i)], computed in that order. *)

type delta = { procs : int array; amounts : float array; mutable len : int }
(** A reusable delta buffer: entries [0 .. len − 1] of [procs] and
    [amounts] are the update. *)

val delta_buffer : t -> delta
(** Empty buffer with capacity [size t], enough for any delta. *)

val compare_delta : t -> delta -> delta -> int
(** The comparison primitive: lexicographic order of the two hypothetical
    descending vectors; negative means the first is better, 0 means equal
    vectors.  Allocation-free once the scratch has grown. *)

val commit : t -> delta -> unit
(** Apply a buffered delta.  O(len). *)

val apply_delta : t -> procs:int array -> amounts:float array -> unit
(** Add [amounts.(i)] to the load of [procs.(i)].  O(|procs|). *)

val compare_hypothetical_delta :
  t -> a:int array * float array -> b:int array * float array -> int
(** {!compare_delta} on freshly wrapped arrays. *)

val hypothetical_sorted_delta : t -> procs:int array -> amounts:float array -> float array
(** Materialized counterpart, for the naive variant and for tests. *)
