(* FIFO push-relabel specialized to bipartite matching (the paper's engine,
   after Goldberg–Tarjan [12] and Kaya–Langguth–Manne–Uçar [15]).

   Only exposed rows carry excess.  Processing a row performs a double push:
   relabel the row to 1 + min column height, push into the minimum column,
   and if that column is saturated, relabel it from its occupants' labels and
   kick out the occupant with the smallest label.  Heights never decrease
   between global relabels; a row whose best column reaches the height limit
   is unmatchable.

   A *global relabel* (the standard MatchMaker ingredient) sets the heights
   to exact residual distances by backward BFS from the columns with spare
   capacity, every arc (row → column push, column → occupant re-route)
   counting 1 — the same scale the local relabels keep (a row sits one
   above the column it was pushed into, a saturated column one above its
   lowest occupant).  Local relabels keep the heights valid, i.e. lower
   bounds on those distances, so a global relabel never lowers one: heights
   grow monotonically, which is what the termination argument rests on.
   It runs before the main loop and again after every n1 + n2 local
   relabels.  Without it the local relabels ratchet one step at a time and
   the engine degenerates on infeasible instances — e.g. the exact
   algorithm's deadline search probing just below the optimum — taking
   Θ(limit) rounds per unmatchable row; a global relabel certifies those
   rows unmatchable at once (their columns reach the limit). *)

module G = Bipartite.Graph
open Engine_common

(* Probe points: pushes/relabels are the push-relabel complexity currencies
   (Goldberg–Tarjan count both); [steals] are the double-push relocations
   specific to the matching specialization, and [global_relabels] counts the
   exact-height BFS passes (one at the start of every run, plus one per
   n1 + n2 local relabels). *)
let c_pushes = Obs.Metrics.counter "matching.pr.pushes"
let c_steals = Obs.Metrics.counter "matching.pr.steals"
let c_relabels = Obs.Metrics.counter "matching.pr.relabels"
let c_global_relabels = Obs.Metrics.counter "matching.pr.global_relabels"
let c_scans = Obs.Metrics.counter "matching.pr.scans"

(* Exact heights by backward BFS from the columns with residual capacity,
   along residual arcs (row pushes into a column over an unmatched edge; a
   column frees a slot by re-routing one of its occupants), each of length
   1.  psi(u) is the exact residual distance (0 at residual columns,
   [limit] when unreachable); row labels d1 are refreshed to the rows'
   distances, which the steal rule's validity depends on. *)
let exact_heights st ~psi ~d1 ~limit ~rev_off ~rev_adj =
  let g = st.g in
  let row_dist = Array.make g.G.n1 (-1) in
  Array.fill psi 0 g.G.n2 limit;
  Array.fill d1 0 g.G.n1 limit;
  let queue = Queue.create () in
  for u = 0 to g.G.n2 - 1 do
    if residual st u > 0 then begin
      psi.(u) <- 0;
      Queue.add u queue
    end
  done;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    (* Any row v with an unmatched edge (v,u) can push into u. *)
    for i = rev_off.(u) to rev_off.(u + 1) - 1 do
      let v = rev_adj.(i) in
      (* mate1 holds the matched column directly. *)
      let matched_here = st.mate1.(v) = u in
      if (not matched_here) && row_dist.(v) < 0 then begin
        row_dist.(v) <- psi.(u) + 1;
        d1.(v) <- row_dist.(v);
        (* v's own column (if any) can free a slot by re-routing v. *)
        let u' = st.mate1.(v) in
        if u' >= 0 && psi.(u') = limit then begin
          psi.(u') <- row_dist.(v) + 1;
          Queue.add u' queue
        end
      end
    done
  done

let run ?(stats = fresh_stats ()) g ~caps =
  let st = create g ~caps in
  greedy_init st;
  let limit = (2 * (g.G.n1 + g.G.n2)) + 5 in
  let psi = Array.make g.G.n2 0 in
  (* Row labels: d1.(v) = psi(column) + 1 at the moment v was pushed in. *)
  let d1 = Array.make g.G.n1 0 in
  (* Reverse adjacency (column -> incident rows), for global relabeling. *)
  let rev_off = Array.make (g.G.n2 + 1) 0 in
  Array.iter (fun u -> rev_off.(u + 1) <- rev_off.(u + 1) + 1) g.G.adj;
  for u = 1 to g.G.n2 do
    rev_off.(u) <- rev_off.(u) + rev_off.(u - 1)
  done;
  let rev_adj = Array.make (Array.length g.G.adj) 0 in
  let cursor = Array.copy rev_off in
  for v = 0 to g.G.n1 - 1 do
    G.iter_neighbors g v (fun u _w ->
        rev_adj.(cursor.(u)) <- v;
        cursor.(u) <- cursor.(u) + 1)
  done;
  let relabel_now () =
    stats.phases <- stats.phases + 1;
    Obs.Metrics.incr c_global_relabels;
    if Obs.is_enabled () then
      Obs.Events.emit ~level:Obs.Events.Debug "pr.global_relabel"
        [ Obs.Events.int "round" stats.phases; Obs.Events.int "pushes_so_far" stats.augmentations ];
    exact_heights st ~psi ~d1 ~limit ~rev_off ~rev_adj;
    for u = 0 to g.G.n2 - 1 do
      if caps.(u) = 0 then psi.(u) <- limit
    done
  in
  relabel_now ();
  let relabels = ref 0 and relabel_period = g.G.n1 + g.G.n2 in
  let queue = Queue.create () in
  for v = 0 to g.G.n1 - 1 do
    if st.mate1.(v) < 0 then Queue.add v queue
  done;
  while not (Queue.is_empty queue) do
    stats.scans <- stats.scans + 1;
    Obs.Metrics.incr c_scans;
    let v = Queue.pop queue in
    if !relabels >= relabel_period then begin
      relabels := 0;
      relabel_now ()
    end;
    (* Find the lowest column adjacent to v. *)
    let best = ref (-1) and best_psi = ref max_int in
    G.iter_neighbors g v (fun u _w ->
        if psi.(u) < !best_psi then begin
          best := u;
          best_psi := psi.(u)
        end);
    if !best >= 0 && !best_psi < limit then begin
      let u = !best in
      d1.(v) <- psi.(u) + 1;
      if residual st u > 0 then begin
        assign st v u;
        stats.augmentations <- stats.augmentations + 1;
        Obs.Metrics.incr c_pushes
      end
      else begin
        (* Saturated: find the occupant with minimum label (kick it) and the
           second minimum over occupants ∪ {v} (new column height). *)
        let victim = ref (-1) and min_d = ref max_int and second_d = ref max_int in
        let consider v'' =
          let d = d1.(v'') in
          if d < !min_d then begin
            second_d := !min_d;
            min_d := d;
            victim := v''
          end
          else if d < !second_d then second_d := d
        in
        Ds.Vec.iter consider st.matched_of.(u);
        consider v;
        if !victim = v then begin
          (* v itself has the smallest label: pushing it in would bounce it
             straight back out.  Treat as a failed push: relabel v's target
             height and retry later. *)
          Obs.Metrics.incr c_relabels;
          incr relabels;
          psi.(u) <- max psi.(u) (min limit (!second_d + 1));
          Queue.add v queue
        end
        else begin
          let v' = !victim in
          stats.steals <- stats.steals + 1;
          Obs.Metrics.incr c_steals;
          Obs.Metrics.incr c_pushes;
          Obs.Metrics.incr c_relabels;
          incr relabels;
          steal st ~v ~from:u ~victim:v';
          psi.(u) <- max psi.(u) (min limit (!second_d + 1));
          Queue.add v' queue
        end
      end
    end
    (* else: no adjacent column below the limit — v is unmatchable. *)
  done;
  st.mate1
