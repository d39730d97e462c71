module H = Hyper.Graph

(* Probe points: [rounds] = full passes over the tasks (the refinement-round
   count reports quote), [moves] = accepted improvements, [candidates] =
   evaluated moves — acceptance rate is moves/candidates. *)
let c_rounds = Obs.Metrics.counter "semimatch.local_search.rounds"
let c_moves = Obs.Metrics.counter "semimatch.local_search.moves"
let c_candidates = Obs.Metrics.counter "semimatch.local_search.candidates"

module Lv = Ds.Load_vector

let refine ?(max_passes = 50) h a =
  if max_passes < 0 then invalid_arg "Local_search.refine: negative pass budget";
  let choice = Array.copy a.Hyp_assignment.choice in
  let lv = Lv.create h.H.n2 in
  Array.iter (fun e -> Lv.apply lv ~procs:(H.h_procs h e) ~w:(H.h_weight h e)) choice;
  (* [stamp.(u) = visit] marks u as a processor of the current e_old, at
     position [index_of.(u)] of every candidate delta. *)
  let stamp = Array.make h.H.n2 (-1) and index_of = Array.make h.H.n2 (-1) in
  let visit = ref 0 in
  let no_move = { Lv.procs = [||]; amounts = [||]; len = 0 } in
  let cand = ref (Lv.delta_buffer lv) and best = ref (Lv.delta_buffer lv) in
  let moves = ref 0 in
  let pass_no = ref 0 in
  let pass () =
    Obs.Metrics.incr c_rounds;
    incr pass_no;
    let moves_before = !moves in
    let improved = ref false in
    for v = 0 to h.H.n1 - 1 do
      (* Take v's best strictly improving move, if any. *)
      let e_old = choice.(v) in
      let off_old = h.H.h_off.(e_old) in
      let k_old = h.H.h_off.(e_old + 1) - off_old in
      let w_old = H.h_weight h e_old in
      incr visit;
      for i = 0 to k_old - 1 do
        let u = h.H.h_adj.(off_old + i) in
        stamp.(u) <- !visit;
        index_of.(u) <- i
      done;
      let best_e = ref e_old in
      for e_new = h.H.task_off.(v) to h.H.task_off.(v + 1) - 1 do
        if e_new <> e_old then begin
          Obs.Metrics.incr c_candidates;
          (* A move takes task v from e_old to e_new: −w_old on e_old's
             processors, +w_new on e_new's, summed per processor when the
             sets overlap. *)
          let d = !cand in
          Array.blit h.H.h_adj off_old d.Lv.procs 0 k_old;
          Array.fill d.Lv.amounts 0 k_old (0.0 -. w_old);
          d.Lv.len <- k_old;
          let w_new = H.h_weight h e_new in
          for j = h.H.h_off.(e_new) to h.H.h_off.(e_new + 1) - 1 do
            let u = h.H.h_adj.(j) in
            if stamp.(u) = !visit then
              d.Lv.amounts.(index_of.(u)) <- d.Lv.amounts.(index_of.(u)) +. w_new
            else begin
              d.Lv.procs.(d.Lv.len) <- u;
              d.Lv.amounts.(d.Lv.len) <- 0.0 +. w_new;
              d.Lv.len <- d.Lv.len + 1
            end
          done;
          let reference = if !best_e = e_old then no_move else !best in
          if Lv.compare_delta lv d reference < 0 then begin
            best_e := e_new;
            cand := !best;
            best := d
          end
        end
      done;
      if !best_e <> e_old then begin
        Lv.commit lv !best;
        choice.(v) <- !best_e;
        incr moves;
        Obs.Metrics.incr c_moves;
        improved := true
      end
    done;
    (* One event per full pass over the tasks: coarse enough for any
       instance size, yet it shows the improvement tail flatten. *)
    if Obs.is_enabled () then
      Obs.Events.emit ~level:Obs.Events.Debug "local_search.pass"
        [
          Obs.Events.int "pass" !pass_no;
          Obs.Events.int "moves" (!moves - moves_before);
          Obs.Events.bool "improved" !improved;
        ];
    !improved
  in
  let rec loop remaining = if remaining > 0 && pass () then loop (remaining - 1) in
  loop max_passes;
  (Hyp_assignment.of_choices h choice, !moves)

let refine_bipartite ?max_passes g a =
  let h = H.of_bipartite g in
  (* The embedding lists one singleton hyperedge per bipartite edge in the
     same order, so edge ids and hyperedge ids coincide. *)
  let start = Hyp_assignment.of_choices h a.Bip_assignment.edge in
  let refined, moves = refine ?max_passes h start in
  (Bip_assignment.of_edges g refined.Hyp_assignment.choice, moves)
