(* Differential proof of the direct exact engines: every engine in
   Exact_unit.all_exact_engines must report the same optimal makespan on the
   same bytes, the load-vector-optimal engines (harvey, gen-hk) must
   produce the *same* sorted load vector (it is unique across optimal
   semi-matchings), and that vector must be lexicographically no worse than
   what the makespan-only binary searches return.  Instance families: HiLo,
   FewgManyg, the paper's adversarial traps, and a Chung–Lu-ish skewed
   generator whose machine popularity follows a power law.  Small instances
   are additionally cross-checked against brute force. *)

module G = Bipartite.Graph
module E = Semimatch.Exact_unit
module Ba = Semimatch.Bip_assignment
module Prng = Randkit.Prng

let engines = E.all_exact_engines
let direct = [ E.Harvey_online; E.Gen_hk ]

let int_loads g a = Array.map int_of_float (Ba.loads g a)

let sorted_desc loads =
  let v = Array.copy loads in
  Array.sort (fun a b -> compare b a) v;
  v

(* a <= b in lexicographic order over equal-length descending load vectors. *)
let lex_le a b =
  let n = Array.length a in
  let rec go i = i >= n || a.(i) < b.(i) || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let render v = String.concat "," (List.map string_of_int (Array.to_list v))

(* The full differential on one instance; [label] identifies the family and
   index on failure. *)
let check_instance ?(brute = false) label g =
  let solutions = List.map (fun exact -> (exact, E.solve_with ~exact g)) engines in
  let reference =
    match solutions with (_, s) :: _ -> s.E.makespan | [] -> assert false
  in
  List.iter
    (fun (exact, s) ->
      if not (Ba.is_valid g s.E.assignment) then
        Alcotest.failf "%s: %s returned an invalid assignment" label (E.exact_engine_name exact);
      if s.E.makespan <> reference then
        Alcotest.failf "%s: %s found makespan %d, reference %d" label
          (E.exact_engine_name exact) s.E.makespan reference;
      let loads = int_loads g s.E.assignment in
      let m = Array.fold_left max 0 loads in
      if m <> s.E.makespan then
        Alcotest.failf "%s: %s reports makespan %d but its loads give %d" label
          (E.exact_engine_name exact) s.E.makespan m)
    solutions;
  (* The optimal sorted load vector is unique; every load-vector-optimal
     engine must produce exactly it, and it lex-dominates every engine. *)
  let vector_of exact = sorted_desc (int_loads g (List.assoc exact solutions).E.assignment) in
  let optimal = vector_of E.Gen_hk in
  List.iter
    (fun exact ->
      let v = vector_of exact in
      if v <> optimal then
        Alcotest.failf "%s: %s load vector [%s] differs from gen-hk's optimal [%s]" label
          (E.exact_engine_name exact) (render v) (render optimal))
    direct;
  List.iter
    (fun (exact, s) ->
      let v = sorted_desc (int_loads g s.E.assignment) in
      if not (lex_le optimal v) then
        Alcotest.failf "%s: gen-hk vector [%s] not lex-<= %s's [%s]" label (render optimal)
          (E.exact_engine_name exact) (render v))
    solutions;
  (* Flow-time side of the same coin, through each engine's own report. *)
  let hk = Semimatch.Gen_hk.solve g and hv = Semimatch.Harvey.solve g in
  if hk.Semimatch.Gen_hk.total_flow_time <> hv.Semimatch.Harvey.total_flow_time then
    Alcotest.failf "%s: gen-hk flow time %d vs harvey %d" label
      hk.Semimatch.Gen_hk.total_flow_time hv.Semimatch.Harvey.total_flow_time;
  if brute then begin
    let opt_bf, _ = Semimatch.Brute_force.singleproc g in
    if Float.abs (opt_bf -. float_of_int reference) > 1e-9 then
      Alcotest.failf "%s: brute force %.17g vs engines %d" label opt_bf reference
  end

(* --- instance families ---------------------------------------------- *)

let hilo_grid () =
  (* 64 deterministic HiLo instances across sizes, groups and d. *)
  List.concat_map
    (fun (n1, n2) ->
      List.concat_map
        (fun g ->
          List.filter_map
            (fun d ->
              if g <= min n1 n2 then
                Some (Printf.sprintf "hilo-%d-%d-%d-%d" n1 n2 g d, Bipartite.Hilo.generate ~n1 ~n2 ~g ~d)
              else None)
            [ 1; 2; 3; 5 ])
        [ 1; 2; 4; 8 ])
    [ (9, 4); (16, 8); (25, 6); (40, 10) ]

let fewg_instances rng n =
  List.init n (fun i ->
      let r = Prng.split rng in
      let n1 = 4 + Prng.int r 40 and n2 = 2 + Prng.int r 10 in
      let g = 1 + Prng.int r (min n1 n2) and d = 1 + Prng.int r 4 in
      (Printf.sprintf "fewg-%d" i, Bipartite.Fewg_manyg.generate r ~n1 ~n2 ~g ~d))

let adversarial_instances () =
  (Printf.sprintf "adversarial-fig1", Bipartite.Adversarial.fig1 ())
  :: (Printf.sprintf "adversarial-double", Bipartite.Adversarial.double_sorted_trap ())
  :: (Printf.sprintf "adversarial-expected", Bipartite.Adversarial.expected_greedy_trap ())
  :: List.map
       (fun k ->
         (Printf.sprintf "adversarial-sorted-k%d" k, Bipartite.Adversarial.sorted_greedy_trap ~k))
       [ 1; 2; 3; 4; 5; 6; 7 ]

(* Chung–Lu-ish skew: machine u is drawn with probability proportional to
   1/(u+1), so a few machines are wildly popular — the shape that makes
   level decompositions deep and binary-search deadlines high. *)
let chung_lu rng ~n1 ~n2 =
  let weight = Array.init n2 (fun u -> 1.0 /. float_of_int (u + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weight in
  let draw r =
    let x = Prng.float r total in
    let acc = ref 0.0 and pick = ref (n2 - 1) in
    (try
       Array.iteri
         (fun u w ->
           acc := !acc +. w;
           if x < !acc then begin
             pick := u;
             raise Exit
           end)
         weight
     with Exit -> ());
    !pick
  in
  let edges = ref [] in
  for v = 0 to n1 - 1 do
    let d = 1 + Prng.int rng 3 in
    let chosen = Hashtbl.create d in
    (* Rejection capped at 4 tries per slot keeps generation deterministic
       and fast; a task always keeps its first draw. *)
    for _ = 1 to d do
      let rec attempt tries =
        let u = draw rng in
        if (not (Hashtbl.mem chosen u)) || tries = 0 then u else attempt (tries - 1)
      in
      let u = attempt 3 in
      if not (Hashtbl.mem chosen u) then begin
        Hashtbl.add chosen u ();
        edges := (v, u) :: !edges
      end
    done
  done;
  G.unit_weights ~n1 ~n2 ~edges:(List.rev !edges)

let chung_lu_instances rng n =
  List.init n (fun i ->
      let r = Prng.split rng in
      let n1 = 4 + Prng.int r 50 and n2 = 2 + Prng.int r 12 in
      (Printf.sprintf "chung-lu-%d" i, chung_lu r ~n1 ~n2))

(* The 316-instance differential suite. *)
let differential_suite () =
  let rng = Prng.create ~seed:701 in
  hilo_grid () @ fewg_instances rng 110 @ adversarial_instances () @ chung_lu_instances rng 140

let test_all_families_agree () =
  let instances = differential_suite () in
  (* The acceptance bar is >= 300 instances; fail loudly if a family edit
     ever shrinks the pool below it. *)
  Alcotest.(check bool) "at least 300 instances" true (List.length instances >= 300);
  List.iter (fun (label, g) -> check_instance label g) instances

let test_small_instances_vs_brute_force () =
  let rng = Prng.create ~seed:702 in
  for i = 1 to 80 do
    let r = Prng.split rng in
    let n1 = 1 + Prng.int r 6 and n2 = 1 + Prng.int r 4 in
    let edges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Prng.int r (min 2 n2) in
      let procs = Prng.sample_without_replacement r ~k:d ~n:n2 in
      Array.iter (fun u -> edges := (v, u) :: !edges) procs
    done;
    let g = G.unit_weights ~n1 ~n2 ~edges:!edges in
    check_instance ~brute:true (Printf.sprintf "small-%d" i) g
  done

let test_degenerate_shapes () =
  (* Empty task set, one task, all tasks on one machine, complete graph. *)
  let empty = G.unit_weights ~n1:0 ~n2:3 ~edges:[] in
  List.iter
    (fun exact ->
      let s = E.solve_with ~exact empty in
      Alcotest.(check int) "empty makespan" 0 s.E.makespan)
    engines;
  check_instance "one-task" (G.unit_weights ~n1:1 ~n2:1 ~edges:[ (0, 0) ]);
  check_instance "one-machine"
    (G.unit_weights ~n1:5 ~n2:1 ~edges:(List.init 5 (fun v -> (v, 0))));
  let complete =
    G.unit_weights ~n1:7 ~n2:3
      ~edges:(List.concat (List.init 7 (fun v -> List.init 3 (fun u -> (v, u)))))
  in
  check_instance "complete-7x3" complete

let test_engine_guarantees_reported () =
  List.iter
    (fun exact ->
      let expected =
        match exact with
        | E.Binary_search _ -> E.Makespan_optimal
        | E.Harvey_online | E.Gen_hk -> E.Load_vector_optimal
      in
      Alcotest.(check bool)
        (E.exact_engine_name exact ^ " guarantee")
        true
        (E.exact_engine_guarantee exact = expected);
      let g = G.unit_weights ~n1:3 ~n2:2 ~edges:[ (0, 0); (0, 1); (1, 0); (2, 1) ] in
      let s = E.solve_with ~exact g in
      Alcotest.(check bool)
        (E.exact_engine_name exact ^ " solution guarantee")
        true (s.E.guarantee = expected))
    engines

let test_portfolio_race_covers_all_engines () =
  (* Racing any engine subset returns the same makespan; jobs just changes
     who wins. *)
  let rng = Prng.create ~seed:703 in
  for _ = 1 to 20 do
    let r = Prng.split rng in
    let n1 = 2 + Prng.int r 20 and n2 = 1 + Prng.int r 6 in
    let edges = ref [] in
    for v = 0 to n1 - 1 do
      let d = 1 + Prng.int r (min 3 n2) in
      let procs = Prng.sample_without_replacement r ~k:d ~n:n2 in
      Array.iter (fun u -> edges := (v, u) :: !edges) procs
    done;
    let g = G.unit_weights ~n1 ~n2 ~edges:!edges in
    let reference = (E.solve g).E.makespan in
    List.iter
      (fun jobs ->
        let s, _winner = Semimatch.Portfolio.solve_exact_unit ~jobs g in
        Alcotest.(check int) "raced makespan" reference s.E.makespan)
      [ 1; 4 ]
  done

(* The default exact rule (push-relabel, galloping bisection) at the sizes
   the engine ranking was measured on: one matching when ⌈n/p⌉ is already
   optimal, at most 2⌈log₂ opt⌉ + 2 otherwise, and always the optimum of
   the incremental Hopcroft–Karp scan. *)
let test_default_deadline_counts () =
  let reference g =
    (E.solve ~engine:Matching.Hopcroft_karp ~strategy:E.Incremental g).E.makespan
  in
  let ceil_log2 x =
    let rec go k p = if p >= x then k else go (k + 1) (2 * p) in
    go 0 1
  in
  let rng = Prng.create ~seed:1301 in
  let tight = ref 0 in
  List.iter
    (fun (n1, n2, grp) ->
      for i = 1 to 3 do
        let g = Bipartite.Fewg_manyg.generate (Prng.split rng) ~n1 ~n2 ~g:grp ~d:5 in
        let label = Printf.sprintf "fewg-%d-%d-%d#%d" n1 n2 grp i in
        let s = E.solve g in
        Alcotest.(check int) (label ^ " makespan") (reference g) s.E.makespan;
        if s.E.makespan = Semimatch.Lower_bound.singleproc_unit g then begin
          incr tight;
          Alcotest.(check int) (label ^ " deadlines at a tight bound") 1 s.E.deadlines_tried
        end
      done)
    [ (2000, 200, 32); (2000, 200, 128); (20000, 2000, 32) ];
  Alcotest.(check bool) "some FewgManyg optimum is ceil(n/p)" true (!tight > 0);
  List.iter
    (fun n1 ->
      let g = Bipartite.Hilo.generate ~n1 ~n2:(n1 / 10) ~g:32 ~d:5 in
      let s = E.solve g in
      Alcotest.(check int) (Printf.sprintf "hilo-%d makespan" n1) (reference g) s.E.makespan;
      let bound = (2 * ceil_log2 s.E.makespan) + 2 in
      if s.E.deadlines_tried > bound then
        Alcotest.failf "hilo-%d: %d deadlines tried, bound %d (optimum %d)" n1
          s.E.deadlines_tried bound s.E.makespan)
    [ 2000; 20000 ]

(* --- Hall-witness certificate ------------------------------------------ *)

(* Optimality evidence that no engine vouches for.  A task set S with
   |S| > (L−1)·|N(S)| cannot be placed with every processor loaded below L
   (Hall's condition with L−1 copies of each processor), so a valid
   schedule of makespan L is optimal.  The witness builder runs its own
   augmenting-path matching, and the check recounts N(S) from the CSR. *)

(* Maximum matching with every processor of capacity [cap], by plain
   augmenting DFS: task -> processor, or -1 when unmatched. *)
let capacitated_matching (g : G.t) ~cap =
  let mate = Array.make g.G.n1 (-1) and load = Array.make g.G.n2 0 in
  (* [place seen v] gives task v a processor, moving earlier tasks along an
     alternating path if it must; it changes nothing when it fails. *)
  let rec place seen v =
    let rec scan e =
      e < g.G.off.(v + 1)
      &&
      let u = g.G.adj.(e) in
      if seen.(u) then scan (e + 1)
      else begin
        seen.(u) <- true;
        let fits = load.(u) < cap in
        if fits || evict seen u 0 then begin
          if fits then load.(u) <- load.(u) + 1;
          mate.(v) <- u;
          true
        end
        else scan (e + 1)
      end
    in
    scan g.G.off.(v)
  (* moves one task held by [u] elsewhere, freeing one of u's slots *)
  and evict seen u w =
    w < g.G.n1 && ((mate.(w) = u && place seen w) || evict seen u (w + 1))
  in
  for v = 0 to g.G.n1 - 1 do
    ignore (place (Array.make g.G.n2 false) v)
  done;
  mate

(* A task set proving that no schedule has makespan below [l]: all tasks
   when [l] is the bound ⌈n/p⌉, otherwise the tasks reachable by
   alternating paths from a task a capacity-(l−1) maximum matching leaves
   unmatched.  [None] when that matching places every task. *)
let hall_witness (g : G.t) ~l =
  if l = (g.G.n1 + g.G.n2 - 1) / g.G.n2 then Some (Array.make g.G.n1 true)
  else
    let mate = capacitated_matching g ~cap:(l - 1) in
    Array.find_index (fun u -> u < 0) mate
    |> Option.map (fun root ->
           let in_s = Array.make g.G.n1 false and reached = Array.make g.G.n2 false in
           let rec visit v =
             if not in_s.(v) then begin
               in_s.(v) <- true;
               for e = g.G.off.(v) to g.G.off.(v + 1) - 1 do
                 let u = g.G.adj.(e) in
                 if not reached.(u) then begin
                   reached.(u) <- true;
                   Array.iteri (fun w m -> if m = u then visit w) mate
                 end
               done
             end
           in
           visit root;
           in_s)

(* |S| > (l−1)·|N(S)|, with N(S) recounted from the CSR. *)
let violates_hall (g : G.t) ~l s =
  let neighbour = Array.make g.G.n2 false and size = ref 0 in
  Array.iteri
    (fun v inside ->
      if inside then begin
        incr size;
        for e = g.G.off.(v) to g.G.off.(v + 1) - 1 do
          neighbour.(g.G.adj.(e)) <- true
        done
      end)
    s;
  let n_s = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 neighbour in
  !size > (l - 1) * n_s

let test_hall_witness_certifies_optimum () =
  List.iter
    (fun (label, g) ->
      let s = E.solve g in
      let l = s.E.makespan in
      if not (Ba.is_valid g s.E.assignment && Array.fold_left max 0 (int_loads g s.E.assignment) = l)
      then Alcotest.failf "%s: the schedule does not have makespan %d" label l;
      (match hall_witness g ~l with
      | Some set when violates_hall g ~l set -> ()
      | Some _ -> Alcotest.failf "%s: the witness for %d satisfies Hall's condition" label l
      | None -> Alcotest.failf "%s: no Hall witness for makespan %d" label l);
      (* An engine reporting one too many would be caught. *)
      if hall_witness g ~l:(l + 1) <> None then
        Alcotest.failf "%s: a Hall witness claims makespan %d is impossible" label l)
    (differential_suite ())

let suite =
  [
    Alcotest.test_case "all engines agree across >=300 instances (4 families)" `Quick
      test_all_families_agree;
    Alcotest.test_case "small instances cross-checked vs brute force" `Quick
      test_small_instances_vs_brute_force;
    Alcotest.test_case "degenerate shapes" `Quick test_degenerate_shapes;
    Alcotest.test_case "guarantee levels reported per engine" `Quick
      test_engine_guarantees_reported;
    Alcotest.test_case "portfolio race over all six engines" `Quick
      test_portfolio_race_covers_all_engines;
    Alcotest.test_case "default rule: deadline counts pinned" `Quick
      test_default_deadline_counts;
    Alcotest.test_case "Hall witness certifies the optimum (316 instances)" `Quick
      test_hall_witness_certifies_optimum;
  ]
