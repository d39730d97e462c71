module Vec = Ds.Vec
module Heap = Ds.Indexed_heap
module Lv = Ds.Load_vector

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ Vec *)

let test_vec_push_get () =
  let v = Vec.create () in
  check "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 (-1);
  Alcotest.(check int) "set/get" (-1) (Vec.get v 7)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1))

let test_vec_pop_clear () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.push v 2;
  Alcotest.(check (option int)) "pop" (Some 2) (Vec.pop v);
  Alcotest.(check (option int)) "pop" (Some 1) (Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v);
  Vec.push v 5;
  Vec.clear v;
  check "cleared" true (Vec.is_empty v)

let test_vec_conversions () =
  let v = Vec.of_array [| 3; 1; 4 |] in
  Alcotest.(check (array int)) "roundtrip" [| 3; 1; 4 |] (Vec.to_array v);
  let sum = Vec.fold_left ( + ) 0 v in
  Alcotest.(check int) "fold" 8 sum;
  let collected = ref [] in
  Vec.iteri (fun i x -> collected := (i, x) :: !collected) v;
  Alcotest.(check int) "iteri count" 3 (List.length !collected)

(* ----------------------------------------------------------------- Heap *)

let test_heap_pop_order () =
  let h = Heap.create 10 in
  List.iter (fun (k, p) -> Heap.insert h k p) [ (0, 5.0); (1, 1.0); (2, 3.0); (3, 0.5); (4, 4.0) ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (k, _) ->
        order := k :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending priority order" [ 3; 1; 2; 4; 0 ] (List.rev !order)

let test_heap_update () =
  let h = Heap.create 4 in
  Heap.insert h 0 10.0;
  Heap.insert h 1 20.0;
  Heap.insert h 2 30.0;
  Heap.update h 2 1.0;
  Alcotest.(check (option (pair int (float 1e-9)))) "decrease-key" (Some (2, 1.0)) (Heap.min h);
  Heap.update h 2 40.0;
  Alcotest.(check (option (pair int (float 1e-9)))) "increase-key" (Some (0, 10.0)) (Heap.min h)

let test_heap_mem_and_errors () =
  let h = Heap.create 3 in
  Heap.insert h 1 2.0;
  check "mem" true (Heap.mem h 1);
  check "not mem" false (Heap.mem h 0);
  Alcotest.check_raises "double insert" (Invalid_argument "Indexed_heap.insert: key already present")
    (fun () -> Heap.insert h 1 3.0);
  Alcotest.check_raises "update absent" (Invalid_argument "Indexed_heap.update: key absent")
    (fun () -> Heap.update h 0 1.0)

let heap_property =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (pair (int_bound 999) (float_range 0.0 100.0)))
    (fun pairs ->
      (* Dedupe keys: each key may be present at most once. *)
      let tbl = Hashtbl.create 16 in
      List.iter (fun (k, p) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k p) pairs;
      let h = Heap.create 1000 in
      Hashtbl.iter (fun k p -> Heap.insert h k p) tbl;
      let rec drain acc =
        match Heap.pop_min h with Some (_, p) -> drain (p :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      List.sort compare popped = popped && List.length popped = Hashtbl.length tbl)

(* -------------------------------------------------------- Counting sort *)

let test_counting_sort_permutation () =
  let keys = [| 3; 1; 4; 1; 5; 9; 2; 6; 5; 3 |] in
  let perm =
    Ds.Counting_sort.permutation ~n:(Array.length keys) ~key:(fun i -> keys.(i)) ~max_key:9
  in
  (* Stable and sorted. *)
  for i = 1 to Array.length perm - 1 do
    let a = perm.(i - 1) and b = perm.(i) in
    check "non-decreasing keys" true (keys.(a) < keys.(b) || (keys.(a) = keys.(b) && a < b))
  done;
  let seen = Array.copy perm in
  Array.sort compare seen;
  Alcotest.(check (array int)) "permutation" (Array.init 10 Fun.id) seen

let counting_sort_property =
  QCheck.Test.make ~name:"sort_ints matches stdlib sort" ~count:300
    QCheck.(array (int_bound 5000))
    (fun a ->
      let mine = Array.copy a and reference = Array.copy a in
      Ds.Counting_sort.sort_ints mine;
      Array.sort compare reference;
      mine = reference)

(* ---------------------------------------------------------------- Stats *)

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "odd" 3.0 (Ds.Stats.median [| 5.0; 3.0; 1.0 |]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Ds.Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check int) "int even keeps lower" 2 (Ds.Stats.median_int [| 4; 1; 2; 3 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty input") (fun () ->
      ignore (Ds.Stats.median [||]))

let test_stats_misc () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Ds.Stats.mean a);
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Ds.Stats.stddev a);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Ds.Stats.minimum a);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Ds.Stats.maximum a);
  Alcotest.(check (float 1e-9)) "q0" 2.0 (Ds.Stats.quantile a ~q:0.0);
  Alcotest.(check (float 1e-9)) "q1" 9.0 (Ds.Stats.quantile a ~q:1.0)

(* ---------------------------------------------------------- Load_vector *)

let test_load_vector_apply () =
  let lv = Lv.create 4 in
  Lv.apply lv ~procs:[| 0; 2 |] ~w:3.0;
  Lv.add lv ~proc:2 ~w:1.0;
  Alcotest.(check (float 1e-9)) "load 0" 3.0 (Lv.load lv 0);
  Alcotest.(check (float 1e-9)) "load 2" 4.0 (Lv.load lv 2);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Lv.max_load lv);
  Alcotest.(check (array (float 1e-9))) "sorted" [| 4.0; 3.0; 0.0; 0.0 |] (Lv.sorted_desc lv)

let test_load_vector_compare () =
  let lv = Lv.create 3 in
  Lv.add lv ~proc:0 ~w:2.0;
  (* a: +1 on proc 1 -> [2;1;0]; b: +1 on proc 0 -> [3;0;0]. *)
  check "a better" true (Lv.compare_hypothetical lv ~a:([| 1 |], 1.0) ~b:([| 0 |], 1.0) < 0);
  check "symmetric" true (Lv.compare_hypothetical lv ~a:([| 0 |], 1.0) ~b:([| 1 |], 1.0) > 0);
  Alcotest.(check int) "equal candidates" 0
    (Lv.compare_hypothetical lv ~a:([| 1 |], 1.0) ~b:([| 2 |], 1.0))

let test_load_vector_delta () =
  let lv = Lv.create 3 in
  Lv.add lv ~proc:0 ~w:5.0;
  Lv.add lv ~proc:1 ~w:1.0;
  Lv.apply_delta lv ~procs:[| 0; 2 |] ~amounts:[| -2.0; 4.0 |];
  Alcotest.(check (array (float 1e-9))) "after delta" [| 4.0; 3.0; 1.0 |] (Lv.sorted_desc lv);
  Alcotest.(check (float 1e-9)) "loads tracked" 3.0 (Lv.load lv 0)

(* Reference model: loads as plain arrays, hypothetical vectors by sort. *)
let random_lv_scenario rng p steps =
  let lv = Lv.create p in
  let model = Array.make p 0.0 in
  for _ = 1 to steps do
    let k = 1 + Randkit.Prng.int rng (min 4 p) in
    let procs = Randkit.Prng.sample_without_replacement rng ~k ~n:p in
    let w = float_of_int (1 + Randkit.Prng.int rng 5) in
    Lv.apply lv ~procs ~w;
    Array.iter (fun u -> model.(u) <- model.(u) +. w) procs
  done;
  (lv, model)

let load_vector_matches_model =
  QCheck.Test.make ~name:"load vector sorted view matches model" ~count:200
    QCheck.(pair (int_range 1 12) (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Randkit.Prng.create ~seed in
      let lv, model = random_lv_scenario rng p 20 in
      let sorted_model = Array.copy model in
      Array.sort (fun a b -> compare b a) sorted_model;
      Lv.sorted_desc lv = sorted_model
      && Array.for_all2 (fun a b -> a = b) (Array.init p (Lv.load lv)) model)

let lazy_compare_matches_naive =
  QCheck.Test.make ~name:"lazy lexicographic compare = naive compare" ~count:300
    QCheck.(pair (int_range 2 10) (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Randkit.Prng.create ~seed in
      let lv, _ = random_lv_scenario rng p 10 in
      let random_cand () =
        let k = 1 + Randkit.Prng.int rng (min 3 p) in
        let procs = Randkit.Prng.sample_without_replacement rng ~k ~n:p in
        let w = float_of_int (1 + Randkit.Prng.int rng 4) in
        (procs, w)
      in
      let ok = ref true in
      for _ = 1 to 10 do
        let (pa, wa) as a = random_cand () and (pb, wb) as b = random_cand () in
        let lazy_cmp = Lv.compare_hypothetical lv ~a ~b in
        let naive =
          compare (Lv.hypothetical_sorted lv ~procs:pa ~w:wa) (Lv.hypothetical_sorted lv ~procs:pb ~w:wb)
        in
        if compare lazy_cmp 0 <> compare naive 0 then ok := false
      done;
      !ok)

let lazy_delta_compare_matches_naive =
  QCheck.Test.make ~name:"delta compare = naive delta compare" ~count:300
    QCheck.(pair (int_range 2 10) (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Randkit.Prng.create ~seed in
      let lv, _ = random_lv_scenario rng p 10 in
      let random_delta () =
        let k = 1 + Randkit.Prng.int rng (min 3 p) in
        let procs = Randkit.Prng.sample_without_replacement rng ~k ~n:p in
        let amounts = Array.map (fun _ -> float_of_int (Randkit.Prng.int_in_range rng ~lo:(-3) ~hi:3)) procs in
        (procs, amounts)
      in
      let ok = ref true in
      for _ = 1 to 10 do
        let (pa, aa) as a = random_delta () and (pb, ab) as b = random_delta () in
        let lazy_cmp = Lv.compare_hypothetical_delta lv ~a ~b in
        let naive =
          compare
            (Lv.hypothetical_sorted_delta lv ~procs:pa ~amounts:aa)
            (Lv.hypothetical_sorted_delta lv ~procs:pb ~amounts:ab)
        in
        if compare lazy_cmp 0 <> compare naive 0 then ok := false
      done;
      !ok)

(* The sort-free primitive against the materialized vectors, on inputs that
   force ties: loads and amounts on a half-integer grid (negative and zero
   amounts included), identical, same-set, overlapping and disjoint
   candidates, and buffers whose entries past [len] hold junk. *)
let compare_delta_matches_sorted =
  QCheck.Test.make ~name:"sort-free delta compare = compare on sorted vectors" ~count:500
    QCheck.(pair (int_range 1 12) (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Randkit.Prng.create ~seed in
      let half () = float_of_int (Randkit.Prng.int_in_range rng ~lo:(-4) ~hi:4) /. 2.0 in
      let lv = Lv.create p in
      Lv.apply_delta lv ~procs:(Array.init p Fun.id) ~amounts:(Array.init p (fun _ -> abs_float (half ())));
      let buffer procs =
        let d = Lv.delta_buffer lv in
        Array.fill d.Lv.procs 0 p (p - 1);
        Array.fill d.Lv.amounts 0 p nan;
        Array.iteri
          (fun i u ->
            d.Lv.procs.(i) <- u;
            d.Lv.amounts.(i) <- half ())
          procs;
        d.Lv.len <- Array.length procs;
        d
      in
      let sorted d =
        Lv.hypothetical_sorted_delta lv ~procs:(Array.sub d.Lv.procs 0 d.Lv.len)
          ~amounts:(Array.sub d.Lv.amounts 0 d.Lv.len)
      in
      let subset () =
        Randkit.Prng.sample_without_replacement rng ~k:(Randkit.Prng.int rng (p + 1)) ~n:p
      in
      let ok = ref true in
      for _ = 1 to 20 do
        let a = buffer (subset ()) in
        let b =
          match Randkit.Prng.int rng 4 with
          | 0 ->
              (* identical candidate *)
              let b = buffer (Array.sub a.Lv.procs 0 a.Lv.len) in
              Array.blit a.Lv.amounts 0 b.Lv.amounts 0 a.Lv.len;
              b
          | 1 -> buffer (Array.sub a.Lv.procs 0 a.Lv.len) (* same set *)
          | 2 -> buffer (subset ()) (* overlapping or not *)
          | _ ->
              let perm = Randkit.Prng.sample_without_replacement rng ~k:p ~n:p in
              let cut = Randkit.Prng.int rng (p + 1) in
              let a' = buffer (Array.sub perm 0 cut) in
              Array.blit a'.Lv.procs 0 a.Lv.procs 0 cut;
              Array.blit a'.Lv.amounts 0 a.Lv.amounts 0 cut;
              a.Lv.len <- cut;
              buffer (Array.sub perm cut (Randkit.Prng.int rng (p - cut + 1)))
        in
        let fast = Lv.compare_delta lv a b in
        let naive = compare (sorted a) (sorted b) in
        if compare fast 0 <> compare naive 0 then ok := false;
        if Lv.compare_delta lv b a <> - fast then ok := false;
        if Lv.compare_delta lv a a <> 0 then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "vec push/get/set" `Quick test_vec_push_get;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec pop/clear" `Quick test_vec_pop_clear;
    Alcotest.test_case "vec conversions" `Quick test_vec_conversions;
    Alcotest.test_case "heap pop order" `Quick test_heap_pop_order;
    Alcotest.test_case "heap update" `Quick test_heap_update;
    Alcotest.test_case "heap membership/errors" `Quick test_heap_mem_and_errors;
    QCheck_alcotest.to_alcotest heap_property;
    Alcotest.test_case "counting sort permutation" `Quick test_counting_sort_permutation;
    QCheck_alcotest.to_alcotest counting_sort_property;
    Alcotest.test_case "stats median" `Quick test_stats_median;
    Alcotest.test_case "stats misc" `Quick test_stats_misc;
    Alcotest.test_case "load vector apply" `Quick test_load_vector_apply;
    Alcotest.test_case "load vector compare" `Quick test_load_vector_compare;
    Alcotest.test_case "load vector delta" `Quick test_load_vector_delta;
    QCheck_alcotest.to_alcotest load_vector_matches_model;
    QCheck_alcotest.to_alcotest lazy_compare_matches_naive;
    QCheck_alcotest.to_alcotest lazy_delta_compare_matches_naive;
    QCheck_alcotest.to_alcotest compare_delta_matches_sorted;
  ]
