(* Independent answer checks.  Nothing here calls the solvers or the
   repository's instance parser: the instance text is parsed again by this
   module, and loads are recomputed from the returned assignment. *)

type inst = {
  n1 : int;
  n2 : int;
  cfgs : (float * int array) array array;
      (** per task, its configurations (weight, processors) in text order *)
}

let words line = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))

(* The [hypergraph n1 n2] / [h task weight proc...] text format. *)
let parse text =
  let header = ref None and acc = ref [] in
  List.iter
    (fun line ->
      match words line with
      | [] -> ()
      | w :: _ when w.[0] = '#' -> ()
      | [ "hypergraph"; a; b ] -> header := Some (int_of_string a, int_of_string b)
      | "h" :: task :: weight :: (_ :: _ as procs) ->
          acc :=
            (int_of_string task, float_of_string weight, Array.of_list (List.map int_of_string procs))
            :: !acc
      | _ -> failwith ("check: unexpected instance line: " ^ line))
    (String.split_on_char '\n' text);
  let n1, n2 = match !header with Some hw -> hw | None -> failwith "check: no header" in
  let per = Array.make n1 [] in
  List.iter
    (fun (v, w, ps) ->
      if v < 0 || v >= n1 then failwith "check: task out of range";
      Array.iter (fun u -> if u < 0 || u >= n2 then failwith "check: proc out of range") ps;
      per.(v) <- (w, ps) :: per.(v))
    !acc;
  (* [acc] is reversed, so each consed list is back in text order *)
  { n1; n2; cfgs = Array.map Array.of_list per }

(* A valid lower bound: every task pays at least its cheapest configuration
   on some processor, and the total work spreads over at most n2
   processors. *)
let lower_bound i =
  let worst_single = ref 0.0 and work = ref 0.0 in
  Array.iter
    (fun cs ->
      let m1 = ref infinity and mw = ref infinity in
      Array.iter
        (fun (w, ps) ->
          m1 := Float.min !m1 w;
          mw := Float.min !mw (w *. float_of_int (Array.length ps)))
        cs;
      worst_single := Float.max !worst_single !m1;
      work := !work +. !mw)
    i.cfgs;
  Float.max !worst_single (!work /. float_of_int i.n2)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* [choice.(v)] is the index of task v's configuration in text order.
   Returns the recomputed makespan, or why the answer is wrong. *)
let schedule i ~choice ~reported =
  if Array.length choice <> i.n1 then Error "assignment length differs from task count"
  else begin
    let loads = Array.make i.n2 0.0 in
    let bad = ref None in
    Array.iteri
      (fun v k ->
        if k < 0 || k >= Array.length i.cfgs.(v) then
          bad := Some (Printf.sprintf "task %d has no configuration %d" v k)
        else begin
          let w, ps = i.cfgs.(v).(k) in
          Array.iter (fun u -> loads.(u) <- loads.(u) +. w) ps
        end)
      choice;
    match !bad with
    | Some m -> Error m
    | None ->
        let mk = Array.fold_left Float.max 0.0 loads in
        let lb = lower_bound i in
        if not (close mk reported) then
          Error (Printf.sprintf "reported makespan %g, recomputed %g" reported mk)
        else if mk < lb -. (1e-9 *. Float.max 1.0 lb) then
          Error (Printf.sprintf "makespan %g below the lower bound %g" mk lb)
        else Ok mk
  end

(* A SINGLEPROC-UNIT stream answer: [procs.(v)] must be one of task v's
   neighbours, which [rows] regenerates row by row (sorted arrays). *)
let stream_schedule ~n1 ~n2 ~rows ~procs ~reported =
  if Array.length procs <> n1 then Error "assignment length differs from task count"
  else begin
    let loads = Array.make n2 0 in
    let bad = ref None in
    rows (fun v row ->
        let u = procs.(v) in
        if not (Array.exists (( = ) u) row) then
          bad := Some (Printf.sprintf "task %d placed on %d, not a neighbour" v u)
        else loads.(u) <- loads.(u) + 1);
    match !bad with
    | Some m -> Error m
    | None ->
        let mk = float_of_int (Array.fold_left max 0 loads) in
        let lb = float_of_int ((n1 + n2 - 1) / n2) in
        if not (close mk reported) then
          Error (Printf.sprintf "reported makespan %g, recomputed %g" reported mk)
        else if mk < lb then Error (Printf.sprintf "makespan %g below the lower bound %g" mk lb)
        else Ok mk
  end
