(* Load-vector traffic: [applies] are committed updates (one per realized
   task in the vector-greedy family), [compares] are hypothetical
   lexicographic comparisons — the dominant cost of VGH/EVG candidate
   selection (Sec. IV-D). *)
let c_applies = Obs.Metrics.counter "ds.loadvec.applies"
let c_compares = Obs.Metrics.counter "ds.loadvec.compares"

type t = {
  loads : float array;
  (* Comparison scratch: [mark.(u) = epoch] flags u as changed by the
     first candidate, [slot.(u)] is its index there; [vals]/[signs] hold
     the signed multiset still to decide, grown on demand. *)
  mark : int array;
  slot : int array;
  mutable epoch : int;
  mutable vals : float array;
  mutable signs : int array;
}

type delta = { procs : int array; amounts : float array; mutable len : int }

let create p =
  if p < 0 then invalid_arg "Load_vector.create";
  { loads = Array.make p 0.0; mark = Array.make p 0; slot = Array.make p 0; epoch = 0;
    vals = Array.make 16 0.0; signs = Array.make 16 0 }

let size t = Array.length t.loads
let load t u = t.loads.(u)
let max_load t = if size t = 0 then 0.0 else Array.fold_left Float.max t.loads.(0) t.loads

let sorted_desc t =
  let v = Array.copy t.loads in
  Array.sort (fun a b -> compare b a) v;
  v

let delta_buffer t = { procs = Array.make (size t) 0; amounts = Array.make (size t) 0.0; len = 0 }

let commit t d =
  Obs.Metrics.incr c_applies;
  for i = 0 to d.len - 1 do
    let u = d.procs.(i) in
    t.loads.(u) <- t.loads.(u) +. d.amounts.(i)
  done

let apply_delta t ~procs ~amounts =
  if Array.length procs <> Array.length amounts then
    invalid_arg "Load_vector.apply_delta: length mismatch";
  commit t { procs; amounts; len = Array.length procs }

let apply t ~procs ~w =
  Obs.Metrics.incr c_applies;
  Array.iter (fun u -> t.loads.(u) <- t.loads.(u) +. w) procs

let add t ~proc ~w = apply t ~procs:[| proc |] ~w

let push t n v s =
  if n = Array.length t.vals then begin
    t.vals <- Array.append t.vals t.vals;
    t.signs <- Array.append t.signs t.signs
  end;
  t.vals.(n) <- v;
  t.signs.(n) <- s;
  n + 1

(* The sorted vectors X (after a) and Y (after b) have equal length, so
   their lexicographic order is the sign of the net multiplicity in X − Y
   of the largest value whose multiplicity differs.  Each round finds the
   top value and its net count; a zero net drops that value and retries. *)
let rec decide t n =
  if n = 0 then 0
  else begin
    let vals = t.vals and signs = t.signs in
    let top = ref vals.(0) and net = ref signs.(0) in
    for i = 1 to n - 1 do
      let x = vals.(i) in
      if x > !top then begin
        top := x;
        net := signs.(i)
      end
      else if x = !top then net := !net + signs.(i)
    done;
    if !net <> 0 then compare !net 0
    else begin
      let m = ref 0 in
      for i = 0 to n - 1 do
        if vals.(i) <> !top then begin
          vals.(!m) <- vals.(i);
          signs.(!m) <- signs.(i);
          incr m
        end
      done;
      decide t !m
    end
  end

(* X − Y = (new_a ⊎ old_b) − (old_a ⊎ new_b) over changed processors only.
   A processor changed by both sides has the same old value on both, which
   cancels; equal new values cancel too, as does an update by 0. *)
let compare_delta t a b =
  Obs.Metrics.incr c_compares;
  t.epoch <- t.epoch + 2;
  let in_a = t.epoch and loads = t.loads in
  for i = 0 to a.len - 1 do
    let u = a.procs.(i) in
    t.mark.(u) <- in_a;
    t.slot.(u) <- i
  done;
  let n = ref 0 in
  for j = 0 to b.len - 1 do
    let u = b.procs.(j) in
    let l = loads.(u) in
    let nb = l +. b.amounts.(j) in
    if t.mark.(u) = in_a then begin
      t.mark.(u) <- in_a + 1;
      let na = l +. a.amounts.(t.slot.(u)) in
      if na <> nb then n := push t (push t !n na 1) nb (-1)
    end
    else if nb <> l then n := push t (push t !n l 1) nb (-1)
  done;
  for i = 0 to a.len - 1 do
    let u = a.procs.(i) in
    if t.mark.(u) = in_a then begin
      let l = loads.(u) in
      let na = l +. a.amounts.(i) in
      if na <> l then n := push t (push t !n na 1) l (-1)
    end
  done;
  decide t !n

let compare_hypothetical_delta t ~a:(procs_a, am_a) ~b:(procs_b, am_b) =
  compare_delta t
    { procs = procs_a; amounts = am_a; len = Array.length procs_a }
    { procs = procs_b; amounts = am_b; len = Array.length procs_b }

let compare_hypothetical t ~a:(procs_a, wa) ~b:(procs_b, wb) =
  compare_hypothetical_delta t
    ~a:(procs_a, Array.map (fun _ -> wa) procs_a)
    ~b:(procs_b, Array.map (fun _ -> wb) procs_b)

let hypothetical_sorted_delta t ~procs ~amounts =
  let v = Array.copy t.loads in
  Array.iteri (fun i u -> v.(u) <- v.(u) +. amounts.(i)) procs;
  Array.sort (fun a b -> compare b a) v;
  v

let hypothetical_sorted t ~procs ~w =
  hypothetical_sorted_delta t ~procs ~amounts:(Array.map (fun _ -> w) procs)
