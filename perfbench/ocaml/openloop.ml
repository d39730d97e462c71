(* The benchmark's open-loop load generator.  Requests arrive as a seeded Poisson
   process and are written on one connection when due, whether or not
   earlier replies are back.  Each request is timed from its due time, not
   from its send, so a stall also charges the requests queued behind it;
   how late the generator itself ran (send - due) is reported alongside.
   Busy, error and missing replies are failures and count as missing any
   latency limit (latency = infinity).  The generator polls without sleeping,
   so requests leave on time and a reply is stamped when it arrives, not
   when a sleeping generator is woken (on a virtual machine that alone can
   take half a millisecond). *)

module J = Obs.Json

type req = {
  id : int;
  op : string;
  due : int64;
  mutable sent : int64;
  mutable lat_ms : float;  (** from due time; infinity when failed *)
}

type state = {
  pending : (int, req) Hashtbl.t;
  mutable all : req list;
  mutable busy : int;
  mutable errors : int;
  mutable unknown : int;  (** replies whose id matches no request *)
  mutable adds_ok : int;
  mutable removes_ok : int;
  mutable ratios : float list;  (** resolve: makespan / lower bound *)
}

let create () =
  {
    pending = Hashtbl.create 256;
    all = [];
    busy = 0;
    errors = 0;
    unknown = 0;
    adds_ok = 0;
    removes_ok = 0;
    ratios = [];
  }

let ms_between later earlier = Int64.to_float (Int64.sub later earlier) /. 1e6

(* Account one reply line received at [now]. *)
let account st ~now line =
  let j = try Some (J.of_string line) with Failure _ -> None in
  let id = Option.bind (Option.bind j (J.member "id")) J.to_float in
  match (j, id) with
  | Some j, Some id when Hashtbl.mem st.pending (int_of_float id) ->
      let r = Hashtbl.find st.pending (int_of_float id) in
      Hashtbl.remove st.pending r.id;
      if J.member "ok" j = Some (J.Bool true) then begin
        r.lat_ms <- ms_between now r.due;
        if r.op = "add_task" then st.adds_ok <- st.adds_ok + 1;
        if r.op = "remove_task" then st.removes_ok <- st.removes_ok + 1;
        if r.op = "resolve" then
          match
            ( Option.bind (J.member "makespan" j) J.to_float,
              Option.bind (J.member "lower_bound" j) J.to_float )
          with
          | Some m, Some lb when lb > 0.0 -> st.ratios <- (m /. lb) :: st.ratios
          | _ -> ()
      end
      else if J.member "error" j = Some (J.Str "busy") then st.busy <- st.busy + 1
      else st.errors <- st.errors + 1
  | _ -> st.unknown <- st.unknown + 1

let write_all fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* Read whatever is available within [wait] seconds and account every
   complete line. *)
let pump st fd inbuf wait =
  match Unix.select [ fd ] [] [] wait with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | [], _, _ -> true
  | _ ->
      let chunk = Bytes.create 65536 in
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then false
      else begin
        Buffer.add_subbytes inbuf chunk 0 n;
        let s = Buffer.contents inbuf in
        let parts = String.split_on_char '\n' s in
        let rec go = function
          | [] -> Buffer.clear inbuf
          | [ last ] ->
              Buffer.clear inbuf;
              Buffer.add_string inbuf last
          | l :: rest ->
              if l <> "" then account st ~now:(Tr.now ()) l;
              go rest
        in
        go parts;
        true
      end

(* Drive [mix] at [rate] requests/s for [duration_s] seconds; then wait up
   to [drain_s] for outstanding replies, which are missing after that. *)
let run ~fd ~rate ~duration_s ~drain_s ~rng ~next_id mix =
  let st = create () in
  let inbuf = Buffer.create 65536 in
  let gap () =
    Int64.of_float (-.Float.log (1.0 -. Randkit.Prng.float rng 1.0) /. rate *. 1e9)
  in
  let t0 = Tr.now () in
  let t_end = Int64.add t0 (Int64.of_float (duration_s *. 1e9)) in
  let due = ref (Int64.add t0 (gap ())) in
  let alive = ref true in
  while !alive && Int64.compare (Tr.now ()) t_end < 0 do
    alive := pump st fd inbuf 0.0;
    while !alive && Int64.compare !due (Tr.now ()) <= 0 && Int64.compare !due t_end < 0 do
      let op, fields = Mix.next mix in
      let id = !next_id in
      incr next_id;
      let r = { id; op; due = !due; sent = 0L; lat_ms = infinity } in
      Hashtbl.replace st.pending id r;
      st.all <- r :: st.all;
      r.sent <- Tr.now ();
      (try write_all fd (Mix.line ~id fields ^ "\n")
       with Unix.Unix_error _ -> alive := false);
      due := Int64.add !due (gap ())
    done
  done;
  let give_up = Int64.add (Tr.now ()) (Int64.of_float (drain_s *. 1e9)) in
  while !alive && Hashtbl.length st.pending > 0 && Int64.compare (Tr.now ()) give_up < 0 do
    alive := pump st fd inbuf 0.0
  done;
  st

(* One state holding the requests of several. *)
let merge sts =
  let m = create () in
  List.iter
    (fun st ->
      m.all <- st.all @ m.all;
      m.busy <- m.busy + st.busy;
      m.errors <- m.errors + st.errors;
      m.unknown <- m.unknown + st.unknown;
      m.adds_ok <- m.adds_ok + st.adds_ok;
      m.removes_ok <- m.removes_ok + st.removes_ok;
      m.ratios <- st.ratios @ m.ratios)
    sts;
  m

let failed st = List.length (List.filter (fun r -> r.lat_ms = infinity) st.all)

(* Quantile with linear interpolation between order statistics at rank
   q(n-1); [infinity] (a failure) sorts last and pushes the tail up. *)
let quantile xs q =
  match xs with
  | [] -> Float.nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      if frac = 0.0 || a.(hi) = a.(lo) then a.(lo)
      else if a.(hi) = infinity then infinity
      else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let latencies ?op st =
  List.filter_map
    (fun r -> if op = None || op = Some r.op then Some r.lat_ms else None)
    st.all

let lateness st = List.map (fun r -> ms_between r.sent r.due) st.all

(* Saturation throughput: a closed loop keeping [window] requests of the
   mix outstanding for [duration_s]; replies per second.  Each request's
   due time is its send. *)
let saturate ~fd ~window ~duration_s ~next_id mix =
  let st = create () in
  let inbuf = Buffer.create 65536 in
  let t0 = Tr.now () in
  let t_end = Int64.add t0 (Int64.of_float (duration_s *. 1e9)) in
  let alive = ref true in
  let send () =
    let op, fields = Mix.next mix in
    let id = !next_id in
    incr next_id;
    let now = Tr.now () in
    let r = { id; op; due = now; sent = now; lat_ms = infinity } in
    Hashtbl.replace st.pending id r;
    st.all <- r :: st.all;
    try write_all fd (Mix.line ~id fields ^ "\n") with Unix.Unix_error _ -> alive := false
  in
  while !alive && Int64.compare (Tr.now ()) t_end < 0 do
    while !alive && Hashtbl.length st.pending < window do
      send ()
    done;
    alive := pump st fd inbuf 0.0
  done;
  let t_stop = Tr.now () in
  let replied = List.length st.all - Hashtbl.length st.pending in
  while !alive && Hashtbl.length st.pending > 0 do
    alive := pump st fd inbuf 0.05
  done;
  (st, float_of_int replied /. (Int64.to_float (Int64.sub t_stop t0) /. 1e9))
