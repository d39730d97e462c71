(* The serve-mixed request mix, the same as the repository's load
   generator uses: 45% add_task (1-3 configurations over 1-3 processors),
   25% remove_task of a live task, 15% resolve under a 10 ms budget, 10%
   ping and 5% stats.  Requests spread uniformly over [sessions] preloaded
   sessions, so a run's resolve cost averages over several instances
   instead of hanging on one.  Task ids are predicted client-side: the
   daemon numbers each session's tasks in arrival order. *)

module J = Obs.Json

let sessions = 8
let session i = Printf.sprintf "bench-%d" i
let budget_ms = 10.0

type live = { mutable tids : int array; mutable n_live : int; mutable next_tid : int }
type t = { rng : Randkit.Prng.t; procs : int; live : live array }

let create ~seed ~tasks ~procs =
  {
    rng = Randkit.Prng.create ~seed;
    procs;
    live =
      Array.init sessions (fun _ ->
          { tids = Array.init (max 16 tasks) Fun.id; n_live = tasks; next_tid = tasks });
  }

let preload_text ~seed ~tasks ~procs i =
  Hyper.Io.to_string
    (Hyper.Generate.generate
       (Randkit.Prng.create ~seed:((seed * 7919) + i))
       ~family:Hyper.Generate.Fewg_manyg ~n:tasks ~p:procs ~dv:3 ~dh:4
       ~g:(max 4 (procs / 8))
       ~weights:Hyper.Weights.Unit)

let num f = J.Num f

(* The next request: its op name and its fields (without an id). *)
let next mix =
  let rng = mix.rng in
  let i = Randkit.Prng.int rng sessions in
  let m = mix.live.(i) and s = J.Str (session i) in
  let u = Randkit.Prng.float rng 1.0 in
  if u < 0.45 || (u < 0.70 && m.n_live = 0) then begin
    let config () =
      let k = 1 + Randkit.Prng.int rng (min 3 mix.procs) in
      let procs = Randkit.Prng.sample_without_replacement rng ~k ~n:mix.procs in
      J.Obj
        [
          ("procs", J.List (Array.to_list (Array.map (fun p -> num (float_of_int p)) procs)));
          ("weight", num (0.5 +. Randkit.Prng.float rng 1.5));
        ]
    in
    let n_cfg = 1 + Randkit.Prng.int rng 3 in
    if m.n_live >= Array.length m.tids then begin
      let bigger = Array.make (2 * Array.length m.tids) 0 in
      Array.blit m.tids 0 bigger 0 m.n_live;
      m.tids <- bigger
    end;
    m.tids.(m.n_live) <- m.next_tid;
    m.next_tid <- m.next_tid + 1;
    m.n_live <- m.n_live + 1;
    ( "add_task",
      [
        ("op", J.Str "add_task");
        ("session", s);
        ("configs", J.List (List.init n_cfg (fun _ -> config ())));
      ] )
  end
  else if u < 0.70 then begin
    let k = Randkit.Prng.int rng m.n_live in
    let tid = m.tids.(k) in
    m.tids.(k) <- m.tids.(m.n_live - 1);
    m.n_live <- m.n_live - 1;
    ("remove_task", [ ("op", J.Str "remove_task"); ("session", s); ("task", num (float_of_int tid)) ])
  end
  else if u < 0.85 then
    ("resolve", [ ("op", J.Str "resolve"); ("session", s); ("budget_ms", num budget_ms) ])
  else if u < 0.95 then ("ping", [ ("op", J.Str "ping") ])
  else ("stats", [ ("op", J.Str "stats") ])

let line ~id fields = J.to_string (J.Obj (("id", J.Num (float_of_int id)) :: fields))
