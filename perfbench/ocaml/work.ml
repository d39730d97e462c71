(* The three workloads.  Each sets up from the seed (three times, reporting
   the median), runs its ops, checks every answer independently, writes
   one size-stamped ledger row per op, and returns its metrics. *)

module J = Obs.Json

type ctx = {
  dir : string;  (** scratch directory inside the checkout *)
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** the self-test's small sizes *)
  cli : string;  (** the semimatch_cli executable, for the daemon *)
}

(* Per-solve limits.  mp's ops take under half a second and sp's slowest
   about 6 s on a 2-core x86-64 box; the limits leave room for a loaded
   machine. *)
let mp_limit_s = 40.0
let sp_limit_s = 20.0
let engine_limit_s = 2.0
let setup_reps = 3

(* serve-mixed: the two open-loop rates and the size of each preloaded
   session. *)
let low_rps = 30.0
let high_rps = 80.0
let preload_tasks = 150
let preload_procs = 32

type metric = Metric.t = { m_name : string; m_value : float; m_unit : string }

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed checks: the run is not correct *)
  metrics : metric list;
}

let m m_name m_unit m_value = { m_name; m_value; m_unit }
let now_s () = Int64.to_float (Tr.now ()) /. 1e9

let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Set up [setup_reps] times in fresh directories; keep the last.  The
   earlier copies are removed and the written files flushed to disk before
   measuring, so write-back does not run during the ops. *)
let setup ctx ?(keep = fun _ -> ()) f =
  let rec go k acc =
    let d = Filename.concat ctx.dir (Printf.sprintf "setup-%d" k) in
    Sys.mkdir d 0o755;
    (* traced, the last set-up records its spans (the stream writer) *)
    Tr.on := ctx.trace && k + 1 = setup_reps;
    let r, s = Tr.timed (fun () -> f d) in
    Tr.on := false;
    if k + 1 < setup_reps then begin
      keep r;
      remove d;
      go (k + 1) (s :: acc)
    end
    else (r, median (s :: acc))
  in
  let r = go 0 [] in
  ignore (Sys.command "sync");
  r

(* ---- the ledger: one row per op ---- *)

let ledger : J.t list ref = ref []

let row ~workload ~instance ~path ~n ~p ~size ~size_unit ~seconds ~limit_hit ~ok =
  ledger :=
    J.Obj
      [
        ("workload", J.Str workload);
        ("instance", J.Str instance);
        ("path", J.Str path);
        ("n", J.Num (float_of_int n));
        ("p", J.Num (float_of_int p));
        (size_unit, J.Num (float_of_int size));
        ("seconds", J.Num seconds);
        ("limit_hit", J.Bool limit_hit);
        ("ok", J.Bool ok);
      ]
    :: !ledger

(* ---- closed-loop op bookkeeping ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable times : float list;  (** per-call seconds, latest first; over-limit ops at the limit *)
  mutable sizes : float list;  (** per-call pins or edges, aligned with [times] *)
  mutable rss : float;
}

let tally () = { attempted = 0; failed = 0; problems = []; times = []; sizes = []; rss = 0.0 }

(* Run one op child; [check] validates a finished op's JSON and returns
   [Error] for a wrong answer.  Returns the op's JSON when it is correct. *)
let run_op t ~workload ~instance ~path ~n ~p ~size ~size_unit ~limit_s ~trace ~check kind extra
    input out =
  t.attempted <- t.attempted + 1;
  t.sizes <- float_of_int size :: t.sizes;
  let res = Child.op ~limit_s ~trace ~out kind extra input in
  let fail ~limit_hit seconds why =
    t.failed <- t.failed + 1;
    t.times <- seconds :: t.times;
    if not limit_hit then t.problems <- Printf.sprintf "%s %s: %s" path instance why :: t.problems;
    row ~workload ~instance ~path ~n ~p ~size ~size_unit ~seconds ~limit_hit ~ok:false;
    None
  in
  match res with
  | Child.Over_limit -> fail ~limit_hit:true limit_s "over the limit"
  | Child.Crashed why -> fail ~limit_hit:false limit_s why
  | Child.Done j -> (
      let op_s = Child.num j "op_s" in
      t.rss <- Float.max t.rss (Child.num j "rss_mb");
      (match J.member "spans" j with
      | Some (J.List l) -> Tr.adopt (List.map Tr.of_json l)
      | _ -> ());
      (match J.member "counts" j with
      | Some (J.Obj kv) ->
          List.iter (fun (k, v) -> Tr.count k (Option.value ~default:0.0 (J.to_float v))) kv
      | _ -> ());
      match check j with
      | Error why -> fail ~limit_hit:false op_s why
      | Ok () ->
          t.times <- op_s :: t.times;
          row ~workload ~instance ~path ~n ~p ~size ~size_unit ~seconds:op_s ~limit_hit:false
            ~ok:true;
          Some j)

(* Run [pass] again and again until the next one would overrun the run's
   seconds; at least once.  Returns the number of passes. *)
let passes ctx pass =
  let t0 = now_s () in
  let rec go k =
    let (), s = Tr.timed pass in
    if now_s () -. t0 +. s <= ctx.seconds then go (k + 1) else k + 1
  in
  go 0

(* [xs] cut into [k] consecutive runs of (nearly) equal length. *)
let chunks k xs =
  let n = List.length xs in
  let k = max 1 (min k n) in
  List.init k (fun i -> List.filteri (fun j _ -> j * k / n = i) xs)

(* The closed-loop metrics: per-call p50 and p90, and work (pins or edges)
   per second of solving.  With [windows] > 1 the calls are cut into that
   many consecutive stretches and each metric is the median over them, so
   a slow spell of the machine moves one stretch, not the result. *)
let common ~setup_s ~windows (t : tally) =
  let calls = List.rev (List.combine t.times t.sizes) in
  let per f = median (List.map f (chunks windows calls)) in
  let q p c = Openloop.quantile (List.map (fun (s, _) -> s *. 1000.0) c) p in
  [
    m "setup_s" "s" setup_s;
    m "ok_share" "ratio" (float_of_int (t.attempted - t.failed) /. float_of_int (max 1 t.attempted));
    m "peak_rss_mb" "MB" t.rss;
    m "p50_ms" "ms" (per (q 0.5));
    m "p90_ms" "ms" (per (q 0.9));
    m "rate_per_s" "1/s" (per (fun c -> sum (List.map snd c) /. sum (List.map fst c)));
  ]

(* ---- mp-portfolio ---- *)

let mp ctx =
  let insts, setup_s = setup ctx (fun d -> Inst.make_mp ~dir:d ~seed:ctx.seed ~tiny:ctx.tiny) in
  let parsed = List.map (fun (i : Inst.mp) -> (i, Check.parse (Inst.read_file i.m_file))) insts in
  let out = Filename.concat ctx.dir "mp.out" in
  let one_pass t ~trace =
    let ratios = ref [] in
    List.iter
      (fun ((i : Inst.mp), ci) ->
        Tr.new_op ();
        let check j =
          let lb = Child.num j "lb" in
          match Check.schedule ci ~choice:(Op.read_ints out) ~reported:(Child.num j "makespan") with
          | Error e -> Error e
          | Ok mk when lb > mk -> Error (Printf.sprintf "refined lower bound %g above makespan %g" lb mk)
          | Ok mk ->
              ratios := (mk /. lb) :: !ratios;
              Ok ()
        in
        ignore
          (Tr.span "op" (fun () ->
               run_op t ~workload:"mp-portfolio" ~instance:i.m_name ~path:"portfolio" ~n:i.m_n
                 ~p:i.m_p ~size:i.m_pins ~size_unit:"pins" ~limit_s:mp_limit_s ~trace ~check "mp"
                 [ "--replay" ] i.m_file out)))
      parsed;
    !ratios
  in
  let t = tally () in
  let quality = ref [] in
  let n_passes = passes ctx (fun () -> quality := one_pass t ~trace:false) in
  let metrics = common ~setup_s ~windows:3 t @ [ m "quality" "ratio" (geomean !quality) ] in
  if not ctx.trace then { attempted = t.attempted; failed = t.failed; problems = t.problems; metrics }
  else begin
    let tt = tally () in
    Tr.on := true;
    ignore (one_pass tt ~trace:true);
    Tr.on := false;
    {
      attempted = t.attempted + tt.attempted;
      failed = t.failed + tt.failed;
      problems = t.problems @ tt.problems;
      metrics = Layers.overhead ~untraced:(sum t.times /. float_of_int n_passes) ~traced:(sum tt.times);
    }
  end

(* ---- sp-solve ---- *)

(* The large stream's optimum, from the instance materialized again from
   the seed: one capacitated matching at the trivial bound ⌈n/p⌉ settles it
   for FewgManyg; otherwise bisection.  Computed once per run, by the
   check, rather than in each set-up. *)
let big_opt (b : Inst.big) =
  let g =
    Bipartite.Fewg_manyg.generate (Randkit.Prng.create ~seed:b.b_seed) ~n1:b.b_n ~n2:b.b_p ~g:b.b_g ~d:5
  in
  let lb = (b.b_n + b.b_p - 1) / b.b_p in
  match Semimatch.Exact_unit.feasible ~engine:Matching.Push_relabel g ~d:lb with
  | Some _ -> lb
  | None ->
      (Semimatch.Exact_unit.solve_with ~strategy:Semimatch.Exact_unit.Bisection
         ~exact:(Semimatch.Exact_unit.Binary_search Matching.Push_relabel) g)
        .Semimatch.Exact_unit.makespan

let sp ctx =
  let (insts, big), setup_s =
    setup ctx (fun d ->
        let insts = Inst.make_sp ~dir:d ~seed:ctx.seed ~tiny:ctx.tiny in
        (insts, Inst.make_big ~dir:d ~seed:ctx.seed ~tiny:ctx.tiny))
  in
  let bopt = lazy (big_opt big) in
  let parsed = List.map (fun (i : Inst.sp) -> (i, Check.parse (Inst.read_file i.s_hg))) insts in
  let out = Filename.concat ctx.dir "sp.out" in
  let w = "sp-solve" in
  (* the per-layer replays and the engine census run on the first
     replicate of each family and size *)
  let first (i : Inst.sp) = String.ends_with ~suffix:"#0" i.s_name in
  let replay i = if first i then [ "--replay" ] else [] in
  let one_pass t ~trace =
    List.iter
      (fun ((i : Inst.sp), ci) ->
        let opt = float_of_int i.s_opt in
        let equal_opt mk =
          if mk = opt then Ok () else Error (Printf.sprintf "makespan %g, optimum %g" mk opt)
        in
        if i.s_exact then begin
          Tr.new_op ();
          let check j =
            Result.bind
              (Check.schedule ci ~choice:(Op.read_ints out) ~reported:(Child.num j "makespan"))
              equal_opt
          in
          ignore
            (Tr.span "op" (fun () ->
                 run_op t ~workload:w ~instance:i.s_name ~path:"exact" ~n:i.s_n ~p:i.s_p
                   ~size:i.s_edges ~size_unit:"edges" ~limit_s:sp_limit_s ~trace ~check "exact"
                   (replay i) i.s_hg out))
        end;
        if i.s_ingest then begin
          Tr.new_op ();
          let check j = equal_opt (Child.num j "makespan") in
          ignore
            (Tr.span "op" (fun () ->
                 run_op t ~workload:w ~instance:i.s_name ~path:"ingest" ~n:i.s_n ~p:i.s_p
                   ~size:i.s_edges ~size_unit:"edges" ~limit_s:sp_limit_s ~trace ~check "ingest"
                   (replay i) i.s_stream out))
        end)
      parsed;
    Tr.new_op ();
    let check j =
      let opt = float_of_int (Lazy.force bopt) in
      let mk = Child.num j "makespan" and factor = Child.num j "factor" in
      if Child.str j "tier" = "incore-exact" then
        if mk = opt then Ok () else Error (Printf.sprintf "makespan %g, optimum %g" mk opt)
      else
        Result.bind
          (Check.stream_schedule ~n1:big.Inst.b_n ~n2:big.Inst.b_p ~rows:(Inst.big_rows big)
             ~procs:(Op.read_ints out) ~reported:mk)
          (fun mk ->
            if mk <= factor *. opt then Ok ()
            else Error (Printf.sprintf "streamed makespan %g above %g x optimum %g" mk factor opt))
    in
    Tr.span "op" (fun () ->
        run_op t ~workload:w ~instance:"big" ~path:"ingest" ~n:big.b_n ~p:big.b_p ~size:big.b_edges
          ~size_unit:"edges" ~limit_s:sp_limit_s ~trace ~check "ingest" [ "--replay" ] big.b_file out)
    |> Option.map (fun j -> Child.num j "makespan" /. float_of_int (Lazy.force bopt))
  in
  let t = tally () in
  let stream = ref [] in
  let n_passes =
    passes ctx (fun () ->
        match one_pass t ~trace:false with Some x -> stream := x :: !stream | None -> ())
  in
  (* sp's calls differ in size by orders of magnitude, so one window *)
  let metrics = common ~setup_s ~windows:1 t @ [ m "quality" "ratio" (median !stream) ] in
  if not ctx.trace then { attempted = t.attempted; failed = t.failed; problems = t.problems; metrics }
  else begin
    let tt = tally () in
    Tr.on := true;
    ignore (one_pass tt ~trace:true);
    (* the engine census: every exact engine alone on each first instance,
       under its own short limit; over-limit runs count at the limit *)
    let census = tally () in
    List.iter
      (fun ((i : Inst.sp), _) ->
        if first i then
        List.iter
          (fun e ->
            let name = Semimatch.Exact_unit.exact_engine_name e in
            Tr.new_op ();
            let r =
              run_op census ~workload:w ~instance:i.s_name ~path:("engine:" ^ name) ~n:i.s_n
                ~p:i.s_p ~size:i.s_edges ~size_unit:"edges" ~limit_s:engine_limit_s ~trace:true
                ~check:(fun j ->
                  if Child.num j "makespan" = float_of_int i.s_opt then Ok ()
                  else Error "engine makespan differs from the optimum")
                "engine" [ "--engine"; name ] i.s_hg out
            in
            match r with
            | Some j -> Tr.count ("exact." ^ name ^ ".deadlines") (Child.num j "deadlines")
            | None ->
                Tr.count ("exact." ^ name ^ ".limit_s") engine_limit_s;
                Tr.count "exact.limit_hits" 1.0)
          Semimatch.Exact_unit.all_exact_engines)
      parsed;
    Tr.on := false;
    {
      attempted = t.attempted + tt.attempted;
      failed = t.failed + tt.failed;
      problems = t.problems @ tt.problems @ census.problems;
      metrics = Layers.overhead ~untraced:(sum t.times /. float_of_int n_passes) ~traced:(sum tt.times);
    }
  end

(* ---- serve-mixed ---- *)

type daemon = { pid : int; fd : Unix.file_descr }

let load_line i text =
  Mix.line ~id:(-1) [ ("op", J.Str "load"); ("session", J.Str (Mix.session i)); ("instance", J.Str text) ]

let start_daemon ctx d ~preload =
  let socket = Filename.concat d "serve.sock" in
  let pid =
    Child.daemon ~cli:ctx.cli ~socket ~persist:(Filename.concat d "persist")
      ~log:(Filename.concat d "serve.log")
  in
  let fd = Child.connect ~socket ~timeout_s:20.0 in
  List.iteri
    (fun i text ->
      if J.member "ok" (Child.request fd (load_line i text)) <> Some (J.Bool true) then
        failwith "preload rejected")
    preload;
  { pid; fd }

let stop_daemon dm =
  (try ignore (Child.request dm.fd (Mix.line ~id:(-2) [ ("op", J.Str "shutdown") ])) with _ -> ());
  Unix.close dm.fd;
  ignore (Child.reap dm.pid)

let serve ctx =
  let tasks = if ctx.tiny then 100 else preload_tasks and procs = if ctx.tiny then 16 else preload_procs in
  let preload = List.init Mix.sessions (Mix.preload_text ~seed:ctx.seed ~tasks ~procs) in
  let dm, setup_s = setup ctx ~keep:stop_daemon (fun d -> start_daemon ctx d ~preload) in
  let mix = Mix.create ~seed:ctx.seed ~tasks ~procs in
  let rng = Randkit.Prng.create ~seed:(ctx.seed + 1) in
  let next_id = ref 0 in
  let phase rate secs = Openloop.run ~fd:dm.fd ~rate ~duration_s:secs ~drain_s:10.0 ~rng ~next_id mix in
  let s = ctx.seconds in
  (* traced: an extra untraced low phase first, the baseline of the
     tracing overhead *)
  let base = if ctx.trace then Some (phase low_rps (0.25 *. s)) else None in
  let low = phase low_rps (0.25 *. s) in
  (* the high rate runs in five windows and the saturation in three, and
     the metrics are the medians over the windows: a slow spell of the
     machine then moves one window, not the result *)
  let highs = List.init 5 (fun _ -> phase high_rps (0.09 *. s)) in
  let sats =
    List.init 3 (fun _ -> Openloop.saturate ~fd:dm.fd ~window:4 ~duration_s:(0.08 *. s) ~next_id mix)
  in
  let high = Openloop.merge highs in
  let phases = Option.to_list base @ (low :: highs) in
  let all = phases @ List.map fst sats in
  (* checks: reply ids, generator lateness, the sessions' final size *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (st : Openloop.state) ->
      if st.unknown > 0 then problem "%d replies matched no request" st.unknown)
    all;
  List.iter
    (fun (name, (st : Openloop.state)) ->
      let late = Openloop.quantile (Openloop.lateness st) 0.5
      and lat = Openloop.quantile (Openloop.latencies st) 0.5 in
      if late > 0.25 *. lat then
        problem "%s: generator lateness p50 %.3f ms against latency p50 %.3f ms" name late lat)
    [ ("low", low); ("high", high) ];
  let final =
    List.fold_left ( + ) 0
      (List.init Mix.sessions (fun i ->
           let snap =
             Child.request dm.fd
               (Mix.line ~id:(-3) [ ("op", J.Str "snapshot"); ("session", J.Str (Mix.session i)) ])
           in
           match Option.bind (J.member "state" snap) (J.member "tids") with
           | Some (J.List l) -> List.length l
           | _ -> -1))
  in
  let adds = List.fold_left (fun a (st : Openloop.state) -> a + st.adds_ok) 0 all
  and removes = List.fold_left (fun a (st : Openloop.state) -> a + st.removes_ok) 0 all in
  let preloaded = Mix.sessions * tasks in
  if final <> preloaded + adds - removes then
    problem "sessions hold %d tasks, expected %d + %d - %d" final preloaded adds removes;
  let rss = Child.rss_mb (string_of_int dm.pid) in
  stop_daemon dm;
  let attempted = List.fold_left (fun a (st : Openloop.state) -> a + List.length st.all) 0 all in
  let failed = List.fold_left (fun a st -> a + Openloop.failed st) 0 all in
  let windows q = median (List.map (fun st -> Openloop.quantile (Openloop.latencies st) q) highs) in
  let metrics =
    [
      m "setup_s" "s" setup_s;
      m "ok_share" "ratio" (float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
      m "peak_rss_mb" "MB" rss;
      m "p50_ms" "ms" (windows 0.5);
      m "p90_ms" "ms" (windows 0.9);
      m "rate_per_s" "1/s" (median (List.map snd sats));
      m "quality" "ratio" (geomean (List.concat_map (fun (st : Openloop.state) -> st.ratios) phases));
    ]
  in
  List.iter
    (fun (name, rate, st) ->
      let l = Openloop.latencies st and late = Openloop.lateness st in
      Printf.eprintf
        "serve-mixed %s (%g req/s, %d requests): p50 %.2f ms, p99 %.2f ms; lateness p50 %.3f ms, \
         p99 %.3f ms\n"
        name rate (List.length l) (Openloop.quantile l 0.5) (Openloop.quantile l 0.99)
        (Openloop.quantile late 0.5) (Openloop.quantile late 0.99))
    [ ("low", low_rps, low); ("high", high_rps, high) ];
  let each f l = String.concat " " (List.map (fun x -> Printf.sprintf "%.2f" (f x)) l) in
  Printf.eprintf "serve-mixed windows: p50 %s ms; p90 %s ms; saturation %s req/s\n%!"
    (each (fun st -> Openloop.quantile (Openloop.latencies st) 0.5) highs)
    (each (fun st -> Openloop.quantile (Openloop.latencies st) 0.9) highs)
    (each snd sats);
  match base with
  | None -> { attempted; failed; problems = !problems; metrics }
  | Some base ->
      let p50 st = Openloop.quantile (Openloop.latencies st) 0.5 in
      Hashtbl.replace Tr.counts "obs.trace_overhead_share" ((p50 low -. p50 base) /. p50 base);
      Tr.on := true;
      let service = Serve_layers.replay ~dir:ctx.dir ~seed:ctx.seed ~tasks ~procs ~preload in
      let service_ms op = Option.value ~default:0.0 (List.assoc_opt op service) in
      (* each request becomes a root span from its due time to its reply;
         what its engine service time does not cover is waiting: in the
         daemon's queue, in the socket, or for the load generator *)
      List.iter
        (fun (rate, (st : Openloop.state)) ->
          let waits =
            List.filter_map
              (fun (r : Openloop.req) ->
                if not (Float.is_finite r.lat_ms) then None
                else begin
                  Tr.new_op ();
                  Tr.recorded :=
                    {
                      Tr.sid = Tr.fresh_sid ();
                      parent = 0;
                      op = !Tr.cur_op;
                      name = "serve." ^ r.op;
                      t0 = r.due;
                      t1 = Int64.add r.due (Int64.of_float (r.lat_ms *. 1e6));
                    }
                    :: !Tr.recorded;
                  Some (r.lat_ms -. service_ms r.op)
                end)
              st.all
          in
          Tr.count "obs.unattributed_s" (sum waits /. 1000.0);
          Tr.count ("server.queue_wait_ms." ^ rate) (sum waits /. float_of_int (max 1 (List.length waits))))
        [ ("low", low); ("high", high) ];
      let ping = Openloop.quantile (Openloop.latencies ~op:"ping" low) 0.5 in
      Tr.count "server.transport_us" (1000.0 *. (ping -. service_ms "ping"));
      Tr.on := false;
      {
        attempted;
        failed;
        problems = !problems;
        metrics = List.map (fun (m_name, m_value, m_unit) -> { m_name; m_value; m_unit }) (Layers.all ());
      }
