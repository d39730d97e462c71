(* Workload inputs, generated from the seed.  The program under test only
   ever sees the files written here. *)

module G = Hyper.Generate

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* mp-portfolio: MULTIPROC instances of the paper's generator (Sec. V-A.2,
   dv = 5, dh = 10, n = 5p) at half its smallest size, n = 640 and p = 128,
   varying the family, the group count and the weight scheme.  Local
   search, which does most of the work, varies a lot from one instance to
   the next, so a run solves many of each: (name, family, g, weights,
   replicates).  The counts put the per-call median inside the HiLo
   instances and the 90th percentile inside the FewgManyg-32 ones. *)
type mp = { m_name : string; m_file : string; m_n : int; m_p : int; m_pins : int }

let mp_specs ~tiny =
  let k = if tiny then 1 else 45 in
  [
    ("MG-640-MP", G.Fewg_manyg, 128, Hyper.Weights.default_random, k);
    ("HLF-640-MP", G.Hilo, 32, Hyper.Weights.Related, 2 * k);
    ("FG-640-MP", G.Fewg_manyg, 32, Hyper.Weights.Related, k);
  ]

(* Interleaved (replicate-major), so every stretch of the run solves the
   same mix of families. *)
let make_mp ~dir ~seed ~tiny =
  let n = if tiny then 320 else 640 and p = if tiny then 64 else 128 in
  let specs = mp_specs ~tiny in
  let rounds = List.fold_left (fun a (_, _, _, _, reps) -> min a reps) max_int specs in
  List.concat_map
    (fun r ->
      List.concat
        (List.mapi
           (fun i (name, family, g, weights, reps) ->
             let per_round = reps / rounds in
             List.init per_round (fun j ->
                 let k = (r * per_round) + j in
                 let rng = Randkit.Prng.create ~seed:((seed * 1_000_003) + (100 * k) + i) in
                 let h = G.generate rng ~family ~n ~p ~dv:5 ~dh:10 ~g:(min g p) ~weights in
                 let name = Printf.sprintf "%s#%d" name k in
                 let file = Filename.concat dir (name ^ ".hg") in
                 write_file file (Hyper.Io.to_string h);
                 { m_name = name; m_file = file; m_n = n; m_p = p; m_pins = Hyper.Graph.num_pins h }))
           specs))
    (List.init rounds Fun.id)

(* sp-solve: SINGLEPROC-UNIT FewgManyg and HiLo (d = 5) at three sizes,
   each written as .hg text (the [exact] path) and as a sealed edge stream
   (the [Stream.Ingest] path), with its optimum computed once here by an
   engine and strategy neither timed path uses. *)
type sp = {
  s_name : string;
  s_hg : string;
  s_stream : string;
  s_n : int;
  s_p : int;
  s_edges : int;
  s_opt : int;
  s_exact : bool;  (** timed through the [exact] path *)
  s_ingest : bool;  (** timed through [Stream.Ingest.solve] *)
}

(* The instance set: (family, n, p, g, calls through the [exact] path,
   calls through the ingest path); replicate r runs through a path when r
   is below its count.  HiLo is deterministic, so it appears once per
   size.  The counts put the per-call median among the 2k ingest calls and
   the 90th percentile among the 20k ones.  HiLo at 20k through the
   ingest race (bs-dfs answers it: minutes) and HiLo at 100k through
   either path (the default incremental search: tens of seconds) run far
   beyond the per-solve limit on every seed, so they are left out of the
   timed set rather than counted as failures every run. *)
let sp_set ~tiny =
  if tiny then [ ("FG", 200, 20, 4, 1, 2); ("HL", 200, 20, 4, 1, 1); ("FG", 2_000, 200, 32, 1, 1) ]
  else
    [
      ("FG", 2_000, 200, 32, 10, 45);
      ("HL", 2_000, 200, 32, 1, 1);
      ("FG", 20_000, 2_000, 32, 8, 8);
      ("HL", 20_000, 2_000, 32, 1, 0);
      ("FG", 100_000, 10_000, 128, 1, 1);
    ]

let size_tag n = if n >= 1000 then Printf.sprintf "%dk" (n / 1000) else string_of_int n

let make_sp ~dir ~seed ~tiny =
  List.concat_map
    (fun (fam, n, p, g, exact_calls, ingest_calls) ->
      List.init (max exact_calls ingest_calls) (fun r ->
          let s_exact = r < exact_calls and s_ingest = r < ingest_calls in
          let bg =
            if fam = "FG" then
              Bipartite.Fewg_manyg.generate
                (Randkit.Prng.create ~seed:((seed * 7_919) + (31 * n) + r))
                ~n1:n ~n2:p ~g ~d:5
            else Bipartite.Hilo.generate ~n1:n ~n2:p ~g ~d:5
          in
          let name = Printf.sprintf "%s-%s#%d" fam (size_tag n) r in
          let h = Hyper.Graph.of_bipartite bg in
          let hg = Filename.concat dir (name ^ ".hg")
          and stream = Filename.concat dir (name ^ ".sms") in
          write_file hg (Hyper.Io.to_string h);
          if s_ingest then Hyper.Stream_io.save stream h;
          let opt =
            (Semimatch.Exact_unit.solve_with ~strategy:Semimatch.Exact_unit.Bisection
               ~exact:(Semimatch.Exact_unit.Binary_search Matching.Push_relabel) bg)
              .Semimatch.Exact_unit.makespan
          in
          {
            s_name = name;
            s_hg = hg;
            s_stream = stream;
            s_n = n;
            s_p = p;
            s_edges = Bipartite.Graph.num_edges bg;
            s_opt = opt;
            s_exact;
            s_ingest;
          }))
    (sp_set ~tiny)

(* The large stream: FewgManyg rows written straight from the streaming
   generator, never materialized.  Its CSR estimate is above the ingest
   threshold, so [Stream.Ingest.solve] keeps it on the streamed tier. *)
type big = { b_file : string; b_n : int; b_p : int; b_g : int; b_seed : int; b_edges : int }

(* 6·10^5 tasks and ~3·10^6 edges: a CSR estimate of ~9.6M words, above
   the 8M-word default threshold. *)
let big_size ~tiny = if tiny then (20_000, 2_000, 32) else (600_000, 60_000, 128)

let big_rows b f =
  Bipartite.Fewg_manyg.iter_rows (Randkit.Prng.create ~seed:b.b_seed) ~n1:b.b_n ~n2:b.b_p ~g:b.b_g
    ~d:5 f

let make_big ~dir ~seed ~tiny =
  let n, p, g = big_size ~tiny in
  let b =
    { b_file = Filename.concat dir "big.sms"; b_n = n; b_p = p; b_g = g; b_seed = (seed * 13) + 5; b_edges = 0 }
  in
  let w = Hyper.Stream_io.create_writer ~path:b.b_file ~n1:n ~n2:p () in
  let edges =
    Tr.span "hyper.stream.write" (fun () ->
        let e =
          G.stream_sp (Randkit.Prng.create ~seed:b.b_seed) ~family:G.Fewg_manyg ~n ~p ~g ~d:5
            ~emit:(fun ~task ~proc -> Hyper.Stream_io.add w ~task ~procs:[| proc |] ~weight:1.0)
        in
        Hyper.Stream_io.close_writer w;
        e)
  in
  { b with b_edges = edges }
