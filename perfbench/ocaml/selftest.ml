(* The benchmark's own tests: the answer checker must reject wrong
   answers, and the open-loop load generator must count busy replies as failures
   that miss any latency limit.  Exits 1 on the first failure. *)

let failures = ref 0

let expect name cond =
  if cond then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let is_error = function Error _ -> true | Ok _ -> false

(* 3 tasks, 2 processors: task 0 {P0} w2 or {P0,P1} w1; task 1 {P1} w1;
   task 2 {P0} w1 or {P1} w3. *)
let text = "hypergraph 3 2\nh 0 2 0\nh 0 1 0 1\nh 1 1 1\nh 2 1 0\nh 2 3 1\n"

let checker () =
  let i = Check.parse text in
  expect "checker accepts a correct schedule"
    (Check.schedule i ~choice:[| 1; 0; 0 |] ~reported:2.0 = Ok 2.0);
  expect "checker rejects a configuration the task does not have"
    (is_error (Check.schedule i ~choice:[| 2; 0; 0 |] ~reported:2.0));
  expect "checker rejects a corrupted assignment"
    (is_error (Check.schedule i ~choice:[| 1; 0; 1 |] ~reported:2.0));
  expect "checker rejects a misreported makespan"
    (is_error (Check.schedule i ~choice:[| 1; 0; 0 |] ~reported:1.5));
  expect "checker rejects a short assignment"
    (is_error (Check.schedule i ~choice:[| 1; 0 |] ~reported:2.0));
  let rows f = f 0 [| 0; 1 |]; f 1 [| 1 |]; f 2 [| 0 |] in
  expect "stream checker accepts a correct schedule"
    (Check.stream_schedule ~n1:3 ~n2:2 ~rows ~procs:[| 0; 1; 0 |] ~reported:2.0 = Ok 2.0);
  expect "stream checker rejects a non-neighbour"
    (is_error (Check.stream_schedule ~n1:3 ~n2:2 ~rows ~procs:[| 1; 0; 0 |] ~reported:2.0));
  expect "stream checker rejects a misreported makespan"
    (is_error (Check.stream_schedule ~n1:3 ~n2:2 ~rows ~procs:[| 1; 1; 0 |] ~reported:1.0))

(* A fake daemon in a child process answers every third request busy. *)
let load_generator () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      Unix.close a;
      let ic = Unix.in_channel_of_descr b and oc = Unix.out_channel_of_descr b in
      (try
         while true do
           let line = input_line ic in
           let id =
             Option.get (Option.bind (Obs.Json.member "id" (Obs.Json.of_string line)) Obs.Json.to_float)
           in
           if int_of_float id mod 3 = 0 then
             Printf.fprintf oc "{\"id\":%.0f,\"ok\":false,\"error\":\"busy\"}\n%!" id
           else Printf.fprintf oc "{\"id\":%.0f,\"ok\":true,\"op\":\"ping\"}\n%!" id
         done
       with End_of_file -> ());
      Unix._exit 0
  | pid ->
      Unix.close b;
      let mix = Mix.create ~seed:1 ~tasks:10 ~procs:4 in
      let st =
        Openloop.run ~fd:a ~rate:300.0 ~duration_s:0.3 ~drain_s:2.0
          ~rng:(Randkit.Prng.create ~seed:2) ~next_id:(ref 0) mix
      in
      Unix.close a;
      ignore (Unix.waitpid [] pid);
      let n = List.length st.Openloop.all in
      let busy = List.length (List.filter (fun r -> r.Openloop.id mod 3 = 0) st.all) in
      expect "load generator sent requests" (n > 10);
      expect "load generator counts every busy reply" (st.busy = busy);
      expect "load generator counts busy replies as failures" (Openloop.failed st = busy);
      expect "a busy reply misses any latency limit"
        (Openloop.quantile (Openloop.latencies st) 0.99 = infinity);
      let st2 = Openloop.create () in
      Openloop.account st2 ~now:0L "{\"id\":7,\"ok\":true}";
      expect "load generator flags a reply matching no request" (st2.unknown = 1)

let main () =
  checker ();
  load_generator ();
  if !failures > 0 then exit 1
