(* Benchmark-side tracing.  Spans are recorded by the benchmark around its
   own calls into each layer's public functions (never inside the
   program), kept in memory, and written out when the run ends.  Each span
   has a name, start, end, parent span and the id of the op it belongs to;
   a layer's self time is its span's duration minus the time its child
   spans cover.  Disabled (the untraced end-to-end runs), [span] is a plain
   call. *)

type span = {
  sid : int;
  parent : int;  (** 0 for a root span *)
  op : int;
  name : string;
  t0 : int64;
  t1 : int64;
}

let on = ref false
let recorded : span list ref = ref []
let stack : (int * string * int64) list ref = ref []
let next_sid = ref 0
let cur_op = ref 0
let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let now = Obs.Span.now_ns

(* [f ()] and its wall seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (now ()) t0) /. 1e9)

let fresh_sid () =
  incr next_sid;
  !next_sid

let top () = match !stack with (sid, _, _) :: _ -> sid | [] -> 0

let span name f =
  if not !on then f ()
  else begin
    let sid = fresh_sid () in
    let parent = top () in
    let t0 = now () in
    stack := (sid, name, t0) :: !stack;
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        recorded := { sid; parent; op = !cur_op; name; t0; t1 = now () } :: !recorded)
      f
  end

(* A new op: spans opened from here on carry a fresh op id. *)
let new_op () = incr cur_op

let count name v =
  if !on then
    Hashtbl.replace counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

(* Spans recorded by a child process, re-based under the currently open
   span of this process and the current op. *)
let adopt (child : span list) =
  let base = !next_sid in
  let under = top () in
  List.iter
    (fun s ->
      next_sid := max !next_sid (base + s.sid);
      recorded :=
        {
          s with
          sid = base + s.sid;
          parent = (if s.parent = 0 then under else base + s.parent);
          op = !cur_op;
        }
        :: !recorded)
    child

let to_json s =
  Obs.Json.List
    [
      Obs.Json.Num (float_of_int s.sid);
      Obs.Json.Num (float_of_int s.parent);
      Obs.Json.Str s.name;
      Obs.Json.Str (Int64.to_string s.t0);
      Obs.Json.Str (Int64.to_string s.t1);
    ]

let of_json j =
  match j with
  | Obs.Json.List [ Num sid; Num parent; Str name; Str t0; Str t1 ] ->
      {
        sid = int_of_float sid;
        parent = int_of_float parent;
        op = 0;
        name;
        t0 = Int64.of_string t0;
        t1 = Int64.of_string t1;
      }
  | _ -> failwith "bad span record"

let dur s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9

(* Self seconds and call count per span name. *)
let self_times () =
  let child_cover = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_cover s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_cover s.parent)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_cover s.sid) in
      let t, c = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (t +. self, c + 1))
    !recorded;
  by_name

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("sid", Num (float_of_int s.sid));
                ("parent", Num (float_of_int s.parent));
                ("op", Num (float_of_int s.op));
                ("name", Str s.name);
                ("start_ns", Str (Int64.to_string s.t0));
                ("end_ns", Str (Int64.to_string s.t1));
              ]));
      output_char oc '\n')
    (List.rev !recorded);
  close_out oc
