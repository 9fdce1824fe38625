(* Benchmark-side span recorder.

   Spans are recorded around every call the benchmark makes into a
   bistpath layer. Each span has a name ("<layer>.<call>"), start and end
   on the monotonic clock the program's own telemetry uses, the index of
   its parent span and the id of the workload item it belongs to. Spans
   live in memory and are written out once, when the run ends; run.py
   derives each layer's busy and self time from the file.

   Recording is off unless [enable] was called, so untimed and untraced
   runs pay one branch per call site. *)

type t = {
  name : string;
  item : int;
  parent : int;  (** index into the recording, -1 for a root span *)
  start_ns : int64;
  mutable stop_ns : int64;  (** -1 while open *)
}

let on = ref false
let recorded : t array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []

let now = Bistpath_telemetry.Telemetry.now
let enable b = on := b

let push s =
  let id = !count in
  if id >= Array.length !recorded then begin
    let grown = Array.make (max 1024 (2 * id)) s in
    Array.blit !recorded 0 grown 0 id;
    recorded := grown
  end;
  !recorded.(id) <- s;
  incr count;
  id

let top () = match !stack with id :: _ -> id | [] -> -1

let with_span ~item name f =
  if not !on then f ()
  else begin
    let s = { name; item; parent = top (); start_ns = now (); stop_ns = -1L } in
    let id = push s in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now ();
        stack := List.tl !stack)
      f
  end

(* Add an already-measured interval (a span the program recorded itself
   and exposed through Telemetry.collect) under the innermost benchmark
   span of the same item that contains it in time: the latest-opened
   one, since spans are recorded in opening order. *)
let import ~item name ~start_ns ~dur_ns =
  if !on then begin
    let stop_ns = Int64.add start_ns dur_ns in
    let rec find id =
      if id < 0 then -1
      else
        let s = !recorded.(id) in
        if s.item <> item then -1
        else if s.start_ns <= start_ns && (s.stop_ns = -1L || s.stop_ns >= stop_ns)
        then id
        else find (id - 1)
    in
    ignore (push { name; item; parent = find (!count - 1); start_ns; stop_ns })
  end

let spans () = Array.to_list (Array.sub !recorded 0 !count)

let to_json () =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"spans\":[";
  List.iteri
    (fun i (s : t) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"name\":\"%s\",\"item\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}"
           i s.name s.item s.parent s.start_ns s.stop_ns))
    (spans ());
  Buffer.add_string b "]}\n";
  Buffer.contents b
