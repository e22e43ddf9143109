(* In-memory spans recorded around the benchmark's calls into each layer.

   A span has a name, a start and an end on the monotonic clock, the span
   that caused it ([parent], [-1] for a request's root) and the request
   it belongs to. Spans may be recorded from several threads and domains
   (the serve workload), so the buffer sits behind a mutex; nothing here
   runs on the untraced path. *)

type span = {
  id : int;
  parent : int;
  req : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  attrs : (string * int) list;
}

type t = { mutex : Mutex.t; next : int Atomic.t; mutable spans : span list }

let now () = Monotonic_clock.now ()
let create () = { mutex = Mutex.create (); next = Atomic.make 0; spans = [] }
let fresh_id t = Atomic.fetch_and_add t.next 1

let record t ~id ~parent ~req ~name ?(attrs = []) ~start ~stop () =
  let s = { id; parent; req; name; start_ns = start; stop_ns = stop; attrs } in
  Mutex.lock t.mutex;
  t.spans <- s :: t.spans;
  Mutex.unlock t.mutex

(* Run [f id] inside a span named [name]; the span is recorded even when
   [f] raises. *)
let with_span t ~parent ~req name f =
  let id = fresh_id t in
  let start = now () in
  Fun.protect
    ~finally:(fun () -> record t ~id ~parent ~req ~name ~start ~stop:(now ()) ())
    (fun () -> f id)

let clear t =
  Mutex.lock t.mutex;
  t.spans <- [];
  Mutex.unlock t.mutex

let spans t =
  Mutex.lock t.mutex;
  let s = List.rev t.spans in
  Mutex.unlock t.mutex;
  s

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare b a > 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when Int64.compare a cb <= 0 -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with
  | None -> total
  | Some (a, b) -> Int64.add total (Int64.sub b a)

(* Self time of every span: its duration minus the part of its interval
   that its children cover. Children running in parallel are counted
   once, by the union of their intervals. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      Hashtbl.replace self s.id
        (Int64.sub (duration_ns s) (covered ~lo:s.start_ns ~hi:s.stop_ns kids)))
    spans;
  self

let to_json spans =
  let b = Buffer.create 65536 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld"
        s.id s.parent s.req s.name s.start_ns s.stop_ns;
      List.iter (fun (k, v) -> Printf.bprintf b ",%S:%d" k v) s.attrs;
      Buffer.add_string b "}")
    spans;
  Buffer.add_string b "]\n";
  Buffer.contents b
