(* Bench-side spans: the benchmark times its own calls into each layer's
   public functions and keeps the spans in memory; they are written out
   once, when the run ends. A disabled recorder runs the wrapped call and
   records nothing. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  req : int;  (** request id shared by every span of one request *)
  start : float;  (** monotonic seconds *)
  stop : float;
}

type t = { enabled : bool; mutable next_id : int; mutable spans : span list }

let create ~enabled = { enabled; next_id = 0; spans = [] }
let now = Sun_util.Stopwatch.monotonic_now

let record t ?parent ~req name ~start ~stop =
  if not t.enabled then -1
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.spans <- { id; parent; name; req; start; stop } :: t.spans;
    id
  end

(* [span t ?parent ~req name f] runs [f id], where [id] names the span for
   children opened inside [f], and records the span even if [f] raises. *)
let span t ?parent ~req name f =
  if not t.enabled then f (-1)
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let start = now () in
    Fun.protect
      ~finally:(fun () -> t.spans <- { id; parent; name; req; start; stop = now () } :: t.spans)
      (fun () -> f id)
  end

let spans t = List.rev t.spans

(* Per span name: count, summed duration and summed self time (duration
   minus the part covered by the span's children). *)
let summary t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
        let siblings = Option.value ~default:[] (Hashtbl.find_opt children p) in
        Hashtbl.replace children p ((s.start, s.stop) :: siblings)
      | None -> ())
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self = Stats.self_time ~start:s.start ~stop:s.stop kids in
      let n, total, self_total =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, total +. (s.stop -. s.start), self_total +. self))
    t.spans;
  List.sort compare (Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name [])

let to_json t =
  let module J = Sun_serve.Json in
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity t.spans in
  let rel x = (x -. origin) *. 1e6 in
  J.Obj
    [
      ( "summary",
        J.List
          (List.map
             (fun (name, (n, total, self)) ->
               J.Obj
                 [
                   ("name", J.String name);
                   ("count", J.Int n);
                   ("total_s", J.Float total);
                   ("self_s", J.Float self);
                 ])
             (summary t)) );
      ( "spans",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("id", J.Int s.id);
                   ("parent", match s.parent with Some p -> J.Int p | None -> J.Null);
                   ("name", J.String s.name);
                   ("req", J.Int s.req);
                   ("start_us", J.Float (rel s.start));
                   ("end_us", J.Float (rel s.stop));
                 ])
             (spans t)) );
    ]

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc (Sun_serve.Json.to_string (to_json t));
  output_char oc '\n'
