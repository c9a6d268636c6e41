(* Run results: the failure log, the human-readable table and the one JSON
   line the benchmark ends its standard output with. *)

module J = Sun_serve.Json

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* Violations found by the oracle or the determinism check. Each one makes
   the run fail; the first few are printed to stderr. *)
type failures = { mutable count : int; mutable messages : string list }

let failures () = { count = 0; messages = [] }

let fail f fmt =
  Printf.ksprintf
    (fun msg ->
      f.count <- f.count + 1;
      if f.count <= 20 then f.messages <- msg :: f.messages)
    fmt

let print_failures f =
  List.iter (fun m -> Printf.eprintf "perfbench: FAIL %s\n" m) (List.rev f.messages);
  if f.count > 20 then Printf.eprintf "perfbench: ... and %d more failures\n" (f.count - 20)

type t = {
  workload : string;
  attempted : int;
  failed : int;
  notes : string list;  (** extra human-readable lines *)
  metrics : metric list;
}

let json_line r =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (r.failed = 0));
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  (* a failed run may hold a NaN, which JSON cannot spell *)
                  let value = if Float.is_finite m.value then J.Float m.value else J.Null in
                  (m.name, J.Obj [ ("value", value); ("unit", J.String m.unit) ]))
                r.metrics) );
       ])

let print r =
  Printf.printf "== perfbench %s: %d attempted, %d failed\n" r.workload r.attempted r.failed;
  List.iter (fun l -> Printf.printf "   %s\n" l) r.notes;
  List.iter (fun m -> Printf.printf "   %-28s %16.6g %s\n" m.name m.value m.unit) r.metrics;
  print_endline (json_line r);
  flush stdout
