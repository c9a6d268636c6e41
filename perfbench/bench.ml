(* perfbench: one run of one workload.

     bench.exe --workload dnn-simba|tensor-simba|serve-mix --seed N
               --seconds S --trace 0|1

   Prints a human-readable table, then as its last line one JSON object
   with the keys correct, attempted, failed and metrics: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
   when the oracle or the determinism check found a failure. Sockets and
   trace files go to .perfbench-out/ in the working directory. *)

let out_dir = ".perfbench-out"

let usage () =
  prerr_endline
    "usage: bench.exe --workload dnn-simba|tensor-simba|serve-mix --seed N --seconds S --trace 0|1";
  exit 2

let () =
  Perfbench.Serve_wl.daemon_entry ();
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0. ->
    (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (* Set-up repetitions behind the median [setup_s]: a search workload's
       set-up is a whole warm-up pass, the daemon's a fraction of a second. *)
    let search names =
      Perfbench.Search_wl.run ~names ~label:!workload ~seed ~seconds ~trace ~setups:3 ~out_dir
    in
    let report =
      match !workload with
      | "dnn-simba" -> search Perfbench.Search_wl.dnn_layer_names
      | "tensor-simba" -> search (fun () -> Perfbench.Search_wl.tensor_layer_names)
      | "serve-mix" ->
        Perfbench.Serve_wl.run ~label:!workload ~seed ~seconds ~trace ~setups:5 ~out_dir ()
      | _ -> usage ()
    in
    Perfbench.Report.print report;
    exit (if report.Perfbench.Report.failed = 0 then 0 else 1)
  | _ -> usage ()
