(* Process facts read from procfs: peak resident set size and the children
   of a process (the daemon's pool worker). *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go acc =
      match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
    in
    go []

(* VmHWM of [pid] in MiB ([None] once the process is gone). *)
let peak_rss_mb pid =
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] ->
        Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> None)
    (read_lines (Printf.sprintf "/proc/%d/status" pid))

let self_peak_rss_mb () = Option.value ~default:0. (peak_rss_mb (Unix.getpid ()))

let children pid =
  match read_lines (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | l :: _ -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim l))
  | [] -> []
