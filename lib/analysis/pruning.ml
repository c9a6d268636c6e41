module W = Sun_tensor.Workload
module Reuse = Sun_tensor.Reuse
module Trie = Sun_core.Order_trie
module D = Diagnostic

type report = {
  workload : string;
  orderings : int;
  dropped_dims_checked : int;
  diagnostics : Diagnostic.t list;
}

(* Semantic probe: does growing dim [d] change operand [op]'s tile
   footprint? Evaluated on the projection arithmetic itself (two
   [W.footprint] evaluations), so it cannot agree with a buggy dim-name
   table by construction. Probing at extent 2 vs 1 suffices: every axis
   extent is affine in each dim extent with non-negative coefficients, so
   it either never moves or moves already at 2. *)
let probe_changes_footprint (op : W.operand) d =
  W.footprint (fun d' -> if d' = d then 2 else 1) op <> W.footprint (fun _ -> 1) op

(* Independent innermost-first reuse scan of a suffix for one operand,
   driven by the probe (full reuse) and the affine structure (partial
   reuse), mirroring the cost model's refill absorption. *)
let scan_suffix (op : W.operand) suffix =
  let sliding = W.sliding_dims op in
  let rec go full = function
    | [] -> (List.sort String.compare full, false)
    | d :: rest ->
      if not (probe_changes_footprint op d) then go (d :: full) rest
      else if List.mem d sliding then (List.sort String.compare full, true)
      else (List.sort String.compare full, false)
  in
  go [] suffix

let signature_of_scans scans =
  List.concat_map
    (fun (name, (full, partial)) ->
      (if full <> [] then [ (name, Trie.Full) ] else [])
      @ if partial then [ (name, Trie.Partial) ] else [])
    scans
  |> List.sort compare

let check (w : W.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dims = W.dim_names w in
  let reuse = Reuse.analyze w in
  (* 1. the reuse table must agree with the footprint probe and partition
     the dims for every operand *)
  List.iter
    (fun (e : Reuse.entry) ->
      let op = e.Reuse.operand in
      List.iter
        (fun d ->
          let indexing = List.mem d e.Reuse.indexed_by in
          let reused = List.mem d e.Reuse.reused_by in
          let changes = probe_changes_footprint op d in
          if indexing && reused then
            add
              (D.error ~dim:d ~operand:op.W.name D.Pruning_unsound
                 (Printf.sprintf "dim %s is both an indexing and a reuse dim of %s" d op.W.name));
          if (not indexing) && not reused then
            add
              (D.error ~dim:d ~operand:op.W.name D.Pruning_unsound
                 (Printf.sprintf "dim %s is in neither class for %s" d op.W.name));
          if reused && changes then
            add
              (D.error ~dim:d ~operand:op.W.name D.Pruning_unsound
                 (Printf.sprintf
                    "dim %s is classed as a reuse dim of %s but growing it changes the footprint"
                    d op.W.name));
          if indexing && not changes then
            add
              (D.warning ~dim:d ~operand:op.W.name D.Pruning_unsound
                 (Printf.sprintf
                    "dim %s is classed as an indexing dim of %s but does not change its footprint"
                    d op.W.name)))
        dims)
    reuse;
  (* 2 + 3. every trie candidate: independent signature, and the dims it
     will drop are genuinely non-reuse for the reused operand *)
  let candidates = Trie.candidates w in
  let dropped_checked = ref 0 in
  let sorted_dims = List.sort String.compare dims in
  List.iter
    (fun (c : Trie.candidate) ->
      if List.sort String.compare c.Trie.order <> sorted_dims then
        add
          (D.error D.Pruning_unsound
             (Printf.sprintf "trie order [%s] is not a permutation of the workload dims"
                (String.concat ", " c.Trie.order)));
      let scans =
        List.filter_map
          (fun (op : W.operand) ->
            let full, partial = scan_suffix op c.Trie.suffix in
            if full = [] && not partial then None else Some (op.W.name, (full, partial)))
          w.W.operands
      in
      let expected = signature_of_scans scans in
      if expected <> c.Trie.signature then
        add
          (D.error D.Pruning_unsound
             (Printf.sprintf "suffix [%s]: trie signature disagrees with independent reuse scan"
                (String.concat ", " c.Trie.suffix)));
      let expected_reused =
        List.sort String.compare
          (List.filter_map (fun (n, (full, _)) -> if full <> [] then Some n else None) scans)
      in
      if expected_reused <> List.sort String.compare c.Trie.reused_operands then
        add
          (D.error D.Pruning_unsound
             (Printf.sprintf "suffix [%s]: reused-operand set disagrees with independent scan"
                (String.concat ", " c.Trie.suffix)));
      (* the Tiling / Unrolling Principles drop every dim outside the grow
         set of the reused operand; each must be footprint-invariant *)
      List.iter
        (fun op_name ->
          match W.find_operand w op_name with
          | exception Not_found ->
            add
              (D.error ~operand:op_name D.Pruning_unsound
                 (Printf.sprintf "trie names unknown operand %s" op_name))
          | op ->
            let grow = W.indexing_dims op in
            List.iter
              (fun d ->
                if not (List.mem d grow) then begin
                  incr dropped_checked;
                  if probe_changes_footprint op d then
                    add
                      (D.error ~dim:d ~operand:op_name D.Pruning_unsound
                         (Printf.sprintf
                            "dim %s is dropped at levels reusing %s but growing it changes the \
                             reused footprint"
                            d op_name))
                end)
              dims)
        c.Trie.reused_operands)
    candidates;
  {
    workload = w.W.name;
    orderings = List.length candidates;
    dropped_dims_checked = !dropped_checked;
    diagnostics = List.rev !diags;
  }

let check_many named =
  List.map
    (fun (name, w) ->
      let r = check w in
      { r with workload = name })
    named
