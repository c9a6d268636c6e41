(* The seeded serve-mix request stream. The daemon sees only the JSONL
   lines built here; the same seed always yields the same bytes.

   Request classes (each exists for a reason stated in BENCHMARK.json):
   - search on a registry layer or small named kernel, on [toy] or
     [conventional], so one search takes milliseconds;
   - search on an inline conv2d/matmul whose bounds come from small sets,
     so cache misses have shape-family mates that Transfer can seed;
   - a repeat of a recent search (about two requests in three), which the
     cache answers;
   - evaluation of a mapping an earlier search returned, which costs it
     with the Model and no search;
   - an inline architecture that is deliberately ill-formed, which the
     well-formedness gate must reject with diagnostics.
   Half of the requests carry a [deadline_ms] far beyond any run, so the
   daemon's EDF queue orders mixed work without ever expiring it. *)

module J = Sun_serve.Json
module Codec = Sun_serve.Codec
module Opt = Sun_core.Optimizer

type item = {
  label : string;  (** human name, e.g. ["resnet18/conv1@toy"] *)
  workload : J.t;  (** registry name or inline workload document *)
  arch_name : string;
  w : Sun_tensor.Workload.t;
  a : Sun_arch.Arch.t;
}

type kind =
  | Search of int  (** index into [universe] *)
  | Evaluate of int  (** index into the evaluation targets *)
  | Ill_formed of int  (** index into the ill-formed variants *)

type request = {
  index : int;
  cycle : int;  (** how many times the new searches have cycled through the universe *)
  kind : kind;
  line : string;  (** no newline *)
}

type target = {
  item : int;  (** universe index of the search whose answer is evaluated *)
  mapping_json : J.t;
  cost : Sun_cost.Model.cost;  (** what that search reported for it *)
}

let archs = [ "toy"; "conventional" ]

(* Named kernels, minus [tcl]: every arch's daemon rejects tcl's searched
   mapping in the audit recheck (SA031), so it cannot be part of a stream
   on which no request may fail. *)
let named_kernels = [ "conv1d"; "conv2d"; "matmul"; "mttkrp"; "sddmm"; "ttmc"; "mmc" ]

(* Kernels with no shape-family mate anywhere in the stream: the daemon
   never seeds their searches, so its answer equals an unseeded in-process
   search and can be precomputed as an evaluation target. *)
let target_kernels = [ "conv1d"; "mttkrp"; "sddmm"; "ttmc"; "mmc" ]

let find_arch name =
  match Sun_serve.Registry.find_arch name with Ok a -> a | Error e -> failwith e

let find_workload name =
  match Sun_serve.Registry.find_workload name with Ok w -> w | Error e -> failwith e

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let registry_layers () =
  List.filter
    (fun n -> has_prefix "resnet18/" n || has_prefix "inception/" n)
    (List.map fst (Sun_serve.Registry.workloads ()))

let registry_item name arch_name =
  {
    label = name ^ "@" ^ arch_name;
    workload = J.String name;
    arch_name;
    w = find_workload name;
    a = find_arch arch_name;
  }

let inline_item w arch_name =
  {
    label = w.Sun_tensor.Workload.name ^ "@" ^ arch_name;
    workload = Codec.encode_workload w;
    arch_name;
    w;
    a = find_arch arch_name;
  }

let inline_workloads () =
  let sizes = [ 8; 16; 32; 64 ] and spatial = [ 7; 14; 28 ] and filters = [ 1; 3 ] in
  let convs =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun c ->
            List.concat_map
              (fun p ->
                List.map
                  (fun r ->
                    Sun_tensor.Catalog.conv2d
                      ~name:(Printf.sprintf "conv2d_k%dc%dp%dr%d" k c p r)
                      ~n:1 ~k ~c ~p ~q:p ~r ~s:r ())
                  filters)
              spatial)
          sizes)
      sizes
  in
  let dims = [ 16; 32; 64; 128; 256 ] in
  let matmuls =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun n ->
            List.map
              (fun k ->
                let name = Printf.sprintf "matmul_%dx%dx%d" m n k in
                Sun_tensor.Catalog.matmul ~name ~m ~n ~k ())
              dims)
          dims)
      dims
  in
  convs @ matmuls

(* The fixed set comes first in every stream (in a seeded order): these are
   the requests [edp_geomean] is taken over, so it compares the same
   searches whatever the seed. *)
let fixed_set ~tiny =
  if tiny then List.map (fun n -> registry_item n "toy") named_kernels
  else
    List.concat_map
      (fun arch -> List.map (fun n -> registry_item n arch) (named_kernels @ registry_layers ()))
      archs

let rest_set ~tiny =
  let on arch ws = List.map (fun w -> inline_item w arch) ws in
  if tiny then on "toy" (List.filteri (fun i _ -> i < 8) (inline_workloads ()))
  else List.concat_map (fun arch -> on arch (inline_workloads ())) archs

(* Ill-formed variants of the toy architecture, each tripping a different
   well-formedness rule; the daemon must answer each with an error that
   carries diagnostics. *)
let ill_formed_archs () =
  let module A = Sun_arch.Arch in
  let toy = find_arch "toy" in
  let map_level i f =
    { toy with A.levels = List.mapi (fun j l -> if j = i then f l else l) toy.A.levels }
  in
  let map_parts f (l : A.level) = { l with A.partitions = List.map f l.A.partitions } in
  [
    ( "unit-tile-overflow",
      map_level 0 (map_parts (fun p -> { p with A.capacity_words = 1 })) );
    ( "zero-bandwidth",
      map_level 1 (map_parts (fun p -> { p with A.bandwidth = 0.0 })) );
    ("interior-unbounded", map_level 1 (fun l -> { l with A.unbounded = true }));
  ]
  |> List.map (fun (name, a) -> Codec.encode_arch { a with A.arch_name = "ill-" ^ name })

type t = {
  rng : Rng.t;
  universe : item array;
  fixed : int;  (** universe indices [0, fixed) are the fixed set *)
  mutable order : int array;
      (** order of new searches: the fixed set first, then the rest; once
          exhausted, a fresh permutation of the whole universe, so a long
          run keeps its mix (the cache has long evicted a returning item) *)
  mutable next_new : int;
  mutable cycle : int;
  recent : int array;  (** ring of recently issued distinct searches *)
  mutable recent_len : int;
  mutable recent_pos : int;
  targets : target array;
  target_of_item : (int, int) Hashtbl.t;
  mutable issued_targets : int list;
  ill : J.t array;  (** the ill-formed architecture documents *)
  mutable index : int;
}

let p_ill = 0.02
let p_eval = 0.10
let p_repeat = 0.63
let recent_window = 64

let make_target universe item =
  let it = universe.(item) in
  match Opt.optimize it.w it.a with
  | Ok r ->
    { item; mapping_json = Codec.encode_mapping r.Opt.mapping; cost = r.Opt.cost }
  | Error e -> failwith (Printf.sprintf "evaluation target %s: %s" it.label e)

(* [~tiny:true] shrinks the universe to the toy architecture, the named
   kernels and eight inline workloads: a cycle of a few dozen requests, for
   smoke tests. *)
let create ?(tiny = false) ~seed () =
  let rng = Rng.create seed in
  let fixed = Array.of_list (fixed_set ~tiny) and rest = Array.of_list (rest_set ~tiny) in
  let universe = Array.append fixed rest in
  let nf = Array.length fixed in
  let order =
    Array.append
      (Rng.shuffle rng (Array.init nf Fun.id))
      (Rng.shuffle rng (Array.init (Array.length rest) (fun i -> nf + i)))
  in
  let target_items =
    List.filter_map
      (fun i ->
        let it = universe.(i) in
        if List.exists (fun k -> it.label = k ^ "@" ^ it.arch_name) target_kernels then Some i
        else None)
      (List.init nf Fun.id)
  in
  let targets = Array.of_list (List.map (make_target universe) target_items) in
  let target_of_item = Hashtbl.create 16 in
  Array.iteri (fun ti t -> Hashtbl.replace target_of_item t.item ti) targets;
  {
    rng;
    universe;
    fixed = nf;
    order;
    next_new = 0;
    cycle = 0;
    recent = Array.make recent_window 0;
    recent_len = 0;
    recent_pos = 0;
    targets;
    target_of_item;
    issued_targets = [];
    ill = Array.of_list (ill_formed_archs ());
    index = 0;
  }

let universe t = t.universe
let fixed_count t = t.fixed
let targets t = t.targets

let remember t item =
  t.recent.(t.recent_pos) <- item;
  t.recent_pos <- (t.recent_pos + 1) mod recent_window;
  t.recent_len <- min recent_window (t.recent_len + 1);
  match Hashtbl.find_opt t.target_of_item item with
  | Some ti when not (List.mem ti t.issued_targets) -> t.issued_targets <- ti :: t.issued_targets
  | _ -> ()

let choose t =
  let u = Rng.float t.rng in
  if u < p_ill then Ill_formed (Rng.int t.rng (Array.length t.ill))
  else if u < p_ill +. p_eval && t.issued_targets <> [] then
    Evaluate (List.nth t.issued_targets (Rng.int t.rng (List.length t.issued_targets)))
  else if u < p_ill +. p_eval +. p_repeat && t.recent_len > 0 then
    Search t.recent.(Rng.int t.rng t.recent_len)
  else begin
    if t.next_new >= Array.length t.order then begin
      t.order <- Rng.shuffle t.rng (Array.init (Array.length t.universe) Fun.id);
      t.next_new <- 0;
      t.cycle <- t.cycle + 1
    end;
    let item = t.order.(t.next_new) in
    t.next_new <- t.next_new + 1;
    remember t item;
    Search item
  end

let next t =
  let index = t.index in
  t.index <- index + 1;
  let kind = choose t in
  let cycle = t.cycle in
  let deadline =
    if Rng.float t.rng < 0.5 then [ ("deadline_ms", J.Int (60_000 + Rng.int t.rng 60_000)) ] else []
  in
  let head = [ ("v", J.Int 1); ("id", J.String (Printf.sprintf "q%d" index)) ] in
  let fields =
    match kind with
    | Search i ->
      let it = t.universe.(i) in
      [ ("workload", it.workload); ("arch", J.String it.arch_name) ]
    | Evaluate ti ->
      let tg = t.targets.(ti) in
      let it = t.universe.(tg.item) in
      [ ("workload", it.workload); ("arch", J.String it.arch_name); ("mapping", tg.mapping_json) ]
    | Ill_formed v -> [ ("workload", J.String "matmul"); ("arch", t.ill.(v)) ]
  in
  { index; cycle; kind; line = J.to_string (J.Obj (head @ fields @ deadline)) }

let take t n =
  let acc = ref [] in
  for _ = 1 to n do
    acc := next t :: !acc
  done;
  List.rev !acc
