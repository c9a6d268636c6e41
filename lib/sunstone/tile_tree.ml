module Factor = Sun_util.Factor

type dim = Sun_tensor.Workload.dim

type assignment = (dim * int) list

(* [List.assoc_opt]'s first match, without its polymorphic compare: the
   optimizer fills every candidate's factor lists through this. *)
let rec factor_of assignment d =
  match assignment with
  | [] -> 1
  | (d', f) :: rest -> if d == d' || String.equal d d' then f else factor_of rest d

type outcome = { frontier : assignment list; explored : int }

(* Thin a sorted divisor list to [max_steps] geometrically spaced rungs,
   keeping the first and last. *)
let thin max_steps divisors =
  let n = List.length divisors in
  if n <= max_steps then divisors
  else begin
    let arr = Array.of_list divisors in
    let picked =
      List.init max_steps (fun i -> arr.(i * (n - 1) / (max_steps - 1)))
    in
    Sun_util.Listx.unique compare picked
  end

(* The walk's state. A node is its vector of rung indices, packed
   mixed-radix into one int ([stride]); the node being expanded also lives
   unpacked in [rung] and [factors], which each step mutates in place and
   each backtrack restores. The DFS stack is explicit, one frame per depth:
   a depth-d node is d grow steps from the root. *)
type walk = {
  ladders : int array array;  (** rungs of each grow dim, ascending from 1 *)
  stride : int array;  (** place value of each grow dim in a packed key *)
  rung : int array;  (** the current node's rung per grow dim *)
  factors : int array;  (** [ladders.(i).(rung.(i))]: what [fits] reads *)
  frame_key : int array;  (** packed key of the node at each depth *)
  frame_next : int array;  (** next child (grow dim) to try at each depth *)
  frame_first : int array;  (** the child found to fit when the node was entered *)
  frame_via : int array;  (** the grow dim stepped to reach each depth *)
  mutable slots : int array;
      (** the seen set: open addressing with linear probing over the packed
          keys (all >= 0), [-1] for an empty slot, at most half full *)
  mutable used : int;
  mutable found : int list;  (** frontier keys, newest first *)
  mutable explored : int;
}

(* The slot holding [key], or the empty slot where it would go. *)
let rec probe slots mask key i =
  let s = Array.unsafe_get slots i in
  if s = key || s < 0 then i else probe slots mask key ((i + 1) land mask)

let locate t key =
  let mask = Array.length t.slots - 1 in
  let h = key * 0x2545F4914F6CDD1D in
  probe t.slots mask key ((h lxor (h lsr 29)) land mask)

(* Doubling growth, amortized O(1) per node. *)
let grow_slots t =
  let old = t.slots in
  (* sunstone-lint: allow SA070 amortized seen-set doubling, O(log nodes) times per walk *)
  t.slots <- Array.make (2 * Array.length old) (-1);
  for k = 0 to Array.length old - 1 do
    let key = old.(k) in
    if key >= 0 then t.slots.(locate t key) <- key
  done

(* Insert [key] at [slot], the empty slot [locate] returned for it. *)
let insert_at t slot key =
  t.slots.(slot) <- key;
  t.used <- t.used + 1;
  if 2 * t.used > Array.length t.slots then grow_slots t

(* Does the node one rung up grow dim [i] fit? [factors] is restored
   before returning. *)
let fits_step t fits i =
  let ladder = t.ladders.(i) and r = t.rung.(i) in
  t.factors.(i) <- ladder.(r + 1);
  let ok = fits t.factors in
  t.factors.(i) <- ladder.(r);
  ok

(* The first grow dim, from [i], whose child of [key] fits. A child already
   seen was entered, so it is known to fit without a call. *)
let rec first_child t fits key i =
  if i >= Array.length t.rung then i
  else if
    t.rung.(i) + 1 < Array.length t.ladders.(i)
    &&
    let child = key + t.stride.(i) in
    t.slots.(locate t child) = child || fits_step t fits i
  then i
  else first_child t fits key (i + 1)

(* Count the node, already in the seen set, and push its frame. A node with
   no fitting child is a frontier tile; its frame has nothing left to try. *)
let enter t fits depth key =
  t.explored <- t.explored + 1;
  let first = first_child t fits key 0 in
  if first >= Array.length t.rung then
    (* sunstone-lint: allow SA070 one cell per frontier tile, the walk's output *)
    t.found <- key :: t.found;
  t.frame_key.(depth) <- key;
  t.frame_next.(depth) <- first;
  t.frame_first.(depth) <- first

(* Step the node at [depth] up grow dim [i] and enter the child, unless it
   has no next rung, is seen by now, or does not fit. The child found at
   entry needs no second fit call. *)
let enter_child t fits depth i =
  let r = t.rung.(i) in
  r + 1 < Array.length t.ladders.(i)
  &&
  let child = t.frame_key.(depth) + t.stride.(i) in
  let slot = locate t child in
  t.slots.(slot) <> child
  && (i = t.frame_first.(depth) || fits_step t fits i)
  && begin
    t.rung.(i) <- r + 1;
    t.factors.(i) <- t.ladders.(i).(r + 1);
    insert_at t slot child;
    t.frame_via.(depth + 1) <- i;
    enter t fits (depth + 1) child;
    true
  end

(* The node-visit loop: the DFS of the assoc-list walk it replaces, in the
   same order — children in grow-dim order, each entered at most once. *)
(* sunstone-hot *)
let rec descend t fits depth =
  if depth >= 0 then begin
    let i = t.frame_next.(depth) in
    if i >= Array.length t.rung then begin
      (* backtrack: undo the step that reached this depth *)
      (if depth > 0 then
         let v = t.frame_via.(depth) in
         let r = t.rung.(v) - 1 in
         t.rung.(v) <- r;
         t.factors.(v) <- t.ladders.(v).(r));
      descend t fits (depth - 1)
    end
    else begin
      t.frame_next.(depth) <- i + 1;
      if enter_child t fits depth i then descend t fits (depth + 1) else descend t fits depth
    end
  end

let search ?(max_steps = max_int) ~grow_dims ~remaining ~fits () =
  let ladders =
    Array.of_list
      (List.map
         (fun d -> Array.of_list (thin max_steps (Factor.divisors (remaining d))))
         grow_dims)
  in
  let n = Array.length ladders in
  (* packed keys stay below the lattice size, which must not wrap *)
  ignore
    (Array.fold_left
       (fun size ladder ->
         let len = Array.length ladder in
         if size > max_int / len then
           invalid_arg
             (Printf.sprintf
                "Tile_tree.search: the rung lattice of grow dims [%s] has more than max_int nodes"
                (String.concat "; " grow_dims))
         else size * len)
       1 ladders);
  let stride = Array.make n 1 in
  for i = 1 to n - 1 do
    stride.(i) <- stride.(i - 1) * Array.length ladders.(i - 1)
  done;
  let factors = Array.map (fun ladder -> ladder.(0)) ladders in
  if not (fits factors) then { frontier = []; explored = 1 }
  else begin
    let max_depth = Array.fold_left (fun acc ladder -> acc + Array.length ladder - 1) 0 ladders in
    let t =
      {
        ladders;
        stride;
        rung = Array.make n 0;
        factors;
        frame_key = Array.make (max_depth + 1) 0;
        frame_next = Array.make (max_depth + 1) 0;
        frame_first = Array.make (max_depth + 1) 0;
        frame_via = Array.make (max_depth + 1) 0;
        slots = Array.make 64 (-1);
        used = 0;
        found = [];
        explored = 0;
      }
    in
    insert_at t (locate t 0) 0;
    enter t fits 0 0;
    descend t fits 0;
    let tile key =
      List.mapi
        (fun i d -> (d, ladders.(i).(key / stride.(i) mod Array.length ladders.(i))))
        grow_dims
    in
    { frontier = List.rev_map tile t.found; explored = t.explored }
  end
