(* Per-function allocation/IO summaries over the lexer token stream, plus
   bottom-up propagation over SCCs of the whole-program call graph. This is
   the engine room of the SA070-SA074 hot-path passes: [summarize] finds the
   direct allocation-shaped tokens inside one toplevel binding's body,
   [annotations] reads the (* sunstone-hot *) / (* sunstone-cold *) markers,
   and [analyze] condenses the call graph and joins the {allocates, io}
   flags bottom-up so mutual recursion converges in one pass.

   Like the rest of the engine this is a token-level approximation, written
   to err toward silence on idiomatic code: brackets and commas are
   classified pattern-vs-expression by a bounded backward walk, attribute
   brackets and empty lists are skipped, and anything the walk cannot decide
   is treated as a pattern. The runtime Gc oracle in test/test_model_hot.ml
   is the ground truth the approximation is pinned to. *)

module L = Lexer
module M = Srcmod

type site = { s_line : int; s_col : int; s_desc : string }

type summary = { alloc_sites : site list; io_sites : site list; nontail_sites : site list }

type ann_kind = Hot | Cold

type annotation = { an_kind : ann_kind; an_line : int; an_target : int }

let annotations (lx : L.t) =
  List.filter_map
    (fun (c : L.comment) ->
      match String.trim c.L.c_text with
      | "sunstone-hot" ->
        Some { an_kind = Hot; an_line = c.L.c_line; an_target = Suppress.target_line lx c }
      | "sunstone-cold" ->
        Some { an_kind = Cold; an_line = c.L.c_line; an_target = Suppress.target_line lx c }
      | _ -> None)
    lx.L.comments

(* ------------------------------------------------------------------ *)
(* Token classification                                                 *)
(* ------------------------------------------------------------------ *)

let is_sym (t : L.token) s = t.L.t_kind = L.Symbol && t.L.t_text = s

let pattern_keywords = [ "with"; "fun"; "function"; "let"; "and"; "exception"; "as" ]

(* Is the token at [i] in expression position (so [\[], [{], [::], [,]
   allocate) rather than pattern position? Bounded backward walk: skip
   identifiers, literals and balanced bracket groups; a match-arm [|] or a
   binder keyword decides pattern, any operator or other keyword decides
   expression. Walking past the body start without a verdict means the
   token opens the binding's outermost expression ([let f x = (a, b)]),
   which is expression position; only a budget-exhausted walk errs toward
   pattern (silence). *)
let in_expr_position (toks : L.token array) lo i =
  let budget = ref 64 in
  let j = ref (i - 1) in
  let depth = ref 0 in
  let verdict = ref 0 in
  (* 0 undecided, 1 expression, -1 pattern *)
  while !verdict = 0 && !j >= lo && !budget > 0 do
    decr budget;
    let t = toks.(!j) in
    (match t.L.t_kind with
    | L.Symbol -> (
      match t.L.t_text with
      | ")" | "]" | "}" -> incr depth
      | "(" | "[" | "{" -> if !depth > 0 then decr depth
      | _ when !depth > 0 -> ()
      | "|" -> verdict := -1
      | "." | "," -> ()
      | _ -> verdict := 1)
    | L.Keyword when !depth = 0 ->
      if List.mem t.L.t_text pattern_keywords then verdict := -1 else verdict := 1
    | _ -> ());
    decr j
  done;
  !verdict = 1 || (!verdict = 0 && !j < lo)

(* Allocation-shaped stdlib calls, [Module.func] form. The evaluator and heap
   hot paths earn inline allows where they genuinely need one of these. *)
let qualified_alloc m f =
  match m with
  | "Array" ->
    List.mem f
      [
        "make"; "init"; "copy"; "append"; "sub"; "of_list"; "to_list"; "map"; "mapi";
        "concat"; "of_seq"; "to_seq"; "make_matrix"; "split"; "combine";
      ]
  | "List" ->
    List.mem f
      [
        "init"; "map"; "mapi"; "map2"; "append"; "concat"; "concat_map"; "flatten"; "rev";
        "rev_append"; "rev_map"; "filter"; "filter_map"; "partition"; "sort"; "sort_uniq";
        "stable_sort"; "fast_sort"; "merge"; "split"; "combine"; "of_seq"; "to_seq"; "cons";
      ]
  | "String" ->
    List.mem f
      [
        "make"; "init"; "sub"; "concat"; "cat"; "map"; "mapi"; "trim"; "escaped";
        "split_on_char"; "lowercase_ascii"; "uppercase_ascii"; "capitalize_ascii";
        "uncapitalize_ascii"; "of_seq";
      ]
  | "Bytes" ->
    List.mem f
      [ "make"; "create"; "init"; "sub"; "copy"; "extend"; "cat"; "of_string"; "to_string" ]
  | "Buffer" -> List.mem f [ "create"; "contents"; "to_bytes"; "sub" ]
  | "Hashtbl" -> List.mem f [ "create"; "copy"; "add"; "replace"; "find_opt"; "of_seq"; "fold" ]
  | "Queue" -> List.mem f [ "create"; "add"; "push"; "copy"; "of_seq" ]
  | "Stack" -> List.mem f [ "create"; "push"; "copy"; "of_seq" ]
  | "Printf" -> List.mem f [ "sprintf"; "ksprintf" ]
  | "Format" -> List.mem f [ "sprintf"; "asprintf"; "ksprintf" ]
  | "Option" -> List.mem f [ "map"; "bind"; "some"; "join"; "to_list" ]
  | "Float" -> List.mem f [ "to_string" ]
  | "Int" -> List.mem f [ "to_string" ]
  | "Filename" -> List.mem f [ "concat"; "basename"; "dirname"; "remove_extension"; "quote" ]
  | "Marshal" -> List.mem f [ "to_string"; "to_bytes"; "from_string"; "from_bytes" ]
  | _ -> false

let qualified_io m f =
  match m with
  | "Unix" | "Out_channel" | "In_channel" -> true
  | "Sys" -> List.mem f [ "command" ]
  | "Printf" -> List.mem f [ "printf"; "eprintf"; "fprintf" ]
  | "Format" -> List.mem f [ "printf"; "eprintf"; "fprintf"; "print_string"; "print_newline" ]
  | _ ->
    ignore f;
    false

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let bare_io f =
  has_prefix ~prefix:"print_" f || has_prefix ~prefix:"prerr_" f
  || has_prefix ~prefix:"output_" f
  || has_prefix ~prefix:"input_" f
  || List.mem f
       [
         "read_line"; "read_int"; "open_in"; "open_out"; "open_in_bin"; "open_out_bin";
         "flush"; "flush_all"; "exit"; "really_input"; "really_input_string";
       ]

(* Operators whose operand position makes a self-call non-tail. [&&]/[||]
   and sequencing keep their right operand in tail position and are
   deliberately absent. *)
let consuming_ops =
  [
    "+"; "-"; "*"; "/"; "+."; "-."; "*."; "/."; "@"; "^"; "^^"; "::"; "="; "<"; ">"; "<=";
    ">="; "<>"; "=="; "!="; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
  ]

let adjacent (a : L.token) (b : L.token) = a.L.t_end = b.L.t_start

(* ------------------------------------------------------------------ *)
(* Direct summary of one binding body                                   *)
(* ------------------------------------------------------------------ *)

let summarize (t : M.t) (b : M.binding) =
  let toks = t.M.sm_lex.L.tokens in
  let n = Array.length toks in
  let lo = b.M.b_body_start and hi = min b.M.b_body_end (n - 1) in
  let allocs = ref [] and ios = ref [] and nontails = ref [] in
  let site i desc = { s_line = toks.(i).L.t_line; s_col = toks.(i).L.t_col; s_desc = desc } in
  let alloc i desc = allocs := site i desc :: !allocs in
  let io i desc = ios := site i desc :: !ios in
  let prev_is_dot i = i > 0 && is_sym toks.(i - 1) "." in
  (* skip a balanced bracket group starting at an opener index; returns the
     index just past the matching closer (or [n] when unterminated) *)
  let skip_balanced j0 =
    let depth = ref 0 in
    let j = ref j0 in
    let continue = ref true in
    while !continue && !j < n do
      (match toks.(!j).L.t_text with
      | "(" | "[" | "{" -> incr depth
      | ")" | "]" | "}" -> decr depth
      | _ -> ());
      incr j;
      if !depth <= 0 then continue := false
    done;
    !j
  in
  (* does the self-call at [i] (name token) sit in non-tail position? *)
  let nontail_call i =
    let prev_consumes =
      i > lo
      &&
      let p = toks.(i - 1) in
      (p.L.t_kind = L.Symbol || p.L.t_kind = L.Lident)
      && List.mem p.L.t_text ("=" :: consuming_ops)
    in
    if prev_consumes then true
    else begin
      (* walk forward over the application's arguments; a consuming infix
         operator right after them means the result feeds a computation *)
      let j = ref (i + 1) in
      let stop = ref false in
      let verdict = ref false in
      while (not !stop) && !j <= hi do
        let t' = toks.(!j) in
        match t'.L.t_kind with
        | L.Lident | L.Uident | L.Int_lit | L.Float_lit | L.String_lit | L.Char_lit ->
          incr j
        | L.Symbol when t'.L.t_text = "(" || t'.L.t_text = "[" || t'.L.t_text = "{" ->
          j := skip_balanced !j
        | L.Symbol when t'.L.t_text = "." || t'.L.t_text = "!" -> incr j
        | L.Symbol when List.mem t'.L.t_text consuming_ops ->
          verdict := true;
          stop := true
        | _ -> stop := true
      done;
      !verdict
    end
  in
  let i = ref lo in
  while !i <= hi do
    let t' = toks.(!i) in
    (match t'.L.t_kind with
    | L.Keyword -> (
      match t'.L.t_text with
      | ("fun" | "function") when !i > lo -> alloc !i ("closure (" ^ t'.L.t_text ^ ")")
      | "lazy" -> alloc !i "lazy block"
      | _ -> ())
    | L.Lident when not (prev_is_dot !i) -> (
      let x = t'.L.t_text in
      if x = b.M.b_name && b.M.b_params && nontail_call !i then
        nontails := site !i "non-tail self-recursion" :: !nontails;
      match x with
      | "ref" -> alloc !i "ref cell"
      | "invalid_arg" -> alloc !i "invalid_arg payload"
      | "failwith" -> io !i "failwith (broad raise)"
      | "sprintf" -> alloc !i "sprintf"
      | "raise" ->
        if !i + 1 <= hi && is_sym toks.(!i + 1) "(" then alloc !i "raise with payload"
      | _ ->
        if has_prefix ~prefix:"string_of_" x then alloc !i x else if bare_io x then io !i x)
    | L.Uident
      when !i + 2 < n
           && is_sym toks.(!i + 1) "."
           && toks.(!i + 2).L.t_kind = L.Lident
           && not (prev_is_dot !i) ->
      let m = t'.L.t_text and f = toks.(!i + 2).L.t_text in
      if qualified_alloc m f then alloc !i (m ^ "." ^ f)
      else if qualified_io m f then io !i (m ^ "." ^ f)
    | L.Symbol -> (
      match t'.L.t_text with
      | "@" ->
        if not (!i > lo && is_sym toks.(!i - 1) "[" && adjacent toks.(!i - 1) t') then
          alloc !i "list append (@)"
      | "^" -> alloc !i "string append (^)"
      | "::" -> if in_expr_position toks lo !i then alloc !i "list cons (::)"
      | "," -> if in_expr_position toks lo !i then alloc !i "tuple"
      | "{" -> if in_expr_position toks lo !i then alloc !i "record literal"
      | "[" ->
        if !i + 1 <= hi then begin
          let nx = toks.(!i + 1) in
          if is_sym nx "]" || prev_is_dot !i then ()
          else if (is_sym nx "@" || is_sym nx "%") && adjacent t' nx then
            (* attribute or extension node: skip its whole payload *)
            i := skip_balanced !i - 1
          else if is_sym nx "|" && adjacent t' nx then begin
            if in_expr_position toks lo !i then alloc !i "array literal"
          end
          else if in_expr_position toks lo !i then alloc !i "list literal"
        end
      | _ -> ())
    | _ -> ());
    incr i
  done;
  { alloc_sites = List.rev !allocs; io_sites = List.rev !ios; nontail_sites = List.rev !nontails }

(* ------------------------------------------------------------------ *)
(* Whole-program propagation                                            *)
(* ------------------------------------------------------------------ *)

type node = {
  nd_file : int;
  nd_binding : M.binding;
  nd_summary : summary;
  mutable nd_scc : int;
  mutable nd_allocates : bool;
  mutable nd_io : bool;
}

type t = {
  a_project : M.project;
  a_nodes : node array;
  a_index : (int * string, int) Hashtbl.t;
}

let analyze (p : M.project) =
  let nodes = ref [] in
  let a_index = Hashtbl.create 256 in
  let count = ref 0 in
  Array.iteri
    (fun fi file ->
      List.iter
        (fun (b : M.binding) ->
          (* keep the first binding per name, matching [binding_named] *)
          if not (Hashtbl.mem a_index (fi, b.M.b_name)) then begin
            Hashtbl.replace a_index (fi, b.M.b_name) !count;
            incr count;
            nodes :=
              {
                nd_file = fi;
                nd_binding = b;
                nd_summary = summarize file b;
                nd_scc = -1;
                nd_allocates = false;
                nd_io = false;
              }
              :: !nodes
          end)
        file.M.sm_bindings)
    p.M.p_files;
  let a_nodes = Array.of_list (List.rev !nodes) in
  let n = Array.length a_nodes in
  let succ =
    Array.init n (fun v ->
        let nd = a_nodes.(v) in
        List.filter_map
          (fun ((fj, bj) : int * M.binding) -> Hashtbl.find_opt a_index (fj, bj.M.b_name))
          (M.callees p nd.nd_file nd.nd_binding))
  in
  (* Tarjan; SCCs are emitted callees-first, so one pass over the emission
     order joins the {allocates, io} flags bottom-up to a fixed point. *)
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let onstack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let scc_count = ref 0 in
  let emitted = ref [] in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    onstack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if onstack.(w) then low.(v) <- min low.(v) index.(w))
      succ.(v);
    if low.(v) = index.(v) then begin
      let comp = ref [] in
      let continue = ref true in
      while !continue do
        match !stack with
        | w :: rest ->
          stack := rest;
          onstack.(w) <- false;
          a_nodes.(w).nd_scc <- !scc_count;
          comp := w :: !comp;
          if w = v then continue := false
        | [] -> continue := false
      done;
      incr scc_count;
      emitted := !comp :: !emitted
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  List.iter
    (fun comp ->
      let direct_a =
        List.exists (fun w -> a_nodes.(w).nd_summary.alloc_sites <> []) comp
      in
      let direct_io = List.exists (fun w -> a_nodes.(w).nd_summary.io_sites <> []) comp in
      let from_succs pick =
        List.exists (fun w -> List.exists (fun s -> pick a_nodes.(s)) succ.(w)) comp
      in
      let a = direct_a || from_succs (fun nd -> nd.nd_allocates) in
      let io = direct_io || from_succs (fun nd -> nd.nd_io) in
      List.iter
        (fun w ->
          a_nodes.(w).nd_allocates <- a;
          a_nodes.(w).nd_io <- io)
        comp)
    (List.rev !emitted);
  { a_project = p; a_nodes; a_index }

let node t fi name =
  match Hashtbl.find_opt t.a_index (fi, name) with
  | Some v -> Some t.a_nodes.(v)
  | None -> None
