(* SplitMix64, kept in the benchmark so its generated inputs depend only on
   the seed and on this file, never on the program under test. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, bound); the modulo bias is below 2^-40 for the small
   bounds used here. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

(* Uniform in [0, 1) from the top 53 bits. *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

let shuffle t a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a
