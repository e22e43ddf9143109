(* Order statistics over latency samples.

   A tail percentile is only reported where the sample supports it: at
   least ten samples must lie strictly above the rank it reads, so the
   figure is not one outlier. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] (0 < p <= 100) among [n]; the
   epsilon keeps float error in [p *. n] from rounding up a rank. *)
let rank ~n p =
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)))

let at_sorted a p =
  let n = Array.length a in
  if n = 0 then nan else a.(min n (rank ~n p) - 1)

let median samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let levels = [ 99.0; 90.0; 50.0 ]

(* The highest level with ten samples above its rank; [None] when not
   even the median has. *)
let supported n = List.find_opt (fun p -> n - rank ~n p >= 10) levels

(* The tail figure reported for a sample: the supported percentile and
   its value, or the maximum when the sample is too small for any. *)
let tail samples =
  let a = sorted samples in
  let n = Array.length a in
  match supported n with
  | Some p -> (p, at_sorted a p)
  | None -> (100.0, if n = 0 then nan else a.(n - 1))
