(* Order statistics for the latency report. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank: the percentile [q] of [n] samples is the sample of rank
   ceil(q n / 100), 1-based. *)
let rank n q = max 1 (min n (int_of_float (ceil (float_of_int q *. float_of_int n /. 100.0))))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank n q - 1)

let median xs = percentile (sorted xs) 50

(* Samples strictly above the percentile's rank. *)
let beyond n q = n - rank n q

(* The highest whole percentile at most 99 that leaves at least 10
   samples beyond it at [n] samples; the median when [n] is too small
   for any.  A higher percentile than the sample supports would rest on
   a handful of samples and swing from run to run. *)
let tail_percentile n =
  let rec go q = if q <= 50 then 50 else if beyond n q >= 10 then q else go (q - 1) in
  go 99
