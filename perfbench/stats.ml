let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least p% of the sample at
   or below it. The epsilon keeps 99.9% of 10000 at rank 9990 despite
   99.9 having no exact binary form. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil ((p /. 100. *. float n) -. 1e-9))))

let quantile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  a.(rank n p - 1)

let median xs = quantile (sorted xs) 50.
let beyond n p = n - rank n p
let ladder = [ 99.99; 99.9; 99.; 90.; 75.; 50. ]
let tail_percentile n = List.find_opt (fun p -> n > 0 && beyond n p >= 10) ladder
