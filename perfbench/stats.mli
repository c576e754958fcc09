(** Order statistics over float samples. *)

val sorted : float list -> float array

val quantile : float array -> float -> float
(** [quantile a p] on a sorted, non-empty array: the nearest-rank
    [p]-th percentile, i.e. the smallest sample with at least [p]% of
    the sample at or below it. *)

val median : float list -> float

val beyond : int -> float -> int
(** [beyond n p]: how many of [n] samples rank strictly above the
    [p]-th percentile. *)

val tail_percentile : int -> float option
(** The highest percentile of 99.99, 99.9, 99, 90, 75 and 50 that has
    at least ten of [n] samples beyond it — the highest tail a sample
    of that size can report — or [None] below 20 samples. *)
