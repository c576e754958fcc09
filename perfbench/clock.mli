(** Monotonic timestamps in nanoseconds. *)

val now_ns : unit -> int64
val ms_since : int64 -> float
