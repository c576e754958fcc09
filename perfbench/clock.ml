(* Every benchmark timing reads CLOCK_MONOTONIC through bechamel's stub:
   wall-clock time can step backwards under NTP, which would corrupt
   both latencies and span arithmetic. *)

let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
