(* Nanosecond monotonic clock. [Unix.gettimeofday] steps in whole
   microseconds, a few percent of a fast read command, so every
   benchmark timing reads this clock instead. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6
let ms_since t0 = ms_between t0 (now ())
