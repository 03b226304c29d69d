(* Host monotonic clock.  Bechamel's stub returns an unboxed int64 and is
   declared [@@noalloc], so taking a timestamp costs no minor words and
   leaves [minor_words_per_op] describing the library alone. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now () - t0) *. 1e-9
