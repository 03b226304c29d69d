(* Fixed-capacity store of non-negative integer samples (host ns) outside
   the OCaml heap, so that recording per-op latencies neither allocates
   nor inflates the measured heap.  Samples are kept as 32-bit values,
   clamped at [Int32.max_int] (about 2.1 s).  Once full, further samples
   are dropped and counted. *)

module A = Bigarray.Array1

type t = {
  data : (int32, Bigarray.int32_elt, Bigarray.c_layout) A.t;
  mutable n : int;
  mutable dropped : int;
}

let create cap = { data = A.create Bigarray.int32 Bigarray.c_layout (max 1 cap); n = 0; dropped = 0 }
let length t = t.n
let dropped t = t.dropped
let get t i = Int32.to_int (A.unsafe_get t.data i)

let add t v =
  if t.n < A.dim t.data then begin
    A.unsafe_set t.data t.n (Int32.of_int (min v (Int32.to_int Int32.max_int)));
    t.n <- t.n + 1
  end
  else t.dropped <- t.dropped + 1

(* A fresh store holding the samples [lo, hi) of each (store, lo, hi). *)
let sub_ranges ranges =
  let out = create (List.fold_left (fun a (_, lo, hi) -> a + hi - lo) 0 ranges) in
  List.iter (fun (t, lo, hi) -> for i = lo to hi - 1 do add out (get t i) done) ranges;
  out

let concat ts = sub_ranges (List.map (fun t -> (t, 0, t.n)) ts)

(* In-place selection of the [k]-th smallest of the first [n] samples
   (Hoare partition, median-of-three pivot).  Reorders the store. *)
let select t k =
  let d = t.data in
  let get i = Int32.to_int (A.unsafe_get d i) in
  let swap i j =
    let x = A.unsafe_get d i in
    A.unsafe_set d i (A.unsafe_get d j);
    A.unsafe_set d j x
  in
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if get mid < get !lo then swap mid !lo;
    if get !hi < get !lo then swap !hi !lo;
    if get !hi < get mid then swap !hi mid;
    let pivot = get mid in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while get !i < pivot do incr i done;
      while get !j > pivot do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  get k

let rank t q = max 0 (min (t.n - 1) (int_of_float (Float.ceil (q *. float_of_int t.n)) - 1))

(* Nearest-rank quantile; 0 for an empty store. *)
let quantile t q = if t.n = 0 then 0 else select t (rank t q)

(* Mean of the samples up to the [q] quantile; 0 for an empty store.
   [select] leaves every sample below the selected rank before it. *)
let trimmed_mean t q =
  if t.n = 0 then 0.0
  else begin
    let k = rank t q in
    ignore (select t k);
    let sum = ref 0 in
    for i = 0 to k do
      sum := !sum + get t i
    done;
    float_of_int !sum /. float_of_int (k + 1)
  end

let median t = quantile t 0.5

let median_floats xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0
