let line_size = 64
let line_shift = 6

type state = Clean | Dirty | Wpq | Wpq_dirty

(* One state byte per line: the index of its [state] in [states]. *)
let clean = '\000'
let dirty = '\001'
let wpq = '\002'
let wpq_dirty = '\003'
let states = [| Clean; Dirty; Wpq; Wpq_dirty |]

(* A queue entry packs its line above its slot, so sorting the entries
   sorts by line and each keeps the slot it entered with. *)
let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1

type t = {
  mutable st : Bytes.t;
  mutable queue : int array; (* entry i has slot i until the next drain *)
  mutable npending : int;
  mutable ascending : bool; (* queue entries already in line order *)
}

let create n =
  { st = Bytes.make n clean; queue = Array.make 64 0; npending = 0; ascending = true }

let state t l =
  if l >= Bytes.length t.st then Clean
  else states.(Char.code (Bytes.unsafe_get t.st l))

let grow t last =
  let st = Bytes.make (max (last + 1) (2 * Bytes.length t.st)) clean in
  Bytes.blit t.st 0 st 0 (Bytes.length t.st);
  t.st <- st

let store t off len =
  let first = off lsr line_shift and last = (off + len - 1) lsr line_shift in
  if last >= Bytes.length t.st then grow t last;
  for l = first to last do
    let c = Bytes.unsafe_get t.st l in
    if c = clean then Bytes.unsafe_set t.st l dirty
    else if c = wpq then Bytes.unsafe_set t.st l wpq_dirty
  done

let rec slot_of t l i = if t.queue.(i) lsr slot_bits = l then i else slot_of t l (i - 1)

let enqueue t l =
  let n = t.npending in
  if n = Array.length t.queue then begin
    let q = Array.make (2 * n) 0 in
    Array.blit t.queue 0 q 0 n;
    t.queue <- q
  end;
  if n > 0 && t.queue.(n - 1) lsr slot_bits > l then t.ascending <- false;
  t.queue.(n) <- (l lsl slot_bits) lor n;
  t.npending <- n + 1;
  n

let flush_line t l =
  if l >= Bytes.length t.st then -1
  else
    let c = Bytes.unsafe_get t.st l in
    if c = dirty then begin
      Bytes.unsafe_set t.st l wpq;
      enqueue t l
    end
    else if c = wpq_dirty then begin
      Bytes.unsafe_set t.st l wpq;
      slot_of t l (t.npending - 1)
    end
    else -1

let pending t = t.npending

let drain t f x =
  let n = t.npending in
  if not t.ascending then begin
    let sorted = Array.sub t.queue 0 n in
    Array.sort Int.compare sorted;
    Array.blit sorted 0 t.queue 0 n
  end;
  t.npending <- 0;
  t.ascending <- true;
  for i = 0 to n - 1 do
    let e = t.queue.(i) in
    let l = e lsr slot_bits in
    Bytes.unsafe_set t.st l (if Bytes.unsafe_get t.st l = wpq then clean else dirty);
    f x l (e land slot_mask)
  done

let iter_unclean t f x =
  for l = 0 to Bytes.length t.st - 1 do
    if Bytes.unsafe_get t.st l <> clean then f x l
  done

let reset t =
  Bytes.fill t.st 0 (Bytes.length t.st) clean;
  t.npending <- 0;
  t.ascending <- true
