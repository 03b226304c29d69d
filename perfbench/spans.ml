(* In-memory span recorder for the traced run.

   Spans are taken by the benchmark around its own calls into the
   library: an [op] span per operation with [tx_begin]/[tx_body]/
   [tx_commit] or [read] children.  Each carries the op id, its parent
   span, host ns (monotonic clock) and simulated device ns.  The most
   recent [capacity] spans are kept in a ring (so the recording cost is
   the same for the whole run) and written out when the run ends; per
   kind and phase, running sums survive the ring's wrap-around. *)

module A = Bigarray.Array1

type kind = Op | Tx_begin | Tx_body | Tx_commit | Read

let kinds = [ Op; Tx_begin; Tx_body; Tx_commit; Read ]

let kind_index = function
  | Op -> 0
  | Tx_begin -> 1
  | Tx_body -> 2
  | Tx_commit -> 3
  | Read -> 4

let kind_name = function
  | Op -> "op"
  | Tx_begin -> "tx_begin"
  | Tx_body -> "tx_body"
  | Tx_commit -> "tx_commit"
  | Read -> "read"

let nkinds = List.length kinds

(* Phase 0 is the count window, phase 1 the timed phase. *)
let nphases = 2

type t = {
  client : int;
  cap : int;
  ints : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
      (* per slot: op, parent, kind, phase, host start, host duration *)
  sims : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t;
      (* per slot: sim start, sim duration *)
  mutable next : int;  (* id of the next span; slot = id mod cap *)
  mutable phase : int;
  count : int array;  (* [kind * nphases + phase] *)
  sim_sum : float array;
}

let nints = 6

let create ~client cap =
  {
    client;
    cap;
    ints = A.create Bigarray.int Bigarray.c_layout (cap * nints);
    sims = A.create Bigarray.float64 Bigarray.c_layout (cap * 2);
    next = 0;
    phase = 0;
    count = Array.make (nkinds * nphases) 0;
    sim_sum = Array.make (nkinds * nphases) 0.0;
  }

let set_phase t p = t.phase <- p

(* A span id whose slot is filled later by [fill] (a parent is reserved
   before its children are recorded). *)
let reserve t =
  let id = t.next in
  t.next <- id + 1;
  id

let fill t id ~op ~parent kind ~host0 ~host1 ~sim0 ~sim1 =
  let s = id mod t.cap in
  let b = s * nints in
  let k = kind_index kind in
  A.unsafe_set t.ints b op;
  A.unsafe_set t.ints (b + 1) parent;
  A.unsafe_set t.ints (b + 2) k;
  A.unsafe_set t.ints (b + 3) t.phase;
  A.unsafe_set t.ints (b + 4) host0;
  A.unsafe_set t.ints (b + 5) (host1 - host0);
  A.unsafe_set t.sims (s * 2) sim0;
  A.unsafe_set t.sims ((s * 2) + 1) (sim1 -. sim0);
  let c = (k * nphases) + t.phase in
  t.count.(c) <- t.count.(c) + 1;
  t.sim_sum.(c) <- t.sim_sum.(c) +. (sim1 -. sim0)

let add t ~op ~parent kind ~host0 ~host1 ~sim0 ~sim1 =
  let id = reserve t in
  fill t id ~op ~parent kind ~host0 ~host1 ~sim0 ~sim1

let retained t = min t.next t.cap

let iter_retained t f =
  for id = t.next - retained t to t.next - 1 do
    f id (id mod t.cap)
  done

(* Host durations of the retained spans of one kind and phase. *)
let host_durations ts kind ~phase =
  let k = kind_index kind in
  let out = Samples.create (List.fold_left (fun a t -> a + retained t) 0 ts) in
  List.iter
    (fun t ->
      iter_retained t (fun _ s ->
          let b = s * nints in
          if A.get t.ints (b + 2) = k && A.get t.ints (b + 3) = phase then
            Samples.add out (A.get t.ints (b + 5))))
    ts;
  out

let total_count ts kind ~phase =
  let c = (kind_index kind * nphases) + phase in
  List.fold_left (fun a t -> a + t.count.(c)) 0 ts

let mean_sim ts kind ~phase =
  let c = (kind_index kind * nphases) + phase in
  let n = total_count ts kind ~phase in
  if n = 0 then 0.0
  else List.fold_left (fun a t -> a +. t.sim_sum.(c)) 0.0 ts /. float_of_int n

let write_jsonl oc ts =
  let names = Array.of_list (List.map kind_name kinds) in
  List.iter
    (fun t ->
      iter_retained t (fun id s ->
          let b = s * nints in
          let g i = A.get t.ints (b + i) in
          Printf.fprintf oc
            "{\"id\":%d,\"client\":%d,\"op\":%d,\"parent\":%d,\"name\":%S,\"phase\":%S,\"host_ns\":%d,\"host_dur_ns\":%d,\"sim_ns\":%.1f,\"sim_dur_ns\":%.1f}\n"
            id t.client (g 0) (g 1) names.(g 2)
            (if g 3 = 0 then "window" else "timed")
            (g 4) (g 5)
            (A.get t.sims (s * 2))
            (A.get t.sims ((s * 2) + 1))))
    ts
