exception Crashed

module Ps = Persist_sem

let line_size = Ps.line_size
let line_shift = Ps.line_shift

type t = {
  id : int; (* process-unique; lets subscribers key state per device *)
  size : int;
  latency : Latency.t;
  path : string option;
  durable : Bytes.t; (* what survives a power failure *)
  view : Bytes.t; (* what loads observe (durable + cached stores) *)
  lines : Ps.t; (* the cache and write-pending queue, one state per line *)
  mutable snaps : Bytes.t; (* WPQ snapshots, 64 bytes per pending slot *)
  lock : Mutex.t; (* protects snaps, line transitions in flush/fence *)
  mutable rng : Random.State.t;
  mutable crashed : bool;
  mutable crash_countdown : int; (* <= 0 means disabled *)
  mutable torn_write_prob : float; (* chance a failing WPQ line lands torn *)
  persist_pts : int Atomic.t;
  loads : int Atomic.t;
  stores : int Atomic.t;
  flushes : int Atomic.t;
  flush_calls : int Atomic.t;
  fences : int Atomic.t;
  fence_lines : int Atomic.t;
  alloc_steps : int Atomic.t;
  extra_ns : int Atomic.t;
  torn_lines : int Atomic.t;
  corrupted_lines : int Atomic.t;
}

type stats = {
  loads : int;
  stores : int;
  flushes : int;
  flush_calls : int;
  fences : int;
  fence_lines : int;
  alloc_steps : int;
  extra_ns : int;
  torn_lines : int;
  corrupted_lines : int;
}

let round_up_lines size = (size + line_size - 1) / line_size * line_size

let next_id = Atomic.make 0

let create ?(latency = Latency.zero) ?(seed = 0xC0FFEE) ?path ~size () =
  if size <= 0 then invalid_arg "Device.create: size must be positive";
  let size = round_up_lines size in
  {
    id = Atomic.fetch_and_add next_id 1;
    size;
    latency;
    path;
    durable = Bytes.make size '\000';
    view = Bytes.make size '\000';
    lines = Ps.create (size / line_size);
    snaps = Bytes.create 4096;
    lock = Mutex.create ();
    rng = Random.State.make [| seed |];
    crashed = false;
    crash_countdown = 0;
    torn_write_prob = 0.0;
    persist_pts = Atomic.make 0;
    loads = Atomic.make 0;
    stores = Atomic.make 0;
    flushes = Atomic.make 0;
    flush_calls = Atomic.make 0;
    fences = Atomic.make 0;
    fence_lines = Atomic.make 0;
    alloc_steps = Atomic.make 0;
    extra_ns = Atomic.make 0;
    torn_lines = Atomic.make 0;
    corrupted_lines = Atomic.make 0;
  }

let id t = t.id
let size t = t.size
let latency t = t.latency
let path t = t.path
let is_crashed t = t.crashed

let check_alive t = if t.crashed then raise Crashed

let check_range t off len what =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Device.%s: range [%d, %d) outside [0, %d)" what off
         (off + len) t.size)

(* {1 Accounting} *)

let stats (t : t) =
  {
    loads = Atomic.get t.loads;
    stores = Atomic.get t.stores;
    flushes = Atomic.get t.flushes;
    flush_calls = Atomic.get t.flush_calls;
    fences = Atomic.get t.fences;
    fence_lines = Atomic.get t.fence_lines;
    alloc_steps = Atomic.get t.alloc_steps;
    extra_ns = Atomic.get t.extra_ns;
    torn_lines = Atomic.get t.torn_lines;
    corrupted_lines = Atomic.get t.corrupted_lines;
  }

let reset_stats (t : t) =
  Atomic.set t.loads 0;
  Atomic.set t.stores 0;
  Atomic.set t.flushes 0;
  Atomic.set t.flush_calls 0;
  Atomic.set t.fences 0;
  Atomic.set t.fence_lines 0;
  Atomic.set t.alloc_steps 0;
  Atomic.set t.extra_ns 0;
  Atomic.set t.torn_lines 0;
  Atomic.set t.corrupted_lines 0

(* Summed straight from the counters: this runs on every probe event and
   trace span, so it builds no [stats] record. *)
let simulated_ns (t : t) =
  let m = t.latency and flush_calls = Atomic.get t.flush_calls in
  (float_of_int (Atomic.get t.loads) *. m.Latency.read_ns)
  +. (float_of_int (Atomic.get t.stores) *. m.Latency.write_ns)
  +. (float_of_int flush_calls *. m.Latency.flush_ns)
  +. float_of_int (max 0 (Atomic.get t.flushes - flush_calls))
     *. m.Latency.flush_bulk_ns
  +. (float_of_int (Atomic.get t.fences) *. m.Latency.fence_base_ns)
  +. (float_of_int (Atomic.get t.fence_lines) *. m.Latency.fence_per_line_ns)
  +. (float_of_int (Atomic.get t.alloc_steps) *. m.Latency.alloc_step_ns)
  +. float_of_int (Atomic.get t.extra_ns)

let charge_ns (t : t) n = ignore (Atomic.fetch_and_add t.extra_ns n)
let charge_alloc_steps (t : t) n = ignore (Atomic.fetch_and_add t.alloc_steps n)

(* {1 Telemetry}

   Emission sites fire only when a trace subscriber is installed
   (one atomic load + branch otherwise) and never touch the stat
   counters, so instrumentation cannot move the simulated clock. *)

module Tr = Ptelemetry.Trace
module Pr = Ptelemetry.Probe

(* Semantic probe for online auditors (psan): same gate discipline as
   [Tr] — one atomic load and no event construction when nothing is
   subscribed.  [simulated_ns] is a pure fold over the stat counters,
   so reading it for the event payload cannot move the clock. *)
let probe_store t off len =
  Pr.emit (Pr.Store { dev = t.id; off; len; ns = simulated_ns t })

(* Per-access events are behind the [`All] detail level — they flood.
   Each is emitted once its access is done: a subscriber seeing a load
   knows the value has already been read. *)
let emit_access t name off len =
  Tr.emit
    ~args:[ ("off", string_of_int off); ("len", string_of_int len) ]
    ~cat:"device" ~name ~ph:Tr.I ~ts_ns:(simulated_ns t) ()

(* Book a store whose bytes are already in the view: count it, dirty
   its lines, then tell subscribers. *)
let stored (t : t) name off len =
  Atomic.incr t.stores;
  Ps.store t.lines off len;
  if Pr.on () then probe_store t off len;
  if Tr.verbose () then emit_access t name off len

(* {1 Loads} *)

let read_u8 t off =
  check_alive t;
  check_range t off 1 "read_u8";
  Atomic.incr t.loads;
  let v = Char.code (Bytes.unsafe_get t.view off) in
  if Tr.verbose () then emit_access t "load" off 1;
  v

let read_u32 t off =
  check_alive t;
  check_range t off 4 "read_u32";
  Atomic.incr t.loads;
  let v = Int32.to_int (Bytes.get_int32_le t.view off) land 0xFFFFFFFF in
  if Tr.verbose () then emit_access t "load" off 4;
  v

let read_u64 t off =
  check_alive t;
  check_range t off 8 "read_u64";
  Atomic.incr t.loads;
  let v = Bytes.get_int64_le t.view off in
  if Tr.verbose () then emit_access t "load" off 8;
  v

let read_bytes t off len =
  check_alive t;
  check_range t off len "read_bytes";
  Atomic.incr t.loads;
  let v = Bytes.sub t.view off len in
  if Tr.verbose () then emit_access t "load" off len;
  v

let read_string t off len = Bytes.unsafe_to_string (read_bytes t off len)

(* {1 Stores} *)

let write_u8 t off v =
  check_alive t;
  check_range t off 1 "write_u8";
  Bytes.unsafe_set t.view off (Char.unsafe_chr (v land 0xFF));
  stored t "store" off 1

let write_u32 t off v =
  check_alive t;
  check_range t off 4 "write_u32";
  Bytes.set_int32_le t.view off (Int32.of_int v);
  stored t "store" off 4

let write_u64 t off v =
  check_alive t;
  check_range t off 8 "write_u64";
  Bytes.set_int64_le t.view off v;
  stored t "store" off 8

let write_bytes t off b =
  check_alive t;
  let len = Bytes.length b in
  check_range t off len "write_bytes";
  if len > 0 then begin
    Bytes.blit b 0 t.view off len;
    stored t "store" off len
  end

let write_string t off s =
  check_alive t;
  let len = String.length s in
  check_range t off len "write_string";
  if len > 0 then begin
    Bytes.blit_string s 0 t.view off len;
    stored t "store" off len
  end

let fill t off len c =
  check_alive t;
  check_range t off len "fill";
  if len > 0 then begin
    Bytes.fill t.view off len c;
    stored t "store" off len
  end

let copy_within t ~src ~dst ~len =
  check_alive t;
  check_range t src len "copy_within(src)";
  check_range t dst len "copy_within(dst)";
  if len > 0 then begin
    Atomic.incr t.loads;
    Bytes.blit t.view src t.view dst len;
    stored t "copy" dst len
  end

(* {1 Persist points and crash scheduling} *)

(* Replace the survival RNG; used by the failure injector to sample
   several WPQ-survival outcomes at the same crash point. *)
let reseed t seed =
  Mutex.lock t.lock;
  t.rng <- Random.State.make [| seed |];
  Mutex.unlock t.lock

let set_crash_countdown t n =
  Mutex.lock t.lock;
  t.crash_countdown <- n;
  Mutex.unlock t.lock

let set_torn_write_prob t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Device.set_torn_write_prob: probability outside [0, 1]";
  Mutex.lock t.lock;
  t.torn_write_prob <- p;
  Mutex.unlock t.lock

let torn_write_prob t = t.torn_write_prob

let persist_points t = Atomic.get t.persist_pts

(* Must be called with [t.lock] held.  Counts a persist point and raises
   if the scheduled crash lands on it; the caller's operation must not have
   taken effect yet. *)
let persist_point_locked t =
  Atomic.incr t.persist_pts;
  if t.crash_countdown > 0 then begin
    t.crash_countdown <- t.crash_countdown - 1;
    if t.crash_countdown = 0 then begin
      t.crashed <- true;
      Mutex.unlock t.lock;
      raise Crashed
    end
  end

(* Copy line [l] of the view into WPQ snapshot [slot]. *)
let snapshot t l slot =
  let need = (slot + 1) lsl line_shift in
  if need > Bytes.length t.snaps then begin
    let b = Bytes.create (max need (2 * Bytes.length t.snaps)) in
    Bytes.blit t.snaps 0 b 0 (Bytes.length t.snaps);
    t.snaps <- b
  end;
  Bytes.blit t.view (l lsl line_shift) t.snaps (slot lsl line_shift) line_size

let flush t off len =
  check_alive t;
  check_range t off len "flush";
  if len > 0 then begin
    Mutex.lock t.lock;
    persist_point_locked t;
    Atomic.incr t.flush_calls;
    let first = off lsr line_shift and last = (off + len - 1) lsr line_shift in
    ignore (Atomic.fetch_and_add t.flushes (last - first + 1));
    for l = first to last do
      let slot = Ps.flush_line t.lines l in
      if slot >= 0 then snapshot t l slot
    done;
    Mutex.unlock t.lock;
    if Pr.on () then Pr.emit (Pr.Flush { dev = t.id; off; len; ns = simulated_ns t });
    if Tr.on () then begin
      let lines = last - first + 1 and m = t.latency in
      let dur =
        m.Latency.flush_ns
        +. (float_of_int (lines - 1) *. m.Latency.flush_bulk_ns)
      in
      Tr.emit
        ~args:[ ("off", string_of_int off); ("lines", string_of_int lines) ]
        ~cat:"device" ~name:"flush" ~ph:(Tr.X dur)
        ~ts_ns:(simulated_ns t -. dur) ()
    end
  end

let write_back t l slot =
  Bytes.blit t.snaps (slot lsl line_shift) t.durable (l lsl line_shift) line_size

let fence t =
  check_alive t;
  Mutex.lock t.lock;
  persist_point_locked t;
  Atomic.incr t.fences;
  let drained = Ps.pending t.lines in
  ignore (Atomic.fetch_and_add t.fence_lines drained);
  Ps.drain t.lines write_back t;
  Mutex.unlock t.lock;
  if Pr.on () then Pr.emit (Pr.Fence { dev = t.id; ns = simulated_ns t });
  if Tr.on () then begin
    let m = t.latency in
    let dur =
      m.Latency.fence_base_ns
      +. (float_of_int drained *. m.Latency.fence_per_line_ns)
    in
    Tr.emit
      ~args:[ ("lines", string_of_int drained) ]
      ~cat:"device" ~name:"fence" ~ph:(Tr.X dur)
      ~ts_ns:(simulated_ns t -. dur) ()
  end

let persist t off len =
  flush t off len;
  fence t

(* Re-read line [l] of the view from media, losing its cached stores. *)
let restore t l =
  Bytes.blit t.durable (l lsl line_shift) t.view (l lsl line_shift) line_size

(* Lines sitting in the WPQ at power failure may or may not have reached
   media; decide each one independently, in ascending line order, so the
   RNG is consumed identically on every run and torn-write sweeps are
   bit-reproducible.  With a torn-write probability set, a line's
   write-back can additionally be interrupted mid-line: media guarantees
   8-byte atomicity only, so each u64 word of the line independently
   lands new or stays old.  Either way the line's view is re-read from
   media. *)
let maybe_write_back t l slot =
  let off = l lsl line_shift and snap = slot lsl line_shift in
  if t.torn_write_prob > 0.0 && Random.State.float t.rng 1.0 < t.torn_write_prob
  then begin
    Atomic.incr t.torn_lines;
    for w = 0 to (line_size / 8) - 1 do
      if Random.State.bool t.rng then
        Bytes.blit t.snaps (snap + (w * 8)) t.durable (off + (w * 8)) 8
    done
  end
  else if Random.State.bool t.rng then write_back t l slot;
  restore t l

let power_cycle t =
  Mutex.lock t.lock;
  Ps.drain t.lines maybe_write_back t;
  (* A clean line's view already equals media (a fence writes back the
     bytes the view holds), so only lines with cached stores are re-read. *)
  Ps.iter_unclean t.lines restore t;
  Ps.reset t.lines;
  t.crashed <- false;
  (* The crash countdown is a harness injection knob, not device state:
     it survives the power cycle so a test can arm a crash that fires
     inside the recovery the cycle triggers.  (After a fired crash it is
     already 0, so ordinary crash-and-reopen sequences are unaffected.) *)
  Mutex.unlock t.lock;
  if Pr.on () then Pr.emit (Pr.Power_cycle { dev = t.id })

(* {1 Media corruption (bit rot)} *)

(* Flip one RNG-chosen bit of the durable byte at [off] — a scrub-visible
   media fault, below the cache.  The volatile view only reflects the rot
   when the containing line holds no cached store (a dirty or write-pending
   line masks the media until its next write-back). *)
let corrupt_line t off =
  check_range t off 1 "corrupt_line";
  Mutex.lock t.lock;
  let bit = 1 lsl Random.State.int t.rng 8 in
  let flipped = Char.chr (Char.code (Bytes.get t.durable off) lxor bit) in
  Bytes.set t.durable off flipped;
  if Ps.state t.lines (off lsr line_shift) = Ps.Clean then
    Bytes.set t.view off flipped;
  Atomic.incr t.corrupted_lines;
  Mutex.unlock t.lock

(* {1 File backing} *)

let magic = "CORUNDUM-PMEM-V1"

let save t =
  match t.path with
  | None -> invalid_arg "Device.save: device has no backing path"
  | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc magic;
          let hdr = Bytes.create 8 in
          Bytes.set_int64_le hdr 0 (Int64.of_int t.size);
          output_bytes oc hdr;
          output_bytes oc t.durable)

let load ?(latency = Latency.zero) ?(seed = 0xC0FFEE) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let m = really_input_string ic (String.length magic) in
      if not (String.equal m magic) then
        invalid_arg (Printf.sprintf "Device.load: %s is not a pmem image" path);
      let hdr = Bytes.create 8 in
      really_input ic hdr 0 8;
      let size = Int64.to_int (Bytes.get_int64_le hdr 0) in
      let t = create ~latency ~seed ~path ~size () in
      really_input ic t.durable 0 size;
      Bytes.blit t.durable 0 t.view 0 size;
      t)
