(** The persist-line kernel: the one place the line-state machine of
    persistent memory is written down.  A store dirties its lines, a
    flush ([clflushopt]) writes a dirty line back into the write-pending
    queue (WPQ), a fence ([sfence]) drains the queue to media, and a
    power cycle empties it and leaves every line clean.

    {v
      state       store       flush       fence      power cycle
      Clean       Dirty       Clean       Clean      Clean
      Dirty       Dirty       Wpq         Dirty      Clean
      Wpq         Wpq_dirty   Wpq         Clean      Clean
      Wpq_dirty   Wpq_dirty   Wpq         Dirty      Clean
    v}

    {!Device} runs on the kernel and adds the bytes, the WPQ snapshots
    and the accounting.  The persist sanitizer and the waste profiler run
    it as the shadow of a device they see only through probe events; not
    knowing its size, they let the line array grow the first time a store
    lands past its end.

    The kernel holds no lock: the caller serialises flushes, fences and
    power cycles.  A fence costs time in proportion to the lines pending
    and drains them in ascending line order, one callback per line, so
    whatever a caller decides per line (the device's survival RNG) is
    consumed in the same order on every run. *)

val line_size : int
(** Line size in bytes (64). *)

val line_shift : int
(** [log2 line_size]. *)

type state = Clean | Dirty | Wpq | Wpq_dirty
(** [Wpq_dirty]: pending, and stored to since its snapshot. *)

type t

val create : int -> t
(** [create n] covers lines [0, n), all clean. *)

val state : t -> int -> state
(** A line past the end of the array is [Clean]. *)

val store : t -> int -> int -> unit
(** [store t off len] dirties every line intersecting [off, off+len),
    [len > 0]. *)

val flush_line : t -> int -> int
(** [flush_line t l] writes line [l] back.  A [Dirty] or [Wpq_dirty]
    line is {e newly pending}: it becomes [Wpq] and the result is its
    slot, [>= 0].  Otherwise the result is [-1].

    Slots number the pending lines from 0 in the order they entered the
    queue, so a caller can keep one snapshot per slot.  A re-flushed
    [Wpq_dirty] line keeps its slot; finding it searches the queue. *)

val pending : t -> int
(** Lines in the WPQ ([Wpq] or [Wpq_dirty]). *)

val drain : t -> ('a -> int -> int -> unit) -> 'a -> unit
(** [drain t f x] is a fence: in ascending line order, each pending line
    moves to [Clean] or [Dirty], then [f x line slot] runs.  Passing [x]
    lets callers hand a top-level [f], so a fence allocates nothing. *)

val iter_unclean : t -> ('a -> int -> unit) -> 'a -> unit
(** [iter_unclean t f x] runs [f x line] on every line not [Clean]. *)

val reset : t -> unit
(** Power loss: every line [Clean], the queue empty.  A caller that
    decides the fate of each pending line runs {!drain} first. *)
