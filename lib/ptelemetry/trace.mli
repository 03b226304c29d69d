(** Event tracing for the PM stack.

    A single global subscriber (bounded in-memory rings, or a JSONL
    stream) receives timestamped events from instrumentation sites in
    the device, journal, allocator and pool layers.  Timestamps are the
    device's {e simulated} nanoseconds, so traces are deterministic and
    reflect PM cost, not host noise.

    With no subscriber installed, {!on} is false and every emission
    site reduces to one atomic load and a branch — the uninstrumented
    hot path stays within noise, and {e zero} events are retained.

    The ring subscriber can be {e sharded per domain}
    ([install_ring ~shards]): each emitting domain appends to its own
    ring under its own lock, so N domains tracing concurrently never
    serialize on one ring mutex; {!events} merges the rings back into
    one stream ordered by simulated time, with [tid] identifying the
    emitting domain — one Chrome trace, one track per domain.

    The rings export Chrome [trace_event] JSON ({!to_chrome_json},
    loadable in [chrome://tracing] / Perfetto) and one-event-per-line
    JSONL.  {!Trace_schema} validates both and parses them back. *)

type phase =
  | B  (** span begin (paired with [E] per thread, LIFO) *)
  | E  (** span end *)
  | I  (** instant *)
  | X of float  (** complete span carrying its duration in ns *)

type event = {
  name : string;
  cat : string;  (** category: [tx], [journal], [device], [alloc], … *)
  ph : phase;
  ts_ns : float;  (** simulated-ns timestamp *)
  tid : int;  (** emitting domain id *)
  args : (string * string) list;
}

(** {1 Subscription} *)

val install_ring : ?capacity:int -> ?shards:int -> unit -> unit
(** Subscribe an in-memory ring keeping the most recent [capacity]
    events {e per shard} (default 65536); older events are overwritten
    and counted in {!dropped}.  [shards] (default 1, rounded up to a
    power of two) shards the ring by emitting domain id: each domain
    appends under its own ring's lock, eliminating cross-domain
    contention on the trace path.  Replaces any current subscriber. *)

val install_jsonl : out_channel -> unit
(** Subscribe a streaming sink: each event is written immediately as
    one JSON object per line.  The channel is flushed on
    {!uninstall}. *)

val install_fn : (event -> unit) -> unit
(** Subscribe a function, called synchronously on the emitting domain
    for every event, under no lock — so it may block that domain at an
    exact instrumentation point (concurrency tests use this to force an
    interleaving).  It must be safe to call from several domains at
    once. *)

val install_null : unit -> unit
(** Subscribe a sink that discards every event.  {!on} becomes true, so
    gated side effects that ride the trace gate — notably the
    {!Metrics} registry updates at instrumentation sites — run without
    paying for event retention.  Used by [--metrics] when no [--trace]
    ring is wanted. *)

val uninstall : unit -> unit
(** Remove the subscriber.  {!on} becomes false; a ring's events remain
    readable through {!events} until the next [install_*]. *)

val on : unit -> bool
(** Whether a subscriber is installed — the guard every instrumentation
    site checks before doing any telemetry work. *)

val set_detail : [ `Ordering | `All ] -> unit
(** [`Ordering] (default): the device emits only ordering points
    (flush/fence).  [`All]: individual loads and stores emit instant
    events too — very verbose; for short windows only. *)

val verbose : unit -> bool
(** [on () && detail = `All]. *)

(** {1 Emission} *)

val emit :
  ?args:(string * string) list ->
  ?tid:int ->
  cat:string ->
  name:string ->
  ph:phase ->
  ts_ns:float ->
  unit ->
  unit
(** No-op unless {!on}.  [tid] defaults to the calling domain's id. *)

val begin_span :
  ?args:(string * string) list -> cat:string -> name:string -> ts_ns:float -> unit -> unit

val end_span :
  ?args:(string * string) list -> cat:string -> name:string -> ts_ns:float -> unit -> unit

(** {1 Reading the ring} *)

val events : unit -> event list
(** Events currently retained, oldest first.  With a sharded ring, the
    per-domain rings are merged into one stream ordered by simulated
    timestamp (ties keep each ring's own emission order).  [[]] when
    the subscriber is a JSONL stream or nothing was ever installed. *)

val dropped : unit -> int
(** Events overwritten by ring wrap-around since the last install,
    summed over shards. *)

val clear : unit -> unit
(** Empty the ring(s) (keeps the subscription). *)

(** {1 Export} *)

val event_to_json : event -> Json.t
(** One Chrome [trace_event] object; [ts]/[dur] are microseconds. *)

val to_chrome_json : event list -> string
(** A complete [{"traceEvents": […]}] document. *)

val save_chrome : string -> unit
(** Write the ring's current contents as Chrome JSON to a file. *)
