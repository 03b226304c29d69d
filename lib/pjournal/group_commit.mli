(** Cross-transaction group commit: the epoch combiner.

    Transactions committing concurrently into one shared pool publish
    the 64-byte lines their commit must make durable; one leader per
    epoch issues the merged, deduplicated flush runs and a single fence
    on behalf of every member (an sfence drains the whole write-pending
    queue, so the one fence is every member's commit point at once).
    K concurrent commits cost one fence epoch instead of K; a solo
    commit degenerates to the private path with zero extra fences.

    Interpreted by {!Journal_impl.commit} as the [Merge_runs] and
    [Epoch_fence] phases of {!Protocol.group_commit_plan}; modeled and
    crash-enumerated by [Pmodel].  See DESIGN.md §13. *)

type t

val create : ?linger:int -> open_txs:int Atomic.t -> Pmem.Device.t -> t
(** A fresh combiner for one device.  Build one per shared pool at
    open/attach time — never reuse a combiner across a power cycle (a
    crash poisons it).  [open_txs] is the owning pool's live count of
    open transactions, committing ones included.  [linger] (default 0:
    disabled) is the leader's batch-until-quiet spin budget: while
    [open_txs] exceeds the epoch's member count — some open transaction
    could still join — the epoch stays open for up to that many quiet
    spin rounds after the previous epoch's flush drains, restarting
    whenever a commit joins.  Once every open transaction has joined or
    ended the epoch closes at once, so a solo commit spins for zero
    rounds.  Lingering costs wall-clock time on the leader only — never
    a fence, never simulated time.  A transaction blocked on a lock the
    leader holds still counts as open, so the leader waits out the
    budget for it. *)

val commit : t -> lines:(int, unit) Hashtbl.t -> unit
(** Join the open epoch, publishing [lines] (the transaction's
    deduplicated commit line set: logged targets, table marks, drop
    records).  Returns once the epoch's single fence has been issued —
    everything published is then durable.  Raises
    {!Pmem.Device.Crashed} if the device dies before this epoch's
    fence (the member's slot is rolled back independently by
    recovery); after that every call raises until a fresh combiner is
    built. *)

type stats = {
  epochs : int;  (** fence epochs issued *)
  commits : int;  (** transactions committed through the combiner *)
  solo_epochs : int;  (** epochs with exactly one member *)
  max_occupancy : int;  (** largest member count of any epoch *)
  linger_rounds : int;  (** leader spin rounds spent lingering, all epochs *)
}

val stats : t -> stats
val mean_occupancy : stats -> float
(** [commits /. epochs]; 0 when no epoch has completed. *)

val flush_lines : Pmem.Device.t -> (int, unit) Hashtbl.t -> unit
(** Flush a set of 64-byte line indexes as coalesced runs: one flush
    call per contiguous run, never merged across a gap.  Shared with
    the solo commit path in {!Journal_impl}. *)
