(* Protocol variants: the correct protocol plus deliberately broken
   mutations, each known-unsafe, used as positive controls — the checker
   must produce a counterexample for every broken variant, mirroring the
   [Fault_profile] pattern psan's positive controls use. *)

type t =
  | Correct
  | Term_before_body
      (* the seal's flush covers the entry header and terminator but not
         the body words — the persist-ordering bug the sealed-CRC is
         there to catch: a durable header whose body never lands leaves
         the walk blind to the entry, so its target stores cannot be
         rolled back *)
  | Truncate_before_clears
      (* the truncate's header persist (log invalidation) runs BEFORE
         the batched table-clear persist, violating
         I-CLEARS-BEFORE-INVALIDATE: a crash in between leaves clears
         that can no longer be re-derived from the (now dead) log *)
  | Trust_advisory
      (* recovery believes the advisory header count instead of walking
         to the terminator: counts are never persisted during a
         transaction, so its durable entries are ignored and its
         partially-landed target stores survive recovery *)
  | Partial_merge
      (* the group-commit leader's merged flush drops every member's
         words but the first — the combiner bug the epoch batch exists
         to rule out: a member retires its log believing the shared
         fence covered it, but its target stores were never flushed *)
  | Swap_before_flush
      (* CoW family ({!Mcow}), a rewrite of the engine's captured
         schedule: each transaction's packed root word is stored and
         flushed BEFORE its first flush, ahead of the intent seal, the
         shadow flush and the commit fence — the ordering bug the
         cow_commit_plan exists to rule out: a crash can land the new
         root while the data it points at (and the intent that would
         re-derive it) never reached media *)

let all =
  [
    Correct;
    Term_before_body;
    Truncate_before_clears;
    Trust_advisory;
    Partial_merge;
    Swap_before_flush;
  ]

let broken =
  [
    Term_before_body;
    Truncate_before_clears;
    Trust_advisory;
    Partial_merge;
    Swap_before_flush;
  ]

(* The model family a variant runs in: each mutation perturbs one
   family's protocol, and the correct protocol runs in every family. *)
type family = Journal | Cow

let families = function
  | Correct -> [ Journal; Cow ]
  | Term_before_body | Truncate_before_clears | Trust_advisory | Partial_merge
    ->
      [ Journal ]
  | Swap_before_flush -> [ Cow ]

let name = function
  | Correct -> "correct"
  | Term_before_body -> "term-before-body"
  | Truncate_before_clears -> "truncate-before-clears"
  | Trust_advisory -> "trust-advisory"
  | Partial_merge -> "partial-merge"
  | Swap_before_flush -> "swap-before-flush"

let of_name s =
  List.find_opt (fun v -> name v = s) all

let describe = function
  | Correct -> "the shipped protocol (expected: zero violations)"
  | Term_before_body ->
      "seal persists header+terminator without the entry body"
  | Truncate_before_clears ->
      "truncate invalidates the log before persisting table clears"
  | Trust_advisory ->
      "recovery trusts the advisory count instead of the tail walk"
  | Partial_merge ->
      "group-commit leader flushes only the first member's lines"
  | Swap_before_flush ->
      "CoW root swap hoisted above the transaction's first flush"
