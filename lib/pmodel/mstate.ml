(* Abstract machine state for the crash model checker.

   Memory is an array of WORDS (one word = one 8-byte atomic unit of the
   media), grouped into LINES of 8 words (one line = one 64-byte flush
   unit).  The machine has {!Pmem.Persist_sem}'s semantics at that
   granularity, but is written out on its own on purpose: it is the
   reference the shipped code is judged against, so it shares no code
   with it.

   - a store updates the volatile [view] and dirties its line;
   - a flush snapshots every changed word of a dirty line into the
     write-pending queue [wpq];
   - a fence drains the whole [wpq] to [durable];
   - a crash keeps [durable] plus an arbitrary SUBSET of the pending
     words — each 8-byte word of an in-flight line lands independently
     (this is the union of the device's per-line survival and per-word
     torn-write outcomes, i.e. every torn-word outcome of the in-flight
     line set).

   Words hold structured values rather than bytes, so checksums need no
   bit-level model: a sealed entry header records the exact body words
   its CRC covered, and verification is "every recorded word still reads
   back identically" — precisely what an epoch-salted CRC certifies
   (modulo collisions, which the model ignores by construction). *)

type cfg = { nslots : int; table_split : bool }
(* [table_split]: the two heap blocks' allocation-table bytes live in
   different 8-byte words (they tear independently) or share one word
   (they land atomically together).  Both geometries occur in a real
   pool; the checker enumerates both. *)

let words_per_line = 8
let slot_words = 32 (* 4 lines: header / entries / entries / drop area *)
let nblocks = 2

(* Block identities: 0 = "A", 1 = "B".  Fixed buddy orders so table
   marks are distinguishable. *)
let order_of_block b = 3 - b
let block_name = function 0 -> "A" | 1 -> "B" | _ -> "?"

(* {1 Word layout} *)

let slot_base cfg i =
  assert (i >= 0 && i < cfg.nslots);
  i * slot_words

let phase_w cfg s = slot_base cfg s
let count_w cfg s = slot_base cfg s + 1
let drops_w cfg s = slot_base cfg s + 2
let spill_w cfg s = slot_base cfg s + 3
let epoch_w cfg s = slot_base cfg s + 4
let entry_base cfg s = slot_base cfg s + 8
let entry_limit cfg s = slot_base cfg s + 24
let drop_capacity = 2

(* Drop slot [d] (1-based) is consed downward from the slot end, two
   words each: header then body. *)
let drop_hdr_w cfg s d = slot_base cfg s + slot_words - (2 * d)
let drop_body_w cfg s d = drop_hdr_w cfg s d + 1
let table_base_w cfg = cfg.nslots * slot_words

let table_w cfg b =
  table_base_w cfg + if cfg.table_split then b else 0

let table_sub cfg b = if cfg.table_split then 0 else b
let heap_base_w cfg = table_base_w cfg + words_per_line
let heap_w cfg b = heap_base_w cfg + (words_per_line * b)
let nwords cfg = heap_base_w cfg + (words_per_line * nblocks)

let word_name cfg w =
  if w >= heap_base_w cfg then
    let b = (w - heap_base_w cfg) / words_per_line in
    if w = heap_w cfg b then Printf.sprintf "heap.%s" (block_name b)
    else Printf.sprintf "heap.pad%d" w
  else if w >= table_base_w cfg then
    Printf.sprintf "table[%d]" (w - table_base_w cfg)
  else
    let s = w / slot_words and o = w mod slot_words in
    match o with
    | 0 -> Printf.sprintf "slot%d.phase" s
    | 1 -> Printf.sprintf "slot%d.count" s
    | 2 -> Printf.sprintf "slot%d.drops" s
    | 3 -> Printf.sprintf "slot%d.spill" s
    | 4 -> Printf.sprintf "slot%d.epoch" s
    | o when o >= 8 && o < 24 -> Printf.sprintf "slot%d.entry[%d]" s (o - 8)
    | o when o >= 24 -> Printf.sprintf "slot%d.droparea[%d]" s (o - 24)
    | o -> Printf.sprintf "slot%d.hdr[%d]" s o

(* {1 Values} *)

type kind = K_data | K_alloc | K_drop

type payload =
  | Undo of { blk : int; old_gen : int }  (* data entry: pre-image *)
  | Pad of int  (* second body word of a data entry (torn-body probe) *)
  | Alloc_of of { blk : int; order : int }
  | Drop_of of { blk : int; order : int }

type value =
  | Int of int
  | Gen of int  (* heap word: data generation (0 = initial contents) *)
  | Tab of int * int  (* table word: per-sub-slot 0 = free, order+1 = live *)
  | Ehdr of { kind : kind; epoch : int; body : (int * value) list }
      (* sealed entry header; [body] records (word, value) pairs the
         checksum covered — verification re-reads them *)
  | Eword of { wid : int; pay : payload }
      (* entry body word; [wid] is a globally unique write id, so two
         seals of the same logical content never alias *)

let kind_name = function
  | K_data -> "data"
  | K_alloc -> "alloc"
  | K_drop -> "drop"

let pp_value ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Gen g -> Format.fprintf ppf "gen:%d" g
  | Tab (a, b) -> Format.fprintf ppf "tab(%d,%d)" a b
  | Ehdr { kind; epoch; body } ->
      Format.fprintf ppf "hdr(%s,e%d,%dw)" (kind_name kind) epoch
        (List.length body)
  | Eword { wid; pay = _ } -> Format.fprintf ppf "body#%d" wid

let tab_get v sub =
  match v with
  | Tab (a, b) -> if sub = 0 then a else b
  | Int 0 -> 0 (* formatted-but-never-marked table word *)
  | _ -> -1 (* not a table value: structurally corrupt *)

let tab_set v sub code =
  let a, b = match v with Tab (a, b) -> (a, b) | _ -> (0, 0) in
  if sub = 0 then Tab (code, b) else Tab (a, code)

(* {1 The machine}

   Generic in the word value type, so {!Mcow} runs the shipped code's
   raw [int64] media words on the same machine. *)

type 'v mem = {
  durable : 'v array;
  view : 'v array;  (* what reads observe (durable + cached stores) *)
  line_dirty : bool array;
  wpq : (int, 'v) Hashtbl.t;  (* word -> flushed-but-unfenced snapshot *)
}

type state = value array
(* A durable image — the unit of crash-branch deduplication. *)

let initial_state cfg ~init_live =
  let d = Array.make (nwords cfg) (Int 0) in
  for b = 0 to nblocks - 1 do
    d.(heap_w cfg b) <- Gen 0;
    if init_live.(b) then
      d.(table_w cfg b) <-
        tab_set d.(table_w cfg b) (table_sub cfg b) (order_of_block b + 1)
  done;
  (* make every table word a [Tab] so stores compose predictably *)
  for b = 0 to nblocks - 1 do
    (match d.(table_w cfg b) with
    | Tab _ -> ()
    | v -> d.(table_w cfg b) <- tab_set v (table_sub cfg b) (tab_get v (table_sub cfg b)))
  done;
  d

let boot (s : 'v array) =
  {
    durable = Array.copy s;
    view = Array.copy s;
    line_dirty = Array.make ((Array.length s + words_per_line - 1) / words_per_line) false;
    wpq = Hashtbl.create 16;
  }

let read m w = m.view.(w)

let store m w v =
  m.view.(w) <- v;
  m.line_dirty.(w / words_per_line) <- true

let capture m w =
  if m.view.(w) <> m.durable.(w) then Hashtbl.replace m.wpq w m.view.(w)
  else Hashtbl.remove m.wpq w

(* Flush the lines containing [ws]: whole-line capture, exactly like the
   device — every word of a dirty line is snapshotted, including words
   the caller did not mean to persist yet.  Words whose view equals
   durable are dropped from the queue (landing them is a no-op). *)
let flush_words m ws =
  let lines = List.sort_uniq compare (List.map (fun w -> w / words_per_line) ws) in
  List.iter
    (fun l ->
      if m.line_dirty.(l) then begin
        let lo = l * words_per_line in
        let hi = min (lo + words_per_line) (Array.length m.view) in
        for w = lo to hi - 1 do
          capture m w
        done;
        m.line_dirty.(l) <- false
      end)
    lines

(* Word-granular flush: capture ONLY the listed words, leaving the rest
   of their (still dirty) lines out of the queue.  Never used by the
   correct protocol — this is how the Term_before_body fault variant
   models an entry whose body lines are missing from the seal's flush
   range (the tiny geometry packs what would be distinct lines of a real
   slot into one). *)
let flush_words_only m ws = List.iter (capture m) ws

let fence m =
  Hashtbl.iter (fun w v -> m.durable.(w) <- v) m.wpq;
  Hashtbl.reset m.wpq

(* {1 Crash outcomes} *)

let wpq_words m =
  List.sort compare (Hashtbl.fold (fun w _ acc -> w :: acc) m.wpq [])

let max_branch_words = 16

(* The durable image if the crash lands exactly the words selected by
   [mask] (bit i = i-th word of [wpq_words], ascending). *)
let crash_state m ~mask =
  let d = Array.copy m.durable in
  List.iteri
    (fun i w -> if mask land (1 lsl i) <> 0 then d.(w) <- Hashtbl.find m.wpq w)
    (wpq_words m);
  d

let snapshot_durable m = Array.copy m.durable

let equal_state (a : 'v array) b = a = b
