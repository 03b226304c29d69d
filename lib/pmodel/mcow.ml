(* Exhaustive crash-state checking of the shipped CoW ("mod" engine)
   commit: {!Engines.Mod_engine} and {!Corundum.Cow_root.recover}, a
   family of {!Mcheck}'s enumerator.

   Each program runs on the real engine over a tiny pool, and its
   persist steps are captured ({!Mcapture}) onto a dense image of the
   lines it touches: the root cell (root word and both intent slots),
   the allocation-table line and the two heap blocks' first lines.  A
   crash image is recovered by running the real [Cow_root.recover] on a
   device holding it, replayed onto the model so recovery's own crashes
   are enumerated too.  The oracle decodes the root word, table codes
   and heap payloads with the shipped layout, adds the root word to
   durable linearizability, and requires every intent record to be
   retired (I-QUIESCENT-INTENT).

   Aborts are not modeled: the engine's abort is purely volatile
   (reservations cancelled, nothing of an uncommitted transaction was
   ever flushed), so an aborting transaction contributes no persist
   point and no crash branch the empty schedule does not already
   cover. *)

module D = Pmem.Device
module P = Corundum.Pool_impl
module R = Corundum.Cow_root
module B = Palloc.Buddy
module T = Palloc.Alloc_table
module E = Engines.Mod_engine
module Mx = Mcapture
open Mcheck

(* {1 Programs}

   Two heap blocks: A (512 B, buddy order 3) and B (256 B, order 2).  A
   transaction's stores write its number into a block's first word, so
   a heap payload names the transaction that last wrote it (0: the
   initial contents).  A root pointer is 0 (no root) or b+1 for block
   b. *)

let nblocks = 2
let order_of_block b = 3 - b
let block_name = function 0 -> "A" | 1 -> "B" | _ -> "?"
let ptr_name = function 0 -> "none" | p -> block_name (p - 1)

type op = Pub of int | Alloc of int | Free of int | Set_root of int
type tx = { ops : op list }

type program = {
  descr : string;
  init_live : bool array;
  init_root : int;
  txs : tx list;
}

let op_name = function
  | Pub b -> "pub " ^ block_name b
  | Alloc b -> "alloc " ^ block_name b
  | Free b -> "free " ^ block_name b
  | Set_root p -> "set-root " ^ ptr_name p

let tx_name t =
  Printf.sprintf "{%s}" (String.concat "; " (List.map op_name t.ops))

(* Every committing transaction shape the engine produces: in-place
   update (Publish), alloc+write (+swap), frees (Gen_only/Swap/Publish),
   a publish dropped into a same-tx-freed block, the intent-less bare
   swap, and pairs exercising generation chaining, unfenced-tail
   draining, old-root retirement, and free-then-realloc intent-cell
   reuse. *)
let programs : program list =
  let mk descr init_live init_root txs = { descr; init_live; init_root; txs } in
  let t ops = { ops } in
  [
    mk "update" [| true; false |] 1 [ t [ Pub 0 ] ];
    mk "update-two-words" [| true; true |] 1 [ t [ Pub 0; Pub 1 ] ];
    mk "alloc+write+swap" [| true; false |] 1 [ t [ Alloc 1; Set_root 2 ] ];
    mk "alloc+pub" [| true; false |] 1 [ t [ Alloc 1; Pub 0 ] ];
    mk "free" [| true; true |] 1 [ t [ Free 1 ] ];
    mk "pub+free" [| true; true |] 1 [ t [ Pub 0; Free 1 ] ];
    mk "pub-into-freed" [| true; true |] 1 [ t [ Pub 1; Free 1 ] ];
    mk "bare-swap" [| true; true |] 1 [ t [ Set_root 2 ] ];
    mk "swap+free-old" [| true; true |] 2 [ t [ Set_root 1; Free 1 ] ];
    mk "update;update" [| true; false |] 1 [ t [ Pub 0 ]; t [ Pub 0 ] ];
    mk "update;bare-swap" [| true; true |] 1 [ t [ Pub 0 ]; t [ Set_root 2 ] ];
    mk "alloc+swap;free-old" [| true; false |] 1
      [ t [ Alloc 1; Set_root 2 ]; t [ Free 0 ] ];
    mk "free;realloc" [| true; true |] 1
      [ t [ Free 1 ]; t [ Alloc 1; Pub 0 ] ];
    mk "update;alloc+pub" [| true; false |] 1
      [ t [ Pub 0 ]; t [ Alloc 1; Pub 0 ] ];
    mk "bare-swap;bare-swap" [| true; true |] 1
      [ t [ Set_root 2 ]; t [ Set_root 1 ] ];
  ]

(* {1 The pool}

   One journal slot (the engine uses none) and one allocator stripe, so
   the buddy hands out the same blocks in every program: A and B are
   allocated in that order at format time, and a block not initially
   live is freed again, to be reissued by the program's own alloc. *)

let config = { P.size = 256 * 1024; nslots = 1; slot_size = 4096 }
let cell = 0 (* the root cell the engine commits through *)

let setup p =
  let pool = P.create ~config ~latency:Pmem.Latency.zero () in
  let dev = P.device pool and b = P.buddy pool in
  let offs =
    Array.init nblocks (fun blk -> B.alloc b (B.size_of_order (order_of_block blk)))
  in
  Array.iteri (fun blk off -> if not p.init_live.(blk) then B.dealloc b off) offs;
  let ptr = if p.init_root = 0 then 0 else offs.(p.init_root - 1) in
  R.store_swap cell dev ~ptr ~gen:0;
  R.flush_swap cell dev;
  D.fence dev;
  (pool, offs)

(* The modeled lines and where the oracle finds its words, identical in
   every program. *)
type geometry = {
  layout : Mx.layout;
  offs : int array;  (* heap offset of each block *)
  root_w : int;
  heap_w : int array;  (* image word of each block's payload *)
  table_byte : int array;  (* device offset of each block's table byte *)
  names : string array;
  recovery_dev : D.t;  (* recovery runs here *)
  table : T.t;
}

let geometry =
  lazy
    (let pool, offs = setup (List.hd programs) in
     let dev = P.device pool and b = P.buddy pool in
     let table_base = Int64.to_int (D.read_u64 dev P.hdr_table_base) in
     let table_byte =
       Array.map (fun o -> table_base + T.index_of_offset (B.table b) o) offs
     in
     let layout =
       Mx.layout
         (List.init (R.cell_bytes / D.line_size) (fun i ->
              (R.cell_off cell / D.line_size) + i)
         @ List.map (fun o -> o / D.line_size)
             (Array.to_list table_byte @ Array.to_list offs))
     in
     let word off = Option.get (Mx.word_at layout off) in
     (* a word is named after the nearest region start at or below it *)
     let regions =
       List.sort
         (fun (_, a) (_, b) -> compare b a)
         ([ ("root", R.cell_off cell); ("table", table_base) ]
         @ List.init R.slots (fun s -> (Printf.sprintf "intent%d" s, R.intent_off cell s))
         @ List.mapi (fun b o -> ("heap." ^ block_name b, o)) (Array.to_list offs))
     in
     let name off =
       let r, base = List.find (fun (_, base) -> base <= off) regions in
       if off = base then r else Printf.sprintf "%s+%d" r (off - base)
     in
     {
       layout;
       offs;
       root_w = word (R.cell_off cell);
       heap_w = Array.map word offs;
       table_byte;
       names = Array.init (Mx.nwords layout) (fun w -> name (Mx.offset layout w));
       recovery_dev = dev;
       table = B.table b;
     })

let payload uid = Int64.of_int uid
let ptr_off g p = if p = 0 then 0 else g.offs.(p - 1)
let pp_value ppf v = Format.fprintf ppf "%#Lx" v

(* {1 Schedules: the engine's own persist steps} *)

(* A transaction is retired (unambiguously applied) at the first fence
   after its root-word flush: the buffered-durability window every
   commit closes with its next fence. *)
let mark_retired g steps =
  let tx = ref 0 and awaiting = ref [] in
  List.concat_map
    (fun s ->
      match s.act with
      | Mark (M_start u) ->
          tx := u;
          [ s ]
      | Fl ws when List.mem g.root_w ws ->
          awaiting := !tx :: !awaiting;
          [ s ]
      | Fence ->
          let retired =
            List.rev_map (fun u -> { act = Mark (M_retired u); lbl = "" }) !awaiting
          in
          awaiting := [];
          s :: retired
      | _ -> [ s ])
    steps

type run = {
  initial : int64 array;
  steps : int64 step list;
  persist_points : int;  (* the device's own count over the run *)
}

let run_program p =
  let g = Lazy.force geometry in
  let pool, offs = setup p in
  if offs <> g.offs then failwith "Mcow: the buddy moved the program's blocks";
  let dev = P.device pool in
  let eng = E.of_pool pool in
  let initial = Mx.image g.layout dev in
  let pp0 = D.persist_points dev in
  let op t uid = function
    | Pub b -> E.write t offs.(b) (payload uid)
    | Alloc b ->
        let off = E.alloc t (B.size_of_order (order_of_block b)) in
        if off <> offs.(b) then
          failwith
            (Printf.sprintf "Mcow: %s: alloc %s returned %#x, not %#x" p.descr
               (block_name b) off offs.(b));
        E.write t off (payload uid)
    | Free b -> E.free t offs.(b)
    | Set_root q -> E.set_root t (ptr_off g q)
  in
  let steps, () =
    Mx.capture g.layout dev (fun () ->
        List.iteri
          (fun i tx -> E.transaction eng (fun t -> List.iter (op t (i + 1)) tx.ops))
          p.txs)
  in
  { initial; steps = mark_retired g steps; persist_points = D.persist_points dev - pp0 }

let runs = lazy (List.map (fun p -> (p.descr, run_program p)) programs)
let run p = List.assoc p.descr (Lazy.force runs)

(* The seeded Swap_before_flush bug, as a rewrite of the captured
   schedule: each transaction's root-word store and flush are hoisted
   above its first flush, so the new root can land before the data it
   points at and the intent that would re-derive it.  The markers stay
   where the shipped protocol put them. *)
let swap_before_flush g steps =
  let is_swap s =
    match s.act with
    | St (w, _) -> w = g.root_w
    | Fl ws -> List.mem g.root_w ws
    | _ -> false
  in
  (* key: (transaction, 0 before its first other flush | 1 the swap | 2 after) *)
  let tx = ref 0 and phase = ref 0 in
  List.map
    (fun s ->
      (match s.act with
      | Mark (M_start _) -> incr tx; phase := 0
      | Fl _ when not (is_swap s) -> phase := 2
      | _ -> ());
      if is_swap s then ((!tx, 1), { s with lbl = "PREMATURE root swap" })
      else ((!tx, !phase), s))
    steps
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* {1 The oracle} *)

let allowed_outcomes _prog _i st =
  match st with
  | NotStarted | InFlight -> [ Rolled_back ]
  | Window -> [ Rolled_back; Applied ]
  | Retired -> [ Applied ]

(* Replay a composition: per-block payload and table code, the root
   pointer, and the root generation (each applied transaction advances
   it by exactly one — the igen chain). *)
let expected prog sigma =
  let gens = Array.make nblocks 0 in
  let codes =
    Array.init nblocks (fun b ->
        if prog.init_live.(b) then order_of_block b + 1 else 0)
  in
  let rptr = ref prog.init_root and rgen = ref 0 in
  List.iteri
    (fun i tx ->
      if sigma.(i) = Applied then begin
        let uid = i + 1 in
        let frees =
          List.filter_map (function Free b -> Some b | _ -> None) tx.ops
        in
        List.iter
          (fun op ->
            match op with
            | Pub b -> if not (List.mem b frees) then gens.(b) <- uid
            | Alloc b ->
                codes.(b) <- order_of_block b + 1;
                gens.(b) <- uid
            | Free b -> codes.(b) <- 0
            | Set_root p -> rptr := p)
          tx.ops;
        incr rgen
      end)
    prog.txs;
  (gens, codes, !rptr, !rgen)

(* The allocation-table byte of block [b] (0 free, order+1 live). *)
let table_code g (st : int64 array) b =
  let off = g.table_byte.(b) in
  let w = Option.get (Mx.word_at g.layout off) in
  Int64.to_int (Int64.shift_right_logical st.(w) (8 * (off mod 8))) land 0xFF

(* Free blocks hold dead bytes — only live blocks' payloads count. *)
let state_matches () prog sigma (st : int64 array) ~heap_only =
  let g = Lazy.force geometry in
  let gens, codes, rptr, rgen = expected prog sigma in
  let ok = ref true in
  for b = 0 to nblocks - 1 do
    if codes.(b) > 0 && st.(g.heap_w.(b)) <> payload gens.(b) then ok := false;
    if (not heap_only) && table_code g st b <> codes.(b) then ok := false
  done;
  if (not heap_only) && R.unpack st.(g.root_w) <> (ptr_off g rptr, rgen) then
    ok := false;
  !ok

(* {1 The CoW family}

   One config.  The run is crashed after its last persist point too: the
   last transaction's unfenced tail is legitimately still in flight. *)

let family =
  {
    name = "cow";
    tag = Mvariant.Cow;
    cfgs = [ () ];
    programs = (fun () -> programs);
    ntxs = (fun p -> List.length p.txs);
    schedule =
      (fun () v p ->
        if v = Mvariant.Swap_before_flush then
          swap_before_flush (Lazy.force geometry) (run p).steps
        else (run p).steps);
    initial = (fun () p -> (run p).initial);
    recover =
      (fun _ clk () m ->
        let g = Lazy.force geometry in
        Mx.recover g.layout g.recovery_dev (fun () -> ignore (R.recover g.recovery_dev g.table)) clk m);
    allowed = allowed_outcomes;
    matches = state_matches;
    quiescent =
      (fun () st ->
        let g = Lazy.force geometry in
        Mx.load g.layout g.recovery_dev st;
        if List.exists (fun s -> R.read_intent cell s g.recovery_dev <> None)
             (List.init R.slots Fun.id)
        then Some ("I-QUIESCENT-INTENT", "a readable intent survived recovery")
        else None);
    liveness_detail = "heap matches a composition but table/root words match none";
    recovers_end = true;
    title = "CoW family, ";
    describe = (fun () p -> p.descr);
    tx_names = (fun p -> List.map tx_name p.txs);
    word_name = (fun () w -> (Lazy.force geometry).names.(w));
    name_width = 16;
    pp_value;
    blank = 0L;
    cfg_key = (fun () -> "cow");
    parse_cfg = (function "cow" :: rest -> Some ((), rest) | _ -> None);
  }
