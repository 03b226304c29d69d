(* The writer side of the model: tiny transaction programs and their
   expansion into persist-granular step schedules.

   The expansion mirrors {!Pjournal.Journal_impl} operation by
   operation, and — crucially — drives the commit/abort/truncate tails
   from the very same {!Pjournal.Protocol} plans the implementation
   interprets, so a protocol reordering changes the checked schedule and
   the executed one together. *)

module Ms = Mstate
module Mr = Mrecovery
module Pt = Pjournal.Protocol
open Mcheck

(* {1 Programs} *)

type op = Set of int | Alloc of int | Free of int
type txk = Commit | Abort

type tx = { ops : op list; k : txk }

type shape =
  | Seq  (* transactions run back to back on slot 0 *)
  | Interleaved
      (* exactly two transactions on disjoint blocks: tx1 runs entirely
         inside tx0's logging window, each on its own slot (two domains) *)
  | Grouped
      (* exactly two committing transactions on disjoint blocks, each on
         its own slot, committing through the group-commit epoch
         combiner: one merged flush + ONE shared fence (both commit
         points), then each member's drops and truncate.  A crash before
         the shared fence is the leader dying mid-epoch — both slots
         must roll back independently. *)

type program = {
  descr : string;
  init_live : bool array;  (* per block: allocated before the program *)
  txs : tx list;
  shape : shape;
}

let op_name = function
  | Set b -> "set " ^ Ms.block_name b
  | Alloc b -> "alloc " ^ Ms.block_name b
  | Free b -> "free " ^ Ms.block_name b

let tx_name t =
  Printf.sprintf "{%s}:%s"
    (String.concat "; " (List.map op_name t.ops))
    (match t.k with Commit -> "commit" | Abort -> "abort")

let describe p =
  let init =
    String.concat ""
      (List.filteri (fun b _ -> p.init_live.(b)) [ "A"; "B" ])
  in
  Printf.sprintf "init[%s]%s %s" init
    (match p.shape with
    | Seq -> ""
    | Interleaved -> " interleaved"
    | Grouped -> " grouped")
    (String.concat " " (List.map tx_name p.txs))

(* {1 Expansion} *)

type gctx = {
  cfg : Ms.cfg;
  variant : Mvariant.t;
  mutable wid : int;
  gen : int array;  (* volatile heap generation per block *)
  code : int array;  (* volatile table code per block (0 / order+1) *)
  held : bool array;  (* block owned by the buddy (not reusable) *)
}

type slot_shadow = {
  s : int;
  mutable epoch : int;
  mutable cursor : int;
  mutable count : int;
  mutable ndrops : int;
  mutable drops : (int * int) list;  (* (blk, order), newest first *)
  mutable entries : sentry list;  (* newest first *)
  mutable marks : int list;
  mutable targets : int list;
  mutable logged : int list;
  mutable alloced : int list;
}

and sentry =
  | E_data of { blk : int; old_gen : int }
  | E_alloc of { blk : int; order : int }

let fresh_wid ctx =
  ctx.wid <- ctx.wid + 1;
  ctx.wid

let tab_value cfg code w =
  if cfg.Ms.table_split then Ms.Tab (code.(w - Ms.table_base_w cfg), 0)
  else Ms.Tab (code.(0), code.(1))

let new_shadow cfg s =
  {
    s;
    epoch = 0;
    cursor = Ms.entry_base cfg s;
    count = 0;
    ndrops = 0;
    drops = [];
    entries = [];
    marks = [];
    targets = [];
    logged = [];
    alloced = [];
  }

let reset_tx_shadow cfg sh =
  sh.cursor <- Ms.entry_base cfg sh.s;
  sh.count <- 0;
  sh.ndrops <- 0;
  sh.drops <- [];
  sh.entries <- [];
  sh.marks <- [];
  sh.targets <- [];
  sh.logged <- [];
  sh.alloced <- []

(* Seal an entry: body stores, header store, terminator store, then one
   flush + fence over entry and terminator together (the checksummed
   tail).  The Term_before_body variant narrows the flush to header and
   terminator only. *)
let seal ctx buf sh ~lbl words ~term_w =
  let push act = buf := { act; lbl } :: !buf in
  let hdr_w = fst (List.hd words) in
  List.iter (fun (w, v) -> push (St (w, v))) (List.tl words);
  push (St (fst (List.hd words), snd (List.hd words)));
  push (St (term_w, Ms.Int 0));
  (match ctx.variant with
  | Mvariant.Term_before_body -> push (Flw [ hdr_w; term_w ])
  | _ -> push (Fl (List.map fst words @ [ term_w ])));
  push Fence;
  sh.count <- sh.count + 1

let gen_op ctx buf sh ~uid op =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  match op with
  | Set blk ->
      let covered = List.mem blk sh.logged || List.mem blk sh.alloced in
      if not covered then begin
        let c = sh.cursor in
        assert (c + 3 < Ms.entry_limit cfg sh.s);
        let old_gen = ctx.gen.(blk) in
        let b1 = Ms.Eword { wid = fresh_wid ctx; pay = Ms.Undo { blk; old_gen } } in
        let b2 = Ms.Eword { wid = fresh_wid ctx; pay = Ms.Pad 0 } in
        let hdr =
          Ms.Ehdr
            {
              kind = Ms.K_data;
              epoch = sh.epoch;
              body = [ (c + 1, b1); (c + 2, b2) ];
            }
        in
        seal ctx buf sh
          ~lbl:(Printf.sprintf "seal data %s" (Ms.block_name blk))
          [ (c, hdr); (c + 1, b1); (c + 2, b2) ]
          ~term_w:(c + 3);
        sh.cursor <- c + 3;
        sh.entries <- E_data { blk; old_gen } :: sh.entries;
        sh.logged <- blk :: sh.logged
      end;
      push ~lbl:(Printf.sprintf "store %s" (Ms.block_name blk))
        (St (Ms.heap_w cfg blk, Ms.Gen uid));
      if not (List.mem (Ms.heap_w cfg blk) sh.targets) then
        sh.targets <- Ms.heap_w cfg blk :: sh.targets;
      ctx.gen.(blk) <- uid
  | Alloc blk ->
      assert (not ctx.held.(blk));
      let order = Ms.order_of_block blk in
      let c = sh.cursor in
      assert (c + 2 < Ms.entry_limit cfg sh.s);
      let b1 = Ms.Eword { wid = fresh_wid ctx; pay = Ms.Alloc_of { blk; order } } in
      let hdr =
        Ms.Ehdr { kind = Ms.K_alloc; epoch = sh.epoch; body = [ (c + 1, b1) ] }
      in
      seal ctx buf sh
        ~lbl:(Printf.sprintf "seal alloc %s" (Ms.block_name blk))
        [ (c, hdr); (c + 1, b1) ]
        ~term_w:(c + 2);
      sh.cursor <- c + 2;
      sh.entries <- E_alloc { blk; order } :: sh.entries;
      sh.alloced <- blk :: sh.alloced;
      (* mark-after-seal: the dirty table mark, durable only under the
         commit fence *)
      ctx.held.(blk) <- true;
      ctx.code.(blk) <- order + 1;
      push ~lbl:(Printf.sprintf "mark %s" (Ms.block_name blk))
        (St (Ms.table_w cfg blk, tab_value cfg ctx.code (Ms.table_w cfg blk)));
      if not (List.mem (Ms.table_w cfg blk) sh.marks) then
        sh.marks <- Ms.table_w cfg blk :: sh.marks
  | Free blk ->
      let order = Ms.order_of_block blk in
      let d = sh.ndrops + 1 in
      assert (d <= Ms.drop_capacity);
      let bw = Ms.drop_body_w cfg sh.s d and hw = Ms.drop_hdr_w cfg sh.s d in
      let body = Ms.Eword { wid = fresh_wid ctx; pay = Ms.Drop_of { blk; order } } in
      let lbl = Printf.sprintf "drop %s" (Ms.block_name blk) in
      push ~lbl (St (bw, body));
      push ~lbl
        (St (hw, Ms.Ehdr { kind = Ms.K_drop; epoch = sh.epoch; body = [ (bw, body) ] }));
      sh.ndrops <- d;
      sh.drops <- (blk, order) :: sh.drops

(* The truncate tail, from {!Pjournal.Protocol.truncate_plan} — except
   under Truncate_before_clears, which swaps the header persist in front
   of the clear persist (the bug the plan's ordering exists to rule
   out). *)
let truncate_steps ctx buf sh ~clears ~retired =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  let plan =
    match ctx.variant with
    | Mvariant.Truncate_before_clears when clears <> [] ->
        [ Pt.Reset_header; Pt.Persist_clears ]
    | _ -> Pt.truncate_plan ~spills:false ~clears:(clears <> [])
  in
  List.iter
    (fun ph ->
      match ph with
      | Pt.Persist_clears ->
          push ~lbl:"persist clears" (Fl (List.sort_uniq compare clears));
          push ~lbl:"persist clears" Fence
      | Pt.Reset_header ->
          sh.epoch <- sh.epoch + 1;
          let lbl = "truncate" in
          push ~lbl (St (Ms.count_w cfg sh.s, Ms.Int 0));
          push ~lbl (St (Ms.drops_w cfg sh.s, Ms.Int 0));
          push ~lbl (St (Ms.spill_w cfg sh.s, Ms.Int 0));
          push ~lbl (St (Ms.epoch_w cfg sh.s, Ms.Int sh.epoch));
          push ~lbl (St (Ms.entry_base cfg sh.s, Ms.Int 0));
          push ~lbl (St (Ms.phase_w cfg sh.s, Ms.Int 0));
          push ~lbl (Fl [ Ms.phase_w cfg sh.s; Ms.entry_base cfg sh.s ]);
          push ~lbl Fence;
          (match retired with
          | Some uid -> push (Mark (M_retired uid))
          | None -> ())
      | _ -> assert false)
    plan

let commit_steps ctx buf sh ~uid =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  if sh.count = 0 && sh.ndrops = 0 then begin
    (* nothing durable to do; the journal short-circuits *)
    push (Mark (M_commit_point uid));
    push (Mark (M_retired uid))
  end
  else begin
    let clears = ref [] in
    List.iter
      (fun ph ->
        match ph with
        | Pt.Flush_targets ->
            if sh.targets <> [] then
              push ~lbl:"flush targets" (Fl (List.sort_uniq compare sh.targets))
        | Pt.Flush_marks ->
            if sh.marks <> [] then
              push ~lbl:"flush marks" (Fl (List.sort_uniq compare sh.marks))
        | Pt.Persist_drop_area ->
            (* drop records only — the advisory header counts stay
               volatile (zeroed durably at truncation), exactly like the
               implementation *)
            let ws = ref [] in
            for d = 1 to sh.ndrops do
              ws := Ms.drop_hdr_w cfg sh.s d :: Ms.drop_body_w cfg sh.s d :: !ws
            done;
            push ~lbl:"flush drop area" (Fl (List.sort compare !ws))
        | Pt.Commit_fence ->
            push ~lbl:"commit fence" Fence;
            push (Mark (M_commit_point uid))
        | Pt.Apply_drops ->
            List.iter
              (fun (blk, _order) ->
                ctx.code.(blk) <- 0;
                ctx.held.(blk) <- false;
                push ~lbl:(Printf.sprintf "apply drop %s" (Ms.block_name blk))
                  (St
                     ( Ms.table_w cfg blk,
                       tab_value cfg ctx.code (Ms.table_w cfg blk) ));
                clears := Ms.table_w cfg blk :: !clears)
              (List.rev sh.drops)
        | _ -> assert false)
      (Pt.commit_plan ~ndrops:sh.ndrops);
    truncate_steps ctx buf sh ~clears:!clears ~retired:(Some uid)
  end;
  reset_tx_shadow cfg sh

(* Group commit, from {!Pjournal.Protocol.group_commit_plan}: the epoch
   leader's merged flush covers every member's targets, marks and drop
   records, one shared fence is every member's commit point, then each
   member applies its drops and truncates its own slot.  The completion
   steps serialize what runs concurrently on the real pool, but every
   persist still crashes word-granularly, and a crash before the shared
   fence is exactly the leader dying mid-epoch.  The Partial_merge fault
   variant drops the second member's words from the merged flush — the
   combiner bug the epoch batch exists to rule out. *)
let group_commit_steps ctx buf shs =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  let clears = Array.make (List.length shs) [] in
  List.iter
    (fun ph ->
      match ph with
      | Pt.Merge_runs ->
          let words (sh, _uid) =
            let ws = ref (sh.targets @ sh.marks) in
            for d = 1 to sh.ndrops do
              ws := Ms.drop_hdr_w cfg sh.s d :: Ms.drop_body_w cfg sh.s d :: !ws
            done;
            !ws
          in
          let merged =
            match ctx.variant with
            | Mvariant.Partial_merge -> words (List.hd shs)
            | _ -> List.concat_map words shs
          in
          if merged <> [] then
            push ~lbl:"merge runs" (Fl (List.sort_uniq compare merged))
      | Pt.Epoch_fence ->
          push ~lbl:"epoch fence" Fence;
          List.iter (fun (_sh, uid) -> push (Mark (M_commit_point uid))) shs
      | Pt.Apply_drops ->
          List.iteri
            (fun i (sh, _uid) ->
              List.iter
                (fun (blk, _order) ->
                  ctx.code.(blk) <- 0;
                  ctx.held.(blk) <- false;
                  push
                    ~lbl:(Printf.sprintf "apply drop %s" (Ms.block_name blk))
                    (St
                       ( Ms.table_w cfg blk,
                         tab_value cfg ctx.code (Ms.table_w cfg blk) ));
                  clears.(i) <- Ms.table_w cfg blk :: clears.(i))
                (List.rev sh.drops))
            shs
      | _ -> assert false)
    Pt.group_commit_plan;
  List.iteri
    (fun i (sh, uid) ->
      truncate_steps ctx buf sh ~clears:clears.(i) ~retired:(Some uid);
      reset_tx_shadow cfg sh)
    shs

let abort_steps ctx buf sh =
  let cfg = ctx.cfg in
  let push ?(lbl = "") act = buf := { act; lbl } :: !buf in
  if sh.count = 0 then truncate_steps ctx buf sh ~clears:[] ~retired:None
  else begin
    let clears = ref [] in
    List.iter
      (fun ph ->
        match ph with
        | Pt.Restore_data ->
            List.iter
              (fun e ->
                match e with
                | E_data { blk; old_gen } ->
                    push
                      ~lbl:(Printf.sprintf "restore %s" (Ms.block_name blk))
                      (St (Ms.heap_w cfg blk, Ms.Gen old_gen));
                    push
                      ~lbl:(Printf.sprintf "restore %s" (Ms.block_name blk))
                      (Fl [ Ms.heap_w cfg blk ]);
                    ctx.gen.(blk) <- old_gen
                | E_alloc _ -> ())
              sh.entries
        | Pt.Restore_fence -> push ~lbl:"restore fence" Fence
        | Pt.Revert_allocs ->
            List.iter
              (fun e ->
                match e with
                | E_alloc { blk; order = _ } ->
                    ctx.code.(blk) <- 0;
                    ctx.held.(blk) <- false;
                    push
                      ~lbl:(Printf.sprintf "revert alloc %s" (Ms.block_name blk))
                      (St
                         ( Ms.table_w cfg blk,
                           tab_value cfg ctx.code (Ms.table_w cfg blk) ));
                    clears := Ms.table_w cfg blk :: !clears
                | E_data _ -> ())
              sh.entries
        | _ -> assert false)
      (Pt.abort_plan ~entries:sh.count);
    truncate_steps ctx buf sh ~clears:!clears ~retired:None
  end;
  reset_tx_shadow cfg sh

(* Expand one transaction into (logging steps, completion steps). *)
let gen_tx_parts ctx sh ~uid tx =
  let buf = ref [] in
  buf := { act = Mark (M_start uid); lbl = "" } :: !buf;
  List.iter (gen_op ctx buf sh ~uid) tx.ops;
  let logging = List.rev !buf in
  let buf = ref [] in
  (match tx.k with
  | Commit -> commit_steps ctx buf sh ~uid
  | Abort -> abort_steps ctx buf sh);
  (logging, List.rev !buf)

let schedule cfg variant (p : program) : Ms.value step list =
  let ctx =
    {
      cfg;
      variant;
      wid = 0;
      gen = Array.make Ms.nblocks 0;
      code =
        Array.init Ms.nblocks (fun b ->
            if p.init_live.(b) then Ms.order_of_block b + 1 else 0);
      held = Array.copy p.init_live;
    }
  in
  match p.shape with
  | Seq ->
      let sh = new_shadow cfg 0 in
      List.concat
        (List.mapi
           (fun i tx ->
             let l, e = gen_tx_parts ctx sh ~uid:(i + 1) tx in
             l @ e)
           p.txs)
  | Interleaved -> (
      match p.txs with
      | [ t0; t1 ] ->
          assert (cfg.Ms.nslots >= 2);
          let sh0 = new_shadow cfg 0 and sh1 = new_shadow cfg 1 in
          let l0, e0 = gen_tx_parts ctx sh0 ~uid:1 t0 in
          let l1, e1 = gen_tx_parts ctx sh1 ~uid:2 t1 in
          l0 @ l1 @ e1 @ e0
      | _ -> invalid_arg "Mjournal.schedule: interleaved needs two txs")
  | Grouped -> (
      match p.txs with
      | [ t0; t1 ] ->
          assert (cfg.Ms.nslots >= 2);
          assert (t0.k = Commit && t1.k = Commit);
          let sh0 = new_shadow cfg 0 and sh1 = new_shadow cfg 1 in
          let log sh uid tx =
            let buf = ref [ { act = Mark (M_start uid); lbl = "" } ] in
            List.iter (gen_op ctx buf sh ~uid) tx.ops;
            List.rev !buf
          in
          let l0 = log sh0 1 t0 in
          let l1 = log sh1 2 t1 in
          let buf = ref [] in
          group_commit_steps ctx buf [ (sh0, 1); (sh1, 2) ];
          l0 @ l1 @ List.rev !buf
      | _ -> invalid_arg "Mjournal.schedule: grouped needs two txs")

(* {1 Program enumeration} *)

(* Valid op sequences of length <= [maxlen] from a given initial
   liveness: a block can be written or freed while live-and-not-freed,
   and allocated only while the buddy does not hold it (a block freed in
   the same transaction stays held until commit). *)
let valid_seqs ~init_live ~maxlen =
  let rec go live held freed len =
    if len = 0 then [ [] ]
    else
      let choices = ref [] in
      for b = Ms.nblocks - 1 downto 0 do
        if live.(b) && not freed.(b) then begin
          choices := (Set b, `Same) :: !choices;
          choices := (Free b, `Freed b) :: !choices
        end;
        if not held.(b) then choices := (Alloc b, `Alloced b) :: !choices
      done;
      [] :: (* stopping here is a valid (shorter) sequence *)
      List.concat_map
        (fun (op, eff) ->
          let live = Array.copy live
          and held = Array.copy held
          and freed = Array.copy freed in
          (match eff with
          | `Same -> ()
          | `Freed b -> freed.(b) <- true
          | `Alloced b ->
              live.(b) <- true;
              held.(b) <- true);
          List.map (fun rest -> op :: rest) (go live held freed (len - 1)))
        !choices
  in
  List.filter (fun s -> s <> []) (go init_live (Array.copy init_live) (Array.make Ms.nblocks false) maxlen)

let seq_programs () =
  let inits = [ [| true; false |]; [| true; true |] ] in
  let singles =
    List.concat_map
      (fun init_live ->
        List.concat_map
          (fun ops ->
            List.map
              (fun k ->
                let p = { descr = ""; init_live; txs = [ { ops; k } ]; shape = Seq } in
                { p with descr = describe p })
              [ Commit; Abort ])
          (valid_seqs ~init_live ~maxlen:2))
      inits
  in
  (* Two sequential transactions: a notable first tx, then every
     single-op continuation — this is what exercises slot reuse across
     an epoch bump (stale sealed bytes beyond the new terminator). *)
  let init_live = [| true; false |] in
  let firsts =
    [
      { ops = [ Set 0 ]; k = Commit };
      { ops = [ Alloc 1 ]; k = Commit };
      { ops = [ Free 0 ]; k = Commit };
      { ops = [ Set 0 ]; k = Abort };
    ]
  in
  let pairs =
    List.concat_map
      (fun t0 ->
        (* liveness after t0 *)
        let live = Array.copy init_live in
        (match t0.k with
        | Commit ->
            List.iter
              (function
                | Alloc b -> live.(b) <- true
                | Free b -> live.(b) <- false
                | Set _ -> ())
              t0.ops
        | Abort -> ());
        List.concat_map
          (fun ops ->
            List.map
              (fun k ->
                let p =
                  {
                    descr = "";
                    init_live;
                    txs = [ t0; { ops; k } ];
                    shape = Seq;
                  }
                in
                { p with descr = describe p })
              [ Commit; Abort ])
          (valid_seqs ~init_live:live ~maxlen:1))
      firsts
  in
  singles @ pairs

let interleaved_programs () =
  let mk init_live t0 t1 =
    let p = { descr = ""; init_live; txs = [ t0; t1 ]; shape = Interleaved } in
    { p with descr = describe p }
  in
  [
    mk [| true; true |] { ops = [ Set 0 ]; k = Commit } { ops = [ Set 1 ]; k = Commit };
    mk [| true; true |] { ops = [ Set 0 ]; k = Abort } { ops = [ Free 1 ]; k = Commit };
    mk [| true; false |] { ops = [ Set 0 ]; k = Commit } { ops = [ Alloc 1 ]; k = Commit };
    mk [| true; true |] { ops = [ Free 0 ]; k = Commit } { ops = [ Free 1 ]; k = Commit };
  ]

(* Two transactions committing through the epoch combiner, on disjoint
   blocks (one slot each).  The pairs cover merged flushes of targets
   only, targets + drop records, drops on both sides, mark-after-seal
   under the shared fence, and the fresh-allocation optimization whose
   target rides the merged run unlogged. *)
let grouped_programs () =
  let mk init_live ops0 ops1 =
    let p =
      {
        descr = "";
        init_live;
        txs = [ { ops = ops0; k = Commit }; { ops = ops1; k = Commit } ];
        shape = Grouped;
      }
    in
    { p with descr = describe p }
  in
  [
    mk [| true; true |] [ Set 0 ] [ Set 1 ];
    mk [| true; true |] [ Set 0 ] [ Free 1 ];
    mk [| true; true |] [ Free 0 ] [ Free 1 ];
    mk [| true; false |] [ Set 0 ] [ Alloc 1 ];
    mk [| true; false |] [ Alloc 1; Set 1 ] [ Free 0 ];
  ]

let programs cfg =
  if cfg.Ms.nslots >= 2 then interleaved_programs () @ grouped_programs ()
  else seq_programs ()

(* {1 The journal family}

   {!Mcheck}'s enumerator over these programs, {!Mrecovery}'s recovery
   and the oracle below.  Its crash-free end image is not recovered:
   every transaction's log must already be retired. *)

(* Replay a composition over the program: per-block heap generation and
   table code if each transaction's outcome is as given. *)
let expected prog sigma =
  let gens = Array.make Ms.nblocks 0 in
  let codes =
    Array.init Ms.nblocks (fun b ->
        if prog.init_live.(b) then Ms.order_of_block b + 1 else 0)
  in
  List.iteri
    (fun i tx ->
      if sigma.(i) = Applied then
        List.iter
          (fun op ->
            match op with
            | Set b -> gens.(b) <- i + 1
            | Alloc b -> codes.(b) <- Ms.order_of_block b + 1
            | Free b -> codes.(b) <- 0)
          tx.ops)
    prog.txs;
  (gens, codes)

(* A free block's heap contents are dead bytes — only live blocks'
   generations are compared. *)
let state_matches cfg prog sigma (st : Ms.state) ~heap_only =
  let gens, codes = expected prog sigma in
  let ok = ref true in
  for b = 0 to Ms.nblocks - 1 do
    if codes.(b) > 0 && st.(Ms.heap_w cfg b) <> Ms.Gen gens.(b) then ok := false;
    if
      (not heap_only)
      && Ms.tab_get st.(Ms.table_w cfg b) (Ms.table_sub cfg b) <> codes.(b)
    then ok := false
  done;
  !ok

(* A transaction whose truncate retired the log is applied; one that
   never reached its commit fence (and every abort) is rolled back. *)
let allowed_outcomes prog i st =
  match ((List.nth prog.txs i).k, st) with
  | Abort, _ -> [ Rolled_back ]
  | Commit, (NotStarted | InFlight) -> [ Rolled_back ]
  | Commit, Window -> [ Rolled_back; Applied ]
  | Commit, Retired -> [ Applied ]

(* I-QUIESCENT-LOG: after recovery every slot is retired — phase,
   advisory count and drop count zero, no walkable entry, no salt-valid
   drop slot. *)
let log_residue cfg st =
  let m = Ms.boot st in
  let residue = ref None in
  for s = 0 to cfg.Ms.nslots - 1 do
    let epoch = Mr.as_int (Ms.read m (Ms.epoch_w cfg s)) in
    let entries, torn = Mr.walk m cfg s ~epoch in
    if
      Mr.as_int (Ms.read m (Ms.phase_w cfg s)) <> 0
      || Mr.as_int (Ms.read m (Ms.count_w cfg s)) <> 0
      || Mr.as_int (Ms.read m (Ms.drops_w cfg s)) <> 0
      || entries <> [] || torn
      || Mr.scan_drops m cfg s ~epoch <> []
    then
      residue :=
        Some
          ("I-QUIESCENT-LOG", Printf.sprintf "slot %d still carries log residue" s)
  done;
  !residue

let family =
  {
    name = "journal";
    tag = Mvariant.Journal;
    cfgs =
      [
        { Ms.nslots = 1; Ms.table_split = false };
        { Ms.nslots = 1; Ms.table_split = true };
        { Ms.nslots = 2; Ms.table_split = true };
      ];
    programs;
    ntxs = (fun p -> List.length p.txs);
    schedule;
    initial = (fun cfg p -> Ms.initial_state cfg ~init_live:p.init_live);
    recover = (fun variant clk cfg m -> Mr.recover ~variant clk cfg m);
    allowed = allowed_outcomes;
    matches = state_matches;
    quiescent = log_residue;
    liveness_detail = "heap matches a composition but table codes match none";
    recovers_end = false;
    title = "";
    describe =
      (fun cfg p ->
        Printf.sprintf "%s  (nslots=%d table_split=%b)" p.descr cfg.Ms.nslots
          cfg.Ms.table_split);
    tx_names = (fun p -> List.map tx_name p.txs);
    word_name = Ms.word_name;
    name_width = 18;
    pp_value = Ms.pp_value;
    blank = Ms.Int 0;
    (* NSLOTS:SPLIT *)
    cfg_key =
      (fun cfg ->
        Printf.sprintf "%d:%d" cfg.Ms.nslots (if cfg.Ms.table_split then 1 else 0));
    parse_cfg =
      (function
      | nslots :: split :: rest -> (
          match (int_of_string_opt nslots, int_of_string_opt split) with
          | Some nslots, Some split when nslots >= 1 ->
              Some ({ Ms.nslots; Ms.table_split = split <> 0 }, rest)
          | _ -> None)
      | _ -> None);
  }
