module D = Pmem.Device

type finding = { where : string; problem : string }

type report = {
  findings : finding list;
  slots_checked : int;
  entries_checked : int;
  blocks_checked : int;
}

let ok r = r.findings = []

(* The pool header's layout is Pool_impl's, the journal slot header's
   Journal_impl's.  [J.hdr_count] is advisory: the durable tail of a slot's
   log is its terminator word, and fsck cross-checks the advisory count
   against the walked tail. *)
module P = Pool_impl
module J = Pjournal.Journal_impl

type layout = {
  nslots : int;
  slot_size : int;
  heap_len : int;
  table_base : int;
  heap_base : int;
  root_off : int;
}

let read_layout dev =
  let u64 off = Int64.to_int (D.read_u64 dev off) in
  {
    nslots = u64 P.hdr_nslots;
    slot_size = u64 P.hdr_slot_size;
    heap_len = u64 P.hdr_heap_len;
    table_base = u64 P.hdr_table_base;
    heap_base = u64 P.hdr_heap_base;
    root_off = u64 P.hdr_root;
  }

let layout_sane dev l =
  l.nslots > 0 && l.nslots < 1024
  && l.slot_size > 0
  && P.header_size + (l.nslots * l.slot_size) <= l.table_base
  && l.table_base + (l.heap_len / 64) <= l.heap_base
  && l.heap_base + l.heap_len <= D.size dev
  && l.heap_len mod 64 = 0

let check_device dev =
  let findings = ref [] in
  let note where fmt =
    Printf.ksprintf (fun problem -> findings := { where; problem } :: !findings) fmt
  in
  let u64 off = Int64.to_int (D.read_u64 dev off) in
  let size = D.size dev in
  let entries_checked = ref 0 and blocks_checked = ref 0 in
  let slots_checked = ref 0 in
  (* --- header ---------------------------------------------------------- *)
  if size < P.header_size then note "header" "device smaller than a pool header"
  else if not (String.equal (D.read_string dev 0 (String.length P.magic)) P.magic)
  then note "header" "bad magic: not a Corundum pool"
  else begin
    let version = u64 P.hdr_version in
    if version <> P.version then note "header" "unsupported version %d" version;
    let ({ nslots; slot_size; heap_len; table_base; heap_base; root_off } as l) =
      read_layout dev
    in
    if not (layout_sane dev l) then note "header" "layout fields are inconsistent"
    else begin
      if not (Pool_impl.header_crc_ok dev) then
        note "header" "layout checksum mismatch (stored %#x, computed %#x)"
          (Pool_impl.stored_header_crc dev)
          (Pool_impl.header_crc dev);
      (* --- journal slots ------------------------------------------------ *)
      for i = 0 to nslots - 1 do
        incr slots_checked;
        let base = P.header_size + (i * slot_size) in
        let where = Printf.sprintf "journal slot %d" i in
        let phase = u64 (base + J.hdr_phase)
        and advisory = u64 (base + J.hdr_count)
        and drops = u64 (base + J.hdr_drops)
        and epoch = u64 (base + J.hdr_epoch) in
        let salt = Pjournal.Log_entry.salt ~slot_base:base ~epoch in
        if phase <> 0 && phase <> 1 then note where "bad phase %d" phase;
        if advisory < 0 || advisory * 16 > 64 * slot_size then
          note where "implausible entry count %d" advisory
        else begin
          (* the spill chain must point at live heap blocks *)
          (match Pjournal.Log_entry.spill_chain dev ~slot_base:base with
          | spills ->
              List.iter
                (fun off ->
                  if off < heap_base || off >= heap_base + heap_len then
                    note where "spill region outside the heap"
                  else if (off - heap_base) mod 64 <> 0 then
                    note where "spill region misaligned")
                spills
          | exception Invalid_argument m -> note where "corrupt spill chain: %s" m);
          (* walk the undo entries to the tail terminator (spill-chain
             aware, checksum-verified) and cross-check the advisory count *)
          (try
             let visited, _cursor, reason =
               Pjournal.Log_entry.walk_to_tail dev ~slot_base:base ~slot_size
                 ~salt (fun e ->
                   incr entries_checked;
                   match e with
                   | Pjournal.Log_entry.Data { off; len; _ } ->
                       if len <= 0 || off < 0 || off + len > size then
                         failwith "data entry targets outside the pool"
                   | Pjournal.Log_entry.Alloc { off; order } ->
                       if off < heap_base || off >= heap_base + heap_len then
                         failwith "alloc entry outside the heap";
                       if order < 0 || order > 40 then failwith "alloc order bogus"
                   | Pjournal.Log_entry.Drop { off; order = _ } ->
                       if off < heap_base || off >= heap_base + heap_len then
                         failwith "drop entry outside the heap")
             in
             (match reason with
             | Pjournal.Log_entry.Terminator -> ()
             | Pjournal.Log_entry.Bad_entry m -> note where "torn log tail: %s" m
             | Pjournal.Log_entry.Chain_end m ->
                 note where "log chain ends without a terminator (%s)" m);
             (* advisory = 0 with a walked tail is a normal in-flight
                transaction (the count persists only at commit); a
                non-zero advisory must agree with the walk *)
             if advisory <> 0 && advisory <> visited then
               note where
                 "advisory entry count %d disagrees with walked tail (%d sealed entries)"
                 advisory visited
           with Failure m -> note where "%s" m)
        end;
        if drops < 0 || drops * 16 > slot_size then
          note where "implausible drop count %d" drops
        else
          for d = 1 to drops do
            let at = base + slot_size - (d * J.drop_slot_bytes) in
            match Pjournal.Log_entry.read dev ~salt ~at with
            | Pjournal.Log_entry.Drop { off; order = _ }, _ ->
                if off < heap_base || off >= heap_base + heap_len then
                  note where "drop area entry outside the heap"
            | _ -> note where "non-drop entry in drop area"
            | exception Invalid_argument _ -> note where "torn drop entry"
          done
      done;
      (* --- allocation table & heap tiling -------------------------------- *)
      let nblocks = heap_len / 64 in
      let idx = ref 0 in
      (try
         while !idx < nblocks do
           let b = D.read_u8 dev (table_base + !idx) in
           if b = 0 then incr idx
           else begin
             incr blocks_checked;
             let order = b - 1 in
             let len = 1 lsl order in
             if order > 40 || !idx + len > nblocks then begin
               note "alloc table" "block %d (order %d) overflows the heap" !idx order;
               raise Exit
             end;
             if !idx land (len - 1) <> 0 then begin
               note "alloc table" "block %d misaligned for order %d" !idx order;
               raise Exit
             end;
             (* interior bytes of an allocated extent must stay zero, or a
                phantom head surfaces when the covering block is freed *)
             for j = !idx + 1 to !idx + len - 1 do
               if D.read_u8 dev (table_base + j) <> 0 then
                 note "alloc table" "phantom head at index %d inside block %d" j
                   !idx
             done;
             idx := !idx + len
           end
         done
       with Exit -> ());
      (* tiling via the buddy's own integrity check *)
      (if !findings = [] then
         let buddy = Palloc.Buddy.attach dev ~table_base ~heap_base ~heap_len in
         match Palloc.Heap_walk.check buddy with
         | Ok () -> ()
         | Error m -> note "heap" "%s" m);
      (* --- root ----------------------------------------------------------- *)
      if root_off <> 0 then
        if root_off < heap_base || root_off >= heap_base + heap_len then
          note "root" "root offset %d outside the heap" root_off
        else if (root_off - heap_base) mod 64 <> 0 then
          note "root" "root offset %d misaligned" root_off
        else begin
          let bidx = (root_off - heap_base) / 64 in
          if D.read_u8 dev (table_base + bidx) = 0 then
            note "root" "root points at a free block"
        end;
      (* --- CoW root cells ------------------------------------------------- *)
      (* Is [off] inside some live allocated extent?  Scan back from its
         index: interior bytes of an extent are zero, so the first
         non-zero byte at or before it is the only candidate head. *)
      let covered off =
        if
          off < heap_base
          || off >= heap_base + heap_len
          || (off - heap_base) mod 64 <> 0
        then `Outside
        else begin
          let target = (off - heap_base) / 64 in
          let rec back j =
            if j < 0 then `Free
            else
              let b = D.read_u8 dev (table_base + j) in
              if b = 0 then back (j - 1)
              else if j + (1 lsl (b - 1)) > target then `Live
              else `Free
          in
          back target
        end
      in
      List.iter
        (fun (ci : Cow_root.cell_info) ->
          let where = Printf.sprintf "cow cell %d" ci.ci_cell in
          (match ci.ci_pair with
          | Some (pb, half) ->
              (if covered pb <> `Live then
                 note where "root pair base %d is not a live block" pb);
              if half <= 0 || half mod 64 <> 0 then
                note where "root pair half size %d implausible" half
              else if
                ci.ci_ptr <> 0 && ci.ci_ptr <> pb && ci.ci_ptr <> pb + half
              then
                note where
                  "active pointer %d names neither pair half (torn root-swap \
                   image)"
                  ci.ci_ptr
          | None -> (
              if ci.ci_ptr <> 0 then
                match covered ci.ci_ptr with
                | `Live -> ()
                | `Outside ->
                    note where "active pointer %d outside the heap" ci.ci_ptr
                | `Free ->
                    note where "active pointer %d dangles into free space"
                      ci.ci_ptr));
          List.iter
            (fun (s, (it : Cow_root.intent)) ->
              let bad_block what (boff, order) =
                if
                  boff < heap_base
                  || boff >= heap_base + heap_len
                  || (boff - heap_base) mod 64 <> 0
                  || order < 0 || order > 40
                then
                  note where
                    "intent slot %d: %s block record (%d, order %d) implausible"
                    s what boff order
              in
              List.iter (bad_block "alloc") it.allocs;
              List.iter (bad_block "retire") it.frees;
              match it.kind with
              | Cow_root.Publish (_, pubs) ->
                  List.iter
                    (fun (a, _, _) ->
                      if a < P.header_size || a + 8 > size then
                        note where
                          "intent slot %d: publish word at %d outside the pool"
                          s a)
                    pubs
              | Cow_root.Gen_only | Cow_root.Swap _ -> ())
            ci.ci_intents;
          (* pending = a sealed commit whose tail never resolved: normal
             on a raw crash image (recovery resolves it at open), a bug
             on anything claiming to be recovered *)
          if ci.ci_pending then
            note where
              "pending commit intent (gen %d -> %d): image predates recovery \
               or resolution failed"
              ci.ci_gen
              ((ci.ci_gen + 1) land Cow_root.gen_mask))
        (Cow_root.inspect dev)
    end
  end;
  {
    findings = List.rev !findings;
    slots_checked = !slots_checked;
    entries_checked = !entries_checked;
    blocks_checked = !blocks_checked;
  }

let check_file path = check_device (D.load path)

let pp ppf r =
  if ok r then
    Format.fprintf ppf
      "pool is consistent (%d journal slots, %d log entries, %d live blocks checked)@."
      r.slots_checked r.entries_checked r.blocks_checked
  else begin
    Format.fprintf ppf "pool has %d problem(s):@." (List.length r.findings);
    List.iter
      (fun f -> Format.fprintf ppf "  [%s] %s@." f.where f.problem)
      r.findings
  end

(* {1 Repair} *)

type repair_action = { where : string; action : string }

type repair_report = {
  actions : repair_action list;
  entries_truncated : int;
  drops_truncated : int;
  blocks_quarantined : int;
  unrepairable : finding list;
  post : report;
}

let repaired r = r.unrepairable = [] && ok r.post

(* The repairing fsck.  Runs on a raw image before recovery and restores
   structural consistency without touching committed data:

   - a header whose layout fields are sane but whose checksum is stale is
     re-sealed;
   - a journal slot with a torn log tail (a word after the last sealed
     entry failing verification) gets a fresh terminator sealed over it —
     the same "treat as never written" rule recovery applies — and its
     advisory entry count is reconciled with the walked tail; a slot
     whose header fields are implausible or whose spill chain is broken
     is reset outright (terminator rewritten, epoch bumped);
   - allocation-table bytes that claim impossible blocks (bogus order,
     misalignment, heap overflow, phantom heads inside a live extent) are
     quarantined: cleared, so the extent returns to the free space that
     tiling can account for;
   - a wild root pointer is NOT repaired (the data it named is gone);
     it is reported as unrepairable and the pool remains openable only
     in [Read_only] mode.

   Every write is persisted, so a crash mid-repair just means running
   repair again; all actions are idempotent. *)
let repair dev =
  let actions = ref [] and unrepairable = ref [] in
  let act where fmt =
    Printf.ksprintf (fun action -> actions := { where; action } :: !actions) fmt
  in
  let lost where fmt =
    Printf.ksprintf
      (fun problem -> unrepairable := { where; problem } :: !unrepairable)
      fmt
  in
  let entries_truncated = ref 0
  and drops_truncated = ref 0
  and quarantined = ref 0 in
  let size = D.size dev in
  if size < P.header_size then lost "header" "device smaller than a pool header"
  else if not (String.equal (D.read_string dev 0 (String.length P.magic)) P.magic)
  then lost "header" "bad magic: not a Corundum pool"
  else begin
    let version = Int64.to_int (D.read_u64 dev P.hdr_version) in
    let ({ nslots; slot_size; heap_len; table_base; heap_base; root_off } as l) =
      read_layout dev
    in
    if version <> P.version then lost "header" "unsupported version %d" version
    else if not (layout_sane dev l) then
      lost "header" "layout fields are inconsistent; nothing can be trusted"
    else begin
      if not (Pool_impl.header_crc_ok dev) then begin
        Pool_impl.write_header_crc dev;
        act "header" "re-sealed layout checksum"
      end;
      (* --- journal slots ------------------------------------------------ *)
      let write_field base off v =
        D.write_u64 dev (base + off) (Int64.of_int v);
        D.persist dev (base + off) 8
      in
      let reset_slot base why =
        (* a batched header persist, like a runtime truncate: terminator
           back at the head of the entry area and the epoch bumped, so
           whatever sealed bytes remain can never verify again *)
        let epoch = D.read_u64 dev (base + J.hdr_epoch) in
        D.write_u64 dev (base + J.hdr_phase) 0L;
        D.write_u64 dev (base + J.hdr_count) 0L;
        D.write_u64 dev (base + J.hdr_drops) 0L;
        D.write_u64 dev (base + J.hdr_spill) 0L;
        D.write_u64 dev (base + J.hdr_epoch) (Int64.add epoch 1L);
        D.write_u64 dev (base + J.hdr_size) 0L;
        D.persist dev base (J.hdr_size + 8);
        act (Printf.sprintf "journal slot %d" (base / slot_size)) "reset slot: %s"
          why
      in
      for i = 0 to nslots - 1 do
        let base = P.header_size + (i * slot_size) in
        let where = Printf.sprintf "journal slot %d" i in
        let phase = Int64.to_int (D.read_u64 dev (base + J.hdr_phase))
        and advisory = Int64.to_int (D.read_u64 dev (base + J.hdr_count))
        and drops = Int64.to_int (D.read_u64 dev (base + J.hdr_drops))
        and epoch = Int64.to_int (D.read_u64 dev (base + J.hdr_epoch)) in
        let salt = Pjournal.Log_entry.salt ~slot_base:base ~epoch in
        if phase <> 0 && phase <> 1 then
          reset_slot base (Printf.sprintf "bad phase %d" phase)
        else if advisory < 0 || advisory * 16 > 64 * slot_size then
          reset_slot base (Printf.sprintf "implausible entry count %d" advisory)
        else begin
          let chain =
            match Pjournal.Log_entry.spill_chain dev ~slot_base:base with
            | spills ->
                if
                  List.for_all
                    (fun off ->
                      off >= heap_base
                      && off < heap_base + heap_len
                      && (off - heap_base) mod 64 = 0)
                    spills
                then Some spills
                else None
            | exception Invalid_argument _ -> None
          in
          match chain with
          | None ->
              entries_truncated := !entries_truncated + max 0 advisory;
              reset_slot base "corrupt spill chain"
          | Some spills ->
            let visited, cursor, reason =
              Pjournal.Log_entry.walk_to_tail dev ~slot_base:base ~slot_size
                ~salt
                (fun _ -> ())
            in
            (* can a terminator word at [cursor] stay inside its region? *)
            let term_fits =
              let inside rbase rlimit =
                cursor >= rbase && cursor + 8 <= min rlimit (D.size dev)
              in
              inside (base + J.hdr_size)
                (Pjournal.Log_entry.main_entry_limit ~slot_base:base ~slot_size)
              || List.exists
                   (fun off ->
                     inside
                       (off + Pjournal.Log_entry.spill_header)
                       (off + Int64.to_int (D.read_u64 dev (off + 8))))
                   spills
            in
            let torn =
              match reason with
              | Pjournal.Log_entry.Terminator -> false
              | Pjournal.Log_entry.Bad_entry _ | Pjournal.Log_entry.Chain_end _
                ->
                  true
            in
            if torn && not term_fits then begin
              (* only hand-damaged images reach here: the writer always
                 reserves terminator room, so there is no prefix worth
                 preserving that a fresh terminator could seal *)
              entries_truncated := !entries_truncated + max visited (max 0 advisory);
              reset_slot base "log tail cannot be sealed in place"
            end
            else begin
              (match reason with
              | Pjournal.Log_entry.Terminator -> ()
              | Pjournal.Log_entry.Bad_entry m | Pjournal.Log_entry.Chain_end m
                ->
                  (* seal the verified prefix: the torn tail becomes the
                     terminator, the same "never written" rule recovery
                     applies *)
                  D.write_u64 dev cursor 0L;
                  D.persist dev cursor 8;
                  act where "sealed torn log tail at %d (%s)" cursor m);
              entries_truncated :=
                !entries_truncated
                + max
                    (if advisory <> 0 then advisory - visited else 0)
                    (if torn then 1 else 0);
              if advisory <> 0 && advisory <> visited then begin
                write_field base J.hdr_count visited;
                act where "reconciled advisory entry count %d -> %d walked entries"
                  advisory visited
              end;
            if drops < 0 || drops * 16 > slot_size then begin
              write_field base J.hdr_drops 0;
              drops_truncated := !drops_truncated + max 0 drops;
              act where "cleared implausible drop count %d" drops
            end
            else begin
              let valid_drops = ref drops in
              (try
                 for d = 1 to drops do
                   let at = base + slot_size - (d * J.drop_slot_bytes) in
                   match Pjournal.Log_entry.read dev ~salt ~at with
                   | Pjournal.Log_entry.Drop { off; order = _ }, _
                     when off >= heap_base && off < heap_base + heap_len ->
                       ()
                   | _ ->
                       valid_drops := d - 1;
                       raise Exit
                   | exception Invalid_argument _ ->
                       valid_drops := d - 1;
                       raise Exit
                 done
               with Exit -> ());
              if !valid_drops < drops then begin
                write_field base J.hdr_drops !valid_drops;
                drops_truncated := !drops_truncated + (drops - !valid_drops);
                act where "truncated %d corrupt drop entries" (drops - !valid_drops)
              end
            end
          end
        end
      done;
      (* --- allocation table: quarantine impossible claims ---------------- *)
      let nblocks = heap_len / 64 in
      let clear j why =
        D.write_u8 dev (table_base + j) 0;
        D.persist dev (table_base + j) 1;
        incr quarantined;
        act "alloc table" "quarantined block %d: %s" j why
      in
      let idx = ref 0 in
      while !idx < nblocks do
        let b = D.read_u8 dev (table_base + !idx) in
        if b = 0 then incr idx
        else begin
          let order = b - 1 in
          let len = 1 lsl order in
          if order > 40 || !idx + len > nblocks then begin
            clear !idx (Printf.sprintf "order %d overflows the heap" order);
            incr idx
          end
          else if !idx land (len - 1) <> 0 then begin
            clear !idx (Printf.sprintf "misaligned for order %d" order);
            incr idx
          end
          else begin
            (* phantom heads inside a live extent: rot below the head *)
            for j = !idx + 1 to !idx + len - 1 do
              if D.read_u8 dev (table_base + j) <> 0 then
                clear j
                  (Printf.sprintf "phantom head inside block %d (order %d)" !idx
                     order)
            done;
            idx := !idx + len
          end
        end
      done;
      (* --- CoW commit intents: run the cell resolution ------------------- *)
      (* Surviving intent records (pending, consumed or stale) are what
         pool recovery resolves at attach; repair applies the same
         idempotent resolution so the repaired image opens clean.  This
         runs after table quarantine — resolution trusts table bytes. *)
      (if
         List.exists
           (fun (ci : Cow_root.cell_info) -> ci.ci_intents <> [])
           (Cow_root.inspect dev)
       then
         let tbl =
           Palloc.Alloc_table.attach dev ~table_base ~heap_base ~heap_len
         in
         let st = Cow_root.recover dev tbl in
         act "cow cells"
           "resolved commit intents: %d rolled forward, %d rolled back"
           st.Cow_root.rolled_forward st.Cow_root.rolled_back);
      (* --- root: detectable, not repairable ------------------------------ *)
      if root_off <> 0 then
        if root_off < heap_base || root_off >= heap_base + heap_len then
          lost "root" "root offset %d outside the heap (open read-only)" root_off
        else if (root_off - heap_base) mod 64 <> 0 then
          lost "root" "root offset %d misaligned (open read-only)" root_off
        else if D.read_u8 dev (table_base + ((root_off - heap_base) / 64)) = 0
        then lost "root" "root points at a free block (open read-only)"
    end
  end;
  {
    actions = List.rev !actions;
    entries_truncated = !entries_truncated;
    drops_truncated = !drops_truncated;
    blocks_quarantined = !quarantined;
    unrepairable = List.rev !unrepairable;
    post = check_device dev;
  }

let pp_repair ppf r =
  List.iter (fun a -> Format.fprintf ppf "repair [%s] %s@." a.where a.action) r.actions;
  List.iter
    (fun (f : finding) ->
      Format.fprintf ppf "UNREPAIRABLE [%s] %s@." f.where f.problem)
    r.unrepairable;
  Format.fprintf ppf
    "repair: %d actions, %d undo entries truncated, %d drops truncated, %d blocks quarantined@."
    (List.length r.actions) r.entries_truncated r.drops_truncated
    r.blocks_quarantined;
  pp ppf r.post
