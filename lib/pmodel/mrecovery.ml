(* Modeled recovery: a step-for-step mirror of {!Pjournal.Recovery}
   over the abstract machine, instrumented with a crash clock so the
   checker can also crash recovery at each of ITS persist points
   (depth-1 nesting) and re-run it.

   Every flush and every fence ticks the clock first — exactly the
   device's crash points.  Checksum verification is structural: an entry
   header is valid iff its recorded epoch equals the slot's durable
   epoch word and every recorded body word reads back identically
   (what an epoch-salted CRC certifies). *)

module Ms = Mstate

(* {1 Crash clock} *)

type clock = { mutable points : int; mutable stop_at : int }

exception Crash_now

let no_crash () = { points = 0; stop_at = -1 }
let crash_at k = { points = 0; stop_at = k }

let tick c =
  if c.stop_at >= 0 && c.points = c.stop_at then raise Crash_now;
  c.points <- c.points + 1

(* {1 Reading the image} *)

let as_int = function Ms.Int n -> n | _ -> -1

type entry =
  | R_data of { blk : int; old_gen : int }
  | R_alloc of { blk : int; order : int }

(* Walk the sealed entries to the tail terminator; returns the visited
   prefix (oldest first) and whether the stop was torn (anything but a
   clean terminator). *)
let walk m cfg s ~epoch =
  let limit = Ms.entry_limit cfg s in
  let rec go c acc =
    if c >= limit then (List.rev acc, true)
    else
      match Ms.read m c with
      | Ms.Int 0 -> (List.rev acc, false)
      | Ms.Ehdr { kind = (Ms.K_data | Ms.K_alloc) as kind; epoch = e; body }
        when e = epoch && List.for_all (fun (w, v) -> Ms.read m w = v) body -> (
          let entry =
            match (kind, body) with
            | Ms.K_data, (_, Ms.Eword { pay = Ms.Undo { blk; old_gen }; _ }) :: _
              ->
                Some (R_data { blk; old_gen })
            | Ms.K_alloc, [ (_, Ms.Eword { pay = Ms.Alloc_of { blk; order }; _ }) ]
              ->
                Some (R_alloc { blk; order })
            | _ -> None
          in
          match entry with
          | Some en -> go (c + 1 + List.length body) (en :: acc)
          | None -> (List.rev acc, true))
      | _ -> (List.rev acc, true)
  in
  go (Ms.entry_base cfg s) []

let read_drop m cfg s ~epoch d =
  match Ms.read m (Ms.drop_hdr_w cfg s d) with
  | Ms.Ehdr { kind = Ms.K_drop; epoch = e; body = [ (bw, bv) ] }
    when e = epoch && Ms.read m bw = bv -> (
      match bv with
      | Ms.Eword { pay = Ms.Drop_of { blk; order }; _ } -> Some (blk, order)
      | _ -> None)
  | _ -> None

(* Drop slots consed downward; the scan stops at the first slot that is
   not a verifying drop.  The advisory count is never consulted. *)
let scan_drops m cfg s ~epoch =
  let rec go d acc =
    if d > Ms.drop_capacity then List.rev acc
    else
      match read_drop m cfg s ~epoch d with
      | Some p -> go (d + 1) (p :: acc)
      | None -> List.rev acc
  in
  go 1 []

(* {1 One-shot table persists} *)

let table_code m cfg blk =
  Ms.tab_get (Ms.read m (Ms.table_w cfg blk)) (Ms.table_sub cfg blk)

let set_table clock m cfg blk code =
  let w = Ms.table_w cfg blk in
  Ms.store m w (Ms.tab_set (Ms.read m w) (Ms.table_sub cfg blk) code);
  tick clock;
  Ms.flush_words m [ w ];
  tick clock;
  Ms.fence m

let clear_if_live clock m cfg blk =
  if table_code m cfg blk > 0 then begin
    set_table clock m cfg blk 0;
    true
  end
  else false

(* Mirror of {!Pjournal.Recovery.remark_drops}: re-mark cleared drop
   targets when rolling back, or when the clears only partially landed
   (mixed live/cleared evidence of an interrupted clear flush);
   all-cleared with no walkable entries keeps the committed outcome. *)
let remark_drops clock m cfg ~slots ~rollback =
  let cleared = List.filter (fun (blk, _) -> table_code m cfg blk = 0) slots in
  let any_live = List.length cleared < List.length slots in
  if cleared = [] || not (rollback || any_live) then 0
  else begin
    List.iter
      (fun (blk, order) -> set_table clock m cfg blk (order + 1))
      cleared;
    List.length cleared
  end

(* {1 Truncate} *)

(* Mirror of {!Pjournal.Recovery.truncate}: zero the bookkeeping fields,
   bump the epoch, rewrite the terminator; one batched flush+fence.
   From phase [Committing] ([ordered]) the log invalidation is persisted
   strictly before the phase word returns to 0. *)
let truncate ?(ordered = false) clock m cfg s =
  let epoch = as_int (Ms.read m (Ms.epoch_w cfg s)) in
  Ms.store m (Ms.count_w cfg s) (Ms.Int 0);
  Ms.store m (Ms.drops_w cfg s) (Ms.Int 0);
  Ms.store m (Ms.spill_w cfg s) (Ms.Int 0);
  Ms.store m (Ms.epoch_w cfg s) (Ms.Int (epoch + 1));
  Ms.store m (Ms.entry_base cfg s) (Ms.Int 0);
  if ordered then begin
    tick clock;
    Ms.flush_words m [ Ms.count_w cfg s; Ms.entry_base cfg s ];
    tick clock;
    Ms.fence m;
    Ms.store m (Ms.phase_w cfg s) (Ms.Int 0);
    tick clock;
    Ms.flush_words m [ Ms.phase_w cfg s ];
    tick clock;
    Ms.fence m
  end
  else begin
    Ms.store m (Ms.phase_w cfg s) (Ms.Int 0);
    tick clock;
    Ms.flush_words m [ Ms.phase_w cfg s; Ms.entry_base cfg s ];
    tick clock;
    Ms.fence m
  end

(* {1 Slot recovery} *)

let rec firstn n = function
  | x :: tl when n > 0 -> x :: firstn (n - 1) tl
  | _ -> []

let recover_slot ?(variant = Mvariant.Correct) clock cfg m s =
  let phase = as_int (Ms.read m (Ms.phase_w cfg s)) in
  let advisory = as_int (Ms.read m (Ms.count_w cfg s)) in
  let ndrops_f = as_int (Ms.read m (Ms.drops_w cfg s)) in
  let epoch = as_int (Ms.read m (Ms.epoch_w cfg s)) in
  if phase = 1 then begin
    (* durably committed: finish the deferred frees, then retire *)
    for d = 1 to ndrops_f do
      match read_drop m cfg s ~epoch d with
      | Some (blk, _) -> ignore (clear_if_live clock m cfg blk)
      | None -> ()
    done;
    truncate ~ordered:true clock m cfg s
  end
  else begin
    let entries, torn = walk m cfg s ~epoch in
    let undo =
      match variant with
      | Mvariant.Trust_advisory ->
          (* the bug under test: believe the advisory count *)
          firstn (max 0 advisory) entries
      | _ -> entries
    in
    if undo <> [] then begin
      (* in-flight transaction: roll back newest-first *)
      ignore
        (remark_drops clock m cfg ~slots:(scan_drops m cfg s ~epoch)
           ~rollback:true);
      let newest_first = List.rev undo in
      List.iter
        (fun e ->
          match e with
          | R_data { blk; old_gen } ->
              Ms.store m (Ms.heap_w cfg blk) (Ms.Gen old_gen);
              tick clock;
              Ms.flush_words m [ Ms.heap_w cfg blk ]
          | R_alloc _ -> ())
        newest_first;
      tick clock;
      Ms.fence m;
      List.iter
        (fun e ->
          match e with
          | R_alloc { blk; order = _ } ->
              ignore (clear_if_live clock m cfg blk)
          | R_data _ -> ())
        newest_first;
      truncate clock m cfg s
    end
    else begin
      (* no durable entries: scrub residue *)
      let drops = scan_drops m cfg s ~epoch in
      ignore (remark_drops clock m cfg ~slots:drops ~rollback:false);
      if
        torn || phase <> 0 || advisory <> 0 || ndrops_f <> 0 || drops <> []
        || (variant = Mvariant.Trust_advisory && entries <> [])
      then truncate clock m cfg s
    end
  end

let recover ?variant clock cfg m =
  for s = 0 to cfg.Ms.nslots - 1 do
    recover_slot ?variant clock cfg m s
  done
