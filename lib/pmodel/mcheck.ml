(* The exhaustive crash-state checker.

   For every (config, program) pair it expands the writer schedule,
   crashes it before every persist point, enumerates EVERY torn-word
   outcome of the in-flight line set (all subsets of the write-pending
   queue), runs modeled recovery on each distinct durable image, and
   asserts durable linearizability:

   - I-ATOMIC: the recovered heap+table state equals SOME transactional
     composition (each transaction fully applied or fully rolled back);
   - I-COMMITTED-DURABLE: a transaction whose truncate retired the log
     is applied;
   - I-UNCOMMITTED-ROLLED-BACK: a transaction that never reached its
     commit fence is rolled back (between the fence and the truncate's
     header persist both outcomes are legal: committed-but-
     unacknowledged);
   - I-TABLE-LIVENESS: allocation-table codes agree with the chosen
     composition (no leaked or doubly-freed block);
   - I-QUIESCENT-LOG: after recovery every slot is retired — phase,
     advisory count and drop count zero, no walkable entry, no
     salt-valid drop slot;
   - I-IDEMPOTENT-RECOVERY: running recovery again changes nothing.

   Crashes at persist points INSIDE recovery are enumerated too
   (depth 1), each followed by a full re-recovery. *)

module Ms = Mstate
module Mj = Mjournal
module Mr = Mrecovery

(* {1 Transaction status at the crash point} *)

type status = NotStarted | InFlight | Window | Retired

let status_name = function
  | NotStarted -> "not-started"
  | InFlight -> "in-flight"
  | Window -> "committed-unacknowledged"
  | Retired -> "retired"

(* {1 Schedule execution} *)

type run = {
  m : Ms.value Ms.mem;
  statuses : status array;
  crashed : bool;
  points : int;  (* persist points executed (= total on a full run) *)
}

let exec_schedule cfg ~init_live ~ntxs sched ~stop_at =
  let m = Ms.boot (Ms.initial_state cfg ~init_live) in
  let statuses = Array.make ntxs NotStarted in
  let points = ref 0 in
  let rec go = function
    | [] -> false
    | s :: tl ->
        if Mj.is_persist_point s && !points = stop_at then true
        else begin
          if Mj.is_persist_point s then incr points;
          (match s.Mj.act with
          | Mj.St (w, v) -> Ms.store m w v
          | Mj.Fl ws -> Ms.flush_words m ws
          | Mj.Flw ws -> Ms.flush_words_only m ws
          | Mj.Fence -> Ms.fence m
          | Mj.Mark (Mj.M_start u) -> statuses.(u - 1) <- InFlight
          | Mj.Mark (Mj.M_commit_point u) -> statuses.(u - 1) <- Window
          | Mj.Mark (Mj.M_retired u) -> statuses.(u - 1) <- Retired);
          go tl
        end
  in
  let crashed = go sched in
  { m; statuses; crashed; points = !points }

(* {1 The oracle: expected states} *)

type outcome = Applied | Rolled_back

(* Replay a composition over the program: per-block heap generation and
   table code if each transaction's outcome is as given. *)
let expected prog sigma =
  let gens = Array.make Ms.nblocks 0 in
  let codes =
    Array.init Ms.nblocks (fun b ->
        if prog.Mj.init_live.(b) then Ms.order_of_block b + 1 else 0)
  in
  List.iteri
    (fun i tx ->
      if sigma.(i) = Applied then
        List.iter
          (fun op ->
            match op with
            | Mj.Set b -> gens.(b) <- i + 1
            | Mj.Alloc b -> codes.(b) <- Ms.order_of_block b + 1
            | Mj.Free b -> codes.(b) <- 0)
          tx.Mj.ops)
    prog.Mj.txs;
  (gens, codes)

(* A free block's heap contents are dead bytes — only live blocks'
   generations are compared. *)
let state_matches cfg (st : Ms.state) (gens, codes) ~heap_only =
  let ok = ref true in
  for b = 0 to Ms.nblocks - 1 do
    if codes.(b) > 0 && st.(Ms.heap_w cfg b) <> Ms.Gen gens.(b) then ok := false;
    if
      (not heap_only)
      && Ms.tab_get st.(Ms.table_w cfg b) (Ms.table_sub cfg b) <> codes.(b)
    then ok := false
  done;
  !ok

let allowed_outcomes (tx : Mj.tx) st =
  match (tx.Mj.k, st) with
  | Mj.Abort, _ -> [ Rolled_back ]
  | Mj.Commit, (NotStarted | InFlight) -> [ Rolled_back ]
  | Mj.Commit, Window -> [ Rolled_back; Applied ]
  | Mj.Commit, Retired -> [ Applied ]

let compositions choices_of txs statuses =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (List.concat_map
           (fun o -> List.map (fun tl -> o :: tl) acc)
           (choices_of (List.nth txs i) statuses.(i)))
  in
  List.map Array.of_list (go (List.length txs - 1) [ [] ])

let pp_outcomes ppf sigma =
  Array.iteri
    (fun i o ->
      Format.fprintf ppf "%stx%d:%s"
        (if i > 0 then " " else "")
        (i + 1)
        (match o with Applied -> "applied" | Rolled_back -> "rolled-back"))
    sigma

(* {1 The check} *)

(* Returns [Error (invariant, detail)] if the recovered durable image
   [st] violates durable linearizability for the given statuses. *)
let check_recovered cfg variant prog (statuses : status array) (st : Ms.state) =
  let legal = compositions allowed_outcomes prog.Mj.txs statuses in
  match
    List.find_opt
      (fun s -> state_matches cfg st (expected prog s) ~heap_only:false)
      legal
  with
  | Some _ ->
      (* the state is a legal composition; now the log must be quiescent
         and recovery idempotent *)
      let m = Ms.boot st in
      let quiescent = ref (Ok ()) in
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
          quiescent :=
            Error
              ( "I-QUIESCENT-LOG",
                Printf.sprintf "slot %d still carries log residue" s )
      done;
      (match !quiescent with
      | Error _ as e -> e
      | Ok () ->
          let m2 = Ms.boot st in
          Mr.recover ~variant (Mr.no_crash ()) cfg m2;
          if not (Ms.equal_state (Ms.snapshot_durable m2) st) then
            Error
              ( "I-IDEMPOTENT-RECOVERY",
                "re-running recovery changed the durable image" )
          else Ok ())
  | None ->
      (* not legal — classify.  Relax to ALL compositions first: if some
         composition matches, the defect is an outcome forced the wrong
         way; otherwise the state is not transactional at all. *)
      let relaxed =
        compositions (fun _ _ -> [ Applied; Rolled_back ]) prog.Mj.txs statuses
      in
      let detail_of sigma =
        Format.asprintf "state realizes [%a] which the statuses forbid"
          pp_outcomes sigma
      in
      (match
         List.find_opt
           (fun s -> state_matches cfg st (expected prog s) ~heap_only:false)
           relaxed
       with
      | Some sigma ->
          let forced_applied = ref false in
          Array.iteri
            (fun i o ->
              if
                o = Applied
                && allowed_outcomes (List.nth prog.Mj.txs i) statuses.(i)
                   = [ Rolled_back ]
              then forced_applied := true)
            sigma;
          if !forced_applied then Error ("I-UNCOMMITTED-ROLLED-BACK", detail_of sigma)
          else Error ("I-COMMITTED-DURABLE", detail_of sigma)
      | None ->
          if
            List.exists
              (fun s -> state_matches cfg st (expected prog s) ~heap_only:true)
              relaxed
          then
            Error
              ( "I-TABLE-LIVENESS",
                "heap matches a composition but table codes match none" )
          else
            Error
              ( "I-ATOMIC",
                "state matches no transactional composition (partial effects)"
              ))

(* {1 Counterexamples and statistics} *)

type cex = {
  variant : Mvariant.t;
  cfg : Ms.cfg;
  pidx : int;  (* index into [Mjournal.programs cfg] *)
  prog : Mj.program;
  point : int;  (* writer persist point crashed before *)
  mask : int;  (* which in-flight words landed *)
  rpoint : int option;  (* nested: recovery persist point crashed before *)
  rmask : int option;
  invariant : string;
  detail : string;
  crash : Ms.state;  (* the durable image recovery was given *)
  recovered : Ms.state;
}

type stats = {
  mutable programs : int;
  mutable crash_points : int;
  mutable crash_branches : int;
  mutable distinct_states : int;
  mutable recovery_runs : int;
  mutable nested_points : int;
  mutable nested_branches : int;
}

let fresh_stats () =
  {
    programs = 0;
    crash_points = 0;
    crash_branches = 0;
    distinct_states = 0;
    recovery_runs = 0;
    nested_points = 0;
    nested_branches = 0;
  }

let stats_fields s =
  [
    ("programs", s.programs);
    ("crash_points", s.crash_points);
    ("crash_branches", s.crash_branches);
    ("distinct_states", s.distinct_states);
    ("recovery_runs", s.recovery_runs);
    ("nested_points", s.nested_points);
    ("nested_branches", s.nested_branches);
  ]

exception Found of cex

(* Run modeled recovery to completion on [st]; check the result. *)
let recover_and_check stats variant cfg pidx prog statuses st ~point ~mask
    ~rpoint ~rmask =
  let rm = Ms.boot st in
  Mr.recover ~variant (Mr.no_crash ()) cfg rm;
  stats.recovery_runs <- stats.recovery_runs + 1;
  let final = Ms.snapshot_durable rm in
  match check_recovered cfg variant prog statuses final with
  | Ok () -> ()
  | Error (invariant, detail) ->
      raise
        (Found
           {
             variant;
             cfg;
             pidx;
             prog;
             point;
             mask;
             rpoint;
             rmask;
             invariant;
             detail;
             crash = st;
             recovered = final;
           })

let seen_key st statuses = Marshal.to_string (st, statuses) []

let check_program stats variant cfg pidx prog ~nested =
  let sched = Mj.schedule cfg variant prog in
  let ntxs = List.length prog.Mj.txs in
  let init_live = prog.Mj.init_live in
  stats.programs <- stats.programs + 1;
  (* the crash-free run: natural outcomes, quiescent log *)
  let full = exec_schedule cfg ~init_live ~ntxs sched ~stop_at:(-1) in
  assert (not full.crashed);
  (match
     check_recovered cfg variant prog full.statuses
       (Ms.snapshot_durable full.m)
   with
  | Ok () -> ()
  | Error (invariant, detail) ->
      raise
        (Found
           {
             variant;
             cfg;
             pidx;
             prog;
             point = -1;
             mask = 0;
             rpoint = None;
             rmask = None;
             invariant;
             detail;
             crash = Ms.snapshot_durable full.m;
             recovered = Ms.snapshot_durable full.m;
           }));
  let seen = Hashtbl.create 1024 in
  for k = 0 to full.points - 1 do
    let r = exec_schedule cfg ~init_live ~ntxs sched ~stop_at:k in
    assert r.crashed;
    stats.crash_points <- stats.crash_points + 1;
    let n = List.length (Ms.wpq_words r.m) in
    assert (n <= Ms.max_branch_words);
    for mask = 0 to (1 lsl n) - 1 do
      stats.crash_branches <- stats.crash_branches + 1;
      let st = Ms.crash_state r.m ~mask in
      let key = seen_key st r.statuses in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        stats.distinct_states <- stats.distinct_states + 1;
        recover_and_check stats variant cfg pidx prog r.statuses st ~point:k
          ~mask ~rpoint:None ~rmask:None;
        if nested then begin
          (* crash recovery itself at each of ITS persist points *)
          let dry = Ms.boot st in
          let dclk = Mr.no_crash () in
          Mr.recover ~variant dclk cfg dry;
          stats.recovery_runs <- stats.recovery_runs + 1;
          for rk = 0 to dclk.Mr.points - 1 do
            stats.nested_points <- stats.nested_points + 1;
            let rm = Ms.boot st in
            let clk = Mr.crash_at rk in
            (try
               Mr.recover ~variant clk cfg rm;
               assert false
             with Mr.Crash_now -> ());
            let rn = List.length (Ms.wpq_words rm) in
            assert (rn <= Ms.max_branch_words);
            for rmask = 0 to (1 lsl rn) - 1 do
              stats.nested_branches <- stats.nested_branches + 1;
              let st2 = Ms.crash_state rm ~mask:rmask in
              let key2 = seen_key st2 r.statuses in
              if not (Hashtbl.mem seen key2) then begin
                Hashtbl.add seen key2 ();
                stats.distinct_states <- stats.distinct_states + 1;
                recover_and_check stats variant cfg pidx prog r.statuses st2
                  ~point:k ~mask ~rpoint:(Some rk) ~rmask:(Some rmask)
              end
            done
          done
        end
      end
    done
  done

(* {1 Entry points} *)

let default_cfgs =
  [
    { Ms.nslots = 1; Ms.table_split = false };
    { Ms.nslots = 1; Ms.table_split = true };
    { Ms.nslots = 2; Ms.table_split = true };
  ]

type report = { variant : Mvariant.t; stats : stats; cex : cex option }

let run ?(cfgs = default_cfgs) ?(nested = true) variant =
  let stats = fresh_stats () in
  try
    List.iter
      (fun cfg ->
        List.iteri
          (fun pidx prog -> check_program stats variant cfg pidx prog ~nested)
          (Mj.programs cfg))
      cfgs;
    { variant; stats; cex = None }
  with Found c -> { variant; stats; cex = Some c }

(* {1 Counterexample printing} *)

let pp_schedule cfg ppf sched =
  let pt = ref 0 in
  List.iter
    (fun s ->
      if Mj.is_persist_point s then begin
        Format.fprintf ppf "  p%-3d %a@." !pt (Mj.pp_step cfg) s;
        incr pt
      end
      else Format.fprintf ppf "       %a@." (Mj.pp_step cfg) s)
    sched

let repro_string (c : cex) =
  let base =
    Printf.sprintf "%s:%d:%d:%d:%d:%d"
      (Mvariant.name c.variant)
      c.cfg.Ms.nslots
      (if c.cfg.Ms.table_split then 1 else 0)
      c.pidx c.point c.mask
  in
  match (c.rpoint, c.rmask) with
  | Some rk, Some rm -> Printf.sprintf "%s:%d:%d" base rk rm
  | _ -> base

let pp_cex ppf (c : cex) =
  Format.fprintf ppf "counterexample (variant %s):@." (Mvariant.name c.variant);
  Format.fprintf ppf "  program   %s  (nslots=%d table_split=%b)@."
    c.prog.Mj.descr c.cfg.Ms.nslots c.cfg.Ms.table_split;
  if c.point < 0 then
    Format.fprintf ppf "  crash     none (crash-free run)@."
  else
    Format.fprintf ppf
      "  crash     before writer persist point p%d, landed-word mask 0x%x@."
      c.point c.mask;
  (match (c.rpoint, c.rmask) with
  | Some rk, Some rm ->
      Format.fprintf ppf
        "  nested    recovery crashed before its persist point %d, mask 0x%x@."
        rk rm
  | _ -> ());
  Format.fprintf ppf "  violates  %s: %s@." c.invariant c.detail;
  Format.fprintf ppf "  tx status %s@."
    (String.concat ", "
       (List.mapi
          (fun i tx -> Printf.sprintf "tx%d %s" (i + 1) (Mj.tx_name tx))
          c.prog.Mj.txs));
  Format.fprintf ppf "  replay    --repro '%s'@." (repro_string c);
  Format.fprintf ppf "  crash image:@.%a" (Ms.pp_state c.cfg) c.crash;
  Format.fprintf ppf "  recovered image:@.%a" (Ms.pp_state c.cfg) c.recovered;
  Format.fprintf ppf "  persist schedule:@.%a" (pp_schedule c.cfg)
    (Mj.schedule c.cfg c.variant c.prog)

(* {1 Replay} *)

(* Re-run one crash branch from its repro spec:
   VARIANT:NSLOTS:SPLIT:PROG:POINT:MASK[:RPOINT:RMASK] *)
let replay spec =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match String.split_on_char ':' spec with
  | vname :: nslots :: split :: pidx :: point :: mask :: rest -> (
      let ints =
        try
          Some
            ( int_of_string nslots,
              int_of_string split,
              int_of_string pidx,
              int_of_string point,
              int_of_string mask,
              match rest with
              | [] -> None
              | [ rk; rm ] -> Some (int_of_string rk, int_of_string rm)
              | _ -> raise Exit )
        with _ -> None
      in
      match (Mvariant.of_name vname, ints) with
      | None, _ -> fail "unknown variant %S" vname
      | _, None -> fail "malformed repro spec %S" spec
      | Some variant, Some (nslots, split, pidx, point, mask, nested) -> (
          let cfg = { Ms.nslots; Ms.table_split = split <> 0 } in
          let progs = Mj.programs cfg in
          if pidx < 0 || pidx >= List.length progs then
            fail "program index %d out of range" pidx
          else
            let prog = List.nth progs pidx in
            let sched = Mj.schedule cfg variant prog in
            let ntxs = List.length prog.Mj.txs in
            let r =
              exec_schedule cfg ~init_live:prog.Mj.init_live ~ntxs sched
                ~stop_at:point
            in
            if not r.crashed then fail "persist point %d out of range" point
            else
              let st = Ms.crash_state r.m ~mask in
              let st =
                match nested with
                | None -> Ok st
                | Some (rk, rmask) -> (
                    let rm = Ms.boot st in
                    let clk = Mr.crash_at rk in
                    match Mr.recover ~variant clk cfg rm with
                    | () -> fail "recovery point %d out of range" rk
                    | exception Mr.Crash_now ->
                        Ok (Ms.crash_state rm ~mask:rmask))
              in
              match st with
              | Error _ as e -> e
              | Ok st -> (
                  let stats = fresh_stats () in
                  let rpoint, rmask =
                    match nested with
                    | Some (rk, rm) -> (Some rk, Some rm)
                    | None -> (None, None)
                  in
                  match
                    recover_and_check stats variant cfg pidx prog r.statuses st
                      ~point ~mask ~rpoint ~rmask
                  with
                  | () -> Ok None
                  | exception Found c -> Ok (Some c))))
  | _ -> fail "malformed repro spec %S" spec
