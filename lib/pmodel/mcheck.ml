(* The exhaustive crash-state checker, written once for every model
   family.

   A {!family} supplies its programs, their persist schedules, its
   recovery and the oracle pieces: the undo journal ({!Mjournal}, a
   model with {!Mrecovery}'s mirror of the shipped recovery) and the CoW
   commit ({!Mcow}, the shipped engine and recovery, captured by
   {!Mcapture}) are the two.  For every
   (config, program) pair the checker expands the writer schedule,
   crashes it before every persist point, enumerates EVERY torn-word
   outcome of the in-flight line set (all subsets of the write-pending
   queue), runs the family's recovery on each distinct durable image,
   and asserts durable linearizability:

   - I-ATOMIC: the recovered state equals SOME transactional
     composition (each transaction fully applied or fully rolled back);
   - I-COMMITTED-DURABLE: a transaction observed retired is applied;
   - I-UNCOMMITTED-ROLLED-BACK: a transaction that never reached its
     commit point is rolled back (between the commit point and the
     retirement both outcomes are legal: committed-but-unacknowledged);
   - I-TABLE-LIVENESS: the heap matches a composition but the
     allocation-table (or root) words match none (a leaked or doubly
     freed block);
   - the family's quiescence invariant (I-QUIESCENT-LOG,
     I-QUIESCENT-INTENT): recovery leaves no log residue;
   - I-IDEMPOTENT-RECOVERY: running recovery again changes nothing.

   Crashes at persist points INSIDE recovery are enumerated too
   (depth 1), each followed by a full re-recovery. *)

module Ms = Mstate
module Mr = Mrecovery

(* {1 Schedule steps}

   Generic in the word value, so every family's schedule runs on
   {!Mstate}'s machine. *)

type marker = M_start of int | M_commit_point of int | M_retired of int

type 'v act =
  | St of int * 'v
  | Fl of int list  (* line-granular flush (the real primitive) *)
  | Flw of int list  (* word-granular flush (fault variants only) *)
  | Fence
  | Mark of marker

type 'v step = { act : 'v act; lbl : string }

let is_persist_point s =
  match s.act with Fl _ | Flw _ | Fence -> true | St _ | Mark _ -> false

(* {1 Transaction status and outcomes} *)

type status = NotStarted | InFlight | Window | Retired
type outcome = Applied | Rolled_back

(* {1 Families} *)

type ('c, 'p, 'v) family = {
  name : string;  (* report label: "journal", "cow" *)
  tag : Mvariant.family;  (* which variants run here *)
  cfgs : 'c list;
  programs : 'c -> 'p list;
  ntxs : 'p -> int;
  schedule : 'c -> Mvariant.t -> 'p -> 'v step list;
  initial : 'c -> 'p -> 'v array;
  recover : Mvariant.t -> Mr.clock -> 'c -> 'v Ms.mem -> unit;
      (* ticks the clock before every flush and fence *)
  allowed : 'p -> int -> status -> outcome list;
      (* legal outcomes of transaction [i] at a crash in [status] *)
  matches : 'c -> 'p -> outcome array -> 'v array -> heap_only:bool -> bool;
      (* the image realizes the composition (live heap words only, or
         heap plus table/root words) *)
  quiescent : 'c -> 'v array -> (string * string) option;
      (* the residue a recovered image must not carry *)
  liveness_detail : string;
  recovers_end : bool;
      (* the run's unfenced tail is legitimately in flight at its end:
         it is crashed there too, every subset of the tail landing and
         going through recovery, rather than its end image being
         quiescent already *)
  title : string;  (* counterexample header prefix *)
  describe : 'c -> 'p -> string;
  tx_names : 'p -> string list;
  word_name : 'c -> int -> string;
  name_width : int;
  pp_value : Format.formatter -> 'v -> unit;
  blank : 'v;  (* the unwritten word, omitted from printed images *)
  cfg_key : 'c -> string;  (* repro spec fields between VARIANT and PROG *)
  parse_cfg : string list -> ('c * string list) option;
}

type t = Family : ('c, 'p, 'v) family -> t

let name (Family f) = f.name
let carries (Family f) v = List.mem f.tag (Mvariant.families v)

(* {1 Schedule execution} *)

type 'v run = {
  m : 'v Ms.mem;
  statuses : status array;
  crashed : bool;
  points : int;  (* persist points executed (= total on a full run) *)
}

(* One step's effect on the machine; markers have none. *)
let apply m s =
  match s.act with
  | St (w, v) -> Ms.store m w v
  | Fl ws -> Ms.flush_words m ws
  | Flw ws -> Ms.flush_words_only m ws
  | Fence -> Ms.fence m
  | Mark _ -> ()

let exec_schedule f cfg prog sched ~stop_at =
  let m = Ms.boot (f.initial cfg prog) in
  let statuses = Array.make (f.ntxs prog) NotStarted in
  let points = ref 0 in
  let rec go = function
    | [] -> false
    | s :: tl ->
        if is_persist_point s && !points = stop_at then true
        else begin
          if is_persist_point s then incr points;
          apply m s;
          (match s.act with
          | Mark (M_start u) -> statuses.(u - 1) <- InFlight
          | Mark (M_commit_point u) -> statuses.(u - 1) <- Window
          | Mark (M_retired u) -> statuses.(u - 1) <- Retired
          | St _ | Fl _ | Flw _ | Fence -> ());
          go tl
        end
  in
  let crashed = go sched in
  { m; statuses; crashed; points = !points }

(* {1 The oracle} *)

let compositions choices_of statuses =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (List.concat_map
           (fun o -> List.map (fun tl -> o :: tl) acc)
           (choices_of i statuses.(i)))
  in
  List.map Array.of_list (go (Array.length statuses - 1) [ [] ])

let pp_outcomes ppf sigma =
  Array.iteri
    (fun i o ->
      Format.fprintf ppf "%stx%d:%s"
        (if i > 0 then " " else "")
        (i + 1)
        (match o with Applied -> "applied" | Rolled_back -> "rolled-back"))
    sigma

(* Returns [Error (invariant, detail)] if the recovered durable image
   [st] violates durable linearizability for the given statuses. *)
let check_recovered f variant cfg prog statuses st =
  let matches ~heap_only sigma = f.matches cfg prog sigma st ~heap_only in
  let legal = compositions (f.allowed prog) statuses in
  match List.find_opt (matches ~heap_only:false) legal with
  | Some _ -> (
      (* the state is a legal composition; now it must be quiescent and
         recovery idempotent *)
      match f.quiescent cfg st with
      | Some e -> Error e
      | None ->
          let m2 = Ms.boot st in
          f.recover variant (Mr.no_crash ()) cfg m2;
          if not (Ms.equal_state (Ms.snapshot_durable m2) st) then
            Error
              ( "I-IDEMPOTENT-RECOVERY",
                "re-running recovery changed the durable image" )
          else Ok ())
  | None -> (
      (* not legal — classify.  Relax to ALL compositions first: if some
         composition matches, the defect is an outcome forced the wrong
         way; otherwise the state is not transactional at all. *)
      let relaxed = compositions (fun _ _ -> [ Applied; Rolled_back ]) statuses in
      let detail_of sigma =
        Format.asprintf "state realizes [%a] which the statuses forbid"
          pp_outcomes sigma
      in
      match List.find_opt (matches ~heap_only:false) relaxed with
      | Some sigma ->
          let forced_applied = ref false in
          Array.iteri
            (fun i o ->
              if o = Applied && f.allowed prog i statuses.(i) = [ Rolled_back ]
              then forced_applied := true)
            sigma;
          if !forced_applied then Error ("I-UNCOMMITTED-ROLLED-BACK", detail_of sigma)
          else Error ("I-COMMITTED-DURABLE", detail_of sigma)
      | None ->
          if List.exists (matches ~heap_only:true) relaxed then
            Error ("I-TABLE-LIVENESS", f.liveness_detail)
          else
            Error
              ( "I-ATOMIC",
                "state matches no transactional composition (partial effects)"
              ))

(* {1 Counterexamples and statistics} *)

type cex = {
  variant : Mvariant.t;
  title : string;
  program : string;
  tx_names : string list;
  key : string;  (* the family's config fields of the repro spec *)
  pidx : int;  (* index into the family's programs for the config *)
  point : int;  (* writer persist point crashed before; -1 = crash-free *)
  mask : int;  (* which in-flight words landed *)
  nested : (int * int) option;
      (* recovery crashed before its persist point, with its landed mask *)
  invariant : string;
  detail : string;
  pp_images : Format.formatter -> unit;
      (* crash image, recovered image and persist schedule *)
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

(* {1 Printing} *)

let pp_state f cfg ppf st =
  Array.iteri
    (fun w v ->
      if v <> f.blank then
        Format.fprintf ppf "  %-*s = %a@." f.name_width (f.word_name cfg w)
          f.pp_value v)
    st

let pp_step f cfg ppf s =
  let names ws = String.concat "," (List.map (f.word_name cfg) ws) in
  (match s.act with
  | St (w, v) ->
      Format.fprintf ppf "st   %-*s <- %a" f.name_width (f.word_name cfg w)
        f.pp_value v
  | Fl ws -> Format.fprintf ppf "fl   %s" (names ws)
  | Flw ws -> Format.fprintf ppf "flw  %s" (names ws)
  | Fence -> Format.fprintf ppf "fence"
  | Mark (M_start u) -> Format.fprintf ppf "-- tx%d begins" u
  | Mark (M_commit_point u) -> Format.fprintf ppf "-- tx%d commit point" u
  | Mark (M_retired u) -> Format.fprintf ppf "-- tx%d retired" u);
  if s.lbl <> "" then Format.fprintf ppf "   [%s]" s.lbl

let pp_schedule f cfg ppf sched =
  let pt = ref 0 in
  List.iter
    (fun s ->
      if is_persist_point s then begin
        Format.fprintf ppf "  p%-3d %a@." !pt (pp_step f cfg) s;
        incr pt
      end
      else Format.fprintf ppf "       %a@." (pp_step f cfg) s)
    sched

let repro_string (c : cex) =
  let base =
    Printf.sprintf "%s:%s:%d:%d:%d" (Mvariant.name c.variant) c.key c.pidx
      c.point c.mask
  in
  match c.nested with
  | Some (rk, rm) -> Printf.sprintf "%s:%d:%d" base rk rm
  | None -> base

let pp_cex ppf (c : cex) =
  Format.fprintf ppf "counterexample (%svariant %s):@." c.title
    (Mvariant.name c.variant);
  Format.fprintf ppf "  program   %s@." c.program;
  if c.point >= 0 then
    Format.fprintf ppf
      "  crash     before writer persist point p%d, landed-word mask 0x%x@."
      c.point c.mask
  else if c.mask = 0 && c.nested = None then
    Format.fprintf ppf "  crash     none (crash-free run)@."
  else
    Format.fprintf ppf
      "  crash     after the last writer persist point, landed-word mask 0x%x@."
      c.mask;
  Option.iter
    (fun (rk, rm) ->
      Format.fprintf ppf
        "  nested    recovery crashed before its persist point %d, mask 0x%x@."
        rk rm)
    c.nested;
  Format.fprintf ppf "  violates  %s: %s@." c.invariant c.detail;
  Format.fprintf ppf "  tx status %s@."
    (String.concat ", "
       (List.mapi (fun i tx -> Printf.sprintf "tx%d %s" (i + 1) tx) c.tx_names));
  Format.fprintf ppf "  replay    --repro '%s'@." (repro_string c);
  c.pp_images ppf

(* {1 The enumeration} *)

(* One branch under check: the family, variant, config and program a
   crash image belongs to, and the writer statuses at the crash. *)
type ('c, 'p, 'v) branch = {
  f : ('c, 'p, 'v) family;
  v : Mvariant.t;
  cfg : 'c;
  pidx : int;
  prog : 'p;
  statuses : status array;
}

let found b ~point ~mask ~nested (invariant, detail) crash recovered =
  let f = b.f and cfg = b.cfg in
  raise
    (Found
       {
         variant = b.v;
         title = f.title;
         program = f.describe cfg b.prog;
         tx_names = f.tx_names b.prog;
         key = f.cfg_key cfg;
         pidx = b.pidx;
         point;
         mask;
         nested;
         invariant;
         detail;
         pp_images =
           (fun ppf ->
             Format.fprintf ppf "  crash image:@.%a" (pp_state f cfg) crash;
             Format.fprintf ppf "  recovered image:@.%a" (pp_state f cfg)
               recovered;
             Format.fprintf ppf "  persist schedule:@.%a" (pp_schedule f cfg)
               (f.schedule cfg b.v b.prog));
       })

(* Run the family's recovery to completion on [st]; check the result. *)
let recover_and_check stats b st ~point ~mask ~nested =
  let rm = Ms.boot st in
  b.f.recover b.v (Mr.no_crash ()) b.cfg rm;
  stats.recovery_runs <- stats.recovery_runs + 1;
  let final = Ms.snapshot_durable rm in
  match check_recovered b.f b.v b.cfg b.prog b.statuses final with
  | Ok () -> ()
  | Error e -> found b ~point ~mask ~nested e st final

(* The crash-free run of a family whose end image must already be
   quiescent: checked as it stands, with natural outcomes. *)
let check_crash_free b st =
  match check_recovered b.f b.v b.cfg b.prog b.statuses st with
  | Ok () -> ()
  | Error e -> found b ~point:(-1) ~mask:0 ~nested:None e st st

(* Crash recovery of [st] before its persist point [rk]; [None] when
   recovery finishes first. *)
let crash_recovery b st rk =
  let rm = Ms.boot st in
  match b.f.recover b.v (Mr.crash_at rk) b.cfg rm with
  | () -> None
  | exception Mr.Crash_now -> Some rm

let seen_key st statuses = Marshal.to_string (st, statuses) []

(* Every subset of the in-flight words is enumerated, so their number is
   capped; a schedule past the cap names the branch that exceeded it. *)
let check_in_flight b ~point ?nested n =
  if n > Ms.max_branch_words then
    failwith
      (Printf.sprintf
         "pmodel: %s family (%s), program %d (%s), writer point %s%s: %d \
          words in flight exceed the cap of %d"
         b.f.name (b.f.cfg_key b.cfg) b.pidx (b.f.describe b.cfg b.prog)
         (if point < 0 then "end" else string_of_int point)
         (match nested with
         | Some rk -> Printf.sprintf ", recovery point %d" rk
         | None -> "")
         n Ms.max_branch_words)

let check_program stats f v cfg pidx prog ~nested =
  let sched = f.schedule cfg v prog in
  let exec stop_at = exec_schedule f cfg prog sched ~stop_at in
  stats.programs <- stats.programs + 1;
  let full = exec (-1) in
  assert (not full.crashed);
  let b = { f; v; cfg; pidx; prog; statuses = full.statuses } in
  if not f.recovers_end then check_crash_free b (Ms.snapshot_durable full.m);
  let seen = Hashtbl.create 1024 in
  let fresh st statuses =
    let key = seen_key st statuses in
    let is_new = not (Hashtbl.mem seen key) in
    if is_new then begin
      Hashtbl.add seen key ();
      stats.distinct_states <- stats.distinct_states + 1
    end;
    is_new
  in
  (* Crash run [r] at [point] (-1: after its last persist point) with
     every subset of its in-flight words landing. *)
  let crash (r : _ run) ~point =
    let b = { b with statuses = r.statuses } in
    let n = List.length (Ms.wpq_words r.m) in
    check_in_flight b ~point n;
    for mask = 0 to (1 lsl n) - 1 do
      stats.crash_branches <- stats.crash_branches + 1;
      let st = Ms.crash_state r.m ~mask in
      if fresh st r.statuses then begin
        recover_and_check stats b st ~point ~mask ~nested:None;
        if nested then begin
          (* crash recovery itself at each of ITS persist points *)
          let dclk = Mr.no_crash () in
          f.recover v dclk cfg (Ms.boot st);
          stats.recovery_runs <- stats.recovery_runs + 1;
          for rk = 0 to dclk.Mr.points - 1 do
            stats.nested_points <- stats.nested_points + 1;
            let rm = Option.get (crash_recovery b st rk) in
            let rn = List.length (Ms.wpq_words rm) in
            check_in_flight b ~point ~nested:rk rn;
            for rmask = 0 to (1 lsl rn) - 1 do
              stats.nested_branches <- stats.nested_branches + 1;
              let st2 = Ms.crash_state rm ~mask:rmask in
              if fresh st2 r.statuses then
                recover_and_check stats b st2 ~point ~mask
                  ~nested:(Some (rk, rmask))
            done
          done
        end
      end
    done
  in
  for k = 0 to full.points - 1 do
    let r = exec k in
    assert r.crashed;
    stats.crash_points <- stats.crash_points + 1;
    crash r ~point:k
  done;
  (* a family whose unfenced tail is legitimately in flight at the end
     crashes there too *)
  if f.recovers_end then crash full ~point:(-1)

(* {1 Entry points} *)

type report = { stats : stats; cex : cex option }

let run ?(nested = true) (Family f) variant =
  let stats = fresh_stats () in
  try
    List.iter
      (fun cfg ->
        List.iteri
          (fun pidx prog -> check_program stats f variant cfg pidx prog ~nested)
          (f.programs cfg))
      f.cfgs;
    { stats; cex = None }
  with Found c -> { stats; cex = Some c }

(* {1 Replay} *)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* A mask selects a subset of the [n] words in flight. *)
let check_mask what mask n =
  if mask < 0 || mask >= 1 lsl n then
    fail "%s %d out of range [0, %d): %d word(s) in flight" what mask
      (1 lsl n) n
  else Ok ()

(* Re-run one branch of family [f] from the spec fields after its
   config: PROG:POINT:MASK[:RPOINT:RMASK].  POINT -1 is the end of the
   run, checked exactly as {!run} checks it: the crash-free image, or in
   a family whose tail is in flight at the end, a crash after the last
   persist point. *)
let replay_in (f : (_, _, _) family) v cfg spec fields =
  let ( let* ) = Result.bind in
  let* pidx, point, mask, nested =
    match List.map int_of_string_opt fields with
    | [ Some p; Some k; Some m ] -> Ok (p, k, m, None)
    | [ Some p; Some k; Some m; Some rk; Some rm ] -> Ok (p, k, m, Some (rk, rm))
    | _ -> fail "malformed repro spec %S" spec
  in
  let progs = f.programs cfg in
  let* () =
    if not (carries (Family f) v) then
      fail "variant %s does not run in the %s family" (Mvariant.name v) f.name
    else if pidx < 0 || pidx >= List.length progs then
      fail "program index %d out of range" pidx
    else Ok ()
  in
  let prog = List.nth progs pidx in
  let r = exec_schedule f cfg prog (f.schedule cfg v prog) ~stop_at:point in
  let b = { f; v; cfg; pidx; prog; statuses = r.statuses } in
  let stats = fresh_stats () in
  let verdict check =
    match check () with () -> Ok None | exception Found c -> Ok (Some c)
  in
  if point = -1 && not f.recovers_end then
    if mask <> 0 || nested <> None then
      fail "the crash-free run (POINT -1) takes MASK 0 and no RPOINT:RMASK"
    else verdict (fun () -> check_crash_free b (Ms.snapshot_durable r.m))
  else if point <> -1 && not r.crashed then
    fail "persist point %d out of range" point
  else
    let* () = check_mask "landed-word mask" mask (List.length (Ms.wpq_words r.m)) in
    let st = Ms.crash_state r.m ~mask in
    match nested with
    | None ->
        verdict (fun () -> recover_and_check stats b st ~point ~mask ~nested)
    | Some (rk, rmask) -> (
        match crash_recovery b st rk with
        | None -> fail "recovery point %d out of range" rk
        | Some rm ->
            let* () =
              check_mask "recovery mask" rmask (List.length (Ms.wpq_words rm))
            in
            verdict (fun () ->
                recover_and_check stats b (Ms.crash_state rm ~mask:rmask) ~point
                  ~mask ~nested))

(* Re-run one branch from its repro spec, VARIANT:KEY:PROG:POINT:MASK
   [:RPOINT:RMASK], in the family whose config KEY it carries. *)
let replay families spec =
  match String.split_on_char ':' spec with
  | vname :: rest -> (
      match Mvariant.of_name vname with
      | None -> fail "unknown variant %S" vname
      | Some v -> (
          match
            List.find_map
              (fun (Family f) ->
                Option.map
                  (fun (cfg, fields) -> replay_in f v cfg spec fields)
                  (f.parse_cfg rest))
              families
          with
          | Some r -> r
          | None -> fail "malformed repro spec %S" spec))
  | [] -> fail "malformed repro spec %S" spec
