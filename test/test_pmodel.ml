(* The crash-state model checker, checked: the real protocol must verify
   over its full bounded space, every deliberately broken variant must
   yield a counterexample, counterexamples must replay from their repro
   spec, and the trace conformance validator must accept a real capture
   and reject a synthetic protocol violation. *)

module Mc = Pmodel.Mcheck
module Mf = Pmodel.Mfamilies
module Mv = Pmodel.Mvariant
module Cf = Pmodel.Mconform
module Pr = Ptelemetry.Probe

(* Per family: its test name and the space a full run must exceed
   (programs, crash branches, nested branches). *)
let full_space f =
  match Mc.name f with
  | "journal" -> ("journal", 50, 1000, 1000)
  | "cow" -> ("CoW", 9, 100, 100)
  | n -> Alcotest.failf "no full-space bounds for family %S" n

(* The correct protocol must verify over each family's full space,
   including recovery's own crashes. *)
let test_family_verifies f () =
  let _, programs, branches, nested = full_space f in
  let r = Mc.run f Mv.Correct in
  (match r.cex with
  | None -> ()
  | Some c ->
      Alcotest.failf "correct protocol: %s" (Format.asprintf "%a" Mc.pp_cex c));
  let s = r.stats in
  Alcotest.(check bool) "programs explored" true (s.programs > programs);
  Alcotest.(check bool) "crash branches explored" true (s.crash_branches > branches);
  Alcotest.(check bool) "recovery itself crashed" true (s.nested_branches > nested)

(* Each seeded bug's counterexample, from the families it runs in. *)
let counterexample v =
  List.find_map
    (fun f -> if Mc.carries f v then (Mc.run ~nested:false f v).cex else None)
    Mf.all

let test_controls_all_caught () =
  List.iter
    (fun v ->
      if counterexample v = None then
        Alcotest.failf "seeded bug %S produced no counterexample" (Mv.name v))
    Mv.broken

let test_replay_roundtrip () =
  List.iter
    (fun v ->
      match counterexample v with
      | None -> Alcotest.failf "no counterexample for %S" (Mv.name v)
      | Some c -> (
          let spec = Mc.repro_string c in
          match Mc.replay Mf.all spec with
          | Error e -> Alcotest.failf "replay %S failed: %s" spec e
          | Ok None ->
              Alcotest.failf "replay %S found the branch legal after all" spec
          | Ok (Some c') ->
              Alcotest.(check string)
                (spec ^ " reproduces the same invariant violation")
                c.invariant c'.invariant))
    Mv.broken

(* A nested branch (recovery crashed at its own persist point 1, one of
   its in-flight words landed) of the correct protocol, in each family;
   the CoW family also from a crash after the last persist point (POINT
   -1) with the final root swap landed. *)
let test_nested_replay () =
  List.iter
    (fun spec ->
      match Mc.replay Mf.all spec with
      | Ok None -> ()
      | Ok (Some c) ->
          Alcotest.failf "%S: %s" spec (Format.asprintf "%a" Mc.pp_cex c)
      | Error e -> Alcotest.failf "replay %S failed: %s" spec e)
    [ "correct:1:0:0:3:1:1:1"; "correct:cow:0:3:1:1:1"; "correct:cow:10:-1:1:1:1" ]

let test_replay_rejects_garbage () =
  List.iter
    (fun (spec, why) ->
      match Mc.replay Mf.all spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted: %S" why spec)
    [
      ("no-such-variant:1:0:0:0:0", "bogus variant");
      ("correct:1:0", "truncated spec");
      ("correct:1:0:0:0:99999", "mask beyond the words in flight");
      ("correct:cow:0:0:99999", "mask beyond the words in flight");
      ("swap-before-flush:1:0:0:0:0", "CoW mutation in the journal family");
      ("term-before-body:cow:0:0:0", "journal mutation in the CoW family");
    ]

(* The CoW schedules are the shipped engine's own: each commit shape
   carries DESIGN.md §14's fence-floor cost, and the family crashes the
   engine before every one of its persist points. *)
let test_cow_known_answer () =
  let module Cow = Pmodel.Mcow in
  List.iter
    (fun (descr, expected) ->
      let p = List.find (fun p -> p.Cow.descr = descr) Cow.programs in
      let count act = List.length (List.filter act (Cow.run p).steps) in
      Alcotest.(check (pair int int))
        (descr ^ ": flushes, fences")
        expected
        ( count (fun s -> match s.Mc.act with Mc.Fl _ -> true | _ -> false),
          count (fun s -> s.Mc.act = Mc.Fence) ))
    [ ("update", (3, 1)); ("alloc+write+swap", (4, 2)); ("free", (3, 2)) ];
  let r = Mc.run ~nested:false (Mc.Family Cow.family) Mv.Correct in
  Alcotest.(check int) "crash points = the engine's persist points"
    (List.fold_left (fun n p -> n + (Cow.run p).persist_points) 0 Cow.programs)
    r.stats.crash_points

(* The baseline gate is per family: a CoW floor one above the explored
   count fails the check although the total floor (0) still holds. *)
let test_gate_per_family () =
  let r = Mc.run ~nested:false (Mc.Family Pmodel.Mcow.family) Mv.Correct in
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/pmodel_check.exe" in
  let check_with floor =
    let path = Filename.temp_file "pmodel_baseline" ".json" in
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc {|{"crash_branches":0,"families":{"cow":{"crash_branches":%d}}}|} floor);
    let code =
      Sys.command
        (Printf.sprintf "%s check --no-nested --baseline %s > /dev/null 2>&1"
           (Filename.quote exe) (Filename.quote path))
    in
    Sys.remove path;
    code
  in
  let n = r.stats.crash_branches in
  Alcotest.(check int) "CoW floor at the explored count passes" 0 (check_with n);
  Alcotest.(check int) "CoW floor above it exits 1" 1 (check_with (n + 1))

(* Conformance, positive: a real scenario run (with crash + recovery)
   captured off the probe bus must validate cleanly. *)
let test_conform_real_capture () =
  let module D = Pmem.Device in
  let make () = Crashtest.Scenario.counter () in
  let events, () =
    Cf.capture (fun () ->
        let module I = (val make () : Crashtest.Injector.INSTANCE) in
        I.setup ();
        D.set_crash_countdown (I.device ()) 5;
        match I.run () with
        | () -> Alcotest.fail "crash did not fire"
        | exception D.Crashed ->
            D.reseed (I.device ()) 42;
            I.reopen ())
  in
  let v = Cf.validate events in
  if not (Cf.ok v) then
    Alcotest.failf "real capture flagged: %s" (Format.asprintf "%a" Cf.pp_verdict v);
  Alcotest.(check bool) "events captured" true (v.Cf.events > 0);
  Alcotest.(check bool) "transactions seen" true (v.Cf.txs > 0);
  Alcotest.(check bool) "a log retired" true (v.Cf.truncates > 0)

(* Conformance, concurrent: a multi-domain shared-pool run committing
   through the epoch combiner — interleaved slot streams, merged flush
   runs, one fence per epoch — must also validate cleanly.  The capture
   tags every event with its emitting domain, and the validator judges
   each domain's protocol stream on its own timeline. *)
let test_conform_group_commit_capture () =
  let make () = Crashtest.Scenario.group_commit () in
  let events, () =
    Cf.capture (fun () ->
        let module I = (val make () : Crashtest.Injector.INSTANCE) in
        I.setup ();
        I.run ();
        I.verify ~outcome:`Completed)
  in
  let v = Cf.validate events in
  if not (Cf.ok v) then
    Alcotest.failf "group-commit capture flagged: %s"
      (Format.asprintf "%a" Cf.pp_verdict v);
  let domains = List.sort_uniq compare (List.map fst events) in
  Alcotest.(check bool) "more than one domain emitted" true
    (List.length domains > 1);
  Alcotest.(check bool) "transactions seen" true (v.Cf.txs > 1);
  Alcotest.(check bool) "logs retired" true (v.Cf.truncates > 1)

(* Conformance, negative controls: synthetic event streams that break the
   protocol order must be flagged — otherwise the validator is blind. *)
let layout =
  Pr.Pool_layout
    {
      dev = 0;
      journal_base = 0x40;
      slot_size = 0x100;
      nslots = 2;
      table_base = 0x240;
      heap_base = 0x440;
      heap_len = 0x1000;
      cow_base = 0;
      cow_len = 0;
    }

let has_violation needle v =
  List.exists
    (fun (_, msg) ->
      (* substring search, no Str dependency *)
      let n = String.length needle and m = String.length msg in
      let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
      at 0)
    v.Cf.violations

let test_conform_flags_drop_outside_commit () =
  let v = Cf.validate_events [ layout; Pr.Drop_apply { dev = 0; off = 0x440 } ] in
  Alcotest.(check bool)
    "drop outside a committed tx flagged" true
    (has_violation "C-DROP-AFTER-COMMIT" v)

let test_conform_flags_log_after_commit () =
  let v =
    Cf.validate_events
      [
        layout;
        Pr.Tx_begin { dev = 0; ns = 0. };
        Pr.Fence { dev = 0; ns = 0. };
        Pr.Commit_point { dev = 0; ns = 0. };
        Pr.Log { dev = 0; off = 0x440; len = 64 };
      ]
  in
  Alcotest.(check bool)
    "log coverage after commit point flagged" true
    (has_violation "C-LOG-BEFORE-COMMIT" v)

let test_conform_flags_commit_without_fence () =
  let v =
    Cf.validate_events
      [
        layout;
        Pr.Tx_begin { dev = 0; ns = 0. };
        Pr.Commit_point { dev = 0; ns = 0. };
      ]
  in
  Alcotest.(check bool)
    "commit point without a fence flagged" true
    (has_violation "C-FENCE-AT-COMMIT" v)

let test_conform_flags_epoch_skip () =
  let v =
    Cf.validate_events
      [
        layout;
        Pr.Exempt_push { dev = 0 };
        Pr.Journal_truncate { dev = 0; slot_base = 0x40; epoch = 1 };
        Pr.Journal_truncate { dev = 0; slot_base = 0x40; epoch = 3 };
        Pr.Exempt_pop { dev = 0 };
      ]
  in
  Alcotest.(check bool)
    "epoch skip flagged" true
    (has_violation "C-EPOCH-MONOTONE" v)

let test_conform_flags_geometry () =
  let v =
    Cf.validate_events
      [
        layout;
        Pr.Tx_begin { dev = 0; ns = 0. };
        Pr.Alloc { dev = 0; off = 0x2000_0000; len = 64 };
      ]
  in
  Alcotest.(check bool)
    "allocation outside the heap flagged" true
    (has_violation "C-GEOMETRY" v)

let () =
  Alcotest.run "corundum_pmodel"
    [
      ( "checker",
        [
          Alcotest.test_case "seeded bugs are all caught" `Quick
            test_controls_all_caught;
          Alcotest.test_case "counterexample replays from its spec" `Quick
            test_replay_roundtrip;
          Alcotest.test_case "nested spec replays to a legal state" `Quick
            test_nested_replay;
          Alcotest.test_case "replay rejects malformed specs" `Quick
            test_replay_rejects_garbage;
          Alcotest.test_case "CoW schedules are the engine's (known answer)"
            `Quick test_cow_known_answer;
          Alcotest.test_case "baseline gate is per family" `Quick
            test_gate_per_family;
        ]
        @ List.map
            (fun f ->
              let name, _, _, _ = full_space f in
              Alcotest.test_case (name ^ " protocol verifies (full space)") `Slow
                (test_family_verifies f))
            Mf.all );
      ( "conformance",
        [
          Alcotest.test_case "real crash+recovery capture validates" `Quick
            test_conform_real_capture;
          Alcotest.test_case "concurrent group-commit capture validates" `Quick
            test_conform_group_commit_capture;
          Alcotest.test_case "drop outside commit is flagged" `Quick
            test_conform_flags_drop_outside_commit;
          Alcotest.test_case "log after commit is flagged" `Quick
            test_conform_flags_log_after_commit;
          Alcotest.test_case "commit without fence is flagged" `Quick
            test_conform_flags_commit_without_fence;
          Alcotest.test_case "epoch skip is flagged" `Quick
            test_conform_flags_epoch_skip;
          Alcotest.test_case "out-of-heap allocation is flagged" `Quick
            test_conform_flags_geometry;
        ] );
    ]
