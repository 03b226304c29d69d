(* Exhaustive crash-state model checking of the persistence protocols
   — the journal/recovery family ({!Mjournal}) and the CoW family
   ({!Mcow}, a capture of the shipped mod engine and Cow_root.recover),
   both enumerated by {!Mcheck} — plus trace-driven conformance of the
   real implementation against the model.

     pmodel_check check                 # full space, zero violations expected
     pmodel_check check --json stats.json --baseline PMODEL_baseline.json
     pmodel_check controls              # every seeded bug must be caught
     pmodel_check conform transfer kvstore
     pmodel_check replay 'correct:1:0:12:3:1'
     pmodel_check replay 'partial-merge:2:1:4:-1:0'   # crash-free run
     pmodel_check replay 'swap-before-flush:cow:0:1:1'

   [check] exits non-zero on any counterexample, and (with --baseline)
   when the explored crash-branch count of any family, or their total,
   drops below the committed baseline — a shrinking space means the
   checker lost coverage. *)

module Mc = Pmodel.Mcheck
module Mf = Pmodel.Mfamilies
module Mv = Pmodel.Mvariant
module J = Ptelemetry.Json

let write_json path json =
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc

let sum_fields lists =
  List.fold_left
    (fun acc fields ->
      List.map
        (fun (k, v) ->
          (k, v + (try List.assoc k acc with Not_found -> 0)))
        fields)
    [] lists

let print_fields prefix fields =
  let g k = try List.assoc k fields with Not_found -> 0 in
  Printf.printf
    "%s%d programs, %d crash points, %d crash branches (%d distinct states), \
     %d recovery runs, %d nested recovery points (%d branches)\n"
    prefix (g "programs") (g "crash_points") (g "crash_branches")
    (g "distinct_states") (g "recovery_runs") (g "nested_points")
    (g "nested_branches")

let num n = J.Num (float_of_int n)
let num_fields fields = List.map (fun (k, v) -> (k, num v)) fields

let stats_json variant fields families ~violations =
  J.Obj
    (("schema", J.Str "corundum-pmodel-v1")
     :: ("variant", J.Str (Mv.name variant))
     :: ("violations", num violations)
     :: num_fields fields
    @ [
        ( "families",
          J.Obj (List.map (fun (name, fields) -> (name, J.Obj (num_fields fields))) families)
        );
      ])

(* The baseline's crash-branch floors, gated one by one: the total and
   each family's, so one family's growth cannot hide another's lost
   coverage.  Empty when the file has no total. *)
let baseline_floors path =
  let json = J.of_string (In_channel.with_open_text path In_channel.input_all) in
  let floor (name, j) =
    Option.map (fun b -> (name, int_of_float b)) (Option.bind (J.mem "crash_branches" j) J.num)
  in
  match floor ("total", json) with
  | None -> []
  | Some total ->
      total
      :: List.filter_map floor
           (Option.value ~default:[] (Option.bind (J.mem "families" json) J.obj))

let run_check variant_name no_nested json baseline =
  match Mv.of_name variant_name with
  | None ->
      Printf.eprintf "pmodel_check: unknown variant %S; known: %s\n"
        variant_name
        (String.concat ", " (List.map Mv.name Mv.all));
      exit 2
  | Some variant -> (
      let t0 = Unix.gettimeofday () in
      let nested = not no_nested in
      (* every family the variant runs in; the correct protocol's stats
         are also summed over them *)
      let reports =
        List.filter_map
          (fun f ->
            if Mc.carries f variant then
              let r = Mc.run ~nested f variant in
              Some (Mc.name f, Mc.stats_fields r.stats, r.cex)
            else None)
          Mf.all
      in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "variant %s: %s\n" (Mv.name variant) (Mv.describe variant);
      let label name = Printf.sprintf "%-9s" (name ^ ":") in
      List.iter (fun (name, fields, _) -> print_fields (label name) fields) reports;
      let families = List.map (fun (name, fields, _) -> (name, fields)) reports in
      let fields = sum_fields (List.map snd families) in
      if List.length reports > 1 then print_fields (label "total") fields;
      Printf.printf "%.2fs\n" dt;
      let cexs = List.filter_map (fun (_, _, cex) -> cex) reports in
      let violations = List.length cexs in
      Option.iter
        (fun path -> write_json path (stats_json variant fields families ~violations))
        json;
      Option.iter
        (fun path ->
          let floors = baseline_floors path in
          if floors = [] then begin
            Printf.eprintf "pmodel_check: %s: no crash_branches field\n" path;
            exit 2
          end;
          let branches name =
            Option.value ~default:0
              (Option.bind
                 (List.assoc_opt name (("total", fields) :: families))
                 (List.assoc_opt "crash_branches"))
          in
          let short = List.filter (fun (name, b) -> branches name < b) floors in
          List.iter
            (fun (name, b) ->
              Printf.eprintf
                "pmodel_check: %s crash-branch count regressed: %d < baseline \
                 %d (checker lost coverage)\n"
                name (branches name) b)
            short;
          if short <> [] then exit 1;
          Printf.printf "baseline ok: %s\n"
            (String.concat ", "
               (List.map
                  (fun (name, b) ->
                    Printf.sprintf "%s %d >= %d crash branches" name (branches name) b)
                  floors)))
        baseline;
      List.iter (Format.printf "%a" Mc.pp_cex) cexs;
      match violations with
      | 0 -> Printf.printf "no violations\n"
      | _ -> exit 1)

(* Positive controls: every deliberately broken protocol variant must
   yield a counterexample, or the checker itself has gone blind. *)
let run_controls json =
  (* (variant, outcome): each broken variant runs in the family its
     mutation belongs to, and a counterexample counts only if its
     printed repro replays to the same invariant *)
  let results =
    List.map
      (fun v ->
        let cex =
          List.find_map
            (fun f ->
              if Mc.carries f v then (Mc.run ~nested:false f v).cex else None)
            Mf.all
        in
        ( v,
          Option.map
            (fun (c : Mc.cex) ->
              let repro = Mc.repro_string c in
              match Mc.replay Mf.all repro with
              | Ok (Some c') when c'.invariant = c.invariant ->
                  Ok (c.invariant, repro)
              | _ -> Error repro)
            cex ))
      Mv.broken
  in
  let caught = function Some (Ok c) -> Some c | _ -> None in
  let missed = ref 0 in
  List.iter
    (fun (v, outcome) ->
      match outcome with
      | Some (Ok (invariant, repro)) ->
          Printf.printf "%-22s caught: %s  (replay '%s')\n" (Mv.name v)
            invariant repro
      | Some (Error repro) ->
          incr missed;
          Printf.printf
            "%-22s MISSED: repro '%s' does not replay to the same violation\n"
            (Mv.name v) repro
      | None ->
          incr missed;
          Printf.printf "%-22s MISSED: no counterexample for a seeded bug\n"
            (Mv.name v))
    results;
  (match json with
  | None -> ()
  | Some path ->
      write_json path
        (J.Obj
           [
             ("schema", J.Str "corundum-pmodel-controls-v1");
             ( "controls",
               J.List
                 (List.map
                    (fun (v, outcome) ->
                      J.Obj
                        [
                          ("variant", J.Str (Mv.name v));
                          ("caught", J.Bool (caught outcome <> None));
                          ( "invariant",
                            match caught outcome with
                            | Some (invariant, _) -> J.Str invariant
                            | None -> J.Null );
                        ])
                    results) );
           ]));
  if !missed > 0 then exit 1

let run_replay spec =
  match Mc.replay Mf.all spec with
  | Error e ->
      Printf.eprintf "pmodel_check: %s\n" e;
      exit 2
  | Ok None -> Printf.printf "branch recovers to a legal state\n"
  | Ok (Some c) ->
      Format.printf "%a" Mc.pp_cex c;
      exit 1

(* Conformance: run real scenarios with the probe bus captured and
   validate the event stream against the model's protocol order.  Each
   scenario gets a clean leg and several crashed legs (crash
   mid-[run], then reopen) so recovery's events are judged too. *)
let conform_leg make leg =
  let module D = Pmem.Device in
  Pmodel.Mconform.capture (fun () ->
      let module I = (val make () : Crashtest.Injector.INSTANCE) in
      I.setup ();
      match leg with
      | `Clean -> I.run ()
      | `Crash k -> (
          D.set_crash_countdown (I.device ()) k;
          match I.run () with
          | () -> D.set_crash_countdown (I.device ()) 0
          | exception D.Crashed ->
              D.reseed (I.device ()) (0xC0 + k);
              I.reopen ()))

let run_conform json names =
  let names = match names with [] -> [ "transfer"; "kvstore" ] | ns -> ns in
  let failed = ref false in
  let results =
    List.map
      (fun name ->
        match List.assoc_opt name Crashtest.Scenario.all with
        | None ->
            Printf.eprintf "pmodel_check: unknown scenario %S; known: %s\n"
              name
              (String.concat ", " (List.map fst Crashtest.Scenario.all));
            exit 2
        | Some make ->
            let points = Crashtest.Injector.points_of_dry_run make in
            let legs =
              `Clean
              :: List.map
                   (fun k -> `Crash k)
                   (List.sort_uniq compare
                      [ 1; points / 3; points / 2; 2 * points / 3; points - 1 ]
                   |> List.filter (fun k -> k >= 1))
            in
            let verdicts =
              List.map
                (fun leg ->
                  let events, () = conform_leg make leg in
                  let v = Pmodel.Mconform.validate events in
                  let leg_name =
                    match leg with
                    | `Clean -> "clean"
                    | `Crash k -> Printf.sprintf "crash@%d" k
                  in
                  Printf.printf "%-14s %-9s %s" name leg_name
                    (Format.asprintf "%a" Pmodel.Mconform.pp_verdict v);
                  if not (Pmodel.Mconform.ok v) then failed := true;
                  (leg_name, v))
                legs
            in
            (name, verdicts))
      names
  in
  (match json with
  | None -> ()
  | Some path ->
      write_json path
        (J.Obj
           [
             ("schema", J.Str "corundum-conform-v1");
             ( "scenarios",
               J.List
                 (List.map
                    (fun (name, verdicts) ->
                      J.Obj
                        [
                          ("scenario", J.Str name);
                          ( "legs",
                            J.List
                              (List.map
                                 (fun (leg, v) ->
                                   J.Obj
                                     [
                                       ("leg", J.Str leg);
                                       ( "events",
                                         J.Num (float_of_int v.Pmodel.Mconform.events) );
                                       ( "txs",
                                         J.Num (float_of_int v.Pmodel.Mconform.txs) );
                                       ( "truncates",
                                         J.Num
                                           (float_of_int v.Pmodel.Mconform.truncates) );
                                       ( "drop_applies",
                                         J.Num
                                           (float_of_int
                                              v.Pmodel.Mconform.drop_applies) );
                                       ( "violations",
                                         J.List
                                           (List.map
                                              (fun (i, m) ->
                                                J.Obj
                                                  [
                                                    ("event", J.Num (float_of_int i));
                                                    ("message", J.Str m);
                                                  ])
                                              v.Pmodel.Mconform.violations) );
                                     ])
                                 verdicts) );
                        ])
                    results) );
           ]));
  if !failed then exit 1

open Cmdliner

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write machine-readable results to $(docv).")

let variant_arg =
  Arg.(
    value & opt string "correct"
    & info [ "variant" ] ~docv:"NAME"
        ~doc:
          "Protocol variant to check: correct, term-before-body, \
           truncate-before-clears, trust-advisory, partial-merge, \
           swap-before-flush.")

let no_nested_arg =
  Arg.(
    value & flag
    & info [ "no-nested" ]
        ~doc:"Skip crashing recovery at its own persist points (faster).")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Fail if the explored crash-branch count of any family, or the \
           total, drops below its crash_branches field in this committed \
           stats file.")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Enumerate every crash point of every modeled program, every \
          torn-word outcome, run each family's recovery, and assert durable \
          linearizability.")
    Term.(const run_check $ variant_arg $ no_nested_arg $ json_arg $ baseline_arg)

let controls_cmd =
  Cmd.v
    (Cmd.info "controls"
       ~doc:
         "Check the deliberately broken protocol variants: each must \
          produce a counterexample.")
    Term.(const run_controls $ json_arg)

let spec_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SPEC"
        ~doc:
          "Repro spec: VARIANT:NSLOTS:SPLIT:PROG:POINT:MASK[:RPOINT:RMASK] \
           for the journal family, VARIANT:cow:PROG:POINT:MASK[:RPOINT:RMASK] \
           for the CoW family; POINT -1 is the crash-free run.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay one crash branch from its repro spec.")
    Term.(const run_replay $ spec_arg)

let scenarios_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SCENARIO" ~doc:"Scenario names (default: transfer kvstore).")

let conform_cmd =
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Capture probe events from real scenarios (including crashed-and-\
          recovered legs) and validate the implementation's protocol order \
          against the model.")
    Term.(const run_conform $ json_arg $ scenarios_arg)

let cmd =
  Cmd.group
    (Cmd.info "pmodel_check"
       ~doc:
         "Crash-state model checker for the journal/recovery and CoW \
          root-swap protocols")
    [ check_cmd; controls_cmd; conform_cmd; replay_cmd ]

let () = exit (Cmd.eval cmd)
