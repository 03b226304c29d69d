(* perfbench: closed-loop workloads against the library's public API,
   measured on the host clock and the simulated device clock, with a
   durability oracle.  See README.md for the metrics and workloads.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--fault PROFILE] [--spans FILE]

   Phases of one run:
   - set-up: create the pool and preload it; this instance is measured;
   - the count window: each client's whole pregenerated op stream once.
     Single-client counts taken here (simulated ns, minor words, device
     and telemetry counters, space) repeat exactly for a given seed;
   - the timed phase: the streams again, cyclically, for S seconds, in
     one-second rounds of wall-clock slices, each round ended by a timed
     restart (power cycle, so unfenced lines are lost, then reopen with
     recovery).  With --trace 1, slices alternate between untraced and
     traced, and the layer probes follow;
   - the oracle: every acknowledged result is compared with the shadow,
     and the collection and the pool image are checked;
   - two more set-ups, timed only.

   The last line of standard output is one JSON object.  The exit code
   is 1 when any op failed, 2 on bad arguments. *)

module D = Pmem.Device
module Pool_impl = Corundum.Pool_impl
module Mx = Ptelemetry.Metrics
module Fault = Engines.Engine_common.Fault_profile

let setups = 3

(* The timed phase runs in rounds of [per_round] slices of about
   [slice_s], each round ended by a timed restart. *)
let slice_s = 0.25
let per_round = 4

(* Latency samples kept per client and op kind: room for [max_rate]
   ops per second of the timed phase, beyond any workload's rate.  The
   store's pages are touched only as samples arrive.  A slice whose
   samples did not all fit is left out of the host-clock results. *)
let max_rate = 2_000_000
let lat_cap seconds = Float.to_int (Float.ceil seconds) * max_rate
let span_cap = 1 lsl 17

let workloads =
  [
    ("update-hot", Update_hot.make);
    ("churn-alloc", Churn_alloc.make);
    ("lookup-large", Lookup_large.make ~nkeys:200_000 ~pool_mb:32);
    ("solo-commit", Shared_commit.make ~clients:1 ~window:16_384);
    ("shared-commit", Shared_commit.make ~clients:2 ~window:1_024);
  ]

(* Runs [f client] for every client, client 0 on this domain and each
   other on a domain of its own, each bound to the workload first. *)
let on_clients (w : Workload.t) f =
  let run c () =
    w.bind_client ();
    Fun.protect ~finally:w.unbind_client (fun () -> f c)
  in
  let others = List.init (w.clients - 1) (fun c -> Domain.spawn (run (c + 1))) in
  let r0 = run 0 () in
  r0 :: List.map Domain.join others

type client = {
  reads : Samples.t;  (* host latency of correct reads, ns *)
  writes : Samples.t;
  spans : Spans.t option;
  mutable next : int;  (* index of the client's next op *)
  mutable fails : int;
  rates : float array;  (* per slice: ops per second *)
  reads_end : int array;  (* per slice: [reads] length at its end *)
  writes_end : int array;
  complete : bool array;  (* per slice: every sample was kept *)
}

let run_op step c i =
  match step i with
  | (Workload.Read | Write) as o -> o
  | Wrong | (exception _) ->
      c.fails <- c.fails + 1;
      Wrong

let step_for (w : Workload.t) c k ~traced =
  match c.spans with
  | Some sp when traced -> w.traced_step sp k
  | _ -> w.step k

(* Every client runs its whole stream once; returns the minor words each
   allocated. *)
let count_window (w : Workload.t) cs ~traced =
  on_clients w (fun k ->
      let c = cs.(k) in
      let step = step_for w c k ~traced in
      let w0 = Gc.minor_words () in
      for i = 0 to w.window - 1 do
        ignore (run_op step c i)
      done;
      c.next <- w.window;
      Gc.minor_words () -. w0)

(* Every client runs ops through slices [first, first + count) until
   each slice's deadline passes, recording per-op host latency and per
   slice its ops per second over the slice's measured length.
   [traced j] says whether slice [j] records spans. *)
let timed_slices (w : Workload.t) cs ~first ~count ~slice_s ~traced =
  let slice_ns = int_of_float (slice_s *. 1e9) in
  let t0 = Clock.now () + 20_000_000 in
  ignore
    (on_clients w (fun k ->
         let c = cs.(k) in
         while Clock.now () < t0 do
           Domain.cpu_relax ()
         done;
         let t = ref t0 in
         for j = first to first + count - 1 do
           let traced = traced j in
           if k = 0 && c.spans <> None then
             if traced then Ptelemetry.Trace.install_null () else Ptelemetry.Trace.uninstall ();
           let step = step_for w c k ~traced in
           let t_end = t0 + ((j - first + 1) * slice_ns) and i0 = c.next and start = !t in
           while !t < t_end do
             let a = Clock.now () in
             let o = run_op step c c.next in
             let b = Clock.now () in
             if not traced then begin
               match o with
               | Workload.Read -> Samples.add c.reads (b - a)
               | Write -> Samples.add c.writes (b - a)
               | Wrong -> ()
             end;
             c.next <- c.next + 1;
             t := b
           done;
           c.rates.(j) <- float_of_int (c.next - i0) *. 1e9 /. float_of_int (!t - start);
           c.reads_end.(j) <- Samples.length c.reads;
           c.writes_end.(j) <- Samples.length c.writes;
           c.complete.(j) <- Samples.dropped c.reads + Samples.dropped c.writes = 0
         done))

(* The host is shared: for seconds at a time its CPUs run at about half
   their undisturbed speed.  Host-clock results are therefore taken from
   the least-disturbed part of the measurements: the quarter of the
   slices with the highest throughput, and the 10th percentile of the
   restart times. *)
let fastest_quarter rate slices =
  let sorted = List.sort (fun a b -> compare (rate b) (rate a)) slices in
  List.filteri (fun i _ -> i < max 1 (List.length sorted / 4)) sorted

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let per_op n ops = float_of_int n /. float_of_int ops

type window_counts = {
  ops : int;
  sim_ns : float;
  words : float;
  dev : D.stats;
  space_amp : float;
  used_bytes : int;
}

let stats_delta (a : D.stats) (b : D.stats) =
  {
    b with
    D.loads = b.loads - a.loads;
    stores = b.stores - a.stores;
    flushes = b.flushes - a.flushes;
    flush_calls = b.flush_calls - a.flush_calls;
    fences = b.fences - a.fences;
    fence_lines = b.fence_lines - a.fence_lines;
  }

let counter name = Option.value ~default:0 (Mx.find_counter name)

(* A size list following a histogram's distribution: its raw samples
   while retained, else each bucket's lower bound by its count. *)
let histogram_values name =
  match Mx.find_histogram name with
  | None -> [||]
  | Some { Mx.count = 0; _ } -> [||]
  | Some { Mx.samples = Some s; _ } -> Array.of_list s
  | Some { Mx.buckets; count; _ } ->
      let scale = float_of_int (min count 1024) /. float_of_int count in
      Array.of_list
        (List.concat_map
           (fun (b, n) ->
             List.init (max 1 (int_of_float (float_of_int n *. scale))) (fun _ -> Mx.bucket_lo b))
           buckets)

let histogram_median name =
  let v = histogram_values name in
  Array.sort compare v;
  if Array.length v = 0 then 0 else v.(Array.length v / 2)

let recovery_phases = [ "walk"; "rollback"; "drop_apply"; "remark"; "truncate"; "table_scan"; "cow" ]

(* What the traced run takes from the count window: per-op layer counts,
   and the shapes the layer probes copy. *)
type window_layers = {
  counts : (string * float * string) list;
  lines_per_fence : int;  (* 0 when the window fenced nothing *)
  flushes_per_fence : int;
  log_len : int;  (* payload of the median journal data entry; 0 if none *)
  alloc_sizes : int array;
  tx_commit_sim_ns : float;
}

let window_layers (wc : window_counts) spans ~gc =
  let d = wc.dev and pf n = per_op n wc.ops in
  let per_fence n = if d.fences = 0 then 0 else max 1 (Float.to_int (Float.round (pf n /. pf d.fences))) in
  let gc_epochs, gc_occ, gc_solo =
    match gc with
    | None -> (0.0, 0.0, 0.0)
    | Some (g : Pjournal.Group_commit.stats) ->
        ( float_of_int g.epochs,
          Pjournal.Group_commit.mean_occupancy g,
          if g.epochs = 0 then 0.0 else per_op g.solo_epochs g.epochs )
  in
  let logged = match Mx.find_histogram "tx.logged_bytes" with Some h -> h.sum | None -> 0 in
  {
    counts =
      [
        ("pmem.loads_per_op", pf d.loads, "count");
        ("pmem.stores_per_op", pf d.stores, "count");
        ("pmem.flush_calls_per_op", pf d.flush_calls, "count");
        ("pmem.lines_flushed_per_op", pf d.flushes, "count");
        ("pmem.fences_per_op", pf d.fences, "count");
        ("pmem.fence_lines_per_op", pf d.fence_lines, "count");
        ("palloc.allocs_per_op", pf (counter "alloc.count"), "count");
        ("palloc.frees_per_op", pf (counter "free.count"), "count");
        ("palloc.used_bytes", float_of_int wc.used_bytes, "B");
        ("palloc.steals", float_of_int (counter "alloc.steals"), "count");
        ("palloc.contended", float_of_int (counter "stripe.contended"), "count");
        ("pjournal.entries_per_op", pf (counter "journal.entries"), "count");
        ("pjournal.logged_bytes_per_op", pf logged, "B");
        ("pjournal.spills", float_of_int (counter "journal.spills"), "count");
        ("pjournal.gc_epochs", gc_epochs, "count");
        ("pjournal.gc_occupancy_mean", gc_occ, "ratio");
        ("pjournal.gc_solo_frac", gc_solo, "ratio");
      ];
    lines_per_fence = per_fence d.fence_lines;
    flushes_per_fence = per_fence d.flush_calls;
    log_len =
      (match histogram_median "journal.entry_bytes" with
      | 0 -> 0
      | entry -> max 8 ((entry - Pjournal.Log_entry.data_entry_size 0 + 7) / 8 * 8));
    alloc_sizes = histogram_values "alloc.size";
    tx_commit_sim_ns = Spans.mean_sim spans Tx_commit ~phase:0;
  }

let probe name (r : Probes.result) = [ (name ^ "_ns", r.ns, "ns"); (name ^ "_words", r.words, "words") ]

(* Probes of every layer the window exercised, on the live pool or on a
   standalone device; a layer the workload never ran reports 0. *)
let probe_layers pool value wl =
  let ptype_read, ptype_write = Probes.ptype pool value in
  let store, flush, fence =
    if wl.lines_per_fence = 0 then (Probes.zero, Probes.zero, Probes.zero)
    else Probes.pmem ~lines:wl.lines_per_fence ~flushes:wl.flushes_per_fence
  in
  let alloc, free =
    if Array.length wl.alloc_sizes = 0 then (Probes.zero, Probes.zero)
    else Probes.palloc ~sizes:wl.alloc_sizes
  in
  let log = if wl.log_len = 0 then Probes.zero else Probes.journal_log pool ~len:wl.log_len in
  probe "core.ptype_read" ptype_read
  @ probe "core.ptype_write" ptype_write
  @ probe "core.empty_tx" (Probes.empty_tx pool)
  @ probe "pmem.store" store @ probe "pmem.flush" flush @ probe "pmem.fence" fence
  @ probe "palloc.alloc" alloc @ probe "palloc.free" free @ probe "pjournal.log" log

let json_metrics ms =
  String.concat ","
    (List.map (fun (name, v, unit) -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name v unit) ms)

let print_metrics ms = List.iter (fun (name, v, unit) -> Printf.printf "%-34s %14.6g %s\n" name v unit) ms

let run ~name ~seed ~seconds ~trace ~fault ~spans_file =
  let w : Workload.t = (List.assoc name workloads) ~seed in
  (* The first set-up is the measured instance; the others come after
     the run, so that no two pools are ever alive at once. *)
  let timed_setup () =
    Gc.compact ();
    let t0 = Clock.now () in
    w.setup ();
    Clock.seconds_since t0
  in
  let setup0 = timed_setup () in
  Gc.compact ();
  let rounds = max 1 (Float.to_int (Float.round (seconds /. (float_of_int per_round *. slice_s)))) in
  let nslices = rounds * per_round in
  let slice_s = seconds /. float_of_int nslices in
  let cs =
    Array.init w.clients (fun k ->
        {
          reads = Samples.create (lat_cap seconds);
          writes = Samples.create (lat_cap seconds);
          spans = (if trace then Some (Spans.create ~client:k span_cap) else None);
          next = 0;
          fails = 0;
          rates = Array.make nslices 0.0;
          reads_end = Array.make nslices 0;
          writes_end = Array.make nslices 0;
          complete = Array.make nslices false;
        })
  in
  let spans = List.filter_map (fun c -> c.spans) (Array.to_list cs) in
  if trace then begin
    Ptelemetry.Trace.install_null ();
    Mx.reset ()
  end;
  Fault.set fault;
  let pool = w.pool () in
  let dev = Pool_impl.device pool in
  (* Count window. *)
  let s0 = D.stats dev and sim0 = D.simulated_ns dev in
  let words = count_window w cs ~traced:trace in
  let used_bytes = Palloc.Buddy.used_bytes (Pool_impl.buddy pool) in
  let wc =
    {
      ops = w.clients * w.window;
      sim_ns = D.simulated_ns dev -. sim0;
      words = List.fold_left ( +. ) 0.0 words;
      dev = stats_delta s0 (D.stats dev);
      space_amp = float_of_int used_bytes /. float_of_int (w.user_bytes ());
      used_bytes;
    }
  in
  let wl = window_layers wc spans ~gc:(Pool_impl.group_commit_stats pool) in
  (* Timed phase, in rounds each ended by a timed restart. *)
  List.iter (fun sp -> Spans.set_phase sp 1) spans;
  let traced j = trace && j / 2 mod 2 = 1 in
  let restart_ms =
    List.init rounds (fun r ->
        timed_slices w cs ~first:(r * per_round) ~count:per_round ~slice_s ~traced;
        let t0 = Clock.now () in
        w.restart ();
        Clock.seconds_since t0 *. 1e3)
  in
  Ptelemetry.Trace.uninstall ();
  let pool = w.pool () in
  let probes = if trace then probe_layers pool w.value wl else [] in
  Fault.set Fault.Clean;
  (* The oracle, after the last restart. *)
  let recovery = Pool_impl.recovery_stats pool in
  let bad =
    (try w.verify () with _ -> 1)
    + List.length (Corundum.Pool_check.check_device (Pool_impl.device pool)).findings
  in
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).top_heap_words * 8) /. 1e6 in
  w.teardown ();
  let setup_times =
    setup0
    :: List.init (setups - 1) (fun _ ->
           let s = timed_setup () in
           w.teardown ();
           s)
  in
  Option.iter (fun file -> Out_channel.with_open_text file (fun oc -> Spans.write_jsonl oc spans)) spans_file;
  let attempted = Array.fold_left (fun a c -> a + c.next) 0 cs in
  let failed = Array.fold_left (fun a c -> a + c.fails) bad cs in
  let slices p = List.filter (fun j -> p (traced j)) (List.init nslices Fun.id) in
  let rate j = Array.fold_left (fun a c -> a +. c.rates.(j)) 0.0 cs in
  let fast_rate p = mean (List.map rate (fastest_quarter rate (slices p))) in
  (* Host-clock results over the untraced slices whose samples were all
     kept. *)
  let kept = List.filter (fun j -> Array.for_all (fun c -> c.complete.(j)) cs) (slices not) in
  let fast = fastest_quarter rate kept in
  let selected store ends =
    Samples.sub_ranges
      (List.concat_map
         (fun c -> List.map (fun j -> (store c, (if j = 0 then 0 else (ends c).(j - 1)), (ends c).(j))) fast)
         (Array.to_list cs))
  in
  let reads = selected (fun c -> c.reads) (fun c -> c.reads_end) in
  let writes = selected (fun c -> c.writes) (fun c -> c.writes_end) in
  let us ns = float_of_int ns /. 1e3 in
  (* The 10th percentile of each op kind, averaged over the kinds the
     workload runs.  On a shared host a varying share of ops runs at
     about half speed, and that share moves each kind's median between
     two latency modes from run to run; the 10th percentile stays in the
     undisturbed mode.  Averaging over kinds keeps a half-read,
     half-write mix off the boundary between the kinds' latencies. *)
  let kinds = List.filter (fun s -> Samples.length s > 0) [ reads; writes ] in
  if kinds = [] then begin
    prerr_endline "perfbench: no latency samples in the selected slices";
    exit 1
  end;
  let lows = List.map (fun s -> us (Samples.quantile s 0.1)) kinds in
  (* The mean of each op kind below its 90th percentile, averaged over
     kinds: unlike the 10th percentile it moves when a minority of calls
     slows down.  It also moves with the share of ops the host slows, so
     it is too noisy to gate (see README.md). *)
  let trimmed_means = List.map (fun s -> Samples.trimmed_mean s 0.9 /. 1e3) kinds in
  let host =
    [
      ("host.ops_per_s", mean (List.map rate fast), "ops/s");
      ("host.op_p99_us", us (Samples.quantile (Samples.concat [ reads; writes ]) 0.99), "us");
      ("host.op_tmean_us", mean trimmed_means, "us");
    ]
  in
  let e2e () =
    Printf.printf "ops %d  fastest slices %d of %d, latency samples: reads %d writes %d  setups %s s\n" attempted
      (List.length fast) nslices (Samples.length reads) (Samples.length writes)
      (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
    [
      ("setup_s", Samples.median_floats setup_times, "s");
      ("op_p10_us", mean lows, "us");
      ("sim_ns_per_op", wc.sim_ns /. float_of_int wc.ops, "ns");
      ("minor_words_per_op", wc.words /. float_of_int wc.ops, "words");
      ("peak_heap_mb", peak_heap_mb, "MB");
      ("space_amp", wc.space_amp, "ratio");
      ("recovery_ms", List.nth (List.sort compare restart_ms) ((rounds - 1) / 10), "ms");
    ]
  in
  let layers () =
    let median_span kind = float_of_int (Samples.median (Spans.host_durations spans kind ~phase:1)) in
    let phase p = Option.value ~default:0.0 (List.assoc_opt p recovery.Pjournal.Recovery.phase_ns) in
    [
      ("core.tx_begin_ns", median_span Tx_begin, "ns");
      ("core.tx_body_ns", median_span Tx_body, "ns");
      ("core.tx_commit_ns", median_span Tx_commit, "ns");
      ("core.tx_commit_sim_ns", wl.tx_commit_sim_ns, "ns");
      ("core.read_ns", median_span Read, "ns");
    ]
    @ probes @ wl.counts
    @ [ ("pjournal.recovery_sim_ns", List.fold_left (fun a (_, ns) -> a +. ns) 0.0 recovery.phase_ns, "ns") ]
    @ List.map (fun p -> ("pjournal.recovery." ^ p ^ "_sim_ns", phase p, "ns")) recovery_phases
    @ [ ("ptelemetry.trace_overhead_frac", 1.0 -. (fast_rate Fun.id /. fast_rate not), "ratio") ]
    @ host
  in
  Printf.printf "workload %s  seed %d  clients %d  window %d ops/client  %d slices of %.3f s%s\n" name seed
    w.clients w.window nslices slice_s
    (if fault = Fault.Clean then "" else "  fault " ^ Fault.name fault);
  let metrics = if trace then layers () else e2e () in
  if not trace then print_metrics host;
  print_metrics metrics;
  Printf.printf "failed_op_frac %.6g (%d of %d)\n" (per_op failed (max 1 attempted)) failed attempted;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" (failed = 0) attempted
    failed (json_metrics metrics);
  if failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let fault = ref Fault.Clean and spans = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N op-stream seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ( "--fault",
        Arg.String
          (fun s ->
            match List.find_opt (fun f -> Fault.name f = s) Fault.all with
            | Some f -> fault := f
            | None -> raise (Arg.Bad ("unknown fault " ^ s))),
        "PROFILE run under a deliberately broken persist profile, e.g. missing-flush (oracle control)" );
      ("--spans", Arg.String (fun f -> spans := Some f), "FILE write the traced run's spans as JSON lines");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage with
  | Arg.Bad m | Arg.Help m ->
      prerr_string m;
      exit 2);
  if not (List.mem_assoc !workload workloads && !seed >= 0 && !seconds > 0.0 && (!trace = 0 || !trace = 1))
  then begin
    prerr_endline (Arg.usage_string spec usage);
    exit 2
  end;
  run ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~fault:!fault ~spans_file:!spans
