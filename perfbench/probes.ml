(* Layer probes for the traced run: each calls one layer's public
   function in a loop, shaped by what the workload's own count window
   did, and reports median ns/call over rounds and minor words/call. *)

module D = Pmem.Device
module B = Palloc.Buddy
module Pool_impl = Corundum.Pool_impl

type result = { ns : float; words : float }

let zero = { ns = 0.0; words = 0.0 }
let rounds = 5

(* Per-round (host ns, minor words, calls) to median ns/call over the
   rounds and minor words/call over all of them. *)
let summarize rs =
  let calls = List.fold_left (fun a (_, _, c) -> a + c) 0 rs in
  {
    ns = Samples.median_floats (List.map (fun (ns, _, c) -> float_of_int ns /. float_of_int c) rs);
    words = List.fold_left (fun a (_, w, _) -> a +. w) 0.0 rs /. float_of_int calls;
  }

(* [body ()] runs one round and returns its (host ns, minor words,
   calls) spent in the timed part. *)
let measure body = summarize (List.init rounds (fun _ -> body ()))

(* Times [f] alone: (host ns, minor words). *)
let timed f =
  let w0 = Gc.minor_words () and t0 = Clock.now () in
  f ();
  let t1 = Clock.now () and w1 = Gc.minor_words () in
  (t1 - t0, w1 -. w0)

let loop calls f =
  let ns, w = timed (fun () -> for _ = 1 to calls do f () done) in
  (ns, w, calls)

(* Ptype read and write of the workload's value type, on a block of the
   live pool. *)
let ptype pool (Workload.Value { ty; sample }) =
  let size = Corundum.Ptype.size ty in
  let off = Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx size) in
  Corundum.Ptype.write ty pool off sample;
  let calls = 100_000 in
  let read = measure (fun () -> loop calls (fun () -> ignore (Sys.opaque_identity (Corundum.Ptype.read ty pool off)))) in
  let write = measure (fun () -> loop calls (fun () -> Corundum.Ptype.write ty pool off sample)) in
  Pool_impl.transaction pool (fun tx -> Pool_impl.tx_free tx off);
  (read, write)

let empty_tx pool = measure (fun () -> loop 20_000 (fun () -> Pool_impl.transaction pool ignore))

(* [tx_log] of [len]-byte ranges inside one open transaction each round,
   one range per line-aligned stride so no call is deduplicated away. *)
let journal_log pool ~len =
  let per_tx = 64 and txs = 50 in
  let stride = (len + 63) / 64 * 64 in
  let blk = Pool_impl.transaction pool (fun tx -> Pool_impl.tx_alloc tx (per_tx * stride)) in
  let r =
    measure (fun () ->
        let ns = ref 0 and words = ref 0.0 in
        for _ = 1 to txs do
          Pool_impl.transaction pool (fun tx ->
              let n, w =
                timed (fun () ->
                    for m = 0 to per_tx - 1 do
                      Pool_impl.tx_log tx ~off:(blk + (m * stride)) ~len
                    done)
              in
              ns := !ns + n;
              words := !words +. w)
        done;
        (!ns, !words, txs * per_tx))
  in
  Pool_impl.transaction pool (fun tx -> Pool_impl.tx_free tx blk);
  r

(* Stores, flushes and a fence on a standalone device, shaped as the
   workload's fences: [lines] dirty lines drained per fence, written
   back by [flushes] flush calls. *)
let pmem ~lines ~flushes =
  let dev = D.create ~latency:Pmem.Latency.optane ~size:(4 lsl 20) () in
  let nlines = D.size dev / D.line_size in
  let fences = 2_000 in
  let per_flush = (lines + flushes - 1) / flushes in
  let acc = Array.make 3 (0, 0.0, 0) in
  let add i (ns, w) c =
    let ns0, w0, c0 = acc.(i) in
    acc.(i) <- (ns0 + ns, w0 +. w, c0 + c)
  in
  let round () =
    Array.fill acc 0 3 (0, 0.0, 0);
    for f = 0 to fences - 1 do
      let base = f * lines mod (nlines - lines) in
      add 0
        (timed (fun () ->
             for l = 0 to lines - 1 do
               D.write_u64 dev ((base + l) * D.line_size) (Int64.of_int f)
             done))
        lines;
      add 1
        (timed (fun () ->
             let l = ref 0 in
             while !l < lines do
               let n = min per_flush (lines - !l) in
               D.flush dev ((base + !l) * D.line_size) (n * D.line_size);
               l := !l + n
             done))
        ((lines + per_flush - 1) / per_flush);
      add 2 (timed (fun () -> D.fence dev)) 1
    done
  in
  let results = Array.make 3 [] in
  for _ = 1 to rounds do
    round ();
    Array.iteri (fun i r -> results.(i) <- r :: results.(i)) acc
  done;
  (summarize results.(0), summarize results.(1), summarize results.(2))

(* Buddy alloc then dealloc of a batch of blocks on a standalone heap,
   sizes cycling through the workload's allocation size mix. *)
let palloc ~sizes =
  let heap_len = 16 lsl 20 in
  let heap_base = Palloc.Alloc_table.table_bytes ~heap_len in
  let dev = D.create ~latency:Pmem.Latency.optane ~size:(heap_base + heap_len) () in
  let buddy = B.create dev ~table_base:0 ~heap_base ~heap_len in
  let per_batch = 256 and batches = 40 in
  let offs = Array.make per_batch 0 in
  let nsizes = Array.length sizes in
  let a = ref [] and f = ref [] in
  for _ = 1 to rounds do
    let an = ref 0 and aw = ref 0.0 and fn = ref 0 and fw = ref 0.0 in
    for b = 0 to batches - 1 do
      let n, w =
        timed (fun () ->
            for i = 0 to per_batch - 1 do
              offs.(i) <- B.alloc buddy sizes.(((b * per_batch) + i) mod nsizes)
            done)
      in
      an := !an + n;
      aw := !aw +. w;
      let n, w = timed (fun () -> Array.iter (fun off -> B.dealloc buddy off) offs) in
      fn := !fn + n;
      fw := !fw +. w
    done;
    a := (!an, !aw, batches * per_batch) :: !a;
    f := (!fn, !fw, batches * per_batch) :: !f
  done;
  (summarize !a, summarize !f)
