(* churn-alloc: one client on a typed Pstrmap from string to int with a
   fixed live set of 20k keys of 8-208 bytes.  Each op is one transaction
   that inserts a fresh key and removes the oldest, so every op allocates
   and frees blocks of mixed buddy orders and logs larger entries. *)

open Corundum
module P = Pool.Make ()

let tty = Pstrmap.ptype Ptype.int
let live = 20_000
let nbuckets = 32_768
let window = 32_768
let batch = 500

(* Removed keys remembered for the absence check after a restart. *)
let removed_cap = 4_096
let key_len rng = 8 + int_of_float (Loadgen.Rng.float rng *. 201.0)
let hex = "0123456789abcdef"

(* A unique key: the sequence number in 8 hex digits, padded to [len]. *)
let key_of seq len =
  let b = Bytes.create len in
  for p = 0 to 7 do
    Bytes.unsafe_set b p hex.[(seq lsr (4 * (7 - p))) land 15]
  done;
  for p = 8 to len - 1 do
    Bytes.unsafe_set b p (Char.unsafe_chr (97 + ((seq + p) mod 26)))
  done;
  Bytes.unsafe_to_string b

let make ~seed =
  let rng = Loadgen.Rng.create seed in
  let preload_lens = Array.init live (fun _ -> key_len rng) in
  let lens = Array.init window (fun _ -> key_len rng) in
  (* FIFO of live keys: op [i] replaces the key in slot [i mod live]. *)
  let seqs = Array.make live 0 and slot_lens = Array.make live 0 in
  let removed_seqs = Array.make removed_cap (-1) and removed_lens = Array.make removed_cap 0 in
  let key_bytes = ref 0 and nremoved = ref 0 in
  let map = ref None in
  let tbl () = Option.get !map in
  let bind () = map := Some (Pbox.get (P.root ~ty:tty ~init:(fun _ -> assert false) ())) in
  let setup () =
    P.create ~config:(Workload.typed_config (32 lsl 20)) ~latency:Pmem.Latency.optane ();
    let m = Pbox.get (P.root ~ty:tty ~init:(fun j -> Pstrmap.make ~vty:Ptype.int ~nbuckets j) ()) in
    let k = ref 0 in
    while !k < live do
      let lo = !k and hi = min live (!k + batch) in
      P.transaction (fun j ->
          for s = lo to hi - 1 do
            Pstrmap.add m ~key:(key_of s preload_lens.(s)) s j
          done);
      k := hi
    done;
    Array.iteri (fun s _ -> seqs.(s) <- s) seqs;
    Array.blit preload_lens 0 slot_lens 0 live;
    key_bytes := Array.fold_left ( + ) 0 preload_lens;
    Array.fill removed_seqs 0 removed_cap (-1);
    nremoved := 0;
    map := Some m
  in
  let churn transaction i =
    let m = tbl () in
    let seq = live + i and len = lens.(i land (window - 1)) in
    let slot = i mod live in
    let old_seq = seqs.(slot) and old_len = slot_lens.(slot) in
    let key = key_of seq len and old_key = key_of old_seq old_len in
    let removed =
      transaction (fun j ->
          Pstrmap.add m ~key seq j;
          Pstrmap.remove m old_key j)
    in
    seqs.(slot) <- seq;
    slot_lens.(slot) <- len;
    key_bytes := !key_bytes + len - old_len;
    let r = !nremoved land (removed_cap - 1) in
    removed_seqs.(r) <- old_seq;
    removed_lens.(r) <- old_len;
    incr nremoved;
    if removed then Workload.Write else Workload.Wrong
  in
  let step _ i = churn P.transaction i in
  let traced_step sp _ i =
    let dev = Pool_impl.device (P.impl ()) in
    churn (fun body -> Workload.traced_tx sp dev ~op:i P.transaction body) i
  in
  let verify () =
    let m = tbl () in
    Workload.count_bad live (fun s -> Pstrmap.find m (key_of seqs.(s) slot_lens.(s)) = Some seqs.(s))
    + Workload.count_bad removed_cap (fun r ->
          removed_seqs.(r) < 0 || not (Pstrmap.mem m (key_of removed_seqs.(r) removed_lens.(r))))
    + (if Pstrmap.length m = live then 0 else 1)
    + Workload.check_result (Pstrmap.check m)
  in
  {
    Workload.clients = 1;
    window;
    setup;
    pool = P.impl;
    user_bytes = (fun () -> !key_bytes + (8 * live));
    bind_client = ignore;
    unbind_client = ignore;
    step;
    traced_step;
    restart = (fun () -> P.crash_and_reopen (); bind ());
    verify;
    value = Workload.Value { ty = Ptype.int; sample = 0 };
    teardown =
      (fun () ->
        map := None;
        Workload.close_typed (module P));
  }
