(* lookup-large: one client doing uniform finds, outside any
   transaction, on a typed Pbtree from int to int preloaded with many
   more keys than the other workloads hold.  This is the read path
   alone: Ptype decode, device loads and tree search, with no flush,
   fence or journal entry. *)

open Corundum
module P = Pool.Make ()

let tty = Pbtree.ptype Ptype.int
let window = 65_536
let batch = 1_024
let value_of k = (3 * k) + 1

let make ~nkeys ~pool_mb ~seed =
  let rng = Loadgen.Rng.create seed in
  let keys = Array.init window (fun _ -> int_of_float (Loadgen.Rng.float rng *. float_of_int nkeys)) in
  let tree = ref None in
  let tbl () = Option.get !tree in
  let bind () = tree := Some (Pbox.get (P.root ~ty:tty ~init:(fun _ -> assert false) ())) in
  let setup () =
    P.create ~config:(Workload.typed_config (pool_mb lsl 20)) ~latency:Pmem.Latency.optane ();
    let t = Pbox.get (P.root ~ty:tty ~init:(fun j -> Pbtree.make ~vty:Ptype.int j) ()) in
    let k = ref 0 in
    while !k < nkeys do
      let lo = !k and hi = min nkeys (!k + batch) in
      P.transaction (fun j ->
          for key = lo to hi - 1 do
            Pbtree.add t ~key (value_of key) j
          done);
      k := hi
    done;
    tree := Some t
  in
  let find t key = Pbtree.find t key = Some (value_of key) in
  let step _ i = Workload.outcome_of_check (find (tbl ()) keys.(i land (window - 1))) in
  let traced_step sp _ i =
    let t = tbl () and key = keys.(i land (window - 1)) in
    Workload.outcome_of_check
      (Workload.traced_read sp (Pool_impl.device (P.impl ())) ~op:i (fun () -> find t key))
  in
  (* Every key in one ordered pass: [nkeys] distinct ascending keys in
     [0, nkeys) are exactly 0 .. nkeys-1. *)
  let verify () =
    let t = tbl () in
    let count, bad, _ =
      Pbtree.fold t ~init:(0, 0, -1) ~f:(fun (count, bad, prev) k v ->
          let ok = k > prev && k < nkeys && v = value_of k in
          (count + 1, (if ok then bad else bad + 1), k))
    in
    bad + abs (nkeys - count)
    + (if Pbtree.length t = nkeys then 0 else 1)
    + Workload.check_result (Pbtree.check t)
  in
  {
    Workload.clients = 1;
    window;
    setup;
    pool = P.impl;
    user_bytes = (fun () -> nkeys * 16);
    bind_client = ignore;
    unbind_client = ignore;
    step;
    traced_step;
    restart = (fun () -> P.crash_and_reopen (); bind ());
    verify;
    value = Workload.Value { ty = Ptype.int; sample = 0 };
    teardown =
      (fun () ->
        tree := None;
        Workload.close_typed (module P));
  }
