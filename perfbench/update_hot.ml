(* update-hot: one client on a typed Phashtbl of 100k small records,
   zipf 0.99 keys, half finds outside any transaction and half in-place
   updates, one transaction each.  The hot set stays cached and nothing
   allocates after the preload, so the journal's commit path and the
   Ptype codec do all the work. *)

open Corundum
module P = Pool.Make ()

type value = { n : int; tag : string }

let vty =
  Ptype.record2 ~name:"hot_value"
    ~inj:(fun n tag -> { n; tag })
    ~proj:(fun v -> (v.n, v.tag))
    Ptype.int (Ptype.fixed_string 24)

let tty = Phashtbl.ptype vty
let nkeys = 100_000
let nbuckets = 65_536
let window = 65_536
let batch = 1_000

(* Tags are picked by [n], so a read can check the whole record. *)
let tags = Array.init 64 (fun i -> String.init 24 (fun j -> Char.chr (97 + ((i + j) mod 26))))
let value_of n = { n; tag = tags.(n land 63) }
let matches v n = v.n = n && String.equal v.tag tags.(n land 63)

let make ~seed =
  let rng = Loadgen.Rng.create seed in
  let zipf = Loadgen.Zipf.create ~theta:0.99 nkeys in
  let keys = Array.make window 0 and updates = Array.make window false in
  for i = 0 to window - 1 do
    keys.(i) <- Loadgen.Zipf.next zipf rng;
    updates.(i) <- Loadgen.Rng.float rng < 0.5
  done;
  let shadow = Array.make nkeys 0 in
  let table = ref None in
  let tbl () = Option.get !table in
  let bind () = table := Some (Pbox.get (P.root ~ty:tty ~init:(fun _ -> assert false) ())) in
  let setup () =
    P.create ~config:(Workload.typed_config (32 lsl 20)) ~latency:Pmem.Latency.optane ();
    let h = Pbox.get (P.root ~ty:tty ~init:(fun j -> Phashtbl.make ~vty ~nbuckets j) ()) in
    let k = ref 0 in
    while !k < nkeys do
      let lo = !k and hi = min nkeys (!k + batch) in
      P.transaction (fun j ->
          for key = lo to hi - 1 do
            Phashtbl.add h ~key (value_of key) j
          done);
      for key = lo to hi - 1 do
        shadow.(key) <- key
      done;
      k := hi
    done;
    table := Some h
  in
  let find h key = match Phashtbl.find h key with Some v -> matches v shadow.(key) | None -> false in
  (* One op, run through [transaction] or [read]: the plain library
     calls, or wrappers that record spans around them. *)
  let op transaction read i =
    let s = i land (window - 1) in
    let key = keys.(s) and h = tbl () in
    if updates.(s) then begin
      let n = nkeys + i in
      transaction (fun j -> Phashtbl.add h ~key (value_of n) j);
      shadow.(key) <- n;
      Workload.Write
    end
    else Workload.outcome_of_check (read (fun () -> find h key))
  in
  let step _ i = op P.transaction (fun f -> f ()) i in
  let traced_step sp _ i =
    let dev = Pool_impl.device (P.impl ()) in
    op (fun body -> Workload.traced_tx sp dev ~op:i P.transaction body) (Workload.traced_read sp dev ~op:i) i
  in
  let verify () =
    let h = tbl () in
    Workload.count_bad nkeys (find h)
    + (if Phashtbl.length h = nkeys then 0 else 1)
    + Workload.check_result (Phashtbl.check h)
  in
  {
    Workload.clients = 1;
    window;
    setup;
    pool = P.impl;
    user_bytes = (fun () -> nkeys * (8 + Ptype.size vty));
    bind_client = ignore;
    unbind_client = ignore;
    step;
    traced_step;
    restart = (fun () -> P.crash_and_reopen (); bind ());
    verify;
    value = Workload.Value { ty = vty; sample = value_of 0 };
    teardown =
      (fun () ->
        table := None;
        Workload.close_typed (module P));
  }
