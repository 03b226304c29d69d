(* shared-commit and solo-commit: clients on one shared pool through the
   raw-heap Kvstore over the Corundum engine, each on a domain of its
   own with its own journal slot and allocator stripe, and group commit
   on.  Keys are zipf 0.99 over 100k preloaded keys, half gets and half
   puts.  Client [d] owns the keys congruent to [d] mod [clients], so
   each client's shadow is exact while all still commit through one
   combiner and one pool.  With one client every commit is a solo epoch
   of the combiner. *)

module E = Engines.Corundum_engine
module Pool_impl = Corundum.Pool_impl

(* The current client's span recorder and op, read by [Traced_engine];
   unset, its transactions are exactly [E]'s. *)
let current : (Spans.t * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

module Traced_engine = struct
  include E

  let transaction t f =
    match Domain.DLS.get current with
    | None -> E.transaction t f
    | Some (sp, op) ->
        Workload.traced_tx sp (Pool_impl.device (E.pool t)) ~op (E.transaction t) f
end

module KV = Workloads.Kvstore.Make (Traced_engine)

let nkeys = 100_000
let nbuckets = 131_072
let batch = 1_000

let config = { Pool_impl.size = 64 lsl 20; nslots = 8; slot_size = 256 * 1024 }

(* [window] is each client's op stream; it must be a power of 2. *)
let make ~clients ~window ~seed =
  let per_client = nkeys / clients in
  let zipf = Loadgen.Zipf.create ~theta:0.99 per_client in
  let streams =
    Array.init clients (fun d ->
        let rng = Loadgen.Rng.create (seed + (d * 1_000_003)) in
        Array.init window (fun _ ->
            let key = (Loadgen.Zipf.next zipf rng * clients) + d in
            if Loadgen.Rng.float rng < 0.5 then -(key + 1) else key))
  in
  let shadow = Array.make nkeys 0 in
  let pool = ref None in
  let the_pool () = Option.get !pool in
  let kv = ref None in
  let bind p =
    pool := Some p;
    kv := Some (KV.create ~nbuckets (E.of_pool p))
  in
  let setup () =
    let p = Pool_impl.create ~config ~latency:Pmem.Latency.optane () in
    bind p;
    let kv = Option.get !kv in
    let k = ref 0 in
    while !k < nkeys do
      let lo = !k and hi = min nkeys (!k + batch) in
      Pool_impl.transaction p (fun _ ->
          for key = lo to hi - 1 do
            KV.put kv (Int64.of_int key) (Int64.of_int key)
          done);
      for key = lo to hi - 1 do
        shadow.(key) <- key
      done;
      k := hi
    done;
    Pool_impl.set_group_commit p true
  in
  (* A stream entry [-(key + 1)] is a put, [key] a get. *)
  let step d i =
    let e = streams.(d).(i land (window - 1)) in
    let kv = Option.get !kv in
    if e < 0 then begin
      let key = -e - 1 and v = nkeys + (i * clients) + d in
      KV.put kv (Int64.of_int key) (Int64.of_int v);
      shadow.(key) <- v;
      Workload.Write
    end
    else Workload.outcome_of_check (KV.get kv (Int64.of_int e) = Some (Int64.of_int shadow.(e)))
  in
  let traced_step sp d i =
    Domain.DLS.set current (Some (sp, i));
    Fun.protect ~finally:(fun () -> Domain.DLS.set current None) (fun () -> step d i)
  in
  let verify () =
    let kv = Option.get !kv in
    Workload.count_bad nkeys (fun key -> KV.get kv (Int64.of_int key) = Some (Int64.of_int shadow.(key)))
    + if KV.length kv = nkeys then 0 else 1
  in
  {
    Workload.clients;
    window;
    setup;
    pool = the_pool;
    user_bytes = (fun () -> nkeys * 16);
    bind_client = (fun () -> ignore (Pool_impl.register_domain (the_pool ())));
    unbind_client = (fun () -> Pool_impl.unregister_domain (the_pool ()));
    step;
    traced_step;
    restart =
      (fun () ->
        let p = Pool_impl.reopen (the_pool ()) in
        bind p;
        Pool_impl.set_group_commit p true);
    verify;
    value = Workload.Value { ty = Corundum.Ptype.int64; sample = 0L };
    teardown =
      (fun () ->
        Option.iter (fun p -> if Pool_impl.is_open p then Pool_impl.close p) !pool;
        pool := None;
        kv := None);
  }
