(* What a run needs from a workload.  Every workload builds its op
   streams from the seed before anything is timed, keeps a volatile
   shadow of acknowledged results, and checks each op's result against
   that shadow. *)

type value_probe =
  | Value : { ty : ('a, 'p) Corundum.Ptype.t; sample : 'a } -> value_probe
      (** The workload's stored value type and one value of it, for the
          Ptype codec probes. *)

(* How an op ended: a correct read, a correct write, or a result that
   disagreed with the shadow. *)
type outcome = Read | Write | Wrong

let outcome_of_check ok = if ok then Read else Wrong

type t = {
  clients : int;  (** closed-loop clients, one domain each *)
  window : int;
      (** ops per client in the count window; also the length of each
          client's pregenerated op stream, which the timed phase cycles *)
  setup : unit -> unit;  (** create the pool and preload it *)
  pool : unit -> Corundum.Pool_impl.t;
  user_bytes : unit -> int;  (** live keys plus values *)
  bind_client : unit -> unit;  (** run on a client's domain before its ops *)
  unbind_client : unit -> unit;
  step : int -> int -> outcome;  (** [step client i] runs op [i] *)
  traced_step : Spans.t -> int -> int -> outcome;
      (** as [step], recording the op's spans *)
  restart : unit -> unit;  (** power cycle and reopen with recovery *)
  verify : unit -> int;
      (** after a restart: acknowledged results missing or wrong, plus
          failed collection checks *)
  value : value_probe;
  teardown : unit -> unit;
}

(* Pool geometry shared by the single-client typed workloads. *)
let typed_config size =
  { Corundum.Pool_impl.size; nslots = 8; slot_size = 256 * 1024 }

(* Records an op made of one transaction: [tx_begin] from the call to
   the body's entry, [tx_body] while the body runs, [tx_commit] from the
   body's return to the call's return, all children of one [op] span. *)
let traced_tx sp dev ~op transaction body =
  let now = Clock.now and sim () = Pmem.Device.simulated_ns dev in
  let id = Spans.reserve sp in
  let h0 = now () and s0 = sim () in
  let h1 = ref 0 and s1 = ref 0.0 and h2 = ref 0 and s2 = ref 0.0 in
  let r =
    transaction (fun j ->
        h1 := now ();
        s1 := sim ();
        let r = body j in
        h2 := now ();
        s2 := sim ();
        r)
  in
  let h3 = now () and s3 = sim () in
  Spans.add sp ~op ~parent:id Tx_begin ~host0:h0 ~host1:!h1 ~sim0:s0 ~sim1:!s1;
  Spans.add sp ~op ~parent:id Tx_body ~host0:!h1 ~host1:!h2 ~sim0:!s1 ~sim1:!s2;
  Spans.add sp ~op ~parent:id Tx_commit ~host0:!h2 ~host1:h3 ~sim0:!s2 ~sim1:s3;
  Spans.fill sp id ~op ~parent:(-1) Op ~host0:h0 ~host1:h3 ~sim0:s0 ~sim1:s3;
  r

(* Records an op made of one read outside any transaction. *)
let traced_read sp dev ~op read =
  let now = Clock.now and sim () = Pmem.Device.simulated_ns dev in
  let id = Spans.reserve sp in
  let h0 = now () and s0 = sim () in
  let r = read () in
  let h1 = now () and s1 = sim () in
  Spans.add sp ~op ~parent:id Read ~host0:h0 ~host1:h1 ~sim0:s0 ~sim1:s1;
  Spans.fill sp id ~op ~parent:(-1) Op ~host0:h0 ~host1:h1 ~sim0:s0 ~sim1:s1;
  r

(* Runs [f] on every key, counting keys for which it is false or raises. *)
let count_bad n f =
  let bad = ref 0 in
  for k = 0 to n - 1 do
    match f k with true -> () | false -> incr bad | exception _ -> incr bad
  done;
  !bad

let check_result = function Ok () -> 0 | Error _ -> 1

(* Closes a typed pool for good.  [Pool.Make] keeps its last pool
   reachable until its next [create], so a tiny pool takes its place and
   the closed one's media can be reclaimed before the next set-up. *)
let close_typed (module P : Corundum.Pool.S) =
  if P.is_open () then P.close ();
  P.create ~config:{ Corundum.Pool_impl.size = 1 lsl 20; nslots = 1; slot_size = 64 * 1024 } ();
  P.close ()
