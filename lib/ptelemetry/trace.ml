type phase = B | E | I | X of float

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_ns : float;
  tid : int;
  args : (string * string) list;
}

(* One ring per shard; [seq] is a per-ring emission sequence number used
   to keep the cross-ring merge stable for events sharing a timestamp. *)
type ring = {
  rlock : Mutex.t;
  buf : (event * int) option array;
  mutable next : int; (* slot the next event lands in *)
  mutable total : int; (* events ever emitted into this ring *)
}

type sink =
  | Rings of ring array
  | Jsonl of out_channel
  | Fn of (event -> unit)
  | Null

(* [active] mirrors [sink <> None] so the hot-path guard is one atomic
   load; [lock] serializes sink swaps and JSONL emission.  Ring
   emission takes only the owning ring's lock, so N domains tracing
   concurrently contend only when they collide on a shard. *)
let active = Atomic.make false
let detail_all = Atomic.make false
let sink : sink option ref = ref None
let lock = Mutex.create ()

let on () = Atomic.get active
let verbose () = Atomic.get detail_all && Atomic.get active

let set_detail d =
  Atomic.set detail_all (match d with `All -> true | `Ordering -> false)

let make_ring capacity =
  { rlock = Mutex.create (); buf = Array.make capacity None; next = 0; total = 0 }

let install_ring ?(capacity = 65536) ?(shards = 1) () =
  if capacity <= 0 then invalid_arg "Trace.install_ring: capacity must be positive";
  if shards <= 0 then invalid_arg "Trace.install_ring: shards must be positive";
  (* Round the shard count up to a power of two so the emitting domain
     can pick its ring with one mask. *)
  let shards =
    let rec up n = if n >= shards then n else up (n * 2) in
    up 1
  in
  Mutex.lock lock;
  sink := Some (Rings (Array.init shards (fun _ -> make_ring capacity)));
  Atomic.set active true;
  Mutex.unlock lock

let install_jsonl oc =
  Mutex.lock lock;
  sink := Some (Jsonl oc);
  Atomic.set active true;
  Mutex.unlock lock

let install_fn f =
  Mutex.lock lock;
  sink := Some (Fn f);
  Atomic.set active true;
  Mutex.unlock lock

let install_null () =
  Mutex.lock lock;
  sink := Some Null;
  Atomic.set active true;
  Mutex.unlock lock

let uninstall () =
  Mutex.lock lock;
  (match !sink with Some (Jsonl oc) -> flush oc | _ -> ());
  Atomic.set active false;
  Mutex.unlock lock

let phase_string = function B -> "B" | E -> "E" | I -> "i" | X _ -> "X"

let event_to_json e =
  let base =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str (phase_string e.ph));
      ("ts", Json.Num (e.ts_ns /. 1000.0));
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int e.tid));
    ]
  in
  let dur = match e.ph with X d -> [ ("dur", Json.Num (d /. 1000.0)) ] | _ -> [] in
  let args =
    match e.args with
    | [] -> []
    | kvs -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ]
  in
  Json.Obj (base @ dur @ args)

let emit ?(args = []) ?tid ~cat ~name ~ph ~ts_ns () =
  if Atomic.get active && (match !sink with Some Null -> false | _ -> true)
  then begin
    let tid = match tid with Some t -> t | None -> (Domain.self () :> int) in
    let e = { name; cat; ph; ts_ns; tid; args } in
    match !sink with
    | None | Some Null -> ()
    | Some (Rings rings) ->
        let r = rings.(tid land (Array.length rings - 1)) in
        Mutex.lock r.rlock;
        r.buf.(r.next) <- Some (e, r.total);
        r.next <- (r.next + 1) mod Array.length r.buf;
        r.total <- r.total + 1;
        Mutex.unlock r.rlock
    | Some (Jsonl oc) ->
        Mutex.lock lock;
        output_string oc (Json.to_string (event_to_json e));
        output_char oc '\n';
        Mutex.unlock lock
    | Some (Fn f) -> f e
  end

let begin_span ?args ~cat ~name ~ts_ns () = emit ?args ~cat ~name ~ph:B ~ts_ns ()
let end_span ?args ~cat ~name ~ts_ns () = emit ?args ~cat ~name ~ph:E ~ts_ns ()

let ring_events r =
  Mutex.lock r.rlock;
  let cap = Array.length r.buf in
  let n = min r.total cap in
  let first = if r.total <= cap then 0 else r.next in
  let evs =
    List.filter_map
      (fun i -> r.buf.((first + i) mod cap))
      (List.init n Fun.id)
  in
  Mutex.unlock r.rlock;
  evs

let events () =
  Mutex.lock lock;
  let s = !sink in
  Mutex.unlock lock;
  match s with
  | Some (Rings [| r |]) -> List.map fst (ring_events r)
  | Some (Rings rings) ->
      (* Merge the per-domain rings into one stream ordered by simulated
         time; [seq] breaks timestamp ties so each ring's own order is
         preserved. *)
      Array.to_list rings
      |> List.concat_map ring_events
      |> List.stable_sort (fun (a, sa) (b, sb) ->
             match compare a.ts_ns b.ts_ns with 0 -> compare sa sb | c -> c)
      |> List.map fst
  | _ -> []

let dropped () =
  Mutex.lock lock;
  let s = !sink in
  Mutex.unlock lock;
  match s with
  | Some (Rings rings) ->
      Array.fold_left
        (fun acc r ->
          Mutex.lock r.rlock;
          let d = max 0 (r.total - Array.length r.buf) in
          Mutex.unlock r.rlock;
          acc + d)
        0 rings
  | _ -> 0

let clear () =
  Mutex.lock lock;
  (match !sink with
  | Some (Rings rings) ->
      Array.iter
        (fun r ->
          Mutex.lock r.rlock;
          Array.fill r.buf 0 (Array.length r.buf) None;
          r.next <- 0;
          r.total <- 0;
          Mutex.unlock r.rlock)
        rings
  | _ -> ());
  Mutex.unlock lock

let to_chrome_json evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Json.to_buffer buf (event_to_json e))
    evs;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let save_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json (events ())))
