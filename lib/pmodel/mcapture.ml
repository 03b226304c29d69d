(* Shipped code as a model family: its persist steps captured off the
   probe bus as {!Mcheck} steps, and its recovery run on a crash image
   and replayed onto {!Mstate}.

   A {!layout} names the whole device lines a family models.  They form
   a dense image of one [int64] per 8-byte media word: word [i] is word
   [i mod 8] of the [i / 8]-th modeled line.  A store becomes one [St]
   per word it touches, its value read back from the device view (the
   probe fires after the bytes land); a flush becomes one [Fl] over the
   modeled lines it covers.  A store outside the modeled lines fails
   loudly: the model would silently miss it.  Nothing here knows a
   protocol; a family supplies the lines and the code to run. *)

module D = Pmem.Device
module Pr = Ptelemetry.Probe
module Ms = Mstate
open Mcheck

type layout = { lines : int array (* device line numbers, ascending *) }

let wpl = Ms.words_per_line
let line_bytes = D.line_size
let layout lines = { lines = Array.of_list (List.sort_uniq compare lines) }
let nwords l = Array.length l.lines * wpl
let offset l w = (l.lines.(w / wpl) * line_bytes) + (w mod wpl * 8)

(* The image word holding device byte [off], if its line is modeled. *)
let word_at l off =
  Option.map
    (fun i -> (i * wpl) + (off mod line_bytes / 8))
    (Array.find_index (( = ) (off / line_bytes)) l.lines)

let image l dev = Array.init (nwords l) (fun w -> D.read_u64 dev (offset l w))

(* Make [img] the durable contents of the modeled lines (uncaptured). *)
let load l dev img =
  Array.iteri (fun w v -> D.write_u64 dev (offset l w) v) img;
  Array.iter (fun line -> D.flush dev (line * line_bytes) line_bytes) l.lines;
  D.fence dev

(* Run [f] with every persist event on [dev] captured as steps; a
   transaction's begin and commit point become its [M_start] and
   [M_commit_point] markers. *)
let capture l dev f =
  let id = D.id dev and steps = ref [] and tx = ref 0 in
  let push act = steps := { act; lbl = "" } :: !steps in
  let store off len =
    for i = off / 8 to (off + len - 1) / 8 do
      match word_at l (i * 8) with
      | Some w -> push (St (w, D.read_u64 dev (i * 8)))
      | None ->
          failwith
            (Printf.sprintf "Mcapture: store at %#x outside the modeled lines"
               (i * 8))
    done
  in
  let flush off len =
    let first = off / line_bytes and last = (off + len - 1) / line_bytes in
    push
      (Fl
         (List.concat
            (List.mapi
               (fun i line -> if line >= first && line <= last then [ i * wpl ] else [])
               (Array.to_list l.lines))))
  in
  Pr.install (function
    | Pr.Store { dev = d; off; len; _ } when d = id -> store off len
    | Pr.Flush { dev = d; off; len; _ } when d = id -> flush off len
    | Pr.Fence { dev = d; _ } when d = id -> push Fence
    | Pr.Tx_begin { dev = d; _ } when d = id ->
        incr tx;
        push (Mark (M_start !tx))
    | Pr.Commit_point { dev = d; _ } when d = id -> push (Mark (M_commit_point !tx))
    | _ -> ());
  Fun.protect ~finally:Pr.uninstall (fun () ->
      let v = f () in
      (List.rev !steps, v))

(* Run recovery [run] on [m]'s durable image, loaded into [dev], and
   replay its captured steps onto [m], ticking [clk] before every flush
   and fence: a crash clock stops the replay at its persist point,
   leaving [m] exactly as the crash found it. *)
let recover l dev run clk m =
  load l dev (Ms.snapshot_durable m);
  let steps, () = capture l dev run in
  List.iter
    (fun s ->
      if is_persist_point s then Mrecovery.tick clk;
      apply m s)
    steps
