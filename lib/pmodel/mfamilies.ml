(* Every model family {!Mcheck} enumerates, in report order; replay
   finds a spec's family in this list by its config fields. *)

let all = [ Mcheck.Family Mjournal.family; Mcheck.Family Mcow.family ]
