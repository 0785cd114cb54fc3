(* Materialising serves for tests, over Visor.Server.serve_fold: the
   responses come back as a list in completion order, with the
   summary. *)

open Alloystack_core

(* Serve a request generator, collecting every response. *)
let collect ?window server next =
  let rev, summary =
    Visor.Server.serve_fold server ?window next ~init:[] ~f:(fun acc r -> r :: acc)
  in
  (List.rev rev, summary)

(* Serve a request list: sorted by arrival first (stable, so
   same-instant requests keep list order). *)
let serve ?window server requests =
  let rem =
    ref
      (List.stable_sort
         (fun (a : Visor.Server.request) (b : Visor.Server.request) ->
           Sim.Units.compare a.Visor.Server.arrival b.Visor.Server.arrival)
         requests)
  in
  collect ?window server (fun () ->
      match !rem with
      | [] -> None
      | r :: tl ->
          rem := tl;
          Some r)
