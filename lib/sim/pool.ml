(* Bounded LIFO freelists.  A pool is a stack plus its length, held
   either in domain-local storage (no locks: acquire and release on the
   same domain) or behind one mutex (release from any domain).  The
   critical sections cannot raise, so they lock and unlock directly. *)

type 'a stack = { mutable items : 'a list; mutable len : int }

type 'a home = Local of 'a stack Domain.DLS.key | Shared of 'a stack * Mutex.t

type 'a t = { cap : int; home : 'a home }

let check_cap cap = if cap < 0 then invalid_arg "Sim.Pool: negative cap"

let per_domain ~cap () =
  check_cap cap;
  { cap; home = Local (Domain.DLS.new_key (fun () -> { items = []; len = 0 })) }

let shared ~cap () =
  check_cap cap;
  { cap; home = Shared ({ items = []; len = 0 }, Mutex.create ()) }

(* [take] and [give] are the hot paths (every page, shard and process
   table goes through them): one match on the flavour, no closure, and
   no allocation on a hit. *)
let take p ~fresh =
  match p.home with
  | Local key -> (
      let st = Domain.DLS.get key in
      match st.items with
      | x :: rest ->
          st.items <- rest;
          st.len <- st.len - 1;
          x
      | [] -> fresh ())
  | Shared (st, mu) -> (
      Mutex.lock mu;
      match st.items with
      | x :: rest ->
          st.items <- rest;
          st.len <- st.len - 1;
          Mutex.unlock mu;
          x
      | [] ->
          Mutex.unlock mu;
          fresh ())

let push p st x =
  st.len < p.cap
  && begin
       st.items <- x :: st.items;
       st.len <- st.len + 1;
       true
     end

let give p x =
  match p.home with
  | Local key -> push p (Domain.DLS.get key) x
  | Shared (st, mu) ->
      Mutex.lock mu;
      let kept = push p st x in
      Mutex.unlock mu;
      kept

(* Run [f] on the pool's stack, under the mutex for a shared pool. *)
let locked p f =
  match p.home with
  | Local key -> f (Domain.DLS.get key)
  | Shared (st, mu) ->
      Mutex.lock mu;
      let r = f st in
      Mutex.unlock mu;
      r

let take_opt p =
  locked p (fun st ->
      match st.items with
      | x :: rest ->
          st.items <- rest;
          st.len <- st.len - 1;
          Some x
      | [] -> None)

let drain p =
  locked p (fun st ->
      let items = st.items in
      st.items <- [];
      st.len <- 0;
      items)
