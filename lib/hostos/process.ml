type pid = int
type tid = int

type thread = { tid : tid; clock : Sim.Clock.t }

type proc = {
  name : string;
  main : thread;
  mutable others : thread list;
  mutable rss : int;
}

type t = {
  procs : (pid, proc) Hashtbl.t;
  mutable next_pid : pid;
  mutable next_tid : tid;
}

let create_table () = { procs = Hashtbl.create 16; next_pid = 1; next_tid = 1 }

let reset_table t =
  Hashtbl.reset t.procs;
  t.next_pid <- 1;
  t.next_tid <- 1

(* Per-domain freelist of recycled tables: serving allocates one table
   per trajectory attempt, and acquire/release happen on the same
   worker domain, so the freelist needs no locks.  Tables are scrubbed
   on release ([reset_table]), so an acquired table is observationally
   a fresh one — same pids, tids and (empty) process set. *)
let table_pool : t Sim.Pool.t = Sim.Pool.per_domain ~cap:64 ()

let acquire_table () = Sim.Pool.take table_pool ~fresh:create_table

let release_table t =
  reset_table t;
  ignore (Sim.Pool.give table_pool t)

let fresh_tid t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  tid

let spawn_process t ?(at = Sim.Units.zero) ~name () =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let main = { tid = fresh_tid t; clock = Sim.Clock.create ~at () } in
  Hashtbl.replace t.procs pid { name; main; others = []; rss = 0 };
  pid

let find t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Process: unknown pid %d" pid)

let clone_thread t pid =
  let p = find t pid in
  Sim.Clock.advance p.main.clock (Syscall.cost Syscall.Clone);
  let th = { tid = fresh_tid t; clock = Sim.Clock.copy p.main.clock } in
  p.others <- p.others @ [ th ];
  th

let main_thread t pid = (find t pid).main

let threads t pid =
  let p = find t pid in
  p.main :: p.others

let thread_count t pid = List.length (threads t pid)

let charge_rss t pid n = (find t pid).rss <- (find t pid).rss + n

let release_rss t pid n =
  let p = find t pid in
  p.rss <- Stdlib.max 0 (p.rss - n)

let rss t pid = (find t pid).rss

let total_rss t = Hashtbl.fold (fun _ p acc -> acc + p.rss) t.procs 0

let exit_process t pid = Hashtbl.remove t.procs pid

let live_processes t = Hashtbl.length t.procs
