(* The repo benchmark: host cost of the AlloyStack simulator on three
   workloads, driven only through the public library APIs
   (Visor.Server, the Baselines platforms, Loadgen).

     perfbench --workload serve-steady --seed 42 --seconds 30 --trace 0

   A run repeats a fixed amount of simulated work (a "rep") until
   --seconds of host time have passed and reports per-rep medians.
   Every rep redoes its set-up, so set-up time is a median too.  With
   --trace 1, reps alternate untraced / traced: traced reps switch on
   Sim.Hotspot and the harness's own timers and give the per-layer
   table, untraced ones give the tracing overhead.  Every rep must
   produce the same virtual digest, or the run fails.  The result is
   printed as one JSON line starting with "result: "; run.py turns it
   into the benchmark's result line.  README.md defines every metric. *)

open Sim
open Alloystack_core
open Baselines
open Workloads

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated by every domain so far: minor + major - promoted.
   Gc.quick_stat folds in the counts of domains Par.run has joined;
   Gc.allocated_bytes would count the calling domain only. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The calling domain's allocated words, cheap enough to read around a
   single call. *)
let domain_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Harness timers: accumulators around the calls the harness makes into
   a layer.  Only traced reps install them.                             *)

let acc : (string, float ref) Hashtbl.t = Hashtbl.create 64

let charge name v =
  match Hashtbl.find_opt acc name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add acc name (ref v)

let charged name = match Hashtbl.find_opt acc name with Some r -> !r | None -> 0.0

(* Charge f's host milliseconds to [key]. *)
let timed key f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> charge key ((now () -. t0) *. 1e3)) f

(* Charge f's host milliseconds to [name ^ ".ms"] and the words it
   allocates to [name ^ ".words"]. *)
let timed_words name f =
  let w0 = domain_words () in
  Fun.protect
    ~finally:(fun () -> charge (name ^ ".words") (domain_words () -. w0))
    (fun () -> timed (name ^ ".ms") f)

(* ------------------------------------------------------------------ *)
(* Measurement.                                                         *)

(* The yardstick: a fixed allocation- and hashtable-heavy computation
   that uses none of the program's code.  On a shared VM the
   simulator's speed drifts by 30% and more within a minute, from
   co-tenants' cache and memory traffic; this yardstick drifts with it
   (per-rep correlation 0.7 to 0.9 on a 2-vCPU Xeon VM), while a
   compute-only loop or a random-access array scan hardly moves.  Every
   timed interval runs between two yardstick readings, and its host
   times are reported rescaled by
   [yardstick_nominal / mean of the two readings], i.e. in seconds of a
   host on which one reading takes [yardstick_nominal].

   The yardstick runs in a child process ([perfbench --yardstick]) that
   waits on its stdin and takes one reading per line: on the CPU the
   harness last ran on for a 1-domain workload, else the mean over
   CPUs 0 to domains - 1 (vCPUs see different co-tenants), each from a
   collected heap of its own: the reading depends neither on the
   program's heap nor on GC settings the program may change, and the
   program's heap is left as the interval left it. *)
let yardstick_nominal = 0.1

let yardstick_body () =
  let t0 = now () in
  let h = Hashtbl.create 4096 in
  let keep = ref [] in
  let x = ref 12345 in
  for i = 0 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 0xffff in
    Hashtbl.replace h k (i, string_of_int k);
    keep := (k, Array.make 4 i) :: (if i land 1023 = 0 then [] else !keep)
  done;
  let pairs = Hashtbl.fold (fun k _ acc -> (k, k * 3) :: acc) h [] in
  ignore (Sys.opaque_identity (List.sort compare pairs));
  now () -. t0

external current_cpu : unit -> int = "perfbench_current_cpu"
external pin_cpu : int -> bool = "perfbench_pin_cpu"

let yardstick_child () =
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> exit 0
    | Some line ->
        let cpus = List.map int_of_string (String.split_on_char ' ' line) in
        let reading cpu =
          ignore (pin_cpu cpu);
          Gc.full_major ();
          yardstick_body ()
        in
        let total = List.fold_left (fun a cpu -> a +. reading cpu) 0.0 cpus in
        Printf.printf "%.9f\n%!" (total /. float_of_int (List.length cpus));
        loop ()
  in
  (* A first reading faults the child's heap in. *)
  ignore (yardstick_body ());
  loop ()

let child = ref None

(* Host domains the measured workload runs on. *)
let workload_domains = ref 1

let yardstick () =
  let ic, oc =
    match !child with
    | Some c -> c
    | None ->
        let c = Unix.open_process_args Sys.executable_name [| Sys.executable_name; "--yardstick" |] in
        (* Closing its stdin ends the child; wait for it on every exit. *)
        at_exit (fun () -> ignore (Unix.close_process c));
        child := Some c;
        c
  in
  let cpus =
    if !workload_domains <= 1 then [ current_cpu () ]
    else List.init (min !workload_domains (Domain.recommended_domain_count ())) Fun.id
  in
  output_string oc (String.concat " " (List.map string_of_int cpus) ^ "\n");
  flush oc;
  match Option.bind (In_channel.input_line ic) float_of_string_opt with
  | Some t -> t
  | None -> fail "the yardstick process stopped answering"

let last_yardstick = ref Float.nan

(* Host cost of timed intervals: raw seconds, the yardstick readings
   around them, and the words allocated on every domain. *)
type cost = { wall : float; cpu : float; scaled_wall : float; scaled_cpu : float; yard : float; words : float }

(* Run [f] as one timed interval, with Hotspot on when [traced]. *)
let interval ~traced f =
  if Float.is_nan !last_yardstick then last_yardstick := yardstick ();
  let before = !last_yardstick in
  if traced then Hotspot.set_enabled true;
  let w0 = alloc_words () and cpu0 = cpu_now () and t0 = now () in
  let r = Fun.protect ~finally:(fun () -> Hotspot.set_enabled false) f in
  let wall = now () -. t0 in
  let cpu = cpu_now () -. cpu0 and words = alloc_words () -. w0 in
  let after = yardstick () in
  last_yardstick := after;
  let yard = (before +. after) /. 2.0 in
  let k = yardstick_nominal /. yard in
  (r, { wall; cpu; scaled_wall = wall *. k; scaled_cpu = cpu *. k; yard; words })

let total costs =
  let sum f = List.fold_left (fun a c -> a +. f c) 0.0 costs in
  let wall = sum (fun c -> c.wall) in
  {
    wall;
    cpu = sum (fun c -> c.cpu);
    scaled_wall = sum (fun c -> c.scaled_wall);
    scaled_cpu = sum (fun c -> c.scaled_cpu);
    yard = sum (fun c -> c.yard *. c.wall) /. wall;
    words = sum (fun c -> c.words);
  }

(* Start a rep from a collected heap, so garbage of the previous rep is
   charged neither to this rep's set-up nor to its timed phase. *)
let start_rep () =
  Gc.full_major ();
  now ()

(* Zero the Hotspot profiler and the harness timers before a traced
   rep's timed phase. *)
let begin_trace ~traced =
  if traced then begin
    Hashtbl.reset acc;
    Hotspot.reset ()
  end

(* One rep's outcome.  [setup_s] and the [layers] times are rescaled by
   the yardstick; [intervals] carry raw and rescaled times.  [virt] is the
   virtual summary line (digest and virtual latency/throughput); it must
   read the same on every rep. *)
type rep = {
  setup_s : float;
  intervals : cost list;  (** The timed phase, one or more intervals. *)
  ops : int;
  failed : int;
  virt : string;
  layers : (string * float) list;  (** Traced reps only. *)
}

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced rep.                                   *)

let sections =
  [
    "serve.prologue"; "serve.trajectory"; "serve.merge"; "boot"; "stage.exec";
    "stage.spawn"; "stage.kernel"; "wfd.acquire"; "wfd.recycle"; "wfd.clone";
    "wfd.destroy"; "asbuffer.put"; "asbuffer.get"; "admission.hash";
    "sched.copy_pool"; "sched.restore_pool";
  ]

let platform_keys = [ "alloystack"; "faastlane"; "openfaas-warm" ]
let kernel_kinds = [ "wordcount"; "parallel_sorting"; "function_chain" ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [extra] carries the workload's own layer values (server summary
   fields); everything else comes from the Hotspot snapshot, the
   counter deltas and the harness timers.  The timed phase's wall time
   is tiled by the [serial] metrics, which run on one domain and do not
   nest in each other, plus the [parallel] ones divided by the domain
   count; the rest is [unattributed.ms] (on several domains: join
   imbalance, domain spawns and whatever runs outside a section).
   Host times are rescaled by the yardstick like the end-to-end ones. *)
let layer_metrics ~cost ~domains ~ops ~counters0 ~extra ~serial ~parallel =
  let wall_s = cost.wall and cpu_s = cost.cpu in
  let snap = Hotspot.snapshot () in
  let entry name = List.find_opt (fun e -> e.Hotspot.hs_name = name) snap in
  let per_op x = x /. float_of_int (max 1 ops) in
  let section name =
    match entry name with
    | Some e ->
        [
          (name ^ ".ms", e.Hotspot.hs_total_ns /. 1e6);
          (name ^ ".calls", float_of_int e.Hotspot.hs_count);
          (name ^ ".words_per_op", per_op (Hotspot.entry_words e));
        ]
    | None -> [ (name ^ ".ms", 0.0); (name ^ ".calls", 0.0); (name ^ ".words_per_op", 0.0) ]
  in
  let calls name = match entry name with Some e -> float_of_int e.Hotspot.hs_count | None -> 0.0 in
  let counter name =
    let v l = match List.assoc_opt name l with Some v -> v | None -> 0 in
    float_of_int (v (Stats.counters ()) - v counters0)
  in
  let tlb_hit = counter "mem.tlb.hit" and tlb_miss = counter "mem.tlb.miss" in
  let platform p =
    let kernels = List.fold_left (fun a k -> a +. charged (p ^ ".kernel." ^ k ^ ".ms")) 0.0 kernel_kinds in
    [
      (p ^ ".read_input.ms", charged (p ^ ".read_input.ms"));
      (p ^ ".write_output.ms", charged (p ^ ".write_output.ms"));
      (p ^ ".send.ms", charged (p ^ ".send.ms"));
      (p ^ ".recv.ms", charged (p ^ ".recv.ms"));
      (p ^ ".transport.words", charged (p ^ ".send.words") +. charged (p ^ ".recv.words"));
      (p ^ ".run.ms", charged (p ^ ".run.ms"));
      (p ^ ".control.ms", charged (p ^ ".run.ms") -. kernels);
    ]
  in
  (* Kernel self time: the kernel minus the Fctx calls it made. *)
  let kernel k =
    let sum suffix = List.fold_left (fun a p -> a +. charged (p ^ ".kernel." ^ k ^ suffix)) 0.0 platform_keys in
    ("kernel." ^ k ^ ".self_ms", sum ".ms" -. sum ".fctx.ms")
  in
  let idle_s = (wall_s *. float_of_int domains) -. cpu_s in
  let named =
    List.concat_map section sections
    @ [
        ("wfd.recycle_hit_ratio", ratio (calls "wfd.acquire") (calls "wfd.acquire" +. calls "wfd.clone"));
        ("mem.tlb.hit_ratio", ratio tlb_hit (tlb_hit +. tlb_miss));
        ("mem.tlb.flush_per_op", per_op (counter "mem.tlb.flush"));
        ("par.busy_frac", cpu_s /. (wall_s *. float_of_int domains));
        ("par.idle_s", idle_s);
        ("loadgen.pull.ms", charged "loadgen.pull.ms");
        ("bench.fold.ms", charged "bench.fold.ms");
      ]
    @ List.concat_map platform platform_keys
    @ List.map kernel kernel_kinds @ extra
  in
  let sum names = List.fold_left (fun a n -> a +. List.assoc n named) 0.0 names in
  let covered = sum serial +. (sum parallel /. float_of_int domains) in
  let k = cost.scaled_wall /. cost.wall in
  let is_time name = List.exists (fun suffix -> String.ends_with ~suffix name) [ ".ms"; "_ms"; "_s" ] in
  List.map
    (fun (name, v) -> (name, if is_time name then v *. k else v))
    (named @ [ ("unattributed.ms", (wall_s *. 1e3) -. covered) ])

(* ------------------------------------------------------------------ *)
(* Serving workloads.                                                   *)

(* The three tenants of bench/main.ml's serving leg, rebuilt from the
   public API so the response digest is comparable with the committed
   BENCH_serving.json fingerprint. *)
let tenants () =
  let node ?(instances = 1) ?(language = Workflow.Rust) ?(modules = []) id =
    { Workflow.node_id = id; language; instances; required_modules = modules }
  in
  (* Distinct instruction streams per image, so the admission cache
     scans each image once and hits afterwards. *)
  let image name =
    let salt = Hashtbl.hash name in
    Isa.Image.create ~name ~toolchain:Isa.Image.Rust_as_std
      (Isa.Inst.Mov_imm (Int32.of_int (salt land 0xffff))
      :: List.init 160 (fun i ->
             if i mod 5 = 0 then Isa.Inst.Mov_imm (Int32.of_int i) else Isa.Inst.Add))
  in
  let payload = Bytes.make (32 * 1024) 'd' in
  let produce slot ms (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.compute ctx (Units.ms ms);
    ignore (Asbuffer.with_slot_raw ctx ~slot payload)
  in
  let consume slot ms (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    ignore (Asbuffer.consume_slot_raw ctx ~slot);
    Asstd.compute ctx (Units.ms ms)
  in
  let compute ms (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.compute ctx (Units.ms ms) in
  [
    ( "thumb",
      Workflow.create_exn ~name:"thumb"
        ~nodes:[ node ~modules:[ "fdtab" ] "extract"; node "render" ]
        ~edges:[ ("extract", "render") ],
      [
        ("extract", Visor.bind ~image:(image "extract") (produce "thumb" 6));
        ("render", Visor.bind ~image:(image "render") (consume "thumb" 8));
      ] );
    ( "etl",
      Workflow.create_exn ~name:"etl" ~nodes:[ node ~instances:8 ~modules:[ "mm" ] "shard" ] ~edges:[],
      [ ("shard", Visor.bind ~image:(image "shard") (compute 12)) ] );
    ( "mlinf",
      Workflow.create_exn ~name:"mlinf" ~nodes:[ node ~language:Workflow.Python "infer" ] ~edges:[],
      [ ("infer", Visor.bind ~image:(image "infer") (compute 10)) ] );
  ]

type serve_cfg = { warm : bool; qps : float; serve_domains : int; requests : int }

let sample_every = 64

(* Append one response in bench/main.ml's fingerprint format:
   endpoint,arrival_ns,finish_ns,warm,ok,attempts,retries joined by ';'. *)
let add_response buf (p : Visor.Server.response) =
  if Buffer.length buf > 0 then Buffer.add_char buf ';';
  Buffer.add_string buf p.Visor.Server.r_endpoint;
  Buffer.add_char buf ',';
  Buffer.add_string buf (Int64.to_string (Units.to_ns p.Visor.Server.r_arrival));
  Buffer.add_char buf ',';
  Buffer.add_string buf (Int64.to_string (Units.to_ns p.Visor.Server.r_finish));
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_bool p.Visor.Server.r_warm);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_bool p.Visor.Server.r_ok);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int p.Visor.Server.r_attempts);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int p.Visor.Server.r_retries)

let serve_rep cfg ~seed ~domains ~traced =
  let t0 = start_rep () in
  Par.set_domains domains;
  Trace.clear Trace.global;
  Span.clear Span.global;
  Metrics.reset ();
  Metrics.set_raw_sample_every ~seed sample_every;
  let server =
    Visor.Server.create ~warm:cfg.warm ~sample_every ~sample_seed:seed ~sketch_latency:true ()
  in
  let specs = tenants () in
  List.iter
    (fun (endpoint, workflow, bindings) -> Visor.Server.register server ~endpoint ~workflow ~bindings ())
    specs;
  let endpoints = Array.of_list (List.map (fun (e, _, _) -> e) specs) in
  let gen = Loadgen.request_stream ~seed ~qps:cfg.qps ~endpoints ~count:cfg.requests () in
  let pull () =
    match gen () with
    | None -> None
    | Some (endpoint, arrival) -> Some { Visor.Server.endpoint; arrival }
  in
  let fp = Buffer.create (cfg.requests * 48) in
  let n_ok = ref 0 and n_failed = ref 0 in
  let fold () (p : Visor.Server.response) =
    if p.Visor.Server.r_ok then incr n_ok else incr n_failed;
    add_response fp p
  in
  let next, f =
    if traced then
      ((fun () -> timed "loadgen.pull.ms" pull), fun () p -> timed "bench.fold.ms" (fun () -> fold () p))
    else (pull, fold)
  in
  let setup_s = now () -. t0 in
  begin_trace ~traced;
  let counters0 = Stats.counters () in
  let ((), s), cost = interval ~traced (fun () -> Visor.Server.serve_fold server next ~init:() ~f) in
  Visor.Server.shutdown server;
  Par.set_domains 1;
  let ops = !n_ok + !n_failed in
  if ops <> cfg.requests || s.Visor.Server.sm_completed <> !n_ok || s.Visor.Server.sm_failed <> !n_failed
  then
    fail "serve: %d requests generated but %d responses folded (%d ok, %d failed), summary %d + %d"
      cfg.requests ops !n_ok !n_failed s.Visor.Server.sm_completed s.Visor.Server.sm_failed;
  let virt =
    Printf.sprintf "digest=%s completed=%d failed=%d p50_ns=%Ld p99_ns=%Ld rps=%.6f max_inflight=%d"
      (Digest.to_hex (Digest.string (Buffer.contents fp)))
      s.Visor.Server.sm_completed s.Visor.Server.sm_failed
      (Units.to_ns s.Visor.Server.sm_p50_latency)
      (Units.to_ns s.Visor.Server.sm_p99_latency)
      s.Visor.Server.sm_throughput_rps s.Visor.Server.sm_max_inflight
  in
  let layers =
    if not traced then []
    else
      let hits = float_of_int s.Visor.Server.sm_adm_hits in
      let extra =
        [
          ("admission.hit_ratio", ratio hits (hits +. float_of_int s.Visor.Server.sm_adm_scans));
          ("visor.max_inflight", float_of_int s.Visor.Server.sm_max_inflight);
        ]
      in
      layer_metrics ~cost ~domains ~ops ~counters0 ~extra
        ~serial:[ "serve.prologue.ms"; "serve.merge.ms"; "loadgen.pull.ms" ]
        ~parallel:[ "serve.trajectory.ms" ]
  in
  { setup_s = setup_s *. cost.scaled_wall /. cost.wall; intervals = [ cost ]; ops; failed = !n_failed; virt; layers }

(* ------------------------------------------------------------------ *)
(* paper-grid: the Fig. 12/13 workflows at the bench's --quick sizes,
   one platform per intermediate-data transport.                       *)

let grid_platforms =
  [
    ("alloystack", As_platform.alloystack);  (* AsBuffer reference passing *)
    ("faastlane", Faastlane.ipc);  (* Hostos.Pipe *)
    ("openfaas-warm", Openfaas.openfaas_warm);  (* Netsim.Redis over Tcp *)
  ]

let grid_apps ~seed =
  let size mib = max 4096 (mib * 1024 * 1024 / 16) in
  let s k = (seed * 16) + k in
  [
    ("wordcount", "10MB x1", fun () -> Wordcount.app ~seed:(s 0) ~size:(size 10) ~instances:1);
    ("wordcount", "100MB x3", fun () -> Wordcount.app ~seed:(s 1) ~size:(size 100) ~instances:3);
    ("wordcount", "300MB x5", fun () -> Wordcount.app ~seed:(s 2) ~size:(size 300) ~instances:5);
    ("parallel_sorting", "1MB x1", fun () -> Parallel_sorting.app ~seed:(s 3) ~size:(size 1) ~instances:1);
    ("parallel_sorting", "25MB x3", fun () -> Parallel_sorting.app ~seed:(s 4) ~size:(size 25) ~instances:3);
    ("parallel_sorting", "50MB x5", fun () -> Parallel_sorting.app ~seed:(s 5) ~size:(size 50) ~instances:5);
    ("function_chain", "1MB len5", fun () -> Function_chain.app ~seed:(s 6) ~payload:(size 1) ~length:5);
    ("function_chain", "64MB len10", fun () -> Function_chain.app ~seed:(s 7) ~payload:(size 64) ~length:10);
    ("function_chain", "256MB len15", fun () -> Function_chain.app ~seed:(s 8) ~payload:(size 256) ~length:15);
  ]

(* Time an app's kernels and the Fctx calls they make from outside:
   [p.kernel.k.ms] includes the kernel's Fctx calls, [p.kernel.k.fctx.ms]
   is those calls alone. *)
let instrument ~p ~kind (app : Fctx.app) =
  let k = p ^ ".kernel." ^ kind in
  let call name f = timed (k ^ ".fctx.ms") (fun () -> timed_words name f) in
  let wrap (c : Fctx.t) =
    {
      c with
      Fctx.read_input = (fun path -> call (p ^ ".read_input") (fun () -> c.Fctx.read_input path));
      write_output = (fun path b -> call (p ^ ".write_output") (fun () -> c.Fctx.write_output path b));
      send = (fun ~slot b -> call (p ^ ".send") (fun () -> c.Fctx.send ~slot b));
      recv = (fun ~slot -> call (p ^ ".recv") (fun () -> c.Fctx.recv ~slot));
    }
  in
  {
    app with
    Fctx.stages =
      List.map (fun (name, n, kernel) -> (name, n, fun c -> timed (k ^ ".ms") (fun () -> kernel (wrap c)))) app.Fctx.stages;
  }

let grid_rep ~seed ~traced =
  let t0 = start_rep () in
  Par.set_domains 1;
  let apps = List.map (fun (kind, label, make) -> (kind, label, make ())) (grid_apps ~seed) in
  let setup_s = now () -. t0 in
  let cells = ref [] and n_failed = ref 0 in
  let run_cell (kind, label, app) (p, (plat : Platform.t)) =
    let m =
      if traced then timed (p ^ ".run.ms") (fun () -> plat.Platform.run (instrument ~p ~kind app))
      else plat.Platform.run app
    in
    let fold () =
      (match Platform.check_validated m with
      | () -> ()
      | exception Failure msg ->
          incr n_failed;
          Printf.eprintf "perfbench: %s on %s failed validation: %s\n%!" label p msg);
      cells := Printf.sprintf "%s,%s,%Ld" p label (Units.to_ns m.Platform.e2e) :: !cells
    in
    if traced then timed "bench.fold.ms" fold else fold ()
  in
  (* Closed loop: one workflow at a time, each cell its own timed
     interval between yardstick readings. *)
  let work = List.concat_map (fun a -> List.map (fun p -> (a, p)) grid_platforms) apps in
  begin_trace ~traced;
  let counters0 = Stats.counters () in
  let intervals = List.map (fun (a, p) -> snd (interval ~traced (fun () -> run_cell a p))) work in
  let cost = total intervals in
  let ops = List.length work in
  let cells = List.rev !cells in
  let virt =
    Printf.sprintf "digest=%s cells=%d failed=%d e2e_ns=[%s]"
      (Digest.to_hex (Digest.string (String.concat ";" cells)))
      ops !n_failed
      (String.concat " " (List.map (fun c -> List.nth (String.split_on_char ',' c) 2) cells))
  in
  let layers =
    if not traced then []
    else
      layer_metrics ~cost ~domains:1 ~ops ~counters0
        ~extra:[ ("admission.hit_ratio", 0.0); ("visor.max_inflight", 0.0) ]
        ~serial:(List.map (fun p -> p ^ ".run.ms") platform_keys @ [ "bench.fold.ms" ])
        ~parallel:[]
  in
  { setup_s = setup_s *. cost.scaled_wall /. cost.wall; intervals; ops; failed = !n_failed; virt; layers }

(* ------------------------------------------------------------------ *)
(* Driver.                                                               *)

let steady = { warm = true; qps = 300.0; serve_domains = 1; requests = 20_000 }
let surge = { warm = false; qps = 900.0; serve_domains = 2; requests = 20_000 }

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--yardstick" then yardstick_child ();
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let requests = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve-steady | serve-surge | paper-grid");
      ("--seed", Arg.Set_int seed, "workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "host seconds to keep repeating reps");
      ("--trace", Arg.Set_int trace, "1: per-layer traced run");
      ("--requests", Arg.Set_int requests, "requests per serve-* rep (default 20000)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let traced_run = !trace = 1 in
  let cores = Domain.recommended_domain_count () in
  let with_requests cfg = if !requests > 0 then { cfg with requests = !requests } else cfg in
  let rep, domains, reference =
    match !workload with
    | "serve-steady" ->
        let cfg = with_requests steady in
        ((fun ~traced -> serve_rep cfg ~seed:!seed ~domains:cfg.serve_domains ~traced), cfg.serve_domains, None)
    | "serve-surge" ->
        if cores < 2 then
          fail "serve-surge measures 2 host domains and this host has %d core; refusing to report a degenerate number" cores;
        let cfg = with_requests surge in
        ( (fun ~traced -> serve_rep cfg ~seed:!seed ~domains:cfg.serve_domains ~traced),
          cfg.serve_domains,
          (* The same requests on one domain: the parallel server must
             reproduce it byte for byte. *)
          Some (fun () -> serve_rep cfg ~seed:!seed ~domains:1 ~traced:false) )
    | "paper-grid" -> ((fun ~traced -> grid_rep ~seed:!seed ~traced), 1, None)
    | w -> fail "unknown workload %S (serve-steady, serve-surge, paper-grid)" w
  in
  workload_domains := domains;
  Printf.printf "machine: cores=%d domains=%d ocaml=%s os=%s word_size=%d\n%!" cores domains
    Sys.ocaml_version Sys.os_type Sys.word_size;
  let reference = Option.map (fun f -> f ()) reference in
  let start = now () in
  let reps = ref [] in
  while List.length !reps < (if traced_run then 2 else 1) || now () -. start < !seconds do
    let traced = traced_run && List.length !reps mod 2 = 1 in
    let r = rep ~traced in
    let c = total r.intervals in
    Printf.printf
      "rep %d%s: setup %.6f s, wall %.4f s (%.4f s raw), cpu %.4f s (%.4f s raw), yardstick %.4f s, %.1f words/op\n%!"
      (List.length !reps)
      (if traced then " (traced)" else "")
      r.setup_s c.scaled_wall c.wall c.scaled_cpu c.cpu c.yard
      (c.words /. float_of_int r.ops);
    reps := (traced, r) :: !reps
  done;
  let reps = List.rev !reps in
  let all = Option.to_list reference @ List.map snd reps in
  let virt = (List.hd all).virt in
  Printf.printf "virtual: %s\n" virt;
  (* Tracing, domain count and repetition are host-only: any virtual
     difference is a bug, and the run reports it loudly. *)
  List.iter
    (fun r ->
      if r.virt <> virt then
        fail "virtual output differs between reps%s:\n  %s\n  %s"
          (if traced_run then " (traced vs untraced)" else "") virt r.virt)
    all;
  let attempted = List.fold_left (fun a r -> a + r.ops) 0 all in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 all in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) reps in
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) reps in
  let med f rs = median (List.map f rs) in
  (* A timed phase of several intervals (paper-grid's cells) is summed
     from each interval's median over the reps. *)
  let med_sum f rs =
    match rs with
    | [] -> 0.0
    | r0 :: _ ->
        List.fold_left ( +. ) 0.0
          (List.mapi (fun i _ -> med (fun r -> f (List.nth r.intervals i)) rs) r0.intervals)
  in
  let metrics =
    if not traced_run then
      [
        ("wall_s", med_sum (fun c -> c.scaled_wall) untraced);
        ("cpu_s", med_sum (fun c -> c.scaled_cpu) untraced);
        ("setup_s", med (fun r -> r.setup_s) untraced);
        ("alloc_words_per_op", med (fun r -> (total r.intervals).words /. float_of_int r.ops) untraced);
        ( "peak_heap_mb",
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
        ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
      ]
    else begin
      let names = List.map fst (List.hd traced).layers in
      let layers = List.map (fun name -> (name, med (fun r -> List.assoc name r.layers) traced)) names in
      let wall_ms = med (fun r -> (total r.intervals).scaled_wall) traced *. 1e3 in
      let t =
        Table.create
          ~title:
            (Printf.sprintf "Per-layer host cost: %s, median of %d traced reps, %.1f ms traced wall"
               !workload (List.length traced) wall_ms)
          ~columns:[ "metric"; "value" ]
      in
      List.iter (fun (name, v) -> Table.add_row t [ name; Printf.sprintf "%.4f" v ]) layers;
      Table.print t;
      Printf.printf "named layers cover %.1f%% of the traced wall on %d domain(s)\n"
        (100.0 *. (1.0 -. (List.assoc "unattributed.ms" layers /. wall_ms)))
        domains;
      layers
      @ [
          ( "trace.overhead_ratio",
            med (fun r -> (total r.intervals).scaled_wall) traced /. med (fun r -> (total r.intervals).scaled_wall) untraced );
        ]
    end
  in
  let correct = failed = 0 in
  print_endline
    ("result: "
    ^ Jsonlite.to_string
        (Jsonlite.Obj
           [
             ("workload", Jsonlite.String !workload);
             ("seed", Jsonlite.Int !seed);
             ("trace", Jsonlite.Int !trace);
             ( "machine",
               Jsonlite.Obj
                 [
                   ("cores", Jsonlite.Int cores);
                   ("domains", Jsonlite.Int domains);
                   ("ocaml", Jsonlite.String Sys.ocaml_version);
                 ] );
             ("reps", Jsonlite.Int (List.length reps));
             ( "unscaled_medians",
               Jsonlite.Obj
                 [
                   ("wall_s", Jsonlite.Float (med (fun (_, r) -> (total r.intervals).wall) reps));
                   ("cpu_s", Jsonlite.Float (med (fun (_, r) -> (total r.intervals).cpu) reps));
                   ("yardstick_s", Jsonlite.Float (med (fun (_, r) -> (total r.intervals).yard) reps));
                 ] );
             ("virtual", Jsonlite.String virt);
             ("correct", Jsonlite.Bool correct);
             ("attempted", Jsonlite.Int attempted);
             ("failed", Jsonlite.Int failed);
             ("metrics", Jsonlite.Obj (List.map (fun (k, v) -> (k, Jsonlite.Float v)) metrics));
           ]));
  if not correct then exit 1
