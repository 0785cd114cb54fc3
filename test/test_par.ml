(* Tests for Sim.Par, the host domain pool: virtual-time outputs must
   be bit-identical whatever the domain count, shared caches must stay
   coherent under concurrent clients, and recycled objects must never
   leak state.  Domain counts deliberately exceed the machine's cores — the
   determinism contract is independent of physical parallelism. *)

open Sim
open Alloystack_core

let with_domains n f =
  Par.set_domains n;
  Fun.protect ~finally:(fun () -> Par.set_domains 1) f

let reset_observability () =
  Trace.clear Trace.global;
  Span.clear Span.global;
  Metrics.reset ()

(* --- Par.run ordering and error routing --------------------------- *)

let test_run_submission_order () =
  with_domains 8 (fun () ->
      let results = Par.run (Array.init 64 (fun i () -> i * i)) in
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
        results)

let test_run_first_error_wins () =
  (* Whatever domain finishes first, the exception that escapes is the
     lowest submission index's. *)
  with_domains 8 (fun () ->
      let task i () = if i mod 3 = 0 && i > 0 then failwith (string_of_int i) else i in
      match Par.run (Array.init 32 (fun i -> task i)) with
      | _ -> Alcotest.fail "expected a failure"
      | exception Failure msg -> Alcotest.(check string) "lowest index" "3" msg)

(* --- Sim.Pool: cap, LIFO reuse and the domain rules of both flavours *)

let test_give_past_cap () =
  let p = Pool.per_domain ~cap:2 () in
  Alcotest.(check bool) "first kept" true (Pool.give p "a");
  Alcotest.(check bool) "second kept" true (Pool.give p "b");
  Alcotest.(check bool) "past the cap refused" false (Pool.give p "c");
  Alcotest.(check (list string)) "refused object not kept" [ "b"; "a" ] (Pool.drain p);
  Alcotest.(check (list string)) "drained" [] (Pool.drain p);
  let none = Pool.shared ~cap:0 () in
  Alcotest.(check bool) "cap 0 keeps nothing" false (Pool.give none 1);
  Alcotest.(check (option int)) "cap 0 stays empty" None (Pool.take_opt none);
  match Pool.shared ~cap:(-1) () with
  | (_ : int Pool.t) -> Alcotest.fail "negative cap must be rejected"
  | exception Invalid_argument _ -> ()

let test_reuse_is_lifo () =
  List.iter
    (fun (label, p) ->
      List.iter (fun x -> ignore (Pool.give p x)) [ 1; 2; 3 ];
      let fresh () = 0 in
      let taken = List.init 4 (fun _ -> Pool.take p ~fresh) in
      Alcotest.(check (list int)) (label ^ ": most recent first, then fresh")
        [ 3; 2; 1; 0 ] taken)
    [ ("per-domain", Pool.per_domain ~cap:8 ()); ("shared", Pool.shared ~cap:8 ()) ]

let test_per_domain_isolated () =
  let p = Pool.per_domain ~cap:8 () in
  ignore (Pool.give p "main");
  let seen, gave =
    Domain.join
      (Domain.spawn (fun () ->
           let seen = Pool.take_opt p in
           (seen, Pool.give p "worker")))
  in
  Alcotest.(check (option string)) "other domain sees none of ours" None seen;
  Alcotest.(check bool) "other domain pools its own" true gave;
  Alcotest.(check (list string)) "ours untouched by the other domain" [ "main" ]
    (Pool.drain p)

let test_shared_cross_domain_release () =
  let p = Pool.shared ~cap:8 () in
  let obj = Pool.take p ~fresh:(fun () -> Bytes.create 16) in
  let kept = Domain.join (Domain.spawn (fun () -> Pool.give p obj)) in
  Alcotest.(check bool) "release from another domain accepted" true kept;
  match Pool.take_opt p with
  | Some b -> Alcotest.(check bool) "same object comes back" true (b == obj)
  | None -> Alcotest.fail "released object missing"

(* --- Compile cache under concurrent clients ----------------------- *)

let test_compile_cache_stress () =
  (* 16 tasks over 8 domains race to load the same module through one
     shared cache: exactly one compile happens, everyone else hits, and
     per-load virtual time is charged identically regardless. *)
  let big =
    let chunk i =
      [ Wasm.Builder.const i; Wasm.Builder.const (i + 1); Wasm.Builder.add;
        Wasm.Instr.Drop ]
    in
    let body = List.concat (List.init 400 chunk) @ [ Wasm.Builder.const 0 ] in
    Wasm.Wmodule.create ~name:"stress" ~exports:[ ("f", 0) ]
      [ Wasm.Builder.func ~name:"f" body ]
  in
  let profile = Wasm.Runtime.wasmtime in
  let cache = Wasm.Compile_cache.create () in
  let load () =
    let clock = Clock.create () in
    ignore (Wasm.Runtime.load ~cache profile ~clock big);
    Clock.now clock
  in
  let times = with_domains 8 (fun () -> Par.run (Array.make 16 load)) in
  Alcotest.(check int) "one compile" 1 (Wasm.Compile_cache.miss_count cache);
  Alcotest.(check int) "the rest hit" 15 (Wasm.Compile_cache.hit_count cache);
  Array.iter
    (fun t ->
      Alcotest.(check bool) "virtual load time identical" true
        (Units.equal t times.(0)))
    times

(* --- Serving determinism across domain counts --------------------- *)

let node ?(instances = 1) ?(language = Workflow.Rust) ?(modules = []) id =
  { Workflow.node_id = id; language; instances; required_modules = modules }

let endpoints_spec =
  let chain_wf =
    Workflow.create_exn ~name:"chain"
      ~nodes:[ node ~modules:[ "fdtab" ] "a"; node "b" ]
      ~edges:[ ("a", "b") ]
  in
  let fan_wf =
    Workflow.create_exn ~name:"fan" ~nodes:[ node ~instances:6 "f" ] ~edges:[]
  in
  let py_wf =
    Workflow.create_exn ~name:"py" ~nodes:[ node ~language:Workflow.Python "p" ] ~edges:[]
  in
  let io_kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.write_whole_file ctx "/t" (Bytes.make 8192 'x');
    Asstd.compute ctx (Units.ms 3);
    ignore (Asstd.read_whole_file ctx "/t")
  in
  let compute_kernel ms (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.compute ctx (Units.ms ms)
  in
  [
    ("chain", chain_wf,
     [ ("a", Visor.bind io_kernel); ("b", Visor.bind (compute_kernel 4)) ]);
    ("fan", fan_wf, [ ("f", Visor.bind (compute_kernel 5)) ]);
    ("py", py_wf, [ ("p", Visor.bind (compute_kernel 4)) ]);
  ]

let requests_for ~seed ~count =
  let rng = Rng.create seed in
  let eps = Array.of_list (List.map (fun (e, _, _) -> e) endpoints_spec) in
  let t = ref 0.0 in
  List.init count (fun _ ->
      t := !t +. Rng.exponential rng ~mean:(1.0 /. 700.0);
      { Visor.Server.endpoint = Rng.pick rng eps; arrival = Units.ns_f (!t *. 1e9) })

let serve_once ?config ~requests () =
  let server = Visor.Server.create ?config () in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    endpoints_spec;
  let r = Serve_list.serve server requests in
  Visor.Server.shutdown server;
  r

let fingerprint ((responses, _) : Visor.Server.response list * Visor.Server.summary) =
  String.concat ";"
    (List.map
       (fun (p : Visor.Server.response) ->
         Printf.sprintf "%s,%Ld,%Ld,%b,%b,%d,%d" p.Visor.Server.r_endpoint
           (Units.to_ns p.Visor.Server.r_arrival)
           (Units.to_ns p.Visor.Server.r_finish)
           p.Visor.Server.r_warm p.Visor.Server.r_ok p.Visor.Server.r_attempts
           p.Visor.Server.r_retries)
       responses)

let summary ((_, s) : Visor.Server.response list * Visor.Server.summary) =
  Printf.sprintf "%d/%d w%d c%d h%d s%d e%d rss%d infl%d" s.Visor.Server.sm_completed
    s.Visor.Server.sm_failed s.Visor.Server.sm_warm_starts s.Visor.Server.sm_cold_starts
    s.Visor.Server.sm_adm_hits s.Visor.Server.sm_adm_scans s.Visor.Server.sm_evictions
    s.Visor.Server.sm_machine_peak_rss s.Visor.Server.sm_max_inflight

let test_serve_identical_across_domains () =
  (* The full observable surface — responses, counters, span tree,
     trace and metrics exports — at 1, 2 and 8 domains. *)
  let requests = requests_for ~seed:7 ~count:60 in
  let observe domains =
    with_domains domains (fun () ->
        reset_observability ();
        Span.set_enabled Span.global true;
        let r = serve_once ~requests () in
        let tr = Obs.trace_json_string () in
        let me = Obs.metrics_json_string () in
        Span.set_enabled Span.global false;
        reset_observability ();
        (fingerprint r ^ "|" ^ summary r, tr, me))
  in
  let base_fp, base_tr, base_me = observe 1 in
  List.iter
    (fun d ->
      let fp, tr, me = observe d in
      Alcotest.(check string) (Printf.sprintf "responses at %d domains" d) base_fp fp;
      Alcotest.(check string) (Printf.sprintf "trace export at %d domains" d) base_tr tr;
      Alcotest.(check string) (Printf.sprintf "metrics export at %d domains" d) base_me me)
    [ 2; 8 ]

let test_chaos_identical_across_domains () =
  (* Same fault seed, retries enabled: crash/hang scheduling, retry
     counts and fault accounting must not depend on the domain count. *)
  let requests = requests_for ~seed:11 ~count:40 in
  let run domains =
    with_domains domains (fun () ->
        let plan = Fault.create ~seed:5 () in
        Fault.inject plan ~site:Fault.site_fn_crash (Fault.Every 7);
        Fault.inject plan ~site:Fault.site_vfs_write (Fault.Every 9);
        let config =
          {
            Visor.default_config with
            Visor.fault = Some plan;
            retry = Visor.Retry_workflow 3;
          }
        in
        let r = serve_once ~config ~requests () in
        Printf.sprintf "%s|%s|crash%d vfs%d" (fingerprint r) (summary r)
          (Fault.fired plan ~site:Fault.site_fn_crash)
          (Fault.fired plan ~site:Fault.site_vfs_write))
  in
  let base = run 1 in
  List.iter
    (fun d ->
      Alcotest.(check string) (Printf.sprintf "chaos at %d domains" d) base (run d))
    [ 2; 8 ]

let test_seeded_stress_across_domains () =
  (* 20 seeded traces, domain count far above the machine's cores: each
     seed's parallel serve must replay its sequential serve exactly,
     and no WFDs may leak. *)
  let live0 = Wfd.live_count () in
  for seed = 0 to 19 do
    let requests = requests_for ~seed ~count:25 in
    let sequential = serve_once ~requests () in
    let parallel = with_domains 8 (fun () -> serve_once ~requests ()) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d" seed)
      (fingerprint sequential ^ "|" ^ summary sequential)
      (fingerprint parallel ^ "|" ^ summary parallel)
  done;
  Alcotest.(check int) "no WFD leak" live0 (Wfd.live_count ())

let observe_serve ~requests ~domains ?config () =
  with_domains domains (fun () ->
      reset_observability ();
      Span.set_enabled Span.global true;
      let r = serve_once ?config ~requests () in
      let tr = Obs.trace_json_string () in
      let me = Obs.metrics_json_string () in
      Span.set_enabled Span.global false;
      reset_observability ();
      fingerprint r ^ "|" ^ summary r ^ "||" ^ tr ^ "||" ^ me)

let test_serve_identical_1_vs_4_domains () =
  (* The full observable surface on one domain and on four. *)
  let requests = requests_for ~seed:13 ~count:60 in
  Alcotest.(check string) "one vs four domains"
    (observe_serve ~requests ~domains:1 ())
    (observe_serve ~requests ~domains:4 ())

let test_pools_scrubbed_after_chaos () =
  (* Reset-discipline under crashes: a chaos leg (crashing functions,
     failing writes, workflow retries) leaves every per-request pool —
     collector shards, fault children, process tables, recycled shells
     — full of crashed-request state.  A clean run after it must be
     byte-identical to the clean run before it, spans and trace and
     metrics exports included: nothing stale may leak out of a pool. *)
  let requests = requests_for ~seed:17 ~count:50 in
  let before = observe_serve ~requests ~domains:4 () in
  with_domains 4 (fun () ->
      let chaos = requests_for ~seed:23 ~count:60 in
      let plan = Fault.create ~seed:3 () in
      Fault.inject plan ~site:Fault.site_fn_crash (Fault.Every 3);
      Fault.inject plan ~site:Fault.site_vfs_write (Fault.Every 5);
      let config =
        {
          Visor.default_config with
          Visor.fault = Some plan;
          retry = Visor.Retry_workflow 3;
        }
      in
      ignore (serve_once ~config ~requests:chaos ()));
  let after = observe_serve ~requests ~domains:4 () in
  Alcotest.(check string) "recycled pools leak no chaos state" before after

(* --- Hotspot allocation accounting --------------------------------- *)

let test_hotspot_allocation_accounting () =
  (* One outer section around a whole (single-domain) serve must charge
     the same words the GC reports for the run, to within the harness's
     own allocation between the two measurement points — and profiling
     must not change a virtual byte. *)
  let requests = requests_for ~seed:29 ~count:40 in
  let baseline = fingerprint (serve_once ~requests ()) in
  Hotspot.reset ();
  Hotspot.set_enabled true;
  let a0 = Gc.allocated_bytes () in
  let r =
    Fun.protect
      ~finally:(fun () -> Hotspot.set_enabled false)
      (fun () -> Hotspot.with_section "test.total" (fun () -> serve_once ~requests ()))
  in
  let gc_words = (Gc.allocated_bytes () -. a0) /. 8.0 in
  Alcotest.(check string) "profiling leaves responses untouched" baseline
    (fingerprint r);
  let entry =
    List.find
      (fun (e : Hotspot.entry) -> String.equal e.Hotspot.hs_name "test.total")
      (Hotspot.snapshot ())
  in
  let section_words = Hotspot.entry_words entry in
  let diff = Float.abs (gc_words -. section_words) in
  let tolerance = Float.max 10_000.0 (0.01 *. gc_words) in
  if diff > tolerance then
    Alcotest.failf
      "hotspot words (%.0f) vs GC allocated words (%.0f): diff %.0f exceeds %.0f"
      section_words gc_words diff tolerance;
  Alcotest.(check bool) "a serve allocates something" true (gc_words > 0.0);
  Alcotest.(check bool) "minor + major split covers the total" true
    (Float.abs
       (entry.Hotspot.hs_minor_words +. entry.Hotspot.hs_major_words
      -. section_words)
    < 1.0)

(* --- run_many ------------------------------------------------------ *)

let test_run_many_identical () =
  let wf =
    Workflow.create_exn ~name:"many"
      ~nodes:[ node ~instances:3 "f" ]
      ~edges:[]
  in
  let bindings =
    [
      ( "f",
        Visor.bind (fun (ctx : Asstd.ctx) ~instance ~total:_ ->
            Asstd.compute ctx (Units.ms (2 + instance))) );
    ]
  in
  let run domains =
    with_domains domains (fun () ->
        Visor.run_many ~workflow:wf ~bindings ~repeat:12 ())
  in
  let live0 = Wfd.live_count () in
  let seq = run 1 in
  let par = run 8 in
  Alcotest.(check int) "all repeats" 12 (Array.length par);
  Alcotest.(check bool) "reports identical across domain counts" true (seq = par);
  Array.iter
    (fun (r : Visor.report) ->
      Alcotest.(check bool) "repeat replays repeat 0" true (r = seq.(0)))
    seq;
  Alcotest.(check int) "no WFD leak" live0 (Wfd.live_count ())

let suite =
  [
    Alcotest.test_case "Par.run keeps submission order" `Quick test_run_submission_order;
    Alcotest.test_case "Par.run re-raises lowest-index error" `Quick
      test_run_first_error_wins;
    Alcotest.test_case "Pool: give past the cap" `Quick test_give_past_cap;
    Alcotest.test_case "Pool: reuse is LIFO" `Quick test_reuse_is_lifo;
    Alcotest.test_case "Pool: per-domain pools are isolated" `Quick
      test_per_domain_isolated;
    Alcotest.test_case "Pool: shared pool takes cross-domain releases" `Quick
      test_shared_cross_domain_release;
    Alcotest.test_case "compile cache: 1 compile, 15 hits" `Quick
      test_compile_cache_stress;
    Alcotest.test_case "serve identical at 1/2/8 domains" `Quick
      test_serve_identical_across_domains;
    Alcotest.test_case "chaos identical across domains" `Quick
      test_chaos_identical_across_domains;
    Alcotest.test_case "serve identical on one vs four domains" `Quick
      test_serve_identical_1_vs_4_domains;
    Alcotest.test_case "pools scrubbed after chaos" `Quick
      test_pools_scrubbed_after_chaos;
    Alcotest.test_case "hotspot words match GC accounting" `Quick
      test_hotspot_allocation_accounting;
    Alcotest.test_case "20 seeds, domains > cores" `Slow
      test_seeded_stress_across_domains;
    Alcotest.test_case "run_many identical across domains" `Quick
      test_run_many_identical;
  ]
