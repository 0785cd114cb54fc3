(* Tests for Visor.Server: the warm template pool, admission cache,
   concurrent serving over shared cores, LRU eviction and WFD
   hygiene. *)

open Sim
open Alloystack_core

let check_time = Alcotest.testable Units.pp Units.equal

let node ?(instances = 1) ?(language = Workflow.Rust) ?(modules = []) id =
  { Workflow.node_id = id; language; instances; required_modules = modules }

let compute_wf ms =
  Workflow.create_exn ~name:(Printf.sprintf "compute%d" ms)
    ~nodes:[ node "f" ] ~edges:[]

let compute_bindings ms =
  [ ("f", Visor.bind (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
         Asstd.compute ctx (Units.ms ms))) ]

let req ?(endpoint = "e") at_ms = { Visor.Server.endpoint; arrival = Units.ms at_ms }

let serve_simple ?config ?pool_mem_cap ?warm ~requests () =
  let server = Visor.Server.create ?config ?pool_mem_cap ?warm () in
  Visor.Server.register server ~endpoint:"e" ~workflow:(compute_wf 10)
    ~bindings:(compute_bindings 10) ();
  let r = Serve_list.serve server requests in
  Visor.Server.shutdown server;
  r

let test_warm_start_beats_cold () =
  (* One prewarmed request vs one cold request: the template clone path
     must be strictly cheaper end to end. *)
  let warm_server = Visor.Server.create () in
  Visor.Server.register warm_server ~endpoint:"e" ~workflow:(compute_wf 10)
    ~bindings:(compute_bindings 10) ();
  (match Visor.Server.prewarm warm_server ~endpoint:"e" with
  | Some t -> Alcotest.(check bool) "template build takes time" true (Units.( > ) t Units.zero)
  | None -> Alcotest.fail "prewarm must install a template");
  let warm = Serve_list.serve warm_server [ req 0 ] in
  Visor.Server.shutdown warm_server;
  let cold = serve_simple ~warm:false ~requests:[ req 0 ] () in
  let latency (responses, _) =
    match responses with
    | [ (resp : Visor.Server.response) ] -> resp.Visor.Server.r_latency
    | _ -> Alcotest.fail "expected one response"
  in
  Alcotest.(check int) "warm start" 1 (snd warm).Visor.Server.sm_warm_starts;
  Alcotest.(check int) "cold start" 1 (snd cold).Visor.Server.sm_cold_starts;
  Alcotest.(check bool)
    (Printf.sprintf "warm (%s) strictly below cold (%s)"
       (Units.to_string (latency warm))
       (Units.to_string (latency cold)))
    true
    (Units.( < ) (latency warm) (latency cold))

let test_first_request_seeds_pool () =
  (* Without an explicit prewarm, the first (cold) request installs the
     template so the rest of the burst starts warm. *)
  let _, s = serve_simple ~requests:(List.init 5 (fun i -> req (i * 40))) () in
  Alcotest.(check int) "one cold" 1 s.Visor.Server.sm_cold_starts;
  Alcotest.(check int) "rest warm" 4 s.Visor.Server.sm_warm_starts

let test_sustains_32_inflight () =
  (* An open-loop burst of 40 simultaneous arrivals: all are admitted
     and executing concurrently before the first completes. *)
  let _, s = serve_simple ~requests:(List.init 40 (fun _ -> req 0)) () in
  Alcotest.(check int) "all completed" 40 s.Visor.Server.sm_completed;
  Alcotest.(check bool)
    (Printf.sprintf "held >= 32 in flight (got %d)" s.Visor.Server.sm_max_inflight)
    true
    (s.Visor.Server.sm_max_inflight >= 32)

let test_stages_share_cores () =
  (* Two single-function 10ms workflows on a 1-core machine serialise;
     on 2 cores they overlap.  The shared scheduler pool is what makes
     in-flight workflows contend. *)
  let run cores =
    let config = { Visor.default_config with Visor.cores } in
    let _, s = serve_simple ~config ~requests:[ req 0; req 0 ] () in
    s.Visor.Server.sm_duration
  in
  let serial = run 1 and parallel = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "1 core (%s) ~2x of 2 cores (%s)" (Units.to_string serial)
       (Units.to_string parallel))
    true
    (Units.( >= ) serial (Units.add parallel (Units.ms 9)))

let test_lru_eviction_under_cap () =
  (* Cap the pool below two templates: warming a second endpoint must
     evict the least-recently-used first one. *)
  let probe = Visor.Server.create () in
  Visor.Server.register probe ~endpoint:"a" ~workflow:(compute_wf 1)
    ~bindings:(compute_bindings 1) ();
  ignore (Visor.Server.prewarm probe ~endpoint:"a");
  let one_template = Visor.Server.pool_rss probe in
  Visor.Server.shutdown probe;
  Alcotest.(check bool) "template has measurable rss" true (one_template > 0);
  let server = Visor.Server.create ~pool_mem_cap:(one_template * 3 / 2) () in
  List.iter
    (fun ep ->
      Visor.Server.register server ~endpoint:ep ~workflow:(compute_wf 1)
        ~bindings:(compute_bindings 1) ())
    [ "a"; "b" ];
  ignore (Visor.Server.prewarm server ~endpoint:"a");
  Alcotest.(check int) "one pooled" 1 (Visor.Server.pool_size server);
  ignore (Visor.Server.prewarm server ~endpoint:"b");
  Alcotest.(check int) "still one pooled" 1 (Visor.Server.pool_size server);
  Alcotest.(check int) "a evicted" 1 (Visor.Server.evictions server);
  Alcotest.(check bool) "pool stays under cap" true
    (Visor.Server.pool_rss server <= one_template * 3 / 2);
  (* Serving endpoint a again boots cold (its template was evicted). *)
  let _, s = Serve_list.serve server [ req ~endpoint:"a" 0 ] in
  Alcotest.(check int) "evicted endpoint boots cold" 1 s.Visor.Server.sm_cold_starts;
  Visor.Server.shutdown server

let test_admission_cache_across_requests () =
  let image =
    Isa.Image.create ~name:"img" ~toolchain:Isa.Image.Rust_as_std
      [ Isa.Inst.Mov_reg; Isa.Inst.Call "as_std_open"; Isa.Inst.Ret ]
  in
  let bindings =
    [ ("f", Visor.bind ~image (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
           Asstd.compute ctx (Units.ms 1))) ]
  in
  let server = Visor.Server.create () in
  Visor.Server.register server ~endpoint:"e" ~workflow:(compute_wf 1) ~bindings ();
  let _, s = Serve_list.serve server (List.init 6 (fun i -> req (i * 5))) in
  Visor.Server.shutdown server;
  Alcotest.(check int) "all served" 6 s.Visor.Server.sm_completed;
  Alcotest.(check int) "image scanned once" 1 s.Visor.Server.sm_adm_scans;
  Alcotest.(check int) "five cache hits" 5 s.Visor.Server.sm_adm_hits

let test_no_wfd_leak_across_serve () =
  (* Mixed success/failure traffic, then shutdown: every WFD (requests,
     retries and templates) must be reclaimed. *)
  let before = Wfd.live_count () in
  let failing =
    [ ("f", Visor.bind (fun (_ : Asstd.ctx) ~instance:_ ~total:_ -> failwith "boom")) ]
  in
  let config = { Visor.default_config with Visor.retry = Visor.Retry_workflow 2 } in
  let server = Visor.Server.create ~config () in
  Visor.Server.register server ~endpoint:"ok" ~workflow:(compute_wf 5)
    ~bindings:(compute_bindings 5) ();
  Visor.Server.register server ~endpoint:"bad" ~workflow:(compute_wf 5) ~bindings:failing ();
  let responses, s =
    Serve_list.serve server
      [ req ~endpoint:"ok" 0; req ~endpoint:"bad" 1; req ~endpoint:"ok" 2;
        req ~endpoint:"bad" 3 ]
  in
  Alcotest.(check int) "successes" 2 s.Visor.Server.sm_completed;
  Alcotest.(check int) "failures" 2 s.Visor.Server.sm_failed;
  let failed_resp =
    List.filter (fun (resp : Visor.Server.response) -> not resp.Visor.Server.r_ok)
      responses
  in
  List.iter
    (fun (resp : Visor.Server.response) ->
      Alcotest.(check int) "both workflow attempts consumed" 2
        resp.Visor.Server.r_attempts)
    failed_resp;
  Visor.Server.shutdown server;
  Alcotest.(check int) "all WFDs reclaimed" before (Wfd.live_count ())

let test_same_seed_bit_identical () =
  (* Identically seeded traces produce identical reports. *)
  let trace seed =
    let rng = Rng.create seed in
    let t = ref 0.0 in
    List.init 20 (fun _ ->
        t := !t +. Rng.exponential rng ~mean:0.002;
        { Visor.Server.endpoint = "e"; arrival = Units.ns_f (!t *. 1e9) })
  in
  let summarise (responses, (s : Visor.Server.summary)) =
    ( s.Visor.Server.sm_completed,
      s.Visor.Server.sm_max_inflight,
      List.map
        (fun (resp : Visor.Server.response) ->
          (resp.Visor.Server.r_endpoint, Units.to_ns resp.Visor.Server.r_latency,
           resp.Visor.Server.r_warm))
        responses )
  in
  let a = summarise (serve_simple ~requests:(trace 7) ()) in
  let b = summarise (serve_simple ~requests:(trace 7) ()) in
  Alcotest.(check bool) "identical runs" true (a = b);
  let c = summarise (serve_simple ~requests:(trace 8) ()) in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_unknown_endpoint_and_duplicates () =
  let server = Visor.Server.create () in
  Visor.Server.register server ~endpoint:"e" ~workflow:(compute_wf 1)
    ~bindings:(compute_bindings 1) ();
  (match Visor.Server.register server ~endpoint:"e" ~workflow:(compute_wf 1)
           ~bindings:(compute_bindings 1) () with
  | () -> Alcotest.fail "duplicate endpoint must be rejected"
  | exception Invalid_argument _ -> ());
  let unknown = "Visor.Server: unknown endpoint \"nope\"" in
  (match Serve_list.serve server [ req ~endpoint:"nope" 0 ] with
  | _ -> Alcotest.fail "unknown endpoint must raise"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "serve names the endpoint" unknown msg);
  (match Visor.Server.prewarm server ~endpoint:"nope" with
  | _ -> Alcotest.fail "prewarming an unknown endpoint must raise"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "prewarm names the endpoint" unknown msg);
  Alcotest.(check (list string)) "endpoints listed" [ "e" ]
    (Visor.Server.endpoints server);
  Visor.Server.shutdown server

let test_warm_python_resumes_runtime () =
  (* A Python endpoint's template carries the booted engine + CPython;
     the clone resumes instead of re-booting, which is where the warm
     pool pays off most (Fig. 10's AS-Py cold start). *)
  let wf =
    Workflow.create_exn ~name:"py" ~nodes:[ node ~language:Workflow.Python "f" ] ~edges:[]
  in
  let bindings = compute_bindings 1 in
  let run warm =
    let server = Visor.Server.create ~warm () in
    Visor.Server.register server ~endpoint:"py" ~workflow:wf ~bindings ();
    if warm then ignore (Visor.Server.prewarm server ~endpoint:"py");
    let responses, _ = Serve_list.serve server [ req ~endpoint:"py" 0 ] in
    Visor.Server.shutdown server;
    match responses with
    | [ resp ] -> resp.Visor.Server.r_latency
    | _ -> Alcotest.fail "one response expected"
  in
  let warm = run true and cold = run false in
  Alcotest.(check bool)
    (Printf.sprintf "python warm (%s) well below cold (%s)" (Units.to_string warm)
       (Units.to_string cold))
    true
    (* The cold path pays the full CPython boot; warm resumes it. *)
    (Units.( < ) (Units.add warm Wasm.Runtime.cpython_init) (Units.add cold (Units.ms 50)))

let test_serve_summary_percentiles () =
  let responses, s = serve_simple ~requests:(List.init 10 (fun i -> req (i * 30))) () in
  Alcotest.(check bool) "p50 <= p99" true
    (Units.( <= ) s.Visor.Server.sm_p50_latency s.Visor.Server.sm_p99_latency);
  Alcotest.(check bool) "throughput positive" true (s.Visor.Server.sm_throughput_rps > 0.0);
  Alcotest.check check_time "duration spans trace" s.Visor.Server.sm_duration
    (Units.sub
       (List.fold_left
          (fun acc (resp : Visor.Server.response) ->
            Units.max acc resp.Visor.Server.r_finish)
          Units.zero responses)
       Units.zero)

let test_admission_rejection_fails_request () =
  (* A request whose image admission rejects fails at its arrival
     instant without executing: zero latency, no attempt, no boot, and
     no request-latency observation. *)
  let bad =
    Isa.Image.create ~name:"bad" ~toolchain:Isa.Image.Rust_as_std [ Isa.Inst.Sysenter ]
  in
  let server = Visor.Server.create () in
  Visor.Server.register server ~endpoint:"ok" ~workflow:(compute_wf 2)
    ~bindings:(compute_bindings 2) ();
  Visor.Server.register server ~endpoint:"bad" ~workflow:(compute_wf 2)
    ~bindings:
      [ ("f", Visor.bind ~image:bad (fun (_ : Asstd.ctx) ~instance:_ ~total:_ -> ())) ]
    ();
  Metrics.reset ();
  let responses, s =
    Serve_list.serve server
      [ req ~endpoint:"ok" 0; req ~endpoint:"bad" 1; req ~endpoint:"ok" 2;
        req ~endpoint:"bad" 3 ]
  in
  Visor.Server.shutdown server;
  Alcotest.(check int) "completed" 2 s.Visor.Server.sm_completed;
  Alcotest.(check int) "failed" 2 s.Visor.Server.sm_failed;
  Alcotest.(check int) "only admitted requests boot" 2
    (s.Visor.Server.sm_warm_starts + s.Visor.Server.sm_cold_starts);
  List.iter
    (fun (r : Visor.Server.response) ->
      if r.Visor.Server.r_endpoint = "bad" then begin
        Alcotest.(check bool) "rejected is not ok" false r.Visor.Server.r_ok;
        Alcotest.check check_time "fails at arrival" r.Visor.Server.r_arrival
          r.Visor.Server.r_finish;
        Alcotest.(check int) "no attempt" 0 r.Visor.Server.r_attempts
      end)
    responses;
  Alcotest.(check int) "latency histogram counts executed requests" 2
    (Metrics.histogram_count (Metrics.histogram "server.request_latency_ns"));
  Metrics.reset ()

let suite =
  [
    Alcotest.test_case "warm start beats cold" `Quick test_warm_start_beats_cold;
    Alcotest.test_case "first request seeds pool" `Quick test_first_request_seeds_pool;
    Alcotest.test_case "sustains 32 in flight" `Quick test_sustains_32_inflight;
    Alcotest.test_case "stages share cores" `Quick test_stages_share_cores;
    Alcotest.test_case "LRU eviction under cap" `Quick test_lru_eviction_under_cap;
    Alcotest.test_case "admission cache across requests" `Quick
      test_admission_cache_across_requests;
    Alcotest.test_case "no wfd leak across serve" `Quick test_no_wfd_leak_across_serve;
    Alcotest.test_case "same seed bit identical" `Quick test_same_seed_bit_identical;
    Alcotest.test_case "unknown endpoint / duplicates" `Quick
      test_unknown_endpoint_and_duplicates;
    Alcotest.test_case "warm python resumes runtime" `Quick
      test_warm_python_resumes_runtime;
    Alcotest.test_case "serve report percentiles" `Quick test_serve_summary_percentiles;
    Alcotest.test_case "admission rejection fails the request" `Quick
      test_admission_rejection_fails_request;
  ]
