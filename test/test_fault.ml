(* Deterministic fault injection (Sim.Fault): plan semantics, the
   per-site wiring through the substrate, and seeded chaos runs that
   must replay bit-for-bit. *)

open Sim
open Alloystack_core

let check_time = Alcotest.testable Units.pp Units.equal

let node id =
  { Workflow.node_id = id; language = Workflow.Rust; instances = 1; required_modules = [] }

let single = Workflow.create_exn ~name:"w" ~nodes:[ node "f" ] ~edges:[]

(* --- plan semantics --- *)

let firing_pattern plan ~site ~checks =
  List.init checks (fun _ -> Fault.check plan ~site)

let test_same_seed_same_schedule () =
  let mk () =
    let plan = Fault.create ~seed:42 () in
    Fault.inject plan ~site:"a" (Fault.Probability 0.3);
    Fault.inject plan ~site:"b" (Fault.Probability 0.7);
    plan
  in
  let p1 = mk () and p2 = mk () in
  Alcotest.(check (list bool))
    "site a replays" (firing_pattern p1 ~site:"a" ~checks:50)
    (firing_pattern p2 ~site:"a" ~checks:50);
  Alcotest.(check (list bool))
    "site b replays" (firing_pattern p1 ~site:"b" ~checks:50)
    (firing_pattern p2 ~site:"b" ~checks:50);
  Alcotest.(check (list (pair string int)))
    "schedule digest equal" (Fault.schedule p1) (Fault.schedule p2)

let test_site_streams_independent () =
  (* Checking one site must not perturb another site's schedule: site
     [a] fires the same whether or not [b] is being hammered. *)
  let mk () =
    let plan = Fault.create ~seed:7 () in
    Fault.inject plan ~site:"a" (Fault.Probability 0.5);
    Fault.inject plan ~site:"b" (Fault.Probability 0.5);
    plan
  in
  let quiet = mk () in
  let noisy = mk () in
  let a_quiet = firing_pattern quiet ~site:"a" ~checks:40 in
  let a_noisy =
    List.init 40 (fun _ ->
        ignore (Fault.check noisy ~site:"b");
        ignore (Fault.check noisy ~site:"b");
        Fault.check noisy ~site:"a")
  in
  Alcotest.(check (list bool)) "a unaffected by b's checks" a_quiet a_noisy

let test_counting_triggers () =
  let plan = Fault.create ~seed:1 () in
  Fault.inject plan ~site:"nth" (Fault.Nth 3);
  Fault.inject plan ~site:"first" (Fault.First 2);
  Fault.inject plan ~site:"every" (Fault.Every 3);
  Fault.inject plan ~site:"always" ~max_fires:2 Fault.Always;
  let pat site = firing_pattern plan ~site ~checks:6 in
  Alcotest.(check (list bool)) "nth 3 fires once"
    [ false; false; true; false; false; false ] (pat "nth");
  Alcotest.(check (list bool)) "first 2"
    [ true; true; false; false; false; false ] (pat "first");
  Alcotest.(check (list bool)) "every 3"
    [ false; false; true; false; false; true ] (pat "every");
  Alcotest.(check (list bool)) "always capped at 2"
    [ true; true; false; false; false; false ] (pat "always");
  Alcotest.(check int) "occurrences counted" 6 (Fault.occurrences plan ~site:"nth");
  Alcotest.(check int) "fired counted" 2 (Fault.fired plan ~site:"always");
  Alcotest.(check int) "total" 7 (Fault.total_fired plan);
  Alcotest.(check bool) "unplanned site never fires" false (Fault.check plan ~site:"no-rule")

let test_inject_validates () =
  let plan = Fault.create ~seed:1 () in
  let invalid f = match f () with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  invalid (fun () -> Fault.inject plan ~site:"x" (Fault.Probability 1.5));
  invalid (fun () -> Fault.inject plan ~site:"x" (Fault.Nth 0));
  invalid (fun () -> Fault.inject plan ~site:"x" ~max_fires:0 Fault.Always)

let test_reset_replays () =
  let plan = Fault.create ~seed:99 () in
  Fault.inject plan ~site:"p" (Fault.Probability 0.4);
  let first = firing_pattern plan ~site:"p" ~checks:64 in
  Fault.reset plan;
  Alcotest.(check int) "counters cleared" 0 (Fault.occurrences plan ~site:"p");
  Alcotest.(check (list bool)) "identical replay after reset" first
    (firing_pattern plan ~site:"p" ~checks:64)

let test_fire_exn_and_trace () =
  let trace = Trace.create () in
  Trace.set_enabled trace true;
  let plan = Fault.create ~trace ~seed:5 () in
  Fault.inject plan ~site:"boom" (Fault.Nth 2);
  Fault.fire_exn plan ~site:"boom";
  (match Fault.fire_exn ~at:(Units.us 3) plan ~site:"boom" with
  | () -> Alcotest.fail "second occurrence must raise"
  | exception Fault.Injected { site } -> Alcotest.(check string) "site" "boom" site);
  Fault.record_recovery plan ~at:(Units.us 9) ~site:"boom" "restarted";
  match Trace.filter trace ~category:"fault" with
  | [ injected; recovered ] ->
      Alcotest.(check string) "injection label" "boom" injected.Trace.label;
      Alcotest.(check string) "injection detail" "injected #1 (occurrence 2)"
        injected.Trace.detail;
      Alcotest.check check_time "injection time" (Units.us 3) injected.Trace.at;
      Alcotest.(check string) "recovery detail" "recovered: restarted" recovered.Trace.detail
  | events -> Alcotest.failf "expected 2 fault events, got %d" (List.length events)

(* --- network: drop forces a retransmission --- *)

let tcp_transfer ?fault () =
  let client = Clock.create () and server = Clock.create () in
  let conn =
    Netsim.Tcp.connect ?fault ~client ~server ~link:Netsim.Link.loopback
      ~client_profile:Netsim.Tcp.smoltcp ~server_profile:Netsim.Tcp.smoltcp ()
  in
  let payload = Bytes.make 65536 'x' in
  Netsim.Tcp.send conn ~from_client:true payload;
  let got = Netsim.Tcp.recv conn ~at_client:false 65536 in
  (conn, got, Clock.now server)

let test_link_drop_retransmits () =
  let plan = Fault.create ~seed:3 () in
  Fault.inject plan ~site:Fault.site_link_tx (Fault.Nth 1);
  let _, clean_payload, clean_finish = tcp_transfer () in
  let conn, payload, finish = tcp_transfer ~fault:plan () in
  Alcotest.(check int) "one retransmission" 1 (Netsim.Tcp.retransmits conn);
  Alcotest.(check bytes) "payload intact despite the drop" clean_payload payload;
  Alcotest.(check bool) "retransmission costs time" true
    (Units.( > ) finish clean_finish);
  Alcotest.(check int) "fault fired once" 1 (Fault.fired plan ~site:Fault.site_link_tx)

(* --- vfs: transient I/O errors --- *)

let test_vfs_fault_raises_io_error () =
  let plan = Fault.create ~seed:4 () in
  Fault.inject plan ~site:Fault.site_vfs_read Fault.Always;
  let vfs = Fsim.Vfs.with_faults plan (Fsim.Vfs.fresh_ramfs ()) in
  vfs.Fsim.Vfs.write_file "/f" (Bytes.of_string "data");
  (match vfs.Fsim.Vfs.read_file "/f" with
  | _ -> Alcotest.fail "read must fail under Always fault"
  | exception Fsim.Vfs.Io_error { op; path } ->
      Alcotest.(check string) "op" "read" op;
      Alcotest.(check string) "path" "/f" path);
  Alcotest.(check bool) "writes unaffected" true (vfs.Fsim.Vfs.exists "/f")

let test_vfs_fault_surfaces_as_eio () =
  let plan = Fault.create ~seed:4 () in
  Fault.inject plan ~site:Fault.site_vfs_read Fault.Always;
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.write_whole_file ctx "/f" (Bytes.of_string "data");
    ignore (Asstd.read_whole_file ctx "/f")
  in
  let config = { Visor.default_config with Visor.fault = Some plan } in
  match Visor.run ~config ~workflow:single ~bindings:[ ("f", Visor.bind kernel) ] () with
  | _ -> Alcotest.fail "read must fail"
  | exception Visor.Function_failed { error = Errno.Error (Errno.Eio, _); _ } -> ()

let test_vfs_transient_error_retried () =
  (* Nth 1 on vfs.read: the first attempt's read fails with EIO, the
     retry's read (occurrence 2) succeeds. *)
  let plan = Fault.create ~seed:4 () in
  Fault.inject plan ~site:Fault.site_vfs_read (Fault.Nth 1);
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.write_whole_file ctx "/f" (Bytes.of_string "data");
    Asstd.println ctx (Bytes.to_string (Asstd.read_whole_file ctx "/f"))
  in
  let config =
    { Visor.default_config with Visor.fault = Some plan; retry = Visor.Retry_function 2 }
  in
  let report = Visor.run ~config ~workflow:single ~bindings:[ ("f", Visor.bind kernel) ] () in
  Alcotest.(check string) "recovered" "data\n" report.Visor.stdout;
  Alcotest.(check int) "one retry" 1 report.Visor.retries

(* --- allocator: injected exhaustion --- *)

let test_alloc_fault_fails_once () =
  let plan = Fault.create ~seed:6 () in
  Fault.inject plan ~site:Fault.site_mem_alloc (Fault.Nth 1);
  let a = Mem.Alloc.create ~fault:plan ~base:0 ~size:65536 () in
  (match Mem.Alloc.alloc a ~size:64 ~align:8 with
  | Some _ -> Alcotest.fail "first alloc must fail"
  | None -> ());
  (match Mem.Alloc.alloc a ~size:64 ~align:8 with
  | Some _ -> ()
  | None -> Alcotest.fail "second alloc must succeed");
  Alcotest.(check int) "no bytes leaked by the failed alloc" 64
    (Mem.Alloc.allocated_bytes a)

(* --- loader: transient dlmopen failure takes the slow path again --- *)

let test_loader_fault_slow_path () =
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.println ctx "ok" in
  let bindings = [ ("f", Visor.bind kernel) ] in
  let clean = Visor.run ~workflow:single ~bindings () in
  let plan = Fault.create ~seed:8 () in
  Fault.inject plan ~site:Fault.site_loader_load (Fault.Nth 1);
  let config = { Visor.default_config with Visor.fault = Some plan } in
  let faulted = Visor.run ~config ~workflow:single ~bindings () in
  Alcotest.(check string) "module still loads" clean.Visor.stdout faulted.Visor.stdout;
  Alcotest.(check (list string)) "same modules resident" clean.Visor.loaded_modules
    faulted.Visor.loaded_modules;
  Alcotest.check check_time "exactly one extra namespace setup"
    (Units.add clean.Visor.e2e Cost.dlmopen_namespace) faulted.Visor.e2e

(* --- visor: crash, hang, timeout, backoff --- *)

let ok_kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.println ctx "ok"

let test_injected_crash_retried () =
  let plan = Fault.create ~seed:9 () in
  Fault.inject plan ~site:Fault.site_fn_crash (Fault.First 2);
  let config =
    { Visor.default_config with Visor.fault = Some plan; retry = Visor.Retry_function 3 }
  in
  let report = Visor.run ~config ~workflow:single ~bindings:[ ("f", Visor.bind ok_kernel) ] () in
  Alcotest.(check string) "completed" "ok\n" report.Visor.stdout;
  Alcotest.(check int) "two restarts" 2 report.Visor.retries

let test_hang_without_timeout_wedges () =
  let plan = Fault.create ~seed:9 () in
  Fault.inject plan ~site:Fault.site_fn_hang (Fault.Nth 1);
  let config =
    { Visor.default_config with Visor.fault = Some plan; retry = Visor.Retry_function 3 }
  in
  match Visor.run ~config ~workflow:single ~bindings:[ ("f", Visor.bind ok_kernel) ] () with
  | _ -> Alcotest.fail "hang without a watchdog timeout must wedge"
  | exception Visor.Function_hung { fn } -> Alcotest.(check string) "which" "f" fn

let test_hang_with_timeout_recovers () =
  let plan = Fault.create ~seed:9 () in
  Fault.inject plan ~site:Fault.site_fn_hang (Fault.Nth 1);
  let config =
    {
      Visor.default_config with
      Visor.fault = Some plan;
      retry = Visor.Retry_function 2;
      timeout = Some (Units.ms 50);
    }
  in
  let report = Visor.run ~config ~workflow:single ~bindings:[ ("f", Visor.bind ok_kernel) ] () in
  Alcotest.(check string) "completed after the watchdog kill" "ok\n" report.Visor.stdout;
  Alcotest.(check int) "one retry" 1 report.Visor.retries;
  Alcotest.(check bool) "e2e includes the wedged 50ms" true
    (Units.( >= ) report.Visor.e2e (Units.ms 50))

let test_slow_kernel_times_out () =
  let slow (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.compute ctx (Units.ms 30) in
  let config = { Visor.default_config with Visor.timeout = Some (Units.ms 10) } in
  match Visor.run ~config ~workflow:single ~bindings:[ ("f", Visor.bind slow) ] () with
  | _ -> Alcotest.fail "over-budget kernel must be killed"
  | exception Visor.Function_failed { error = Visor.Timed_out { after; _ }; _ } ->
      Alcotest.check check_time "killed at the deadline" (Units.ms 10) after

let test_backoff_delay_schedule () =
  let b = Visor.Exponential { base = Units.ms 10; factor = 2.0; limit = Units.ms 35 } in
  Alcotest.check check_time "first attempt free" Units.zero (Visor.backoff_delay b ~attempt:1);
  Alcotest.check check_time "attempt 2" (Units.ms 10) (Visor.backoff_delay b ~attempt:2);
  Alcotest.check check_time "attempt 3" (Units.ms 20) (Visor.backoff_delay b ~attempt:3);
  Alcotest.check check_time "attempt 4 capped" (Units.ms 35) (Visor.backoff_delay b ~attempt:4);
  Alcotest.check check_time "no backoff" Units.zero
    (Visor.backoff_delay Visor.No_backoff ~attempt:5)

let test_backoff_charged_in_virtual_time () =
  (* Two crashes then success: the backoff variant must finish exactly
     base + 2*base = 30ms after the no-backoff variant. *)
  let run backoff =
    let plan = Fault.create ~seed:13 () in
    Fault.inject plan ~site:Fault.site_fn_crash (Fault.First 2);
    let config =
      {
        Visor.default_config with
        Visor.fault = Some plan;
        retry = Visor.Retry_function 3;
        backoff;
      }
    in
    (Visor.run ~config ~workflow:single ~bindings:[ ("f", Visor.bind ok_kernel) ] ()).Visor.e2e
  in
  let plain = run Visor.No_backoff in
  let delayed =
    run (Visor.Exponential { base = Units.ms 10; factor = 2.0; limit = Units.sec 1 })
  in
  Alcotest.check check_time "exactly 10ms + 20ms of backoff" (Units.ms 30)
    (Units.sub delayed plain)

(* --- seeded chaos runs replay bit-for-bit --- *)

let chaos_outcome seed =
  let trace = Trace.create ~capacity:16384 () in
  Trace.set_enabled trace true;
  let plan = Fault.create ~trace ~seed () in
  Fault.inject plan ~site:Fault.site_fn_crash (Fault.Probability 0.3);
  Fault.inject plan ~site:Fault.site_fn_hang (Fault.Probability 0.1);
  Fault.inject plan ~site:Fault.site_vfs_read (Fault.Probability 0.2);
  Fault.inject plan ~site:Fault.site_loader_load (Fault.Probability 0.15);
  let config =
    {
      Visor.default_config with
      Visor.fault = Some plan;
      retry = Visor.Retry_function 6;
      timeout = Some (Units.ms 80);
      backoff = Visor.Exponential { base = Units.ms 5; factor = 2.0; limit = Units.ms 40 };
    }
  in
  let produce (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.write_whole_file ctx "/data" (Bytes.make 4096 'p');
    ignore (Asbuffer.with_slot_raw ctx ~slot:"s" (Bytes.of_string "payload"))
  in
  let consume (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    ignore (Asstd.read_whole_file ctx "/data");
    Asstd.println ctx (Bytes.to_string (Asbuffer.from_slot_raw ctx ~slot:"s"))
  in
  let wf =
    Workflow.create_exn ~name:"chaos" ~nodes:[ node "p"; node "c" ] ~edges:[ ("p", "c") ]
  in
  let bindings = [ ("p", Visor.bind produce); ("c", Visor.bind consume) ] in
  let outcome =
    match Visor.run ~config ~workflow:wf ~bindings () with
    | r -> Ok (r.Visor.stdout, r.Visor.retries, r.Visor.e2e)
    | exception Visor.Function_failed { fn; attempts; _ } -> Error (fn, attempts)
  in
  let fault_events =
    List.map
      (fun e -> (e.Trace.at, e.Trace.label, e.Trace.detail))
      (Trace.filter trace ~category:"fault")
  in
  (outcome, Fault.schedule plan, fault_events)

let test_chaos_run_reproducible () =
  let o1, s1, e1 = chaos_outcome 1234 in
  let o2, s2, e2 = chaos_outcome 1234 in
  Alcotest.(check bool) "faults actually fired" true
    (List.exists (fun (_, fired) -> fired > 0) s1);
  Alcotest.(check bool) "identical outcome" true (o1 = o2);
  Alcotest.(check (list (pair string int))) "identical schedule" s1 s2;
  Alcotest.(check bool) "identical fault event sequence" true (e1 = e2);
  Alcotest.(check bool) "fault events were traced" true (e1 <> [])

let test_chaos_seed_changes_schedule () =
  let _, s1, _ = chaos_outcome 1234 in
  let _, s2, _ = chaos_outcome 99 in
  Alcotest.(check bool) "different seed, different schedule" true (s1 <> s2)

let test_disabled_plan_costs_nothing () =
  (* A config with no plan behaves identically to the seed behaviour:
     same stdout, same e2e as a run that predates fault injection. *)
  let a = Visor.run ~workflow:single ~bindings:[ ("f", Visor.bind ok_kernel) ] () in
  let b = Visor.run ~workflow:single ~bindings:[ ("f", Visor.bind ok_kernel) ] () in
  Alcotest.(check string) "stdout" a.Visor.stdout b.Visor.stdout;
  Alcotest.check check_time "e2e" a.Visor.e2e b.Visor.e2e;
  Alcotest.(check int) "no retries" 0 a.Visor.retries

(* --- child-plan pool --- *)

(* A recycled child must be indistinguishable from [Fault.child], the
   unpooled reference: the pool's most recent entry is deliberately a
   dirty child (counters advanced, fired) of the same plan. *)
let pooled_child_matches_fresh =
  let sites = [ "a"; "b"; "c"; "d" ] in
  let open QCheck.Gen in
  let trigger =
    oneof
      [
        return Fault.Always;
        map (fun p -> Fault.Probability p) (float_bound_inclusive 1.0);
        map (fun n -> Fault.Nth n) (int_range 1 5);
        map (fun n -> Fault.First n) (int_range 1 5);
        map (fun n -> Fault.Every n) (int_range 1 5);
      ]
  in
  let rule = triple (oneofl sites) trigger (opt (int_range 1 3)) in
  let gen =
    quad (int_bound 1_000_000) (list_size (int_range 1 4) rule) (int_bound 10_000)
      (int_bound 10_000)
  in
  QCheck.Test.make ~name:"fault: pooled child decides like a fresh child" ~count:200
    (QCheck.make gen) (fun (seed, rules, dirty_index, index) ->
      let plan = Fault.create ~seed () in
      List.iter (fun (site, trig, max_fires) -> Fault.inject plan ~site ?max_fires trig) rules;
      let decisions c =
        List.concat_map (fun site -> List.init 12 (fun _ -> Fault.check c ~site)) sites
      in
      let dirty = Fault.acquire_child plan ~index:dirty_index in
      ignore (decisions dirty);
      Fault.release_child dirty;
      let pooled = Fault.acquire_child plan ~index in
      let fresh = Fault.child plan ~index in
      let got = decisions pooled in
      let want = decisions fresh in
      let same = got = want && Fault.schedule pooled = Fault.schedule fresh in
      Fault.release_child pooled;
      same)

let suite =
  [
    Alcotest.test_case "same seed same schedule" `Quick test_same_seed_same_schedule;
    Alcotest.test_case "site streams independent" `Quick test_site_streams_independent;
    Alcotest.test_case "counting triggers" `Quick test_counting_triggers;
    Alcotest.test_case "inject validates" `Quick test_inject_validates;
    Alcotest.test_case "reset replays" `Quick test_reset_replays;
    Alcotest.test_case "fire_exn and trace" `Quick test_fire_exn_and_trace;
    Alcotest.test_case "link drop retransmits" `Quick test_link_drop_retransmits;
    Alcotest.test_case "vfs fault raises Io_error" `Quick test_vfs_fault_raises_io_error;
    Alcotest.test_case "vfs fault surfaces as EIO" `Quick test_vfs_fault_surfaces_as_eio;
    Alcotest.test_case "vfs transient error retried" `Quick test_vfs_transient_error_retried;
    Alcotest.test_case "alloc fault fails once" `Quick test_alloc_fault_fails_once;
    Alcotest.test_case "loader fault slow path" `Quick test_loader_fault_slow_path;
    Alcotest.test_case "injected crash retried" `Quick test_injected_crash_retried;
    Alcotest.test_case "hang without timeout wedges" `Quick test_hang_without_timeout_wedges;
    Alcotest.test_case "hang with timeout recovers" `Quick test_hang_with_timeout_recovers;
    Alcotest.test_case "slow kernel times out" `Quick test_slow_kernel_times_out;
    Alcotest.test_case "backoff delay schedule" `Quick test_backoff_delay_schedule;
    Alcotest.test_case "backoff charged in virtual time" `Quick test_backoff_charged_in_virtual_time;
    Alcotest.test_case "chaos run reproducible" `Quick test_chaos_run_reproducible;
    Alcotest.test_case "chaos seed changes schedule" `Quick test_chaos_seed_changes_schedule;
    Alcotest.test_case "disabled plan costs nothing" `Quick test_disabled_plan_costs_nothing;
    QCheck_alcotest.to_alcotest pooled_child_matches_fresh;
  ]
