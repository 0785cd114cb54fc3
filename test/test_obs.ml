(* Tests for the observability layer: span collection, the trace ring,
   metric histograms, the critical-path breakdown and the exporters. *)

open Sim
open Alloystack_core
open Baselines
open Workloads

let check_time = Alcotest.testable Units.pp Units.equal

(* Span tests run against a private collector so they cannot disturb
   the process-global one other suites share. *)
let collector () =
  let c = Span.create () in
  Span.set_enabled c true;
  c

(* --- span collection ---------------------------------------------- *)

let test_span_nesting () =
  let c = collector () in
  let root = Span.begin_span c ~at:Units.zero ~category:"workflow" ~label:"wf" () in
  let stage = Span.begin_span c ~parent:root ~at:(Units.us 1) ~category:"stage" ~label:"s0" () in
  let fn = Span.begin_span c ~parent:stage ~at:(Units.us 2) ~category:"function" ~label:"f" () in
  Span.end_span c fn ~at:(Units.us 8);
  Span.end_span c stage ~at:(Units.us 9);
  Span.end_span c root ~at:(Units.us 10);
  Alcotest.(check int) "dense ids from 1" 1 root;
  Alcotest.(check int) "three spans" 3 (Span.count c);
  let ids l = List.map (fun (sp : Span.span) -> sp.Span.sp_id) l in
  Alcotest.(check (list int)) "creation order" [ root; stage; fn ] (ids (Span.spans c));
  Alcotest.(check (list int)) "roots" [ root ] (ids (Span.roots c));
  Alcotest.(check (list int)) "children of root" [ stage ] (ids (Span.children c root));
  Alcotest.(check (list int)) "children of stage" [ fn ] (ids (Span.children c stage));
  let sp = Option.get (Span.find c fn) in
  Alcotest.(check int) "parent link" stage sp.Span.sp_parent;
  Alcotest.check check_time "begin" (Units.us 2) sp.Span.sp_begin;
  Alcotest.check check_time "end" (Units.us 8) sp.Span.sp_end

let test_span_end_clamp_and_attrs () =
  let c = collector () in
  let sp = Span.begin_span c ~at:(Units.us 5) ~category:"io" ~label:"x" () in
  Span.set_attr c sp "k" "v";
  Span.end_span c sp ~at:(Units.us 3);
  let span = Option.get (Span.find c sp) in
  Alcotest.check check_time "end clamped to begin" (Units.us 5) span.Span.sp_end;
  Alcotest.(check (list (pair string string))) "attrs" [ ("k", "v") ] span.Span.sp_attrs

let test_span_disabled () =
  let c = Span.create () in
  let sp = Span.begin_span c ~at:Units.zero ~category:"io" ~label:"x" () in
  Alcotest.(check int) "disabled returns none" Span.none sp;
  (* All operations on [none] must be no-ops, not crashes. *)
  Span.end_span c sp ~at:(Units.us 1);
  Span.set_attr c sp "k" "v";
  Span.instant c ~at:Units.zero ~category:"io" ~label:"i" ();
  Alcotest.(check int) "nothing collected" 0 (Span.count c)

let test_span_ambient () =
  let c = collector () in
  let parent = Span.begin_span c ~at:Units.zero ~category:"io" ~label:"p" () in
  Span.set_ambient c parent;
  (* No explicit parent: the ambient one is used (how the TCP stack
     attaches to the as-std socket span). *)
  let child = Span.begin_span c ~at:(Units.us 1) ~category:"network" ~label:"n" () in
  let sp = Option.get (Span.find c child) in
  Alcotest.(check int) "ambient parent" parent sp.Span.sp_parent;
  Span.clear c;
  Alcotest.(check int) "clear resets ambient" Span.none (Span.ambient c);
  Alcotest.(check int) "clear drops spans" 0 (Span.count c);
  let fresh = Span.begin_span c ~at:Units.zero ~category:"io" ~label:"x" () in
  Alcotest.(check int) "clear resets ids" 1 fresh

(* --- trace ring ---------------------------------------------------- *)

let test_trace_ring_wrap () =
  let t = Trace.create ~capacity:4 () in
  Trace.set_enabled t true;
  for i = 1 to 6 do
    Trace.record t ~at:(Units.us i) ~category:"c" ~label:"e" (string_of_int i)
  done;
  Alcotest.(check int) "retained" 4 (Trace.count t);
  Alcotest.(check int) "dropped" 2 (Trace.dropped t);
  Alcotest.(check (list string)) "oldest first, newest kept"
    [ "3"; "4"; "5"; "6" ]
    (List.map (fun (e : Trace.event) -> e.Trace.detail) (Trace.events t));
  Trace.clear t;
  Alcotest.(check int) "clear drops events" 0 (Trace.count t);
  Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped t);
  Trace.record t ~at:Units.zero ~category:"c" ~label:"e" "7";
  Alcotest.(check int) "ring usable after clear" 1 (Trace.count t)

(* --- metric histograms -------------------------------------------- *)

let test_histogram_buckets () =
  (* Bucket 0 holds values < 1; bucket i >= 1 holds [2^(i-1), 2^i). *)
  Alcotest.(check int) "0 -> bucket 0" 0 (Metrics.bucket_index 0.0);
  Alcotest.(check int) "0.9 -> bucket 0" 0 (Metrics.bucket_index 0.9);
  Alcotest.(check int) "negative clamps to 0" 0 (Metrics.bucket_index (-5.0));
  Alcotest.(check int) "1 -> bucket 1" 1 (Metrics.bucket_index 1.0);
  Alcotest.(check int) "1.99 -> bucket 1" 1 (Metrics.bucket_index 1.99);
  Alcotest.(check int) "2 -> bucket 2" 2 (Metrics.bucket_index 2.0);
  Alcotest.(check int) "3 -> bucket 2" 2 (Metrics.bucket_index 3.0);
  Alcotest.(check int) "4 -> bucket 3" 3 (Metrics.bucket_index 4.0);
  Alcotest.(check int) "1023 -> bucket 10" 10 (Metrics.bucket_index 1023.0);
  Alcotest.(check int) "1024 -> bucket 11" 11 (Metrics.bucket_index 1024.0);
  Alcotest.(check (float 0.0)) "bound 0" 1.0 (Metrics.bucket_bound 0);
  Alcotest.(check (float 0.0)) "bound 10" 1024.0 (Metrics.bucket_bound 10)

(* The all-Int64 bucket function [Metrics.bucket_index] replaced, kept
   as the oracle for its int fast path below 2^62. *)
let reference_bucket_index v =
  let v = if v < 0.0 then 0.0 else v in
  let n = Int64.of_float v in
  let rec bits acc n = if n = 0L then acc else bits (acc + 1) (Int64.shift_right_logical n 1) in
  let i = bits 0 n in
  if i > 63 then 63 else i

let bucket_index_property =
  let special =
    let around x = [ Float.pred x; x; Float.succ x; -.x ] in
    QCheck.Gen.oneofl
      ([ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; Float.max_float; Float.min_float ]
      @ around 0x1p62 @ around 0x1p63 @ around 0x1p64)
  in
  let power_of_two =
    QCheck.Gen.(
      map2 (fun k d -> Float.ldexp 1.0 k +. d) (int_bound 70) (oneofl [ -1.0; 0.0; 1.0 ]))
  in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (2, special);
          (3, power_of_two);
          (3, float_range 0.0 1e6);
          (1, map Float.neg (float_range 0.0 1e6));
          (3, float);
        ])
  in
  QCheck.Test.make ~name:"metrics: bucket_index equals the Int64 reference" ~count:2000
    ~long_factor:10
    (QCheck.make gen ~print:(Printf.sprintf "%h"))
    (fun v -> Metrics.bucket_index v = reference_bucket_index v)

let test_histogram_snapshot_and_reset () =
  Metrics.reset ();
  let h = Metrics.histogram "test.obs_histo" in
  List.iter (Metrics.observe h) [ 1.0; 3.0; 3.0; 100.0 ];
  let g = Metrics.gauge "test.obs_gauge" in
  Metrics.max_gauge g 2.0;
  Metrics.max_gauge g 7.0;
  Metrics.max_gauge g 3.0;
  Alcotest.(check (float 0.0)) "gauge high-watermark" 7.0 (Metrics.gauge_value g);
  let snap = Metrics.snapshot () in
  let hs =
    List.find
      (fun (s : Metrics.histo_snapshot) -> String.equal s.Metrics.hs_name "test.obs_histo")
      snap.Metrics.snap_histograms
  in
  Alcotest.(check int) "count" 4 hs.Metrics.hs_count;
  Alcotest.(check (float 0.0)) "sum" 107.0 hs.Metrics.hs_sum;
  Alcotest.(check (float 0.0)) "min" 1.0 hs.Metrics.hs_min;
  Alcotest.(check (float 0.0)) "max" 100.0 hs.Metrics.hs_max;
  (* 1 -> bucket 1; 3, 3 -> bucket 2; 100 -> bucket 7. *)
  Alcotest.(check (list (pair int int))) "non-empty buckets"
    [ (1, 1); (2, 2); (7, 1) ]
    hs.Metrics.hs_buckets;
  Alcotest.(check (float 0.0)) "gauge snapshotted" 7.0
    (List.assoc "test.obs_gauge" snap.Metrics.snap_gauges);
  Metrics.reset ();
  let snap = Metrics.snapshot () in
  let hs =
    List.find
      (fun (s : Metrics.histo_snapshot) -> String.equal s.Metrics.hs_name "test.obs_histo")
      snap.Metrics.snap_histograms
  in
  Alcotest.(check int) "reset zeroes count" 0 hs.Metrics.hs_count;
  Alcotest.(check (list (pair int int))) "reset zeroes buckets" [] hs.Metrics.hs_buckets

(* --- critical-path breakdown -------------------------------------- *)

(* Hand-built tree exercising every attribution rule:

     workflow  [0, 100]
       compute [10, 40]      (shadowed by io at the cursor: contributes 0)
       io      [30, 70]
         network [35, 50]

   Walking backwards from 100: io claims [30,70] (root keeps [70,100]
   and [0,30] -> "other"); inside io, network claims [35,50] (io keeps
   [50,70] and [30,35]); compute ends at 40 > cursor 30, shadowed. *)
let test_breakdown_synthetic () =
  let c = collector () in
  let us = Units.us in
  let root = Span.begin_span c ~at:Units.zero ~category:"workflow" ~label:"wf" () in
  let compute = Span.begin_span c ~parent:root ~at:(us 10) ~category:"compute" ~label:"f" () in
  Span.end_span c compute ~at:(us 40);
  let io = Span.begin_span c ~parent:root ~at:(us 30) ~category:"io" ~label:"read" () in
  let net = Span.begin_span c ~parent:io ~at:(us 35) ~category:"network" ~label:"stream" () in
  Span.end_span c net ~at:(us 50);
  Span.end_span c io ~at:(us 70);
  Span.end_span c root ~at:(us 100);
  let bd = Obs.breakdown ~collector:c ~root () in
  Alcotest.check check_time "total" (us 100) bd.Obs.bd_total;
  let bucket name = List.assoc name bd.Obs.bd_buckets in
  Alcotest.check check_time "io keeps its gaps" (us 25) (bucket "io");
  Alcotest.check check_time "network claimed" (us 15) (bucket "network");
  Alcotest.check check_time "shadowed compute contributes nothing" Units.zero
    (bucket "compute");
  Alcotest.check check_time "uncovered root time is other" (us 60) (bucket "other");
  let sum =
    List.fold_left (fun acc (_, d) -> Units.add acc d) Units.zero bd.Obs.bd_buckets
  in
  Alcotest.check check_time "buckets partition the root exactly" bd.Obs.bd_total sum

let with_global_spans f =
  Span.clear Span.global;
  Span.set_enabled Span.global true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled Span.global false;
      Span.clear Span.global)
    f

let test_breakdown_pipe_workflow () =
  with_global_spans (fun () ->
      let m =
        As_platform.alloystack.Platform.run (Pipe_app.app ~seed:7 ~size:(256 * 1024))
      in
      Platform.check_validated m;
      let root =
        match Obs.find_root ~category:"workflow" () with
        | Some sp -> sp
        | None -> Alcotest.fail "no workflow root span"
      in
      let bd = Obs.breakdown ~root:root.Span.sp_id () in
      let sum =
        List.fold_left (fun acc (_, d) -> Units.add acc d) Units.zero bd.Obs.bd_buckets
      in
      Alcotest.check check_time "buckets sum to e2e exactly" bd.Obs.bd_total sum;
      Alcotest.check check_time "root duration is the workflow e2e" m.Platform.e2e
        bd.Obs.bd_total;
      let positive name =
        Alcotest.(check bool)
          (name ^ " attributed")
          true
          (Units.( > ) (List.assoc name bd.Obs.bd_buckets) Units.zero)
      in
      (* A cold pipe run must pay module loads, boot and the data copy. *)
      positive "boot";
      positive "load-slow";
      positive "transfer")

(* --- exporters ----------------------------------------------------- *)

let golden_collector () =
  let c = collector () in
  let root = Span.begin_span c ~at:Units.zero ~category:"workflow" ~label:"wf" () in
  let child = Span.begin_span c ~parent:root ~at:(Units.us 1) ~category:"compute" ~label:"fn" () in
  Span.set_attr c child "k" "v";
  Span.end_span c child ~at:(Units.us 2);
  Span.end_span c root ~at:(Units.us 3);
  c

let test_trace_json_golden () =
  let expected =
    "{\"traceEvents\": [{\"name\": \"wf\", \"cat\": \"workflow\", \"ph\": \"X\", \
     \"ts\": 0, \"dur\": 3, \"pid\": 1, \"tid\": 1, \"args\": {\"span_id\": 1, \
     \"parent\": 0, \"ts_ns\": 0, \"dur_ns\": 3000}}, {\"name\": \"fn\", \"cat\": \
     \"compute\", \"ph\": \"X\", \"ts\": 1, \"dur\": 1, \"pid\": 1, \"tid\": 1, \
     \"args\": {\"span_id\": 2, \"parent\": 1, \"ts_ns\": 1000, \"dur_ns\": 1000, \
     \"k\": \"v\"}}], \"displayTimeUnit\": \"ns\"}"
  in
  Alcotest.(check string) "chrome trace document" expected
    (Obs.trace_json_string ~collector:(golden_collector ()) ())

let test_spans_jsonl_golden () =
  let expected =
    "{\"id\": 1, \"parent\": 0, \"category\": \"workflow\", \"label\": \"wf\", \
     \"begin_ns\": 0, \"end_ns\": 3000, \"attrs\": {}}\n\
     {\"id\": 2, \"parent\": 1, \"category\": \"compute\", \"label\": \"fn\", \
     \"begin_ns\": 1000, \"end_ns\": 2000, \"attrs\": {\"k\": \"v\"}}\n"
  in
  Alcotest.(check string) "jsonl span dump" expected
    (Obs.spans_jsonl ~collector:(golden_collector ()) ());
  Alcotest.(check string) "empty collector, empty dump" ""
    (Obs.spans_jsonl ~collector:(Span.create ()) ())

let test_exports_parse () =
  (* Exported documents must be valid JSON (our own parser accepts a
     strict subset, so this also guards against stray NaN/inf). *)
  let trace = Obs.trace_json_string ~collector:(golden_collector ()) () in
  (match Jsonlite.parse_result trace with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("trace JSON does not parse: " ^ e));
  Metrics.reset ();
  let h = Metrics.histogram "test.obs_parse" in
  Metrics.observe h 42.0;
  match Jsonlite.parse_result (Obs.metrics_json_string ()) with
  | Ok json ->
      let names =
        Jsonlite.member "histograms" json
        |> Jsonlite.get_list
        |> List.map (Jsonlite.member_string "name")
      in
      Alcotest.(check bool) "histogram exported" true
        (List.mem "test.obs_parse" names)
  | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span end clamp + attrs" `Quick test_span_end_clamp_and_attrs;
    Alcotest.test_case "span disabled" `Quick test_span_disabled;
    Alcotest.test_case "span ambient + clear" `Quick test_span_ambient;
    Alcotest.test_case "trace ring wrap" `Quick test_trace_ring_wrap;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram snapshot + reset" `Quick test_histogram_snapshot_and_reset;
    Alcotest.test_case "breakdown synthetic" `Quick test_breakdown_synthetic;
    Alcotest.test_case "breakdown pipe workflow" `Quick test_breakdown_pipe_workflow;
    Alcotest.test_case "trace json golden" `Quick test_trace_json_golden;
    Alcotest.test_case "spans jsonl golden" `Quick test_spans_jsonl_golden;
    Alcotest.test_case "exports parse" `Quick test_exports_parse;
    QCheck_alcotest.to_alcotest bucket_index_property;
  ]
