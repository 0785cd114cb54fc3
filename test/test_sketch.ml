(* Differential tests for the percentile sketches (Sim.Sketch): P^2
   and the merging t-digest against exact order statistics over seeded
   populations with different shapes, plus the serve_fold contract the
   sketches enable — byte-identical responses to serve, and O(1) live
   memory over a 100k-request streamed fold. *)

open Alloystack_core
open Sim

(* --- Sketch vs exact order statistics ------------------------------ *)

let populations =
  [
    ("uniform", fun rng -> Rng.float rng 1000.0);
    ("exponential", fun rng -> Rng.exponential rng ~mean:50.0);
    (* Two well-separated modes, 70/30: stresses interpolation across
       density jumps without parking a tested quantile inside the
       empty gap (where any estimator's answer is arbitrary). *)
    ( "bimodal",
      fun rng ->
        if Rng.float rng 1.0 < 0.7 then Rng.gaussian rng ~mu:100.0 ~sigma:10.0
        else Rng.gaussian rng ~mu:500.0 ~sigma:25.0 );
  ]

let n = 10_000

let test_sketch_differential () =
  List.iter
    (fun (name, draw) ->
      let rng = Rng.create 1234 in
      let exact = Stats.create () in
      let p2_50 = Sketch.P2.create 0.5 in
      let p2_90 = Sketch.P2.create 0.9 in
      let p2_99 = Sketch.P2.create 0.99 in
      let td = Sketch.Tdigest.create () in
      for _ = 1 to n do
        let x = draw rng in
        Stats.add exact x;
        Sketch.P2.add p2_50 x;
        Sketch.P2.add p2_90 x;
        Sketch.P2.add p2_99 x;
        Sketch.Tdigest.add td x
      done;
      let check_rel what tol got want =
        let rel = Float.abs (got -. want) /. Float.max 1e-9 (Float.abs want) in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: %.3f vs exact %.3f (rel %.4f <= %.2f)" name
             what got want rel tol)
          true (rel <= tol)
      in
      (* The t-digest keeps tails near-exact; 2% everywhere matches the
         bound the serving bench asserts.  P^2 is a 5-marker estimate,
         so give it more slack. *)
      check_rel "tdigest p50" 0.02
        (Sketch.Tdigest.percentile td 50.0)
        (Stats.percentile exact 50.0);
      check_rel "tdigest p90" 0.02
        (Sketch.Tdigest.percentile td 90.0)
        (Stats.percentile exact 90.0);
      check_rel "tdigest p99" 0.02
        (Sketch.Tdigest.percentile td 99.0)
        (Stats.percentile exact 99.0);
      check_rel "p2 p50" 0.1 (Sketch.P2.quantile p2_50) (Stats.percentile exact 50.0);
      check_rel "p2 p90" 0.1 (Sketch.P2.quantile p2_90) (Stats.percentile exact 90.0);
      check_rel "p2 p99" 0.1 (Sketch.P2.quantile p2_99) (Stats.percentile exact 99.0))
    populations

let test_sketch_small_and_merge () =
  (* Under five observations P^2 answers from the sorted sample —
     exactly what Stats reports. *)
  let p2 = Sketch.P2.create 0.5 in
  Alcotest.(check bool) "empty P2 is nan" true (Float.is_nan (Sketch.P2.quantile p2));
  List.iter (fun x -> Sketch.P2.add p2 x) [ 5.0; 1.0; 3.0 ];
  let exact = Stats.create () in
  List.iter (fun x -> Stats.add exact x) [ 5.0; 1.0; 3.0 ];
  Alcotest.(check (float 1e-9)) "P2 exact under 5 samples"
    (Stats.percentile exact 50.0) (Sketch.P2.quantile p2);
  (* Merging two digests covers the same population as feeding one. *)
  let rng = Rng.create 99 in
  let whole = Sketch.Tdigest.create () in
  let a = Sketch.Tdigest.create () in
  let b = Sketch.Tdigest.create () in
  for i = 1 to 20_000 do
    let x = Rng.exponential rng ~mean:10.0 in
    Sketch.Tdigest.add whole x;
    Sketch.Tdigest.add (if i mod 2 = 0 then a else b) x
  done;
  Sketch.Tdigest.merge_into ~src:b ~dst:a;
  Alcotest.(check (float 1e-9)) "merge preserves count"
    (Sketch.Tdigest.count whole) (Sketch.Tdigest.count a);
  List.iter
    (fun p ->
      let w = Sketch.Tdigest.percentile whole p in
      let m = Sketch.Tdigest.percentile a p in
      Alcotest.(check bool)
        (Printf.sprintf "merged p%.0f %.3f ~ whole %.3f" p m w)
        true
        (Float.abs (m -. w) /. Float.max 1e-9 w <= 0.03))
    [ 50.0; 90.0; 99.0 ]

(* --- serve_fold contract ------------------------------------------- *)

let test_serve_fold_matches_serve () =
  let count = 300 in
  let seed = 7 in
  let requests = Test_par.requests_for ~seed ~count in
  let with_server f =
    let server = Visor.Server.create () in
    List.iter
      (fun (endpoint, workflow, bindings) ->
        Visor.Server.register server ~endpoint ~workflow ~bindings ())
      Test_par.endpoints_spec;
    let r = f server in
    Visor.Server.shutdown server;
    r
  in
  let responses, s = with_server (fun srv -> Serve_list.serve srv requests) in
  (* The fold hands responses over in completion order, and its
     summary aggregates exactly the responses it handed over. *)
  Alcotest.(check bool) "completion order" true
    (List.sort
       (fun (a : Visor.Server.response) b ->
         Units.compare a.Visor.Server.r_finish b.Visor.Server.r_finish)
       responses
    = responses);
  let ok = List.filter (fun (r : Visor.Server.response) -> r.Visor.Server.r_ok) responses in
  let exact = Stats.create () in
  List.iter (fun (r : Visor.Server.response) -> Stats.add_time exact r.Visor.Server.r_latency) ok;
  Alcotest.(check int) "every request answered" count (List.length responses);
  Alcotest.(check int) "completed" (List.length ok) s.Visor.Server.sm_completed;
  Alcotest.(check int) "failed" (count - List.length ok) s.Visor.Server.sm_failed;
  Alcotest.(check string) "p99 exact"
    (Units.to_string (Stats.percentile_time exact 99.0))
    (Units.to_string s.Visor.Server.sm_p99_latency);
  Alcotest.(check bool) "not sketched by default" false
    s.Visor.Server.sm_latency_sketched

let test_fold_live_words_flat () =
  (* A 100k-request fold that retains nothing must run in O(window +
     inflight) live words: the live-heap reading must not grow with
     completions.  A reintroduced response list would add >1M words
     between the first and last probe. *)
  let count = 100_000 in
  let seed = 7 in
  let qps = 700.0 in
  let eps =
    Array.of_list (List.map (fun (e, _, _) -> e) Test_par.endpoints_spec)
  in
  let next =
    Baselines.Loadgen.request_stream ~seed ~qps ~endpoints:eps ~count ()
  in
  Metrics.set_raw_sample_every ~seed 64;
  let server =
    Visor.Server.create ~sample_every:64 ~sample_seed:seed ~sketch_latency:true ()
  in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    Test_par.endpoints_spec;
  let seen = ref 0 in
  let probes = ref [] in
  let (), s =
    Visor.Server.serve_fold server
      (fun () ->
        match next () with
        | None -> None
        | Some (endpoint, arrival) -> Some { Visor.Server.endpoint; arrival })
      ~init:()
      ~f:(fun () _ ->
        incr seen;
        if !seen mod 25_000 = 0 then begin
          Gc.full_major ();
          probes := (Gc.stat ()).Gc.live_words :: !probes
        end)
  in
  Visor.Server.shutdown server;
  Metrics.set_raw_sample_every 1;
  Alcotest.(check int) "all completed" count s.Visor.Server.sm_completed;
  Alcotest.(check bool) "sketched percentiles" true s.Visor.Server.sm_latency_sketched;
  match List.rev !probes with
  | first :: _ :: _ as all ->
      let last = List.nth all (List.length all - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "live words flat across fold (%d -> %d)" first last)
        true
        (last - first < 512_000)
  | _ -> Alcotest.fail "expected at least two live-word probes"

let suite =
  [
    Alcotest.test_case "P2/t-digest vs exact percentiles" `Quick
      test_sketch_differential;
    Alcotest.test_case "small-n exactness and digest merge" `Quick
      test_sketch_small_and_merge;
    Alcotest.test_case "serve_fold == serve" `Quick test_serve_fold_matches_serve;
    Alcotest.test_case "100k fold: live words O(1)" `Slow test_fold_live_words_flat;
  ]
