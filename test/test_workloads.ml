(* Tests for the benchmark workloads: data generators, kernels,
   validation plumbing. *)

open Workloads

let test_datagen_determinism () =
  Alcotest.(check bytes) "payload deterministic" (Datagen.payload ~seed:5 1000)
    (Datagen.payload ~seed:5 1000);
  Alcotest.(check bool) "seed matters" true
    (Datagen.payload ~seed:5 1000 <> Datagen.payload ~seed:6 1000);
  Alcotest.(check bytes) "text deterministic" (Datagen.words_text ~seed:5 1000)
    (Datagen.words_text ~seed:5 1000)

let test_datagen_text_shape () =
  let text = Bytes.to_string (Datagen.words_text ~seed:1 5000) in
  Alcotest.(check int) "exact size" 5000 (String.length text);
  Alcotest.(check bool) "contains separators" true (String.contains text ' ');
  (* Tokens look like the vocabulary. *)
  Alcotest.(check bool) "vocabulary tokens" true
    (String.length text > 0 && text.[0] = 'w')

let test_datagen_records () =
  let data = Datagen.int32_records ~seed:2 ~count:100 in
  Alcotest.(check int) "record count" 100 (Datagen.record_count data);
  Datagen.set_record data 3 42l;
  Alcotest.(check int32) "get/set" 42l (Datagen.get_record data 3)

(* The text is the first [size] bytes of one word stream per seed; the
   digests were taken from the Buffer-based generator this one
   replaced, so the WordCount inputs are unchanged. *)
let test_datagen_text_pinned () =
  let digest seed size = Digest.to_hex (Digest.bytes (Datagen.words_text ~seed size)) in
  Alcotest.(check string) "seed 42, 1 MiB" "68d9c5f41df1bc484680fda0c1b4565b"
    (digest 42 (1 lsl 20));
  Alcotest.(check string) "seed 7, 12345 B" "51f5298110a3c9f2e5df2167fd4fcfa7"
    (digest 7 12345);
  let long = Datagen.words_text ~seed:3 4096 in
  for size = 0 to 64 do
    Alcotest.(check bytes) "prefix of a longer text" (Bytes.sub long 0 size)
      (Datagen.words_text ~seed:3 size)
  done

(* --- wordcount internals --- *)

let test_count_words () =
  let counts = Wordcount.count_words (Bytes.of_string "a b a\nc  a b") in
  Alcotest.(check int) "a" 3 (Hashtbl.find counts "a");
  Alcotest.(check int) "b" 2 (Hashtbl.find counts "b");
  Alcotest.(check int) "c" 1 (Hashtbl.find counts "c");
  Alcotest.(check int) "distinct" 3 (Hashtbl.length counts)

(* Test-side oracle for [count_words]: one substring and one table
   update per token.  The fast path must match it in counts and in
   [Hashtbl.fold] order, which fixes the bytes of every map partition. *)
let reference_count_words data =
  let counts = Hashtbl.create 1024 in
  let n = Bytes.length data in
  let flush start stop =
    if stop > start then begin
      let w = Bytes.sub_string data start (stop - start) in
      Hashtbl.replace counts w (1 + Option.value ~default:0 (Hashtbl.find_opt counts w))
    end
  in
  let start = ref 0 in
  for i = 0 to n - 1 do
    match Bytes.get data i with
    | ' ' | '\n' | '\t' | '\r' ->
        flush !start i;
        start := i + 1
    | _ -> ()
  done;
  flush !start n;
  counts

let words_input =
  let open QCheck.Gen in
  let sep = oneofl [ " "; "\n"; "\t"; "\r"; "  "; " \n\r\t" ] in
  (* Raw bytes over a small alphabet: empty text, separator-only runs,
     leading/trailing/repeated separators and bytes >= 0x80. *)
  let raw =
    string_size ~gen:(oneofl [ ' '; '\n'; '\t'; '\r'; 'a'; 'b'; 'z'; '\x80'; '\xe9'; '\xff' ])
      (int_range 0 3000)
  in
  (* Token soup over a vocabulary of up to 5000 words (past the result
     table's 1024 initial buckets and its first resizes), with some
     tokens hundreds of bytes long. *)
  let soup =
    int_range 1 5000 >>= fun vocab ->
    let token =
      frequency
        [
          (20, map (fun i -> "w" ^ string_of_int i) (int_bound (vocab - 1)));
          ( 1,
            map (fun k -> String.make (100 + k) (Char.chr (97 + (k mod 26)))) (int_bound 400) );
          (1, map (fun i -> "\xc3\xa9" ^ string_of_int i) (int_bound 50));
        ]
    in
    list_size (int_range 0 8000) (pair token sep) >>= fun tokens ->
    map
      (fun lead -> lead ^ String.concat "" (List.map (fun (w, s) -> w ^ s) tokens))
      (oneofl [ ""; " "; "\n\n" ])
  in
  frequency [ (1, raw); (2, soup) ]

let count_words_property =
  QCheck.Test.make ~name:"count_words equals the substring-and-Hashtbl oracle" ~count:60
    ~long_factor:10
    (QCheck.make words_input ~print:(fun s ->
         String.escaped (if String.length s > 200 then String.sub s 0 200 ^ "..." else s)))
    (fun text ->
      let data = Bytes.of_string text in
      let fold t = Hashtbl.fold (fun w c acc -> (w, c) :: acc) t [] in
      fold (Wordcount.count_words data) = fold (reference_count_words data))

let test_counts_codec () =
  let pairs = [ ("alpha", 3); ("beta", 14) ] in
  Alcotest.(check (list (pair string int))) "roundtrip" pairs
    (Wordcount.decode_counts (Wordcount.encode_counts pairs));
  Alcotest.(check (list (pair string int))) "empty" []
    (Wordcount.decode_counts Bytes.empty)

let test_expected_counts_total () =
  (* Total word count equals the number of separators + 1-ish; check
     conservation: sum of counts equals the token count. *)
  let size = 20_000 in
  let text = Datagen.words_text ~seed:9 size in
  let expected = Wordcount.expected_counts ~seed:9 ~size in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 expected in
  let by_direct = Hashtbl.fold (fun _ c acc -> acc + c) (Wordcount.count_words text) 0 in
  Alcotest.(check int) "conserved" by_direct total

(* --- parallel sorting internals --- *)

let test_sort_records () =
  let data = Datagen.int32_records ~seed:3 ~count:10_000 in
  let sorted = Parallel_sorting.sort_records data in
  Alcotest.(check bool) "sorted" true (Parallel_sorting.is_sorted sorted);
  Alcotest.(check int) "same length" (Bytes.length data) (Bytes.length sorted);
  (* Same multiset: compare against a reference sort. *)
  let to_list b = List.init (Datagen.record_count b) (Datagen.get_record b) in
  let ref_sorted =
    List.sort
      (fun a b ->
        compare (Int32.to_int a land 0xFFFFFFFF) (Int32.to_int b land 0xFFFFFFFF))
      (to_list data)
  in
  Alcotest.(check bool) "permutation" true (to_list sorted = ref_sorted)

let test_sort_edge_cases () =
  Alcotest.(check bytes) "empty" Bytes.empty (Parallel_sorting.sort_records Bytes.empty);
  let one = Datagen.int32_records ~seed:1 ~count:1 in
  Alcotest.(check bytes) "singleton" one (Parallel_sorting.sort_records one);
  Alcotest.(check bool) "unsigned order" true
    (Parallel_sorting.is_sorted
       (let b = Bytes.create 8 in
        Bytes.set_int32_le b 0 1l;
        Bytes.set_int32_le b 4 (-1l) (* 0xFFFFFFFF sorts last unsigned *);
        b))

let test_bucket_partitioning () =
  (* Buckets are ordered: every value in bucket i is below every value
     in bucket i+1. *)
  let buckets = 4 in
  for _ = 1 to 100 do
    ()
  done;
  let boundary_ok a b =
    Parallel_sorting.bucket_of a ~buckets <= Parallel_sorting.bucket_of b ~buckets
  in
  Alcotest.(check bool) "ordering respected" true
    (boundary_ok 0l 100l && boundary_ok 100l 1000000l);
  Alcotest.(check int) "min bucket" 0 (Parallel_sorting.bucket_of 0l ~buckets);
  Alcotest.(check bool) "max bucket" true
    (Parallel_sorting.bucket_of (-1l) ~buckets = buckets - 1)

let sort_property =
  QCheck.Test.make ~name:"sort_records sorts any input" ~count:100 ~long_factor:10
    QCheck.(list_of_size (Gen.int_range 0 500) int)
    (fun xs ->
      let b = Bytes.create (4 * List.length xs) in
      List.iteri (fun i x -> Bytes.set_int32_le b (4 * i) (Int32.of_int x)) xs;
      Parallel_sorting.is_sorted (Parallel_sorting.sort_records b))

(* Records for the sort properties: uniform, small (many duplicates)
   and boundary keys, laid out unsorted, sorted, or sorted with one
   adjacent pair swapped, plus 0-3 trailing bytes of a partial record. *)
let records_input =
  let open QCheck.Gen in
  let key =
    frequency
      [
        (3, ui32);
        (2, map Int32.of_int (int_bound 8));
        (1, oneofl [ 0l; 1l; Int32.max_int; Int32.min_int; -1l ]);
      ]
  in
  let unsigned_sort = List.sort Int32.unsigned_compare in
  let swap_one keys =
    let a = Array.of_list keys in
    let n = Array.length a in
    if n < 2 then return keys
    else
      map
        (fun i ->
          let a = Array.copy a in
          let k = a.(i) in
          a.(i) <- a.(i + 1);
          a.(i + 1) <- k;
          Array.to_list a)
        (int_bound (n - 2))
  in
  list_size (int_range 0 300) key >>= fun keys ->
  frequency [ (1, return keys); (1, return (unsigned_sort keys)); (1, swap_one (unsigned_sort keys)) ]
  >>= fun keys ->
  map
    (fun tail ->
      let b = Bytes.create ((4 * List.length keys) + String.length tail) in
      List.iteri (fun i k -> Bytes.set_int32_le b (4 * i) k) keys;
      Bytes.blit_string tail 0 b (4 * List.length keys) (String.length tail);
      Bytes.to_string b)
    (string_size (int_bound 3))

let records_arb = QCheck.make records_input ~print:String.escaped

let reference_keys b = List.init (Bytes.length b / 4) (fun i -> Bytes.get_int32_le b (4 * i))

let is_sorted_property =
  QCheck.Test.make ~name:"is_sorted equals an unsigned list reference" ~count:300 ~long_factor:10
    records_arb (fun s ->
      let b = Bytes.of_string s in
      let rec sorted = function
        | a :: (c :: _ as rest) -> Int32.unsigned_compare a c <= 0 && sorted rest
        | _ -> true
      in
      Parallel_sorting.is_sorted b = sorted (reference_keys b))

let sort_records_property =
  QCheck.Test.make ~name:"sort_records equals List.sort on unsigned keys, byte for byte" ~count:300
    ~long_factor:10 records_arb (fun s ->
      let b = Bytes.of_string s in
      let keys = List.sort Int32.unsigned_compare (reference_keys b) in
      let want = Bytes.create (4 * List.length keys) in
      List.iteri (fun i k -> Bytes.set_int32_le want (4 * i) k) keys;
      Bytes.equal (Parallel_sorting.sort_records b) want)

(* --- function chain --- *)

let test_checksum_sensitivity () =
  let a = Bytes.of_string "aaaaaaaaaaaaaaaa" in
  let b = Bytes.of_string "aaaaaaaaaaaaaaab" in
  Alcotest.(check bool) "differs on content" true
    (Function_chain.checksum a <> Function_chain.checksum b);
  Alcotest.(check int64) "deterministic" (Function_chain.checksum a)
    (Function_chain.checksum a);
  (* Tail bytes beyond the 8-byte stride count too. *)
  let c = Bytes.of_string "aaaaaaaaaX" in
  let d = Bytes.of_string "aaaaaaaaaY" in
  Alcotest.(check bool) "tail matters" true
    (Function_chain.checksum c <> Function_chain.checksum d)

let test_chain_app_shape () =
  let app = Function_chain.app ~seed:1 ~payload:1000 ~length:5 in
  Alcotest.(check int) "stages" 5 (List.length app.Fctx.stages);
  Alcotest.(check (list (pair string string))) "no inputs" []
    (List.map (fun (a, b) -> (a, Bytes.to_string b)) app.Fctx.inputs);
  match Function_chain.app ~seed:1 ~payload:10 ~length:1 with
  | _ -> Alcotest.fail "length 1 invalid"
  | exception Invalid_argument _ -> ()

let test_apps_reject_bad_arguments () =
  let rejects prefix make =
    match make () with
    | (_ : Fctx.app) -> Alcotest.failf "%s accepted a bad argument" prefix
    | exception Invalid_argument msg ->
        if not (String.starts_with ~prefix msg) then
          Alcotest.failf "%S does not name the constructor %S" msg prefix
  in
  rejects "Wordcount.app: " (fun () -> Wordcount.app ~seed:1 ~size:(-1) ~instances:1);
  rejects "Wordcount.app: " (fun () -> Wordcount.app ~seed:1 ~size:1000 ~instances:0);
  rejects "Parallel_sorting.app: " (fun () -> Parallel_sorting.app ~seed:1 ~size:(-64) ~instances:1);
  rejects "Parallel_sorting.app: " (fun () -> Parallel_sorting.app ~seed:1 ~size:1000 ~instances:0);
  rejects "Function_chain.app: " (fun () -> Function_chain.app ~seed:1 ~payload:(-1) ~length:3);
  rejects "Pipe_app.app: " (fun () -> Pipe_app.app ~seed:1 ~size:(-1));
  (* Zero sizes are still accepted. *)
  ignore (Wordcount.app ~seed:1 ~size:0 ~instances:1);
  ignore (Parallel_sorting.app ~seed:1 ~size:0 ~instances:1);
  ignore (Function_chain.app ~seed:1 ~payload:0 ~length:2);
  ignore (Pipe_app.app ~seed:1 ~size:0)

(* --- apps run end to end on a direct in-memory harness --- *)

let run_direct (app : Fctx.app) =
  (* Minimal platform: everything free and in-memory; validates that
     kernels compose correctly independent of any platform model. *)
  let store = Hashtbl.create 16 in
  let files = Hashtbl.create 16 in
  List.iter (fun (p, d) -> Hashtbl.replace files p d) app.Fctx.inputs;
  let make_fctx instance total =
    {
      Fctx.instance;
      total;
      read_input = (fun p -> Hashtbl.find files p);
      write_output = (fun p d -> Hashtbl.replace files p d);
      send = (fun ~slot d -> Hashtbl.replace store slot (Bytes.copy d));
      recv =
        (fun ~slot ->
          match Hashtbl.find_opt store slot with
          | Some d ->
              Hashtbl.remove store slot;
              d
          | None -> raise Not_found);
      println = (fun _ -> ());
      compute = (fun _ -> ());
      phase = (fun _ f -> f ());
    }
  in
  List.iter
    (fun (_, instances, kernel) ->
      for i = 0 to instances - 1 do
        kernel (make_fctx i instances)
      done)
    app.Fctx.stages;
  app.Fctx.validate ~read_output:(fun p -> Hashtbl.find_opt files p)

let check_direct name app =
  match run_direct app with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_wordcount_app_direct () =
  check_direct "wordcount" (Wordcount.app ~seed:7 ~size:50_000 ~instances:3)

let test_wordcount_single_instance () =
  check_direct "wordcount x1" (Wordcount.app ~seed:8 ~size:10_000 ~instances:1)

let test_sorting_app_direct () =
  check_direct "sorting" (Parallel_sorting.app ~seed:7 ~size:100_000 ~instances:4)

let test_chain_app_direct () =
  check_direct "chain" (Function_chain.app ~seed:7 ~payload:10_000 ~length:6)

let test_pipe_app_direct () = check_direct "pipe" (Pipe_app.app ~seed:7 ~size:50_000)

let test_image_pipeline_direct () =
  check_direct "image" (Image_meta.image_pipeline ~seed:7)

let test_wordcount_validation_catches_corruption () =
  let app = Wordcount.app ~seed:7 ~size:10_000 ~instances:2 in
  (* Corrupt the output after the run by dropping a word. *)
  let result =
    match run_direct app with
    | Ok () ->
        app.Fctx.validate ~read_output:(fun _ ->
            Some (Wordcount.encode_counts [ ("only", 1) ]))
    | Error e -> Error e
  in
  match result with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "validation must catch wrong output"

let test_compile_app_direct () =
  check_direct "online-compiling" (Compile_app.app ~n:1000 ~seed:1 ())

let test_compile_app_on_alloystack () =
  let m = (Baselines.As_platform.alloystack).Baselines.Platform.run (Compile_app.app ~n:500 ~seed:1 ()) in
  match m.Baselines.Platform.validated with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_table1_inventory () =
  Alcotest.(check int) "nine functions" 9 (List.length Image_meta.table);
  let e = Image_meta.find "store-image-metadata" in
  Alcotest.(check (list string)) "paper components" [ "time"; "mm"; "net" ]
    e.Image_meta.components;
  let oc = Image_meta.find "online-compiling" in
  Alcotest.(check int) "most demanding" 9 (List.length oc.Image_meta.components);
  match Image_meta.find "nope" with
  | _ -> Alcotest.fail "unknown function"
  | exception Not_found -> ()

let suite =
  [
    Alcotest.test_case "datagen determinism" `Quick test_datagen_determinism;
    Alcotest.test_case "datagen text shape" `Quick test_datagen_text_shape;
    Alcotest.test_case "datagen records" `Quick test_datagen_records;
    Alcotest.test_case "count_words" `Quick test_count_words;
    Alcotest.test_case "counts codec" `Quick test_counts_codec;
    Alcotest.test_case "expected counts conserved" `Quick test_expected_counts_total;
    Alcotest.test_case "sort_records" `Quick test_sort_records;
    Alcotest.test_case "sort edge cases" `Quick test_sort_edge_cases;
    Alcotest.test_case "bucket partitioning" `Quick test_bucket_partitioning;
    QCheck_alcotest.to_alcotest sort_property;
    Alcotest.test_case "checksum sensitivity" `Quick test_checksum_sensitivity;
    Alcotest.test_case "chain app shape" `Quick test_chain_app_shape;
    Alcotest.test_case "wordcount direct" `Quick test_wordcount_app_direct;
    Alcotest.test_case "wordcount single instance" `Quick test_wordcount_single_instance;
    Alcotest.test_case "sorting direct" `Quick test_sorting_app_direct;
    Alcotest.test_case "chain direct" `Quick test_chain_app_direct;
    Alcotest.test_case "pipe direct" `Quick test_pipe_app_direct;
    Alcotest.test_case "image pipeline direct" `Quick test_image_pipeline_direct;
    Alcotest.test_case "validation catches corruption" `Quick test_wordcount_validation_catches_corruption;
    Alcotest.test_case "online-compiling direct" `Quick test_compile_app_direct;
    Alcotest.test_case "online-compiling on AS" `Quick test_compile_app_on_alloystack;
    Alcotest.test_case "Table 1 inventory" `Quick test_table1_inventory;
    Alcotest.test_case "datagen text pinned" `Quick test_datagen_text_pinned;
    QCheck_alcotest.to_alcotest count_words_property;
    QCheck_alcotest.to_alcotest is_sorted_property;
    QCheck_alcotest.to_alcotest sort_records_property;
    Alcotest.test_case "apps reject bad arguments" `Quick test_apps_reject_bad_arguments;
  ]
