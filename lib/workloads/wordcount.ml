
let input_path = "/input/words.txt"
let output_path = "/output/counts.txt"

(* Native per-byte compute rates (Rust baseline). *)
let tokenize_ns_per_byte = 1.8
let merge_ns_per_byte = 0.6
let split_ns_per_byte = 0.15

let is_sep c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

(* [w] equals the [len] bytes of [data] at [start]. *)
let same w data start len =
  String.length w = len
  &&
  let j = ref 0 in
  while !j < len && String.unsafe_get w !j = Bytes.unsafe_get data (start + !j) do
    incr j
  done;
  !j = len

(* Tokens are hashed in place while scanning, so a token allocates
   nothing unless it is a word not seen before.  The result is filled
   with the distinct words in order of first appearance: counting token
   by token with [Hashtbl.replace] adds keys in exactly that order (a
   replace of a present key only updates its count), so the table's
   buckets, resizes and [Hashtbl.iter] order come out the same. *)
let count_words data =
  let n = Bytes.length data in
  (* Distinct word [k] is [words.(k)], seen [counts.(k)] times; [index]
     maps a token hash to [k] by linear probing and is kept at most
     half full. *)
  let words = ref (Array.make 256 "") in
  let counts = ref (Array.make 256 0) in
  let hashes = ref (Array.make 256 0) in
  let index = ref (Array.make 512 (-1)) in
  let distinct = ref 0 in
  let grow () =
    let widen a fill =
      let a' = Array.make (2 * Array.length a) fill in
      Array.blit a 0 a' 0 !distinct;
      a'
    in
    words := widen !words "";
    counts := widen !counts 0;
    hashes := widen !hashes 0;
    let index' = Array.make (2 * Array.length !words) (-1) in
    let mask = Array.length index' - 1 in
    for k = 0 to !distinct - 1 do
      let rec free i = if index'.(i) < 0 then i else free ((i + 1) land mask) in
      index'.(free (!hashes.(k) land mask)) <- k
    done;
    index := index'
  in
  let add start stop h =
    let len = stop - start in
    let index_ = !index in
    let mask = Array.length index_ - 1 in
    let i = ref (h land mask) in
    let k = ref (Array.unsafe_get index_ !i) in
    while !k >= 0 && not (!hashes.(!k) = h && same !words.(!k) data start len) do
      i := (!i + 1) land mask;
      k := Array.unsafe_get index_ !i
    done;
    if !k >= 0 then !counts.(!k) <- !counts.(!k) + 1
    else begin
      let k = !distinct in
      index_.(!i) <- k;
      !words.(k) <- Bytes.sub_string data start len;
      !counts.(k) <- 1;
      !hashes.(k) <- h;
      distinct := k + 1;
      if !distinct = Array.length !words then grow ()
    end
  in
  (* FNV-1a over the token's bytes, high bits folded into the low ones
     that pick the slot. *)
  let basis = 0x811c9dc5 in
  let start = ref 0 and h = ref basis in
  for i = 0 to n - 1 do
    let c = Bytes.unsafe_get data i in
    if is_sep c then begin
      if i > !start then add !start i (!h lxor (!h lsr 29));
      start := i + 1;
      h := basis
    end
    else h := (!h lxor Char.code c) * 0x100000001b3
  done;
  if n > !start then add !start n (!h lxor (!h lsr 29));
  let table = Hashtbl.create 1024 in
  for k = 0 to !distinct - 1 do
    Hashtbl.replace table !words.(k) !counts.(k)
  done;
  table

let encode_counts pairs =
  let buf = Buffer.create 4096 in
  List.iter (fun (w, c) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" w c)) pairs;
  Buffer.to_bytes buf

let decode_counts data =
  String.split_on_char '\n' (Bytes.to_string data)
  |> List.filter_map (fun line ->
         match String.rindex_opt line ' ' with
         | None -> None
         | Some i ->
             let w = String.sub line 0 i in
             let c = String.sub line (i + 1) (String.length line - i - 1) in
             (match int_of_string_opt c with Some c -> Some (w, c) | None -> None))

let sorted_pairs counts =
  Hashtbl.fold (fun w c acc -> (w, c) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_into target pairs =
  List.iter
    (fun (w, c) ->
      Hashtbl.replace target w
        (c + match Hashtbl.find_opt target w with Some x -> x | None -> 0))
    pairs

(* Cut on a word boundary at or after [want]. *)
let boundary data want =
  let n = Bytes.length data in
  let rec go i = if i >= n then n else if is_sep (Bytes.get data i) then i + 1 else go (i + 1) in
  if want >= n then n else go want

let chunk_slot i = Printf.sprintf "wc.chunk.%d" i
let part_slot m r = Printf.sprintf "wc.part.%d.%d" m r
let red_slot r = Printf.sprintf "wc.red.%d" r

let split_kernel m (ctx : Fctx.t) =
  let data = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_read (fun () -> data := ctx.Fctx.read_input input_path);
  let data = !data in
  let n = Bytes.length data in
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      Fctx.compute_bytes ctx ~ns_per_byte:split_ns_per_byte n);
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      let pos = ref 0 in
      for i = 0 to m - 1 do
        let target = if i = m - 1 then n else boundary data ((i + 1) * n / m) in
        ctx.Fctx.send ~slot:(chunk_slot i) (Bytes.sub data !pos (target - !pos));
        pos := target
      done)

let map_kernel r (ctx : Fctx.t) =
  let i = ctx.Fctx.instance in
  let chunk = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_transfer (fun () -> chunk := ctx.Fctx.recv ~slot:(chunk_slot i));
  let counts = ref (Hashtbl.create 16) in
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      counts := count_words !chunk;
      Fctx.compute_bytes ctx ~ns_per_byte:tokenize_ns_per_byte (Bytes.length !chunk));
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      let parts = Array.make r [] in
      Hashtbl.iter
        (fun w c ->
          let p = Hashtbl.hash w mod r in
          parts.(p) <- (w, c) :: parts.(p))
        !counts;
      Array.iteri (fun p pairs -> ctx.Fctx.send ~slot:(part_slot i p) (encode_counts pairs)) parts)

let reduce_kernel m (ctx : Fctx.t) =
  let p = ctx.Fctx.instance in
  let merged = Hashtbl.create 1024 in
  let received = ref 0 in
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      for i = 0 to m - 1 do
        let data = ctx.Fctx.recv ~slot:(part_slot i p) in
        received := !received + Bytes.length data;
        ctx.Fctx.phase Fctx.phase_compute (fun () ->
            merge_into merged (decode_counts data);
            Fctx.compute_bytes ctx ~ns_per_byte:merge_ns_per_byte (Bytes.length data))
      done);
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      ctx.Fctx.send ~slot:(red_slot p) (encode_counts (sorted_pairs merged)))

let merge_kernel r (ctx : Fctx.t) =
  let merged = Hashtbl.create 1024 in
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      for p = 0 to r - 1 do
        let data = ctx.Fctx.recv ~slot:(red_slot p) in
        ctx.Fctx.phase Fctx.phase_compute (fun () ->
            merge_into merged (decode_counts data);
            Fctx.compute_bytes ctx ~ns_per_byte:merge_ns_per_byte (Bytes.length data))
      done);
  ctx.Fctx.write_output output_path (encode_counts (sorted_pairs merged));
  ctx.Fctx.println "wordcount done"

let expected_counts ~seed ~size =
  sorted_pairs (count_words (Datagen.words_text ~seed size))

let app ~seed ~size ~instances =
  if size < 0 then invalid_arg "Wordcount.app: size must be >= 0";
  if instances < 1 then invalid_arg "Wordcount.app: instances must be >= 1";
  let m = instances and r = instances in
  let input = Datagen.words_text ~seed size in
  let expected = lazy (sorted_pairs (count_words input)) in
  {
    Fctx.app_name = "WordCount";
    stages =
      [
        ("split", 1, split_kernel m);
        ("map", m, map_kernel r);
        ("reduce", r, reduce_kernel m);
        ("merge", 1, merge_kernel r);
      ];
    inputs = [ (input_path, input) ];
    validate =
      (fun ~read_output ->
        match read_output output_path with
        | None -> Error "no output file"
        | Some data ->
            let got = decode_counts data in
            let want = Lazy.force expected in
            if List.length got <> List.length want then
              Error
                (Printf.sprintf "wordcount: %d distinct words, expected %d"
                   (List.length got) (List.length want))
            else if
              List.for_all2
                (fun (w1, c1) (w2, c2) -> String.equal w1 w2 && c1 = c2)
                got want
            then Ok ()
            else Error "wordcount: counts differ");
    modules = [ "mm"; "fdtab"; "stdio"; "time"; "fatfs" ];
  }
