let input_path = "/input/records.bin"
let output_path = "/output/sorted.bin"

(* Native compute rates: partitioning is a streaming pass; sorting is
   charged per record * log2(records). *)
let split_ns_per_byte = 0.35
let concat_ns_per_byte = 0.12
let sort_ns_per_compare = 1.05

(* Record [i]'s unsigned key, zero-extended into an int: the unsigned
   record order is the natural order of the keys. *)
let[@inline] key data i = Int32.to_int (Bytes.get_int32_le data (i * 4)) land 0xFFFF_FFFF

let sort_records data =
  (* LSD radix sort over the keys, two 16-bit passes: O(n) and stable. *)
  let n = Datagen.record_count data in
  let src = Array.make n 0 in
  for i = 0 to n - 1 do
    src.(i) <- key data i
  done;
  let dst = Array.make n 0 in
  let radix = 1 lsl 16 in
  let counts = Array.make (radix + 1) 0 in
  let pass ~shift from into =
    Array.fill counts 0 (radix + 1) 0;
    for i = 0 to n - 1 do
      let d = (from.(i) lsr shift) land (radix - 1) in
      counts.(d + 1) <- counts.(d + 1) + 1
    done;
    for d = 1 to radix do
      counts.(d) <- counts.(d) + counts.(d - 1)
    done;
    for i = 0 to n - 1 do
      let d = (from.(i) lsr shift) land (radix - 1) in
      into.(counts.(d)) <- from.(i);
      counts.(d) <- counts.(d) + 1
    done
  in
  if n > 0 then begin
    pass ~shift:0 src dst;
    pass ~shift:16 dst src
  end;
  let out = Bytes.create (n * 4) in
  for i = 0 to n - 1 do
    Bytes.set_int32_le out (i * 4) (Int32.of_int src.(i))
  done;
  out

let is_sorted data =
  let n = Datagen.record_count data in
  let rec go i prev = i >= n || (let k = key data i in prev <= k && go (i + 1) k) in
  n = 0 || go 1 (key data 0)

(* Top bits of the unsigned key. *)
let bucket_of_key k ~buckets = (k lsr 8) * buckets / 0x1000000
let bucket_of v ~buckets = bucket_of_key (Int32.to_int v land 0xFFFF_FFFF) ~buckets

let bucket_slot i = Printf.sprintf "ps.bucket.%d" i
let sorted_slot i = Printf.sprintf "ps.sorted.%d" i

let sort_cost_ns records =
  if records < 2 then 0.0
  else begin
    let n = float_of_int records in
    n *. (log n /. log 2.0) *. sort_ns_per_compare
  end

let split_kernel p (ctx : Fctx.t) =
  let data = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_read (fun () -> data := ctx.Fctx.read_input input_path);
  let data = !data in
  let n = Datagen.record_count data in
  (* Two passes: size each bucket exactly, then copy the records in. *)
  let fill = Array.make p 0 in
  let buckets = ref [||] in
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      for i = 0 to n - 1 do
        let b = bucket_of_key (key data i) ~buckets:p in
        fill.(b) <- fill.(b) + 4
      done;
      let out = Array.map Bytes.create fill in
      Array.fill fill 0 p 0;
      for i = 0 to n - 1 do
        let b = bucket_of_key (key data i) ~buckets:p in
        Bytes.set_int32_le out.(b) fill.(b) (Bytes.get_int32_le data (i * 4));
        fill.(b) <- fill.(b) + 4
      done;
      buckets := out;
      Fctx.compute_bytes ctx ~ns_per_byte:split_ns_per_byte (Bytes.length data));
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      Array.iteri (fun i bucket -> ctx.Fctx.send ~slot:(bucket_slot i) bucket) !buckets)

let sort_kernel (ctx : Fctx.t) =
  let i = ctx.Fctx.instance in
  let bucket = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_transfer (fun () -> bucket := ctx.Fctx.recv ~slot:(bucket_slot i));
  let sorted = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      sorted := sort_records !bucket;
      ctx.Fctx.compute
        (Sim.Units.ns_f (sort_cost_ns (Datagen.record_count !bucket))));
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      ctx.Fctx.send ~slot:(sorted_slot i) !sorted)

let merge_kernel p (ctx : Fctx.t) =
  let parts = ref [] in
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      for i = p - 1 downto 0 do
        parts := ctx.Fctx.recv ~slot:(sorted_slot i) :: !parts
      done);
  let out = Bytes.concat Bytes.empty !parts in
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      Fctx.compute_bytes ctx ~ns_per_byte:concat_ns_per_byte (Bytes.length out));
  if not (is_sorted out) then failwith "ParallelSorting: merge produced unsorted output";
  ctx.Fctx.write_output output_path out;
  ctx.Fctx.println "parallel-sorting done"

let app ~seed ~size ~instances =
  if size < 0 then invalid_arg "Parallel_sorting.app: size must be >= 0";
  if instances < 1 then invalid_arg "Parallel_sorting.app: instances must be >= 1";
  let p = instances in
  let count = size / 4 in
  let input = Datagen.int32_records ~seed ~count in
  {
    Fctx.app_name = "ParallelSorting";
    stages =
      [ ("split", 1, split_kernel p); ("sort", p, sort_kernel); ("merge", 1, merge_kernel p) ];
    inputs = [ (input_path, input) ];
    validate =
      (fun ~read_output ->
        match read_output output_path with
        | None -> Error "no output file"
        | Some data ->
            if Bytes.length data <> count * 4 then
              Error
                (Printf.sprintf "sorted output has %d bytes, expected %d"
                   (Bytes.length data) (count * 4))
            else if not (is_sorted data) then Error "output is not sorted"
            else Ok ());
    modules = [ "mm"; "fdtab"; "stdio"; "time"; "fatfs" ];
  }
