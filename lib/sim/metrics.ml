(* Histogram / gauge registry.  Handles are names; the backing cells
   live in a registry resolved through domain-local storage, so
   [Par.with_shard] can route a parallel task's observations into a
   private shard (no locks on the hot path) and [merge_into] folds
   them back at a deterministic join point.

   Aggregates (bucket counts, count, sum, min, max) are always exact.
   The raw-sample reservoir feeding percentile queries can be thinned
   1-in-k ([set_raw_sample_every]) so memory stays O(count / k) under
   10^5-request load; with k = 1 (the default) behaviour and floating
   point results are bit-identical to the unsampled registry.  While
   thinning is active every observation additionally feeds a
   deterministic t-digest, and percentile queries answer from that
   sketch — full-population estimates in O(1) memory — instead of the
   thinned reservoir or the coarse log2 buckets. *)

type histo_snapshot = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_buckets : (int * int) list;
}

type histo = {
  buckets : int array;  (* 64 log2 buckets; index via [bucket_index] *)
  samples : Stats.t;  (* raw reservoir for percentiles; may be thinned *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;  (* infinity when empty *)
  mutable h_max : float;  (* neg_infinity when empty *)
  mutable h_seen : int;  (* reservoir offers, kept or not *)
  mutable h_sketch : Sketch.Tdigest.t option;
      (* full-population digest, allocated on the first thinned
         observation; [None] at k = 1 so the default path never touches
         it *)
  mutable h_snap : histo_snapshot option;
      (* memoized snapshot, invalidated by any mutation — repeated
         exporter reads (a Prometheus scrape per soak snapshot line)
         cost one hashtable walk, not a percentile query per cell *)
}

type registry = {
  r_histograms : (string, histo) Hashtbl.t;
  r_gauges : (string, float ref) Hashtbl.t;
  mutable r_every : int;  (* keep 1 raw sample in r_every *)
  mutable r_phase : int;
}

type histogram = string
type gauge = string

let create_registry () =
  {
    r_histograms = Hashtbl.create 16;
    r_gauges = Hashtbl.create 16;
    r_every = 1;
    r_phase = 0;
  }

let default = create_registry ()

let current_key = Domain.DLS.new_key create_registry
let () = Domain.DLS.set current_key default
let current () = Domain.DLS.get current_key
let set_current r = Domain.DLS.set current_key r

let set_raw_sample_every ?(seed = 0) every =
  if every < 1 then invalid_arg "Metrics.set_raw_sample_every: every must be >= 1";
  let r = current () in
  r.r_every <- every;
  r.r_phase <- ((seed mod every) + every) mod every

let raw_sample_every () = (current ()).r_every

let histo_cell r name =
  match Hashtbl.find_opt r.r_histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          buckets = Array.make 64 0;
          samples = Stats.create ();
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
          h_seen = 0;
          h_sketch = None;
          h_snap = None;
        }
      in
      Hashtbl.replace r.r_histograms name h;
      h

let gauge_cell r name =
  match Hashtbl.find_opt r.r_gauges name with
  | Some g -> g
  | None ->
      let g = ref 0.0 in
      Hashtbl.replace r.r_gauges name g;
      g

(* Prometheus-style dimensional names: [labels "x" ["ep","a"]] is
   [x{ep="a"}].  Keys are sorted so one label set always encodes to
   one name, making labelled series as deterministic as plain ones —
   a handle is still just a name, so the encoding works for
   histograms, gauges, [Stats.Counter]s and [Timeseries] series
   alike.  Exporters split at the first '{' to recover the base. *)
let labels name kvs =
  match kvs with
  | [] -> name
  | kvs ->
      let esc v =
        let buf = Buffer.create (String.length v) in
        String.iter
          (fun c ->
            match c with
            | '"' | '\\' ->
                Buffer.add_char buf '\\';
                Buffer.add_char buf c
            | '\n' -> Buffer.add_string buf "\\n"
            | c -> Buffer.add_char buf c)
          v;
        Buffer.contents buf
      in
      let kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs in
      let parts = List.map (fun (k, v) -> k ^ "=\"" ^ esc v ^ "\"") kvs in
      name ^ "{" ^ String.concat "," parts ^ "}"

let base_name name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Registration persists across [reset] so never-observed series still
   export (with zero counts). *)
let histogram name =
  ignore (histo_cell (current ()) name);
  name

(* Bucket on the integer part so the boundary behaviour is exact:
   bucket 0 <-> v < 1, bucket i <-> 2^(i-1) <= v < 2^i.  Int64 bit
   length is deterministic where float log2 near powers of two is not.
   Below 2^62 the integer part fits an int and is counted without
   allocating; larger values, infinity and NaN take the Int64 path. *)
let bucket_index v =
  let v = if v < 0.0 then 0.0 else v in
  if v < 0x1p62 then begin
    let rec bits acc n = if n = 0 then acc else bits (acc + 1) (n lsr 1) in
    bits 0 (int_of_float v)
  end
  else begin
    let rec bits acc n = if n = 0L then acc else bits (acc + 1) (Int64.shift_right_logical n 1) in
    let i = bits 0 (Int64.of_float v) in
    if i > 63 then 63 else i
  end

let bucket_bound i = 2.0 ** float_of_int i

(* One observation: exact aggregates unconditionally, reservoir offer
   through the registry's 1-in-k sampler. *)
let observe_cell r (cell : histo) v =
  cell.h_snap <- None;
  let i = bucket_index v in
  cell.buckets.(i) <- cell.buckets.(i) + 1;
  cell.h_count <- cell.h_count + 1;
  cell.h_sum <- cell.h_sum +. v;
  if v < cell.h_min then cell.h_min <- v;
  if v > cell.h_max then cell.h_max <- v;
  let keep = r.r_every <= 1 || cell.h_seen mod r.r_every = r.r_phase in
  cell.h_seen <- cell.h_seen + 1;
  if keep then Stats.add cell.samples v;
  if r.r_every > 1 then begin
    let d =
      match cell.h_sketch with
      | Some d -> d
      | None ->
          let d = Sketch.Tdigest.create () in
          cell.h_sketch <- Some d;
          d
    in
    Sketch.Tdigest.add d v
  end

let observe h v =
  let r = current () in
  observe_cell r (histo_cell r h) v

let observe_time h d = observe h (Int64.to_float (Units.to_ns d))

let histogram_count h = (histo_cell (current ()) h).h_count
let histogram_sum h = (histo_cell (current ()) h).h_sum

let gauge name =
  ignore (gauge_cell (current ()) name);
  name

let set_gauge g v = gauge_cell (current ()) g := v

let max_gauge g v =
  let cell = gauge_cell (current ()) g in
  if v > !cell then cell := v

let gauge_value g = !(gauge_cell (current ()) g)

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : histo_snapshot list;
}

(* Percentile estimate when the raw reservoir has been thinned to
   nothing but buckets still hold counts: walk the cumulative bucket
   counts and return the matched bucket's upper bound. *)
let bucket_percentile (h : histo) p =
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.h_count)) in
  let rank = if rank < 1 then 1 else rank in
  let acc = ref 0 and ans = ref 0.0 and found = ref false in
  for i = 0 to 63 do
    if not !found then begin
      acc := !acc + h.buckets.(i);
      if !acc >= rank then begin
        ans := bucket_bound i;
        found := true
      end
    end
  done;
  !ans

let snapshot_histogram name (h : histo) =
  match h.h_snap with
  | Some s -> s
  | None ->
  let empty = h.h_count = 0 in
  let lossless = (not (Stats.is_empty h.samples)) && Stats.count h.samples = h.h_count in
  let pct p =
    if empty then 0.0
    else if lossless then Stats.percentile h.samples p
    else
      match h.h_sketch with
      | Some d when Sketch.Tdigest.count d > 0.0 -> Sketch.Tdigest.percentile d p
      | _ ->
          if Stats.is_empty h.samples then bucket_percentile h p
          else Stats.percentile h.samples p
  in
  let buckets = ref [] in
  for i = 63 downto 0 do
    if h.buckets.(i) > 0 then buckets := (i, h.buckets.(i)) :: !buckets
  done;
  let s =
    {
      hs_name = name;
      hs_count = h.h_count;
      hs_sum = h.h_sum;
      hs_min = (if empty then 0.0 else h.h_min);
      hs_max = (if empty then 0.0 else h.h_max);
      hs_p50 = pct 50.0;
      hs_p90 = pct 90.0;
      hs_p99 = pct 99.0;
      hs_buckets = !buckets;
    }
  in
  h.h_snap <- Some s;
  s

let snapshot () =
  let r = current () in
  let gs =
    Hashtbl.fold (fun n g acc -> (n, !g) :: acc) r.r_gauges []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let hs =
    Hashtbl.fold (fun n h acc -> snapshot_histogram n h :: acc) r.r_histograms []
    |> List.sort (fun a b -> String.compare a.hs_name b.hs_name)
  in
  { snap_counters = Stats.counters (); snap_gauges = gs; snap_histograms = hs }

let clear_cell (h : histo) =
  Array.fill h.buckets 0 64 0;
  Stats.clear h.samples;
  h.h_count <- 0;
  h.h_sum <- 0.0;
  h.h_min <- infinity;
  h.h_max <- neg_infinity;
  h.h_seen <- 0;
  (match h.h_sketch with Some d -> Sketch.Tdigest.clear d | None -> ());
  h.h_snap <- None

let reset () =
  let r = current () in
  Hashtbl.iter (fun _ h -> clear_cell h) r.r_histograms;
  Hashtbl.iter (fun _ g -> g := 0.0) r.r_gauges;
  Stats.reset_counters ()

(* Scrub a registry in place for reuse as a fresh shard: histogram
   cells are cleared but *kept* (their bucket arrays, reservoirs and
   digests are the expensive part of a shard — reusing them is the
   point), gauge cells are dropped (they are single refs; keeping them
   would make a recycled shard merge gauge names a fresh shard never
   observed).  Sampling state returns to the [create_registry]
   default. *)
let reset_registry (r : registry) =
  Hashtbl.iter (fun _ h -> clear_cell h) r.r_histograms;
  Hashtbl.reset r.r_gauges;
  r.r_every <- 1;
  r.r_phase <- 0

(* Fold a shard registry into the current one.  Series are visited in
   sorted-name order so the merged sequence depends only on the order
   of [merge_into] calls, never on host completion order.

   A lossless shard (its reservoir kept every observation — the normal
   case for per-request shards) is replayed sample by sample, which
   keeps float accumulation order — and therefore sums and percentile
   views — bit-identical to observing directly, while the destination
   applies its own 1-in-k reservoir thinning.  A shard whose reservoir
   was itself thinned merges by exact aggregates, and its surviving
   raw samples transfer without a second thinning.  Gauges merge with
   max (every gauge in the tree is a high-watermark). *)
let merge_into (src : registry) =
  let dst = current () in
  Hashtbl.fold (fun n h acc -> (n, h) :: acc) src.r_histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (n, (h : histo)) ->
         if h.h_count = 0 && h.h_seen = 0 && Stats.is_empty h.samples then
           (* Nothing was observed: skip, so a recycled shard carrying
              cleared cells for series from earlier requests merges
              byte-identically to a fresh shard. *)
           ()
         else
         let cell = histo_cell dst n in
         if Stats.count h.samples = h.h_count then
           List.iter (fun v -> observe_cell dst cell v) (Stats.to_list h.samples)
         else begin
           cell.h_snap <- None;
           for i = 0 to 63 do
             cell.buckets.(i) <- cell.buckets.(i) + h.buckets.(i)
           done;
           cell.h_count <- cell.h_count + h.h_count;
           cell.h_sum <- cell.h_sum +. h.h_sum;
           if h.h_min < cell.h_min then cell.h_min <- h.h_min;
           if h.h_max > cell.h_max then cell.h_max <- h.h_max;
           cell.h_seen <- cell.h_seen + h.h_seen;
           List.iter (fun v -> Stats.add cell.samples v) (Stats.to_list h.samples);
           (* Carry the shard's full-population digest so destination
              percentiles still cover every observation. *)
           match h.h_sketch with
           | None -> ()
           | Some src_d ->
               let dst_d =
                 match cell.h_sketch with
                 | Some d -> d
                 | None ->
                     let d = Sketch.Tdigest.create () in
                     cell.h_sketch <- Some d;
                     d
               in
               Sketch.Tdigest.merge_into ~src:src_d ~dst:dst_d
         end);
  Hashtbl.fold (fun n g acc -> (n, !g) :: acc) src.r_gauges []
  |> List.iter (fun (n, v) ->
         let cell = gauge_cell dst n in
         if v > !cell then cell := v)
