(** ParallelSorting: the classic parallel sample-free range sort.

    High parallelism, dense intermediate data.  Stage structure:
    [split -> sort xP -> merge]: the splitter range-partitions the
    uniformly-random 4-byte records into P buckets by their top bits,
    each sorter really sorts its bucket, and the merger concatenates
    the buckets (already ordered bucket-to-bucket) and verifies global
    sortedness. *)

val input_path : string
val output_path : string

val app : seed:int -> size:int -> instances:int -> Fctx.app
(** [size] is the input byte count (rounded down to whole records).
    Raises [Invalid_argument] if [size < 0] or [instances < 1]. *)

(** {1 Internals exposed for tests} *)

val sort_records : bytes -> bytes
(** Real unsigned sort of the 4-byte records. *)

val is_sorted : bytes -> bool
(** Whether the whole records are in unsigned order. *)

val bucket_of : int32 -> buckets:int -> int
