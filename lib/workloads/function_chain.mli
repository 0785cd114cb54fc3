(** FunctionChain (from ServerlessBench): a sequential chain of N
    functions, each receiving the intermediate data, touching it and
    forwarding it.  Long workflows, pure data-plane stress — no file
    input. *)

val app : seed:int -> payload:int -> length:int -> Fctx.app
(** The head function fabricates [payload] bytes; every link touches
    them and forwards them; the tail verifies end to end, checking the
    received bytes against the checksum of an independent generation
    of the payload (made once per app), and publishes the checksum as
    its output line.  Raises [Invalid_argument] if [length < 2] or
    [payload < 0]. *)

val checksum : bytes -> int64
(** The rolling checksum the tail verifies (exposed for tests). *)
