(** Bounded freelists for host-side object recycling.

    A pool parks released objects (pages, process tables, collector
    shards, fault plans, WFD shells) so the next acquire reuses one
    instead of allocating.  Pools are host-only: the caller scrubs an
    object at its own call site, on release or on take, so a recycled
    object is observationally a fresh one and no virtual result can
    depend on whether the pool hit.

    Two flavours share one interface:
    - {!per_domain}: one freelist per OCaml domain, no locks.  For
      objects acquired and released on the same domain.
    - {!shared}: one mutex-guarded freelist.  For objects released on
      a domain other than the one that acquired them. *)

type 'a t

val per_domain : cap:int -> unit -> 'a t
(** A domain-local pool: each domain keeps up to [cap] objects of its
    own and never sees another domain's.  Raises [Invalid_argument]
    when [cap] is negative. *)

val shared : cap:int -> unit -> 'a t
(** A pool of up to [cap] objects shared by every domain behind one
    mutex.  Raises [Invalid_argument] when [cap] is negative. *)

val take : 'a t -> fresh:(unit -> 'a) -> 'a
(** The most recently given object (LIFO), or [fresh ()] when the
    pool is empty.  A hit allocates nothing; pass a closed [fresh]
    function so the call site allocates no closure either. *)

val take_opt : 'a t -> 'a option
(** The most recently given object, or [None] when the pool is empty —
    for callers whose fresh path needs the miss to build the object
    differently.  Allocates the option on a hit. *)

val give : 'a t -> 'a -> bool
(** Park an object for reuse.  Returns [false] and keeps nothing when
    the pool already holds [cap] objects: the caller still owns the
    object and disposes of it. *)

val drain : 'a t -> 'a list
(** Remove and return every pooled object, most recently given first.
    A {!per_domain} pool drains the calling domain's freelist only. *)
