(** A small domain pool for data-parallel fan-outs.

    The pool owns [domains - 1] long-lived worker domains; the calling
    domain is always the remaining lane, so every parallel operation makes
    progress even when the workers are busy (which also makes nested
    {!map} calls on the same pool deadlock-free). Work items are claimed
    from a shared atomic cursor, but results are written back by input
    index, so {!map} is deterministic: output order equals input order
    regardless of scheduling.

    The pool is intended for read-only fan-outs over shared structures
    (retraction waves, closure rounds): callers must ensure the shared
    data is not mutated for the duration of a call — see
    [Database.prepare_readers]. *)

type t

(** [create ~domains] starts a pool with [domains] total lanes
    ([domains - 1] spawned worker domains; values [<= 1] spawn none and
    make every operation run inline on the caller). *)
val create : domains:int -> t

(** Total lanes, including the calling domain. Always [>= 1]. *)
val size : t -> int

(** [map pool f xs] applies [f] to every element, in parallel, returning
    results in input order. If one or more applications raise, the items
    still all run, and the exception of the {e lowest-indexed} failing
    item is re-raised in the caller (with its backtrace) — so failure
    behavior is deterministic too.

    Raises [Invalid_argument] if the pool has been shut down. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Array counterpart of {!map}. *)
val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

(** [fold pool ~f ~combine ~init xs] maps [f] in parallel, then combines
    the results sequentially in input order — deterministic for any
    [combine], associative or not. *)
val fold : t -> f:('a -> 'b) -> combine:('acc -> 'b -> 'acc) -> init:'acc -> 'a list -> 'acc

(** [submit pool job] enqueues a fire-and-forget job for a worker domain
    (run inline by the next pool operation's caller lane only if no
    worker exists). Unlike {!map}, there is no completion handle. If
    [job] raises, the exception is counted in
    [lsdb_pool_job_exceptions_total] and parked; the next {!map} or
    {!map_array} call on this pool re-raises it in the caller — escaped
    exceptions (e.g. [Governor.Trip]-class) are never silently dropped.

    Raises [Invalid_argument] if the pool has been shut down. *)
val submit : t -> (unit -> unit) -> unit

(** Stop the workers and join them. Idempotent. Outstanding operations
    must have completed; subsequent {!map}/{!fold} calls raise
    [Invalid_argument]. *)
val shutdown : t -> unit

(** What the runtime recommends for this machine
    ([Domain.recommended_domain_count]). *)
val default_domains : unit -> int
