(** Deterministic hash partitioning of facts by source entity.

    A heap with no schema has no natural partitioning key, which is
    exactly why a mechanical one works: every fact is routed by a fixed
    avalanche hash of its source entity, so any loosely structured heap
    splits into [n] shards without coordination, and two runs always
    agree on the owner of a fact. The heap ([Lsdb.Store]) routes through
    this module; the closure does not route by shard. Routing is by
    interned id, which is stable for the life of a symbol table; on disk
    the heap is one log and one snapshot, so nothing persistent routes by
    shard. *)

type plan
(** An immutable partitioning plan: just the shard count, carried as an
    abstract value so a plan built once is threaded through rather than
    re-derived. *)

val plan : int -> plan
(** [plan n] — a plan with [max 1 n] shards. *)

val shards : plan -> int
(** Number of shards ([>= 1]). *)

val of_entity : plan -> int -> int
(** [of_entity plan e] — the shard owning facts whose source is entity
    [e]; in [\[0, shards plan)]. Deterministic in [(shards plan, e)]
    only. *)

val of_triple : plan -> Triple.t -> int
(** Owner shard of a ground triple: [of_entity plan triple.s]. *)
