(** Evaluation index over ground triples: a two-tier posting store.

    The {e frozen tier} is one immutable packed segment — the triples
    sorted by [Triple.compare] in a flat spine with struct-of-arrays
    coordinate mirrors, contiguous ranges for the [s]/[(s,r)] access
    paths and runs of four id orders for the other four. A segment is
    built by radix-sorting ids on each coordinate, with one table entry
    per distinct key and no hashtable operation per triple. Iteration
    over it is cache-linear, membership is a binary search, counts are
    exact, and two postings can be intersected by galloping
    ({!intersect}).

    The {e delta tier} keeps recent inserts in the classic mutable list
    cells. {!freeze} folds the delta (and any tombstones) into a new
    segment; {!quiesce} applies the current {!policy} and is called by
    the engines at closure-round barriers — the natural single-threaded
    quiesce points — so indexes migrate toward the packed layout as they
    grow while small, churning indexes stay pure delta. *)

(** Tables keyed by entity ids, hashed with two integer operations
    instead of [Int.hash]'s C call. *)
module Int_tbl : Hashtbl.S with type key = int

type t

val create : ?size_hint:int -> unit -> t

(** [add t triple] is [true] if the triple was new, [false] if already
    present (in which case the index is unchanged). Re-adding a
    tombstoned triple resurrects it in place in either tier. *)
val add : t -> Triple.t -> bool

(** [remove t triple] is [true] iff the triple was present. O(1) in both
    tiers: a frozen triple flips a tombstone bit (folded away by the
    next freeze); a delta triple is tombstoned in its cells, which are
    compacted in bulk once tombstones exceed 1/8 of the live delta. *)
val remove : t -> Triple.t -> bool

val mem : t -> Triple.t -> bool
val cardinal : t -> int

(** Frozen tier first (ascending [Triple.compare] order), then the delta
    tier. Deterministic for a fixed index state. *)
val iter : (Triple.t -> unit) -> t -> unit

val to_seq : t -> Triple.t Seq.t

(** [candidates t ~s ~r ~t:tgt f] applies [f] to every stored triple
    compatible with the pattern; [None] positions are wildcards. The
    triples passed to [f] are guaranteed to match the bound positions. *)
val candidates :
  t -> s:int option -> r:int option -> tgt:int option -> (Triple.t -> unit) -> unit

(** [count t ~s ~r ~tgt] is the exact number of triples [candidates]
    enumerates for the same pattern, in O(1): frozen ranges/postings
    minus their sparse per-key tombstone counts, plus live delta cell
    lengths. *)
val count : t -> s:int option -> r:int option -> tgt:int option -> int

(** [count_s t e] / [count_t t e] — the exact O(1) out-degree and
    in-degree of an entity; option-free variants of {!count} for
    selectivity sums over whole frontiers. *)
val count_s : t -> int -> int

val count_t : t -> int -> int

(** {2 Freezing} *)

(** [freeze t] unconditionally folds the delta tier and every tombstone
    into a fresh packed segment (old segment + live delta, merged in
    sorted order). Content-neutral: membership, candidates and counts
    answer identically before and after. Must only be called at quiesce
    points — never while an iteration over the index is in flight. *)
val freeze : t -> unit

(** How {!quiesce} decides. [Watermark] (the default) freezes when the
    delta reaches both 8,192 triples and a quarter of the frozen spine,
    or when frozen tombstones pass 1/8 of the spine. [Always]/[Never]
    exist for the identity gates and the list-cell baseline: a process
    global, deliberately — benches and torture drivers flip whole runs
    at a time. *)
type policy = Always | Never | Watermark

val set_policy : policy -> unit
val policy : unit -> policy

(** [quiesce t] applies the freeze policy; called by the engines at
    round barriers and after retractions. *)
val quiesce : t -> unit

(** [bulk_add t triples] adds every triple, returning the fresh ones in
    first-occurrence order — observably identical to folding {!add}. On
    a virgin index (and a policy that freezes) it instead builds the
    frozen segment directly, skipping the per-fact hashtable and
    posting-cell allocation of the add loop entirely; this is the fast
    path for cold closure base loads. Input that already ascends
    strictly is not sorted: it is the spine and the fresh list. The
    index may keep [triples] as its spine; the caller must not mutate it
    afterwards. *)
val bulk_add : t -> Triple.t array -> Triple.t list

(** [load t triples] adds every triple and folds the whole index — old
    segment, delta, tombstones and the input — into one fresh frozen
    segment, whatever the {!policy}. Input that ascends strictly is used
    as given (into an empty index it becomes the spine, so the caller
    must not mutate it); anything else is sorted and deduplicated first.
    Like {!freeze}, only at quiesce points. *)
val load : t -> Triple.t array -> unit

(** [occurrences t f] calls [f e n] for each coordinate position
    (source, relationship, target) and each entity [e] that occurs
    there in [n > 0] live triples: one call per distinct key and
    position, none per triple. *)
val occurrences : t -> (int -> int -> unit) -> unit

type tier_stats = {
  frozen_live : int;
  frozen_dead : int;
  delta_live : int;
  delta_dead : int;
  freezes : int;  (** segment rebuilds since creation *)
}

val tier_stats : t -> tier_stats
val zero_stats : tier_stats
val sum_stats : tier_stats -> tier_stats -> tier_stats

(** {2 Galloping intersection}

    A {e hinge} is a posting path with exactly one free position: [Out]
    fixes source and relationship (free target), [In] fixes relationship
    and target (free source), [Via] fixes the endpoints (free
    relationship). *)

type hinge = Out of { s : int; r : int } | In of { r : int; t : int } | Via of { s : int; t : int }

(** The triple a hinge denotes once its free position is filled. *)
val hinge_triple : hinge -> int -> Triple.t

(** [intersect t h1 h2 emit] calls [emit] on every entity that fills
    both hinges' free position, exactly once each, deterministically for
    a fixed index state. Frozen postings are intersected by symmetric
    galloping (exponential probe + binary search) over the packed
    coordinate arrays; delta-resident matches are reconciled by probing
    the opposite tier. *)
val intersect : t -> hinge -> hinge -> (int -> unit) -> unit
