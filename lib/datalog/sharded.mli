(** One stratum of a closure: the semi-naive driver, its delete/rederive
    maintenance and its support index — the only ones outside the demand
    evaluator ({!Magic}).

    A stratum closes its {e input} (an {!Engine.view}: the caller's
    store, or the previous stratum's {!view}) under a rule set, recording
    one derivation per derived fact ({!Derivations}). Its {!Shard.plan}
    picks the layout:
    - {b one shard}: the stratum bulk-loads its input into its own
      {!Index.t} and derives into the same index. Every probe then hits
      one packed index, which is what the join loops, galloping
      {!intersect} and per-insert scans want; on the 175k-fact
      organization closure reading through a store instead costs 40–50%
      (EXPERIMENTS.md).
    - {b more shards}: the stratum reads its input {e through} the base
      and keeps only derived facts, in [N] overlays — a derived triple
      lives in the overlay of the shard owning its source entity. Nothing
      is copied out of the base, so on a million-fact heap with light
      derivation cold closures scale with what the rules derive, not with
      the heap.

    Rounds use a barrier discipline: every rule application in a round
    reads the union view as of the round start ({!Engine.round_view}), and
    the round's emissions are merged rule-major then slice-major at a
    single-threaded barrier that routes each accepted fact to its owner's
    index. With a pool, a one-shard round fans its delta out in contiguous
    chunks of at least 32 facts; above one shard each shard's slice runs
    on a persistent per-shard worker lane ({!Lsdb_exec.Pool.lanes}), and a
    round fans out only when more than one slice is non-empty. For a fixed
    shard count the result (fact set, derivation order, provenance,
    rounds) is identical at every pool size; across shard counts the fact
    set is identical but enumeration and derivation order are not.

    Every entry point accepts an optional {!Lsdb_exec.Governor.t} and
    checkpoints it at round barriers plus amortized ticks inside the rule
    joins. A trip never escapes: the stratum is left a {e consistent
    subset} of the ungoverned result (index, derived list and provenance
    agree with each other at the interruption point; retraction leaves
    unchecked cone facts removed). Callers detect partiality with
    [Governor.tripped]. *)

type t

exception Diverged of int
(** Raised (with the cardinal reached) when the stratum's facts, input
    included, exceed [max_facts] — a safety valve for rule sets that
    generate unboundedly, which the paper notes is possible with
    unrestricted composition. *)

val create : ?max_facts:int -> plan:Shard.plan -> Engine.view -> t
(** An empty stratum over the input view. [max_facts] defaults to 10M. *)

val plan : t -> Shard.plan

val view : t -> Engine.view
(** Everything the stratum sees, and the next stratum's input: its own
    index at one shard; above one shard the union of input and overlays,
    where bound-source probes touch the input and one overlay,
    unbound-source probes fan out across all overlays, and the sequence
    is the input's facts, then the overlays shard-major. *)

(** [closure ?pool ?gov rules t] — the semi-naive fixpoint from the input
    ([v_seq], enumerated under the governor's checkpoints; loaded
    into the stratum's index at one shard). Returns the derived triples in
    derivation order. A governor trip yields a sound prefix. *)
val closure :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t list ->
  t ->
  Triple.t list

(** [extend ?pool ?gov rules t extras] — maintenance under insertion:
    [extras] just entered the input (the caller has already added them to
    the input view; at one shard the stratum copies them in). Facts the stratum
    had derived are demoted to input (their recorded derivation dropped,
    as a recompute would have it); the genuinely new ones seed a
    fixpoint. Returns the facts the stratum did not see before — new
    input facts, then derived ones in derivation order — which are what
    the next stratum must be extended with. *)
val extend :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t list ->
  t ->
  Triple.t list ->
  Triple.t list

(** [retract ?pool ?gov rules t deleted] — delete/rederive: [deleted]
    just left the input (above one shard the caller has already removed
    them from the input view). The cone of facts whose recorded derivation
    rests on them is over-deleted, then every cone member still derivable
    from the surviving view is restored (the checks fan out across the
    pool, read-only). The fact set then equals a from-scratch {!closure}
    over the surviving input, at any pool size. Returns the cone facts
    gone for good, in [Triple.compare] order — what the next stratum must
    retract. *)
val retract :
  ?pool:Lsdb_exec.Pool.t ->
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t list ->
  t ->
  Triple.t list ->
  Triple.t list

(** [closed_under rules t] — does one application round of [rules] over
    everything the stratum sees produce nothing new? *)
val closed_under : Rule.t list -> t -> bool

val mem : t -> Triple.t -> bool
val cardinal : t -> int
(** Input + derived facts. *)

val derived_count : t -> int
val is_derived : t -> Triple.t -> bool
val provenance : t -> Triple.t -> Engine.provenance option
val iter_provenance : (Triple.t -> Engine.provenance -> unit) -> t -> unit

val iter_overlays : (Triple.t -> unit) -> t -> unit
(** Every fact the stratum's own indexes hold, shard-major: input and
    derived facts at one shard, derived facts only above. *)

val owns_input : t -> bool
(** [true] at one shard, where {!iter_overlays} covers the input too. *)

val rounds : t -> int

val support_size : t -> int
(** {!Derivations.support_size}: [0] until the first retraction builds
    the support index. *)

val overlay_cardinals : t -> int array
(** Live derived facts per shard — the partition balance. *)

val exchanged : t -> int
(** Cross-shard routings so far: consequences produced while evaluating
    one shard's delta but owned by another shard. [0] at one shard. *)

val reshard_hint : t -> (int * int * int) option
(** [(shard, permille, streak)] when the imbalance gauge has pinned at or
    above 1500‰ for 3+ consecutive fixpoints: the hottest overlay's shard
    index, the latest reading, and how many fixpoints it has pinned.
    Cleared as soon as a fixpoint observes balance again. *)

val tier_stats : t -> Index.tier_stats
(** Frozen/delta tier sizes summed over the stratum's indexes. *)

val intersect : t -> Index.hinge -> Index.hinge -> (int -> unit) -> bool
(** [intersect t h1 h2 emit] gallop-intersects two posting paths of the
    stratum's own index ({!Index.intersect}); [false] above one shard,
    where there is no single packed index. *)
