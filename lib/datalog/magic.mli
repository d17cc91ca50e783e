(** Demand-driven closure: a magic-sets / QSQ-style transformation of the
    triple rules, evaluated semi-naively over the existing {!Index}
    machinery.

    Where {!Stratum.closure} saturates the whole fact set up front, a
    {!t} starts from the base facts alone and derives only the {e cone}
    a goal can touch: {!demand} seeds a magic predicate from the goal's
    bound arguments (the demanded pattern), unifies it with rule heads
    to create {e activations} (rules specialised by the head binding,
    body reordered most-bound-first — the sideways information passing),
    and runs their joins to fixpoint. Body atoms whose own pattern has
    not been demanded yet queue a sub-demand; facts those sub-demands
    derive re-enter the joins as deltas, so evaluation is semi-naive
    across the whole demand graph.

    Strata mirror {!Lsdb.Closure}: staged rules (inversion) close over
    base facts only, main rules over base ∪ stage. A demanded pattern at
    the main level implies the same demand at the stage level.

    Demanded cones are memoized for the lifetime of the state: demanding
    a pattern already covered by an earlier (possibly more general)
    demand answers straight from the cone indexes. {!insert} maintains
    the cones semi-naively; {!retract} is DRed-style delete/rederive
    over the cones' recorded derivations ({!Derivations}).

    Evaluation is deliberately single-threaded: cones are small (that is
    the point of demand), and answer sets are therefore identical for
    every pool size by construction. {!demand} enumerates its answers in
    {!Triple.compare} order. *)

type t

exception Diverged of int
(** Total fact count (base + cones) exceeded [max_facts]. *)

type stats = {
  goals : int;  (** external {!demand}/{!mem} calls *)
  memo_hits : int;  (** goals answered by an already-demanded cone *)
  memo_misses : int;  (** goals that ran a derivation *)
  magic_patterns : int;  (** demanded patterns (magic predicates) *)
  activations : int;  (** head-specialised rule instances created *)
  base_facts : int;
  stage_cone_facts : int;  (** facts derived into the stage stratum's cone *)
  full_cone_facts : int;  (** facts derived into the main stratum's cone *)
  deltas : int;  (** delta triples fed through activation joins *)
}

(** [create_shared ~staged_rules ~rules base] evaluates directly over
    the base facts' view — the caller's own index, not a copy, so setup
    is O(1) and a cold start pays only for the cone it derives; nothing
    is derived until the first {!demand}. The caller owns the base and
    keeps the view current: {!insert} must be called after (and only
    after) a new fact entered it, {!retract} after (and only after) one
    left it. *)
val create_shared :
  ?max_facts:int ->
  staged_rules:Rule.t list ->
  rules:Rule.t list ->
  Engine.view ->
  t

(** [demand t ~s ~r ~tgt f] derives (or re-uses) the cone of the pattern
    and calls [f] on every closure fact matching it, in {!Triple.compare}
    order. [None] positions are wildcards. *)
val demand :
  t -> s:int option -> r:int option -> tgt:int option -> (Triple.t -> unit) -> unit

(** [mem t triple] — is [triple] in the closure? Demands the ground
    pattern. *)
val mem : t -> Triple.t -> bool

(** [count_hint t ~s ~r ~tgt] — the exact number of base and
    already-derived cone facts matching the pattern, in O(1) per index.
    Never derives, so it is a lower bound on the closure's count until
    the pattern's cone is demanded: a selectivity hint. *)
val count_hint : t -> s:int option -> r:int option -> tgt:int option -> int

val degree_out : t -> int -> int
(** Out-degree over base + cones; a hint, like {!count_hint}. *)

val degree_in : t -> int -> int

(** [entity_occurs t e] — does [e] occur (as source, relationship or
    target) in any closure fact? Demands the three single-position
    patterns for [e]. *)
val entity_occurs : t -> int -> bool

(** [insert t triple] adds a base fact and extends every demanded cone
    it reaches (semi-naive, the fact entering as a delta). A cone fact
    asserted as base is demoted to base. The fact must already be in the
    view. *)
val insert : t -> Triple.t -> unit

(** [retract t triple] removes a base fact: the cone facts whose
    recorded derivation transitively rests on it are over-deleted, then
    every activation re-runs so survivors (including the retracted fact
    itself, if derivable) are restored. The fact must already be gone
    from the view. *)
val retract : t -> Triple.t -> unit

(** {1 Governed evaluation}

    [set_governor t gov] attaches (or clears) a cooperative governor:
    the work loop ticks it per queue step and emission and counts every
    cone fact derived. A trip abandons the remaining queued work — the
    structural half of {!insert}/{!retract} (base update, over-deletion)
    has already completed, so the cones stay a {e subset} of the true
    closure and partial answers remain sound — but demanded patterns may
    now be marked whose cones are incomplete: the state is {e poisoned}
    and must be rebuilt before serving ungoverned goals (the owner,
    {!Lsdb.Database}, does this on the next governor change). *)
val set_governor : t -> Lsdb_exec.Governor.t option -> unit

val poisoned : t -> bool
(** Has a governor trip left the memo tables incomplete? *)

val stats : t -> stats

val tier_stats : t -> Index.tier_stats
(** Frozen/delta tier sizes summed over the two cone indexes; the base
    is the caller's and is not counted. *)
