(** The broadness structure (§5.1): the generalization hierarchy of the
    closure, with *minimal generalizations* — the covers of the [⊑]
    partial order.

    The closure is already transitively closed under [⊑] (the §3.1 rules
    include transitivity), so an entity's generalization set is read off
    its own [⊑] postings; covers are those not reachable through a third
    strictly intermediate entity, exactly the paper's definition.
    Entities with no stored generalization have [Δ] as their only minimal
    generalization; entities with no stored specialization have [∇]
    (§2.3's virtual extremes).

    A view over the database, not a copy: every read goes through the
    mode-aware closure accessors ({!Database.closure_match},
    {!Database.closure_mem}), so it always reflects the current closure,
    and in demand mode it derives only the hierarchy around the entities
    asked about. Every list is in entity-id order, in both modes. *)

type t

(** The hierarchy of the database's current closure. O(1). *)
val of_db : Database.t -> t

(** All strict generalizations [e'] with [(e,⊑,e')] in the closure. *)
val generalizations : t -> Entity.t -> Entity.t list

(** All strict specializations [e'] with [(e',⊑,e)] in the closure. *)
val specializations : t -> Entity.t -> Entity.t list

(** [is_generalization t ~of_:e e'] — strict [(e,⊑,e')], or [e' = Δ]. *)
val is_generalization : t -> of_:Entity.t -> Entity.t -> bool

(** Minimal generalizations per §5.1; [Δ] when none exist ([] for [Δ]
    itself). Each candidate's cover test walks the shorter of its two
    [⊑] posting lists, so the cost stays linear on class hubs. *)
val minimal_generalizations : t -> Entity.t -> Entity.t list

(** Dual: minimal specializations; [∇] when none exist ([] for [∇]). *)
val minimal_specializations : t -> Entity.t -> Entity.t list

(** Longest chain length from [e] up to [Δ] (for experiment B4). *)
val height : t -> Entity.t -> int
