(** Integrity (§2.5, §3.5): a loosely structured database is a set of facts
    and rules whose closure is free of contradictions.

    Integrity constraints are ordinary rules — they derive required facts
    into the closure — so checking reduces to finding contradictions in
    the closure itself:
    - two closure facts [(x,r,y)] and [(x,r',y)] with [(r,⊥,r')] in the
      closure (the paper's contradiction facts, e.g. (LOVES,⊥,HATES));
    - a closure fact the mathematical oracle refutes, e.g. a derived
      [(x,>,0)] when [x] is a non-positive number — this is how a
      constraint like "(x,∈,AGE) ⇒ (x,>,0)" fails. *)

type conflict =
  | Contradictory of Fact.t  (** the closure fact it clashes with *)
  | Math  (** refuted by the §3.6 oracle *)

type violation = { fact : Fact.t; conflict : conflict }

(** All contradictions in the current closure, sorted by fact and then
    conflict. Pairs are reported once.

    In eager mode, when the database has a clean check on record
    ({!Database.unchecked_facts}), only the contradictions that involve a
    fact the closure gained since then are looked for — the rules are
    negation-free, so these are all there can be. Otherwise the whole
    closure is scanned. Either way a clean result is recorded for the
    next check. Demand mode derives only the ⊥ extent, the extents it
    names and the comparator extents. *)
val violations : Database.t -> violation list

val is_valid : Database.t -> bool

(** [insert_checked db fact] inserts, validates the new closure, and rolls
    the insertion back if it created violations. Already-present facts
    yield [Ok false]. *)
val insert_checked : Database.t -> Fact.t -> (bool, violation list) result

(** [add_rule_checked db rule] — same discipline for rules (a new
    integrity constraint may be violated by existing data). *)
val add_rule_checked : Database.t -> Rule.t -> (unit, violation list) result

val describe : Database.t -> violation -> string
