(** The shard-scaling workload (experiment B20): a large flat graph of
    individual-relationship facts whose {e source} entities — the shard
    keys — are drawn from a Zipf distribution, plus a small two-level
    class taxonomy with a sprinkling of memberships.

    Derivation is deliberately light (only the memberships generalize):
    closure cost on this workload is dominated by how the engine loads
    and reads the base facts, not by what the rules derive. The skew
    knob controls partition balance: hash partitioning spreads distinct
    keys evenly but never splits one key's postings, so hot sources
    concentrate whole posting lists on single shards. *)

type params = {
  facts : int;  (** individual-relationship facts (pre-dedup) *)
  entities : int;
  relationships : int;  (** distinct individual relationship names *)
  classes : int;  (** taxonomy size (first quarter are roots) *)
  memberships : int;  (** entities given a class membership *)
  skew : float;  (** Zipf exponent over source-entity ranks; 0 = uniform *)
}

val default_params : params

type t = { params : params; facts : (string * string * string) list }

(** Deterministic for a fixed [Rng] seed and parameter set. *)
val generate : ?params:params -> Rng.t -> t

(** Number of generated fact lines (duplicates included — the database
    dedups on insert). *)
val fact_count : t -> int

(** A fresh database holding the generated facts, with [shards] internal
    heap shards ({!Lsdb.Database.create}). *)
val to_database : ?max_facts:int -> ?shards:int -> t -> Lsdb.Database.t
