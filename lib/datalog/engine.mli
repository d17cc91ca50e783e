(** The rule kernel: semi-naive rule application over a read-only view.

    Given a set of conjunctive rules (§2.6 of the paper) and a view of
    "all facts so far", {!round_view} evaluates one semi-naive round and
    {!find_derivation_view} checks a single fact for a one-step
    derivation. Neither mutates anything, so both can run on several pool
    domains at once. The fixpoint that drives rounds to closure and its
    delete/rederive maintenance live in {!Stratum}, the one stratum
    driver; the recorded derivations and their support index live in
    {!Derivations}. *)

type provenance = { rule : string; premises : Triple.t list }
(** One recorded derivation: rule name and premises in body order. *)

(** A read-only set of triples, and the only record for one: the join
    loops, the strata ({!Stratum}) and the demand evaluator ({!Magic})
    all read facts through it. It is built over one {!Index.t}
    ({!view_of_index}, which is also {!Stratum.view}) or over the
    caller's store. Each probe is one closure call; nothing is copied. *)
type view = {
  v_iter : s:int option -> r:int option -> tgt:int option -> (Triple.t -> unit) -> unit;
      (** [candidates]: every triple compatible with the pattern. *)
  v_mem : Triple.t -> bool;
  v_count : s:int option -> r:int option -> tgt:int option -> int;
      (** How many triples [v_iter] yields for the pattern, in O(1) per
          index read: exact for every view built here. Used for join
          ordering and degree hints. *)
  v_cardinal : unit -> int;
  v_seq : unit -> Triple.t Seq.t;
      (** Every triple, in the order a stratum loads or seeds them. *)
}

val view_of_index : Index.t -> view

(** [round_view rules ~full delta] — one semi-naive round of every rule
    against one delta chunk, reading [full] as frozen: returns the
    [(head, premises)] emissions buffered per rule (rule order matching
    [rules], emission order deterministic in the delta order),
    deduplicated against [full] and within the chunk. Every emission uses
    at least one premise from [delta], and the delta is iterated
    outermost, so splitting a delta into contiguous chunks and merging
    their emissions rule-major then chunk-major reproduces the unsplit
    stream. [?gov] is ticked at amortized batches; [Trip] propagates to
    the caller. *)
val round_view :
  ?gov:Lsdb_exec.Governor.t ->
  Rule.t array ->
  full:view ->
  Triple.t array ->
  (Triple.t * Triple.t list) list array

(** [find_derivation_view rules ~full fact] — is [fact] derivable in one
    rule application from the facts in [full]? Joins most-selective-first
    via [v_count]. Read-only; used by delete/rederive. *)
val find_derivation_view :
  Rule.t list -> full:view -> Triple.t -> provenance option
