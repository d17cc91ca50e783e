(** The recorded derivations of a set of derived facts, and the support
    index that inverts them — the one copy behind delete/rederive in both
    evaluators ({!Stratum} and {!Magic}).

    Each derived fact keeps one derivation (rule and premises). The
    support index maps each premise to the facts whose recorded
    derivation uses it; it is built on the first {!cone} and then kept in
    step with every {!record} and {!forget}, so an evaluator that never
    retracts never pays for it. *)

type t

val create : unit -> t

(** [record t fact prov] records (or replaces) the derivation of [fact]. *)
val record : t -> Triple.t -> Engine.provenance -> unit

(** [forget t fact] drops the recorded derivation of [fact], if any. *)
val forget : t -> Triple.t -> unit

val find : t -> Triple.t -> Engine.provenance option
val mem : t -> Triple.t -> bool

(** Number of facts with a recorded derivation. *)
val length : t -> int

val iter : (Triple.t -> Engine.provenance -> unit) -> t -> unit

(** [cone t roots] — [roots] and every fact whose recorded derivation
    transitively rests on one of them, each once, in [Triple.compare]
    order: the over-deletion of delete/rederive. Builds the support index
    on first use. *)
val cone : t -> Triple.t list -> Triple.t list

(** Edges in the support index (premise ↦ dependent); [0] until the
    first {!cone} builds it. *)
val support_size : t -> int
