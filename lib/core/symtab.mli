(** Per-database symbol table: bidirectional name ↔ entity-id interning.

    A fresh table already contains the {!Entity} specials at their fixed
    ids (canonical names and ASCII aliases both resolve). Numeric entities
    — names that denote numbers, optionally decorated like ["$25000"] or
    ["1,500"] — have their value parsed once at interning time so the
    virtual-fact oracle (§3.6) can compare them without re-parsing.

    The table is domain-safe: lookups and interning are serialized, and
    id → name/value reads may run concurrently with interning (parallel
    query evaluation interns composed relationship names on the fly). *)

type t

val create : unit -> t

(** [intern t name] returns the id for [name], allocating it on first use.
    Aliases of special entities resolve to the special id. *)
val intern : t -> string -> Entity.t

(** [intern_all t names] interns every name in order, under one lock
    acquisition: the ids, as {!intern} would return them one by one. *)
val intern_all : t -> string array -> Entity.t array

(** [find t name] is the id of [name] if already interned. *)
val find : t -> string -> Entity.t option

val mem : t -> string -> bool

(** Canonical name of an id. Raises [Invalid_argument] on unknown ids. *)
val name : t -> Entity.t -> string

(** [alias t name id] makes [name] an additional spelling of [id]. Raises
    [Invalid_argument] if [name] is already bound to a different id. *)
val alias : t -> string -> Entity.t -> unit

(** Number of distinct ids (specials included). *)
val cardinal : t -> int

(** [decompose t ~sep e] splits [e]'s canonical name on the (non-empty)
    separator [sep] and resolves every part to its id (aliases included);
    [None] when the name contains no separator or some part is not
    interned. Backs {!Composition.decompose}'s [r1·r2·…·rk] chains.

    Verdicts are memoized generation-safely: canonical names are
    immutable, so successes and "no separator" answers are cached
    forever, while failures are stamped with the table's {!cardinal} and
    recomputed only after new names have been interned. The memo is
    keyed by entity alone, so all callers must pass the same [sep]. *)
val decompose : t -> sep:string -> Entity.t -> Entity.t list option

(** Numeric value parsed from the canonical name, if any. *)
val numeric_value : t -> Entity.t -> float option

val is_numeric : t -> Entity.t -> bool

(** All ids in increasing order, specials included. *)
val iter : (Entity.t -> unit) -> t -> unit

(** User (non-special) ids in increasing order. *)
val iter_user : (Entity.t -> unit) -> t -> unit

(** Ids whose names denote numbers. *)
val iter_numeric : (Entity.t -> unit) -> t -> unit

(** Parse a (possibly decorated) numeric literal the way interning does:
    an optional leading ["$"], grouping commas, and a float body. *)
val parse_numeric : string -> float option
