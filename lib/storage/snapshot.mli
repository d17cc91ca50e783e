(** Binary snapshots: a compact full dump of a database's base state
    (name dictionary, fact triples over dictionary ids, relationship
    declarations, composition limit, disabled rules). Loading a snapshot
    is O(data) with no log replay — the fast-restart half of experiment
    B6. User-defined rules are not captured (they live in code or in
    {!Lsdb.Fact_file} form); builtin rule enablement is. *)

val magic : string

(** Serialize the base state. The [epoch] (default 0) is stamped in the
    header; compaction bumps it so reopen can tell a stale log from a
    current one (see {!Persistent.compact}). The dictionary numbers user
    entities in ascending id order and the facts are written sorted, so
    a reopen gets them back already in the heap's segment order. *)
val encode : ?epoch:int -> Lsdb.Database.t -> string

exception Corrupt of string

(** Rebuild a fresh database from a snapshot. *)
val decode : string -> Lsdb.Database.t

(** A checked and parsed snapshot whose facts are not loaded yet: [db]
    holds the names, declarations, limit and rule toggles; [facts] are
    over [db]'s ids, in file order. *)
type parsed = { epoch : int; db : Lsdb.Database.t; facts : Lsdb.Fact.t array }

(** Check the framing and CRC and parse everything; raises {!Corrupt}.
    {!decode_full} is [parse] followed by {!Lsdb.Database.load}. *)
val parse : string -> parsed

(** Like {!decode}, also returning the header epoch. *)
val decode_full : string -> int * Lsdb.Database.t

(** Durable write (write + fsync), via the given {!Vfs.t} — but not
    atomic: callers replacing a live snapshot must write a sibling file
    and rename it into place. *)
val save : ?vfs:Vfs.t -> ?epoch:int -> Lsdb.Database.t -> string -> unit

val load : ?vfs:Vfs.t -> string -> Lsdb.Database.t
