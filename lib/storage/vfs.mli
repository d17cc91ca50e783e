(** The storage layer's view of the filesystem.

    Every byte the storage layer persists flows through a {!t}: the
    {!real} backend is a thin veneer over [Unix], while a {!faulty}
    backend is a fully in-memory filesystem that models durability the
    way crash-consistency folklore says disks behave — written bytes are
    only *live* until an [fsync] makes them *durable*, renames are only
    durable after the containing directory is fsynced, and a simulated
    crash ({!simulate_crash}) throws away everything that never became
    durable.

    Faults are injected at named {e sites} (["log.write"],
    ["snapshot.fsync"], …): each instrumented operation in the storage
    layer passes its site name, and {!arm} schedules a fault to fire on
    the [after]+1-th hit of that site. This is how the crash-torture
    driver enumerates every crash point of a workload without touching
    the code under test. *)

type t
type file

(** An injected, survivable I/O error (disk full, fsync failure). The
    message names the site and fault. *)
exception Fault of string

(** The simulated process died. Once raised, every subsequent operation
    on the same faulty [t] re-raises until {!simulate_crash} "reboots"
    it. Never raised by the {!real} backend. *)
exception Crashed of string

type fault =
  | Crash  (** die at this site; the operation has no effect *)
  | Torn_write of int
      (** die mid-write: only the first [n] bytes of this write reach
          the durable image (even without an fsync — they hit the
          platter as the process died) *)
  | Short_write of int
      (** the write silently persists only its first [n] bytes but
          reports success — a lying kernel/NFS *)
  | Fsync_raises  (** fsync fails loudly with {!Fault} *)
  | Fsync_lies
      (** fsync reports success without making anything durable; a
          later crash drops the unsynced bytes *)
  | No_space  (** the operation fails with {!Fault} (ENOSPC) *)
  | Bit_flip of int
      (** single-bit corruption: bit [n mod 8] of byte [n mod len] of
          the written buffer is flipped; the call succeeds *)

val real : t
(** Pass-through to the actual filesystem. {!arm} is rejected. *)

val faulty : unit -> t
(** A fresh, empty in-memory filesystem with fault injection. *)

(** {1 Failpoints} (faulty backends only) *)

val arm : t -> site:string -> ?after:int -> fault -> unit
(** Fire [fault] on the [after]+1-th subsequent hit of [site]
    (default [after = 0]: the next hit). One fault per site; re-arming
    replaces. Faults are one-shot. *)

val site_hits : t -> (string * int) list
(** How many times each site has been hit, for enumerating crash
    points: run the workload fault-free, then arm each [(site, k)]. *)

val simulate_crash : t -> unit
(** Reboot after a crash: revert every file to its durable image, drop
    files whose creation never became durable, undo renames that were
    never followed by a directory fsync, clear armed faults and the
    crashed latch. *)

val corrupt_durable : t -> string -> byte:int -> unit
(** Test helper: flip one bit of byte [byte] in the durable image of a
    file — corruption at rest, as opposed to a {!Bit_flip} in flight.
    Works on both backends (on {!real} it edits the file in place). *)

(** {1 Namespace} *)

val file_exists : t -> string -> bool
val is_directory : t -> string -> bool
val mkdir : t -> string -> unit
val remove : t -> string -> unit

val rename : ?site:string -> t -> string -> string -> unit
(** Atomic replace. On a faulty backend the rename is visible
    immediately but durable only after {!fsync_dir}. *)

val fsync_dir : ?site:string -> t -> string -> unit
(** Make the directory's current name set (creations, removals,
    renames) durable. On the real backend: open + fsync the directory;
    errors from filesystems that refuse directory fsync are ignored. *)

val read_file : t -> string -> string option
(** Whole contents, [None] if absent. *)

(** {1 File handles}

    Handles are sequential: the log appends and a snapshot is written
    whole, then read back with {!read_file}, so nothing in the storage
    layer needs random access. *)

val open_append : t -> string -> file
(** Create if missing; writes go to the end. *)

val open_trunc : t -> string -> file
(** Create or truncate to empty. *)

val write : ?site:string -> file -> string -> unit
(** Sequential write at the handle's cursor. *)

val size : file -> int
val fsync : ?site:string -> file -> unit
val close : file -> unit
(** Never raises on a crashed faulty backend (safe in cleanup paths). *)
