type sync_mode = Always | On_demand

module Metrics = Lsdb_obs.Metrics

let m_opens =
  Metrics.counter ~help:"Persistent directories opened" "lsdb_store_opens_total"

let recovery_counter outcome =
  Metrics.counter ~help:"Recovery epoch decisions by outcome"
    ~labels:[ ("outcome", outcome) ]
    "lsdb_store_recovery_total"

let m_recover_fresh = recovery_counter "fresh"
let m_recover_applied = recovery_counter "applied"
let m_recover_ignored_stale = recovery_counter "ignored_stale"
let m_recover_replayed_future = recovery_counter "replayed_future"

let m_salvaged_frames =
  Metrics.counter ~help:"Log frames dropped during salvage recovery"
    "lsdb_store_salvaged_frames_total"

let m_truncated_bytes =
  Metrics.counter ~help:"Torn-tail bytes truncated during recovery"
    "lsdb_store_truncated_bytes_total"

let m_compactions =
  Metrics.counter ~help:"Completed compactions" "lsdb_store_compactions_total"

let compaction_phase phase =
  Metrics.histogram ~help:"Wall-clock seconds per compaction phase"
    ~labels:[ ("phase", phase) ]
    "lsdb_store_compaction_phase_seconds"

let m_phase_sync = compaction_phase "log_sync"
let m_phase_snapshot = compaction_phase "snapshot_write"
let m_phase_verify = compaction_phase "verify"
let m_phase_rename = compaction_phase "rename"
let m_phase_reset = compaction_phase "log_reset"

(* read: the snapshot file; decode: its CRC, names and fact columns;
   load: the facts' bulk load into the heap; replay: reading and
   applying the log tail. *)
let open_phase phase =
  Metrics.histogram ~help:"Wall-clock seconds per phase of opening a store"
    ~labels:[ ("phase", phase) ]
    "lsdb_store_open_phase_seconds"

let m_open_read = open_phase "read"
let m_open_decode = open_phase "decode"
let m_open_load = open_phase "load"
let m_open_replay = open_phase "replay"

type t = {
  dir : string;
  vfs : Vfs.t;
  db : Lsdb.Database.t;
  sync_mode : sync_mode;
  retry : Lsdb_exec.Governor.Retry.policy option;
  report : Recovery_report.t;
  mutable log : Log.t;
  mutable log_length : int;
  mutable epoch : int;
  mutable poisoned : string option;
      (* set when compaction failed after the point of no return: the
         snapshot advanced an epoch but the log could not be reset, so
         new appends would land in a stale log and be ignored on reopen.
         Mutations are refused until the directory is reopened. *)
}

let snapshot_file dir = Filename.concat dir "snapshot.lsdb"
let snapshot_tmp dir = Filename.concat dir "snapshot.lsdb.tmp"
let log_file dir = Filename.concat dir "log.lsdb"
let log_tmp dir = Filename.concat dir "log.lsdb.tmp"

let fail_corrupt dir what detail =
  failwith
    (Printf.sprintf
       "Persistent.open_dir: %s: corrupt %s (%s) — the store was likely \
        interrupted mid-write; reopen with ~recovery:`Salvage to keep every \
        record that survives"
       dir what detail)

let open_dir ?(vfs = Vfs.real) ?(recovery = `Strict) ?(sync_mode = On_demand)
    ?retry dir =
  if not (Vfs.file_exists vfs dir) then Vfs.mkdir vfs dir
  else if not (Vfs.is_directory vfs dir) then
    invalid_arg (Printf.sprintf "Persistent.open_dir: %s is not a directory" dir);
  (* A leftover .tmp is a compaction that died before its rename; the
     real copy is whatever the rename target still holds. *)
  let tmp_removed = ref false in
  List.iter
    (fun tmp ->
      if Vfs.file_exists vfs tmp then begin
        Vfs.remove vfs tmp;
        tmp_removed := true
      end)
    [ snapshot_tmp dir; log_tmp dir ];
  let snapshot_epoch, db, snapshot_unreadable =
    match Metrics.time m_open_read (fun () -> Vfs.read_file vfs (snapshot_file dir)) with
    | None -> (0, Lsdb.Database.create (), false)
    | Some data -> (
        match Metrics.time m_open_decode (fun () -> Snapshot.parse data) with
        | { Snapshot.epoch; db; facts } ->
            Metrics.time m_open_load (fun () -> Lsdb.Database.load db facts);
            (epoch, db, false)
        | exception Snapshot.Corrupt msg -> (
            match recovery with
            | `Strict -> fail_corrupt dir "snapshot" msg
            | `Salvage -> (0, Lsdb.Database.create (), true)))
  in
  let t_replay = Metrics.now () in
  let read =
    match recovery with
    | `Salvage -> Log.read_log ~vfs ~mode:`Salvage (log_file dir)
    | `Strict -> (
        try Log.read_log ~vfs ~mode:`Strict (log_file dir)
        with Codec.Corrupt msg -> fail_corrupt dir "log" msg)
  in
  let decision, ops =
    match read.Log.header_epoch with
    | None ->
        if read.Log.ops = [] && snapshot_epoch = 0 && not snapshot_unreadable then
          (Recovery_report.Fresh, [])
        else (Recovery_report.Applied, read.Log.ops)
    | Some e when e = snapshot_epoch -> (Recovery_report.Applied, read.Log.ops)
    | Some e when e < snapshot_epoch -> (Recovery_report.Ignored_stale, [])
    | Some e -> (
        match recovery with
        | `Strict ->
            fail_corrupt dir "log"
              (Printf.sprintf "log epoch %d is ahead of snapshot epoch %d" e
                 snapshot_epoch)
        | `Salvage -> (Recovery_report.Replayed_future, read.Log.ops))
  in
  Metrics.incr m_opens;
  Metrics.incr
    (match decision with
    | Recovery_report.Fresh -> m_recover_fresh
    | Recovery_report.Applied -> m_recover_applied
    | Recovery_report.Ignored_stale -> m_recover_ignored_stale
    | Recovery_report.Replayed_future -> m_recover_replayed_future);
  Metrics.add m_salvaged_frames read.Log.frames_skipped;
  Metrics.add m_truncated_bytes read.Log.bytes_truncated;
  List.iter (Log.apply db) ops;
  if Metrics.enabled () then Metrics.observe m_open_replay (Metrics.now () -. t_replay);
  (* Physically repair the log when anything was dropped or the epoch is
     off: appending after a torn tail would otherwise turn the tear into
     mid-file corruption at the next open. *)
  let needs_rewrite =
    read.Log.frames_skipped > 0
    || read.Log.bytes_truncated > 0
    || (match decision with
       | Recovery_report.Ignored_stale | Recovery_report.Replayed_future -> true
       | Recovery_report.Fresh | Recovery_report.Applied -> false)
    || snapshot_unreadable
  in
  if snapshot_unreadable then
    (* The snapshot is beyond help; drop it so the salvaged log alone
       defines the state (and a later Strict open succeeds again). *)
    Vfs.remove vfs (snapshot_file dir);
  let epoch = if snapshot_unreadable then 0 else snapshot_epoch in
  if needs_rewrite then Log.write_fresh ~vfs ~epoch ~ops (log_file dir);
  let log = Log.open_ ~vfs ?retry ~epoch (log_file dir) in
  let report =
    {
      Recovery_report.mode = recovery;
      snapshot_epoch;
      log_epoch = read.Log.header_epoch;
      epoch_decision = decision;
      snapshot_unreadable;
      frames_read = read.Log.frames_read;
      ops_applied = List.length ops;
      frames_skipped = read.Log.frames_skipped;
      bytes_truncated = read.Log.bytes_truncated;
      tmp_removed = !tmp_removed;
      log_rewritten = needs_rewrite;
    }
  in
  {
    dir;
    vfs;
    db;
    sync_mode;
    retry;
    report;
    log;
    log_length = List.length ops;
    epoch;
    poisoned = None;
  }

let database t = t.db
let recovery_report t = t.report
let sync_mode t = t.sync_mode
let epoch t = t.epoch

let check_usable t =
  match t.poisoned with
  | None -> ()
  | Some why ->
      failwith
        (Printf.sprintf
           "Persistent: store is read-only after a failed compaction (%s); \
            close and reopen the directory"
           why)

let record t op =
  Log.append t.log op;
  t.log_length <- t.log_length + 1;
  match t.sync_mode with Always -> Log.sync t.log | On_demand -> ()

let journal t op =
  check_usable t;
  record t op

let insert t fact =
  check_usable t;
  let added = Lsdb.Database.insert t.db fact in
  if added then record t (Log.op_of_insert t.db fact);
  added

let insert_names t s r tgt =
  insert t (Lsdb.Fact.of_names (Lsdb.Database.symtab t.db) s r tgt)

let remove t fact =
  check_usable t;
  let op = Log.op_of_remove t.db fact in
  let removed = Lsdb.Database.remove t.db fact in
  if removed then record t op;
  removed

let declare_class_relationship t e =
  check_usable t;
  Lsdb.Database.declare_class_relationship t.db e;
  record t (Log.Declare_class (Lsdb.Database.entity_name t.db e))

let declare_individual_relationship t e =
  check_usable t;
  Lsdb.Database.declare_individual_relationship t.db e;
  record t (Log.Declare_individual (Lsdb.Database.entity_name t.db e))

let set_limit t n =
  check_usable t;
  Lsdb.Database.set_limit t.db n;
  record t (Log.Set_limit n)

let exclude t name =
  check_usable t;
  let ok = Lsdb.Database.exclude t.db name in
  if ok then record t (Log.Exclude_rule name);
  ok

let include_rule t name =
  check_usable t;
  let ok = Lsdb.Database.include_rule t.db name in
  if ok then record t (Log.Include_rule name);
  ok

let sync t = Log.sync t.log

(* Crash-safe compaction:

     1. fsync the log (pre-compaction state is durable whatever happens)
     2. write the snapshot, stamped epoch+1, to snapshot.lsdb.tmp; fsync
     3. read it back and decode — never rename an unverifiable snapshot
        over a good one
     4. rename tmp → snapshot.lsdb; fsync the directory
     5. atomically replace the log with an empty one stamped epoch+1

   A crash before 4 reopens to the old snapshot + old log (epoch match:
   replayed once). A crash after 4 but inside 5 reopens to the new
   snapshot + the old log, whose stale epoch says its operations are
   already folded in — they are ignored, never applied twice. *)
let compact t =
  check_usable t;
  Metrics.time m_phase_sync (fun () -> Log.sync t.log);
  let epoch' = t.epoch + 1 in
  let tmp = snapshot_tmp t.dir in
  (try
     Metrics.time m_phase_snapshot (fun () ->
         Snapshot.save ~vfs:t.vfs ~epoch:epoch' t.db tmp);
     Metrics.time m_phase_verify @@ fun () ->
     match Vfs.read_file t.vfs tmp with
     | None -> failwith "Persistent.compact: snapshot vanished before verification"
     | Some data -> (
         match Snapshot.decode_full data with
         | e, _ when e = epoch' -> ()
         | _ ->
             failwith
               "Persistent.compact: aborted, snapshot verification read back a \
                wrong epoch; the previous snapshot and log are intact"
         | exception Snapshot.Corrupt msg ->
             failwith
               (Printf.sprintf
                  "Persistent.compact: aborted, snapshot failed verification \
                   (%s); the previous snapshot and log are intact"
                  msg))
   with e ->
     (try Vfs.remove t.vfs tmp with _ -> ());
     raise e);
  Metrics.time m_phase_rename (fun () ->
      Vfs.rename ~site:"snapshot.rename" t.vfs tmp (snapshot_file t.dir);
      Vfs.fsync_dir ~site:"dir.fsync" t.vfs t.dir);
  (* Point of no return: the snapshot now carries epoch'. If the log
     reset fails we must refuse further appends — they would land in a
     stale-epoch log and be ignored at the next open. *)
  (try
     Metrics.time m_phase_reset (fun () ->
         Log.write_fresh ~vfs:t.vfs ~epoch:epoch' ~ops:[] (log_file t.dir);
         Log.close t.log;
         t.log <- Log.open_ ~vfs:t.vfs ?retry:t.retry ~epoch:epoch' (log_file t.dir))
   with e ->
     t.poisoned <- Some (Printexc.to_string e);
     raise e);
  t.epoch <- epoch';
  t.log_length <- 0;
  Metrics.incr m_compactions

let close t =
  (match t.poisoned with None -> Log.sync t.log | Some _ -> ());
  Log.close t.log

let log_length t = t.log_length
let snapshot_path t = snapshot_file t.dir
let log_path t = log_file t.dir
