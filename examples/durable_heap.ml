(* Storage strategies (§6.2, left open by the paper): a durable loosely
   structured database backed by a checksummed operation log and binary
   snapshots. Three sessions: log only, replay, then compaction into a
   snapshot that the last session opens as one packed segment.

   Run with: dune exec examples/durable_heap.exe *)

open Lsdb
open Lsdb_storage

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lsdb-durable-demo" in
  (* Start clean. *)
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end;

  (* Session 1: create, insert, crash (no compaction — just the log). *)
  let session1 = Persistent.open_dir dir in
  ignore (Persistent.insert_names session1 "REX" "in" "DOG");
  ignore (Persistent.insert_names session1 "DOG" "isa" "ANIMAL");
  ignore (Persistent.insert_names session1 "REX" "CHASES" "POSTMAN");
  Persistent.set_limit session1 2;
  Persistent.sync session1;
  Printf.printf "session 1: %d log records, no snapshot yet\n"
    (Persistent.log_length session1);
  Persistent.close session1;

  (* Session 2: reopen — the log replays; inference still works. *)
  let session2 = Persistent.open_dir dir in
  let db = Persistent.database session2 in
  let e = Database.entity db in
  Printf.printf "session 2 after replay: (REX, in, ANIMAL) inferred: %b\n"
    (Database.mem db (Fact.make (e "REX") Entity.member (e "ANIMAL")));

  (* Grow it, then compact: the log folds into a snapshot. *)
  for i = 1 to 1000 do
    ignore (Persistent.insert_names session2 (Printf.sprintf "SHEEP-%04d" i) "in" "SHEEP")
  done;
  Printf.printf "before compaction: %d log records\n" (Persistent.log_length session2);
  Persistent.compact session2;
  Printf.printf "after compaction:  %d log records, snapshot at %s\n"
    (Persistent.log_length session2)
    (Persistent.snapshot_path session2);
  Persistent.close session2;

  (* Session 3: reopen from the snapshot (no replay of 1000 inserts). *)
  let t0 = Unix.gettimeofday () in
  let session3 = Persistent.open_dir dir in
  let elapsed = (Unix.gettimeofday () -. t0) *. 1e3 in
  Printf.printf "session 3 open from snapshot: %d facts in %.2f ms\n"
    (Database.base_cardinal (Persistent.database session3))
    elapsed;
  Persistent.close session3;
