open Lsdb
open Lsdb_storage
open Testutil

(* A snapshot laid out as an older writer did: the dictionary numbered
   by first appearance over the facts in [order], which need not ascend,
   and each fact written [copies] times. [extra_index] appends one fact
   whose source is that raw dictionary index. [name_count] and
   [fact_count] replace the counts written before the dictionary and
   the facts. *)
let legacy_snapshot ?(copies = 1) ?extra_index ?name_count ?fact_count db order =
  let symtab = Database.symtab db in
  let dict = Hashtbl.create 64 and names = ref [] and count = ref 0 in
  let index_of e =
    if Entity.is_special e then e
    else
      match Hashtbl.find_opt dict e with
      | Some i -> i
      | None ->
          let i = Entity.special_count + !count in
          incr count;
          Hashtbl.add dict e i;
          names := Symtab.name symtab e :: !names;
          i
  in
  let facts =
    List.filter (fun f -> not (List.mem f Database.axiom_facts)) order
    |> List.concat_map (fun f -> List.init copies (fun _ -> f))
  in
  let encoded =
    List.map (fun (f : Fact.t) -> (index_of f.s, index_of f.r, index_of f.t)) facts
    @ match extra_index with Some i -> [ (i, Entity.gen, Entity.top) ] | None -> []
  in
  let decls =
    List.map (fun (e, c) -> (index_of e, c)) (Relclass.declarations (Database.relclass db))
  in
  let disabled =
    List.filter_map
      (fun ((rule : Rule.t), on) -> if on then None else Some rule.name)
      (Database.rules db)
  in
  let w = Codec.writer () in
  Codec.write_raw w Snapshot.magic;
  Codec.write_varint w 0;
  Codec.write_varint w (Option.value name_count ~default:!count);
  List.iter (Codec.write_string w) (List.rev !names);
  Codec.write_varint w (Database.limit db);
  Codec.write_varint w (List.length decls);
  List.iter
    (fun (i, c) ->
      Codec.write_varint w i;
      Codec.write_byte w (if c then 1 else 0))
    decls;
  Codec.write_varint w (List.length disabled);
  List.iter (Codec.write_string w) disabled;
  Codec.write_varint w (Option.value fact_count ~default:(List.length encoded));
  List.iter
    (fun (a, b, c) ->
      Codec.write_varint w a;
      Codec.write_varint w b;
      Codec.write_varint w c)
    encoded;
  let body = Codec.contents w in
  body ^ Printf.sprintf "%08lx" (Codec.crc32 body)

let base_names db =
  List.sort compare (List.map (Fact.names (Database.symtab db)) (Database.facts db))

let declared_names db =
  List.sort compare
    (List.map
       (fun (e, c) -> (Database.entity_name db e, c))
       (Relclass.declarations (Database.relclass db)))

let same_database what db db' =
  Alcotest.(check (list (triple string string string))) (what ^ ": base") (base_names db)
    (base_names db');
  Alcotest.(check (list (pair string bool))) (what ^ ": declarations") (declared_names db)
    (declared_names db');
  Alcotest.(check int) (what ^ ": limit") (Database.limit db) (Database.limit db');
  Alcotest.(check (list (pair string bool)))
    (what ^ ": rule toggles")
    (List.map (fun ((r : Rule.t), on) -> (r.name, on)) (Database.rules db))
    (List.map (fun ((r : Rule.t), on) -> (r.name, on)) (Database.rules db'))

let organization_with_state () =
  let db = Paper_examples.organization () in
  Database.set_limit db 3;
  ignore (Database.exclude db "syn-rel");
  Database.declare_class_relationship db (Database.entity db "TOTAL-NUMBER");
  db

let tests =
  [
    test "log ops encode/decode round-trip" (fun () ->
        List.iter
          (fun op ->
            Alcotest.(check bool) "round-trip" true
              (Log.op_equal op (Log.decode (Log.encode op))))
          [
            Log.Insert ("JOHN", "LIKES", "FELIX");
            Log.Remove ("A", "⊑", "Δ");
            Log.Declare_class "TOTAL-NUMBER";
            Log.Declare_individual "WORKS-FOR";
            Log.Set_limit 4;
            Log.Exclude_rule "syn-rel";
            Log.Include_rule "syn-rel";
          ]);
    test "log replay rebuilds database state" (fun () ->
        with_temp_dir (fun dir ->
            let path = Filename.concat dir "ops.log" in
            let log = Log.open_ path in
            List.iter (Log.append log)
              [
                Log.Insert ("JOHN", "in", "EMPLOYEE");
                Log.Insert ("EMPLOYEE", "EARNS", "SALARY");
                Log.Insert ("JOHN", "LIKES", "FELIX");
                Log.Remove ("JOHN", "LIKES", "FELIX");
                Log.Declare_class "TOTAL-NUMBER";
                Log.Set_limit 2;
              ];
            Log.close log;
            let db = Database.create () in
            let n = Log.replay path db in
            Alcotest.(check int) "six ops" 6 n;
            check_holds db "inserted" ("JOHN", "in", "EMPLOYEE");
            Alcotest.(check bool) "removed" false
              (Database.mem_base db (fact db ("JOHN", "LIKES", "FELIX")));
            Alcotest.(check int) "limit" 2 (Database.limit db);
            check_holds db "inference works after replay" ("JOHN", "EARNS", "SALARY")));
    test "replay of a missing log is empty" (fun () ->
        let db = Database.create () in
        Alcotest.(check int) "zero" 0 (Log.replay "/nonexistent/path.log" db));
    test "snapshot round-trips the full base state" (fun () ->
        let db = Paper_examples.organization () in
        Database.set_limit db 3;
        ignore (Database.exclude db "syn-rel");
        let db' = Snapshot.decode (Snapshot.encode db) in
        Alcotest.(check int) "same base cardinality" (Database.base_cardinal db)
          (Database.base_cardinal db');
        check_holds db' "a stored fact" ("JOHN", "WORKS-FOR", "SHIPPING");
        check_holds db' "an inferred fact" ("MANAGER", "WORKS-FOR", "DEPARTMENT");
        Alcotest.(check int) "limit" 3 (Database.limit db');
        Alcotest.(check bool) "exclusion" false (Database.rule_enabled db' "syn-rel");
        Alcotest.(check bool) "class declaration" true
          (Database.is_class_relationship db' (Database.entity db' "TOTAL-NUMBER")));
    test "snapshot detects corruption" (fun () ->
        let db = Paper_examples.campus () in
        let data = Bytes.of_string (Snapshot.encode db) in
        Bytes.set data (Bytes.length data / 2) '\xFF';
        Alcotest.(check bool) "raises" true
          (try
             ignore (Snapshot.decode (Bytes.to_string data));
             false
           with Snapshot.Corrupt _ -> true));
    test "a snapshot in first-appearance order opens to the same database" (fun () ->
        let db = organization_with_state () in
        let descending = List.sort (fun a b -> Fact.compare b a) (Database.facts db) in
        same_database "reversed" db (Snapshot.decode (legacy_snapshot db descending));
        same_database "duplicated" db
          (Snapshot.decode (legacy_snapshot ~copies:2 db (Database.facts db))));
    test "an out-of-range dictionary index is corrupt" (fun () ->
        let db = organization_with_state () in
        let names = Symtab.cardinal (Database.symtab db) in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Snapshot.decode
                  (legacy_snapshot ~extra_index:(Entity.special_count + names) db
                     (Database.facts db)));
             false
           with Snapshot.Corrupt _ -> true));
    test "a count larger than the bytes that follow is corrupt" (fun () ->
        let db = organization_with_state () in
        (* Beyond the largest array: unguarded, the decoder would raise
           Invalid_argument from the allocation, not Corrupt. *)
        let huge = max_int / 2 in
        List.iter
          (fun (what, data) ->
            Alcotest.(check bool) what true
              (try
                 ignore (Snapshot.decode data);
                 false
               with Snapshot.Corrupt _ -> true))
          [
            ("name count", legacy_snapshot ~name_count:huge db (Database.facts db));
            ("fact count", legacy_snapshot ~fact_count:huge db (Database.facts db));
          ]);
    test "the writer numbers entities and writes facts in ascending id order" (fun () ->
        let db = organization_with_state () in
        (* Intern out of alphabetical order, so id order is not name order. *)
        ignore (Database.insert_names db "ZED" "LIKES" "ALPHA");
        let parsed = Snapshot.parse (Snapshot.encode db) in
        let facts = parsed.Snapshot.facts in
        Alcotest.(check bool) "facts ascend strictly" true
          (Array.for_all Fun.id
             (Array.init (max 0 (Array.length facts - 1)) (fun i ->
                  Fact.compare facts.(i) facts.(i + 1) < 0)));
        (* The renaming is monotone: reopened ids keep the writer's order. *)
        let old_id name = Database.entity db name
        and new_id name = Database.entity parsed.Snapshot.db name in
        let used =
          List.sort_uniq compare
            (List.concat_map (fun (s, r, t) -> [ s; r; t ]) (base_names db))
        in
        let by_old = List.sort (fun a b -> compare (old_id a) (old_id b)) used in
        let by_new = List.sort (fun a b -> compare (new_id a) (new_id b)) used in
        Alcotest.(check (list string)) "same order" by_old by_new;
        same_database "round trip" db (Snapshot.decode (Snapshot.encode db)));
    test "opening a store records the four open phases" (fun () ->
        let module Metrics = Lsdb_obs.Metrics in
        with_temp_dir (fun dir ->
            let p = Persistent.open_dir dir in
            ignore (Persistent.insert_names p "A" "R" "B");
            Persistent.compact p;
            ignore (Persistent.insert_names p "C" "R" "D");
            Persistent.close p;
            let phases = [ "read"; "decode"; "load"; "replay" ] in
            let count phase =
              Metrics.histogram_count
                (Metrics.histogram ~labels:[ ("phase", phase) ]
                   "lsdb_store_open_phase_seconds")
            in
            let before = List.map count phases in
            let was = Metrics.enabled () in
            Metrics.set_enabled true;
            Fun.protect
              ~finally:(fun () -> Metrics.set_enabled was)
              (fun () -> Persistent.close (Persistent.open_dir dir));
            List.iter2
              (fun phase n ->
                Alcotest.(check int) ("one " ^ phase ^ " sample") (n + 1) (count phase))
              phases before;
            let exposed = Metrics.expose () in
            List.iter
              (fun phase ->
                let series =
                  Printf.sprintf "lsdb_store_open_phase_seconds_count{phase=\"%s\"}" phase
                in
                Alcotest.(check bool) (series ^ " exposed") true
                  (Test_obs.contains exposed series))
              phases));
    test "persistent database survives reopen" (fun () ->
        with_temp_dir (fun dir ->
            let p = Persistent.open_dir dir in
            ignore (Persistent.insert_names p "JOHN" "in" "EMPLOYEE");
            ignore (Persistent.insert_names p "EMPLOYEE" "EARNS" "SALARY");
            Persistent.set_limit p 2;
            Persistent.close p;
            let p2 = Persistent.open_dir dir in
            let db = Persistent.database p2 in
            check_holds db "fact survived" ("JOHN", "in", "EMPLOYEE");
            check_holds db "inference after reopen" ("JOHN", "EARNS", "SALARY");
            Alcotest.(check int) "limit survived" 2 (Database.limit db);
            Persistent.close p2));
    test "compaction folds the log into the snapshot" (fun () ->
        with_temp_dir (fun dir ->
            let p = Persistent.open_dir dir in
            for i = 1 to 20 do
              ignore (Persistent.insert_names p (Printf.sprintf "E%d" i) "in" "THING")
            done;
            Alcotest.(check int) "log has records" 20 (Persistent.log_length p);
            Persistent.compact p;
            Alcotest.(check int) "log empty" 0 (Persistent.log_length p);
            Persistent.close p;
            let p2 = Persistent.open_dir dir in
            Alcotest.(check int) "all facts restored" 22
              (* 20 + 2 axiom facts *)
              (Database.base_cardinal (Persistent.database p2));
            Persistent.close p2));
    test "removals are durable" (fun () ->
        with_temp_dir (fun dir ->
            let p = Persistent.open_dir dir in
            ignore (Persistent.insert_names p "A" "R" "B");
            let db = Persistent.database p in
            ignore (Persistent.remove p (fact db ("A", "R", "B")));
            Persistent.close p;
            let p2 = Persistent.open_dir dir in
            Alcotest.(check bool) "gone after reopen" false
              (Database.mem_base (Persistent.database p2)
                 (fact (Persistent.database p2) ("A", "R", "B")));
            Persistent.close p2));
    test "a torn trailing log record is tolerated" (fun () ->
        with_temp_dir (fun dir ->
            let p = Persistent.open_dir dir in
            ignore (Persistent.insert_names p "A" "R" "B");
            ignore (Persistent.insert_names p "C" "R" "D");
            Persistent.close p;
            (* Truncate the log mid-record. *)
            let log_path = Persistent.log_path p in
            let ic = open_in_bin log_path in
            let data = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let oc = open_out_bin log_path in
            output_string oc (String.sub data 0 (String.length data - 3));
            close_out oc;
            let p2 = Persistent.open_dir dir in
            let db = Persistent.database p2 in
            check_holds db "first record intact" ("A", "R", "B");
            Alcotest.(check bool) "torn record dropped" false
              (Database.mem_base db (fact db ("C", "R", "D")));
            Persistent.close p2));
  ]
