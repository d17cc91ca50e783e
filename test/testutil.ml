(* Shared helpers for the test suites. *)

open Lsdb

let db_of facts =
  let db = Database.create () in
  List.iter (fun (s, r, t) -> ignore (Database.insert_names db s r t)) facts;
  db

let fact db (s, r, t) =
  Fact.make (Database.entity db s) (Database.entity db r) (Database.entity db t)

(* Closure membership, names form. *)
let holds db triple = Database.mem db (fact db triple)

let check_holds db what triple = Alcotest.(check bool) what true (holds db triple)
let check_not_holds db what triple = Alcotest.(check bool) what false (holds db triple)

let q db text = Query_parser.parse db text

(* One-variable query answer, as sorted names. *)
let answers db text =
  let answer = Eval.eval db (q db text) in
  Eval.column answer
  |> List.map (Database.entity_name db)
  |> List.sort String.compare

let check_answers db what text expected =
  Alcotest.(check (list string)) what (List.sort String.compare expected) (answers db text)

let check_proposition db what text expected =
  Alcotest.(check bool) what expected (Eval.holds db (q db text))

let names db entities =
  List.map (Database.entity_name db) entities |> List.sort String.compare

(* Run [f] on a fresh directory, removed with its content afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "lsdb_store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      rm dir)
    (fun () -> f dir)

let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Run [f] under the process-global freeze policy [p], restoring the
   previous policy afterwards: the suites share one process. *)
let with_policy p f =
  let module Index = Lsdb_datalog.Index in
  let saved = Index.policy () in
  Index.set_policy p;
  Fun.protect ~finally:(fun () -> Index.set_policy saved) f

(* The engine itself, one stratum closing [facts] under [rules]: it
   copies its input into its own index. *)
let stratum ?max_facts ?pool ?gov rules facts =
  let module D = Lsdb_datalog in
  let input = D.Index.create () in
  List.iter (fun f -> ignore (D.Index.add input f : bool)) facts;
  let s =
    D.Stratum.create ?max_facts
      { (D.Engine.view_of_index input) with v_seq = (fun () -> List.to_seq facts) }
  in
  let derived = D.Stratum.closure ?pool ?gov rules s in
  (s, derived)
