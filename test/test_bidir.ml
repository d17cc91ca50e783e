(* The bidirectional meet-in-the-middle search must reproduce the
   retained DFS oracle byte-for-byte — same paths, same order, same
   max_paths truncation point — sequentially and at every pool size,
   across random cyclic graphs and the lib/workload generators, for
   every chain bound the paper's interactive range uses. *)

open Lsdb
open Testutil
module Rng = Lsdb_workload.Rng

let path_strings db ps =
  List.map
    (fun (p : Composition.path) ->
      String.concat "→"
        ((Database.entity_name db p.Composition.source
         :: List.map (Database.entity_name db) p.Composition.chain)
        @ [ Database.entity_name db p.Composition.target ]))
    ps

(* [check_equiv] asserts byte-identity (order included) between oracle
   and bidirectional search, at full cap and at a tight cap that forces
   truncation on dense instances. *)
let check_equiv what db ~src ~tgt ~limit =
  Database.set_limit db limit;
  let s = Database.entity db src and t = Database.entity db tgt in
  let oracle = Composition.paths_dfs db ~src:s ~tgt:t in
  let result = Composition.search db ~src:s ~tgt:t in
  Alcotest.(check (list string))
    (Printf.sprintf "%s limit=%d %s→%s" what limit src tgt)
    (path_strings db oracle)
    (path_strings db result.Composition.paths);
  let capped_oracle, capped_trunc =
    let ps = Composition.paths_dfs ~max_paths:5 db ~src:s ~tgt:t in
    (ps, List.length ps = 5 && List.length oracle > 5)
  in
  let capped = Composition.search ~max_paths:5 db ~src:s ~tgt:t in
  Alcotest.(check (list string))
    (Printf.sprintf "%s limit=%d %s→%s capped" what limit src tgt)
    (path_strings db capped_oracle)
    (path_strings db capped.Composition.paths);
  if List.length oracle > 5 then
    Alcotest.(check bool)
      (Printf.sprintf "%s limit=%d truncation flag" what limit)
      capped_trunc capped.Composition.truncated

let random_graph_db rng ~nodes ~edges ~rels =
  let db = Database.create () in
  for _ = 1 to edges do
    let s = Rng.int rng nodes and t = Rng.int rng nodes in
    let r = Rng.int rng rels in
    ignore
      (Database.insert_names db
         (Printf.sprintf "N%d" s)
         (Printf.sprintf "R%d" r)
         (Printf.sprintf "N%d" t))
  done;
  db

let with_pool ~domains f =
  let pool = Lsdb_exec.Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Lsdb_exec.Pool.shutdown pool) (fun () -> f pool)

let tests =
  [
    test "random cyclic graphs: search ≡ DFS oracle at limits 2–6" (fun () ->
        List.iter
          (fun seed ->
            let rng = Rng.create seed in
            let nodes = 10 + Rng.int rng 20 in
            let db =
              random_graph_db rng ~nodes ~edges:(3 * nodes)
                ~rels:(2 + Rng.int rng 4)
            in
            List.iter
              (fun limit ->
                List.iter
                  (fun (src, tgt) -> check_equiv "random" db ~src ~tgt ~limit)
                  [ ("N0", "N1"); ("N1", "N5"); ("N2", "N0") ])
              [ 2; 3; 4; 5; 6 ])
          [ 0xA11CE; 0xB0B; 0xC01D; 7; 99 ]);
    test "dense graph: byte-identical at pool sizes 1/2/4/8" (fun () ->
        (* Dense enough that frontier levels exceed the parallel
           threshold, so Pool.map really runs. *)
        let rng = Rng.create 0x5EED in
        let db = random_graph_db rng ~nodes:150 ~edges:1200 ~rels:4 in
        (* Denser, with a hub target: the backward completion then reads
           the forward side, and its probe step crosses the threshold. *)
        let hub = random_graph_db rng ~nodes:200 ~edges:2000 ~rels:4 in
        for _ = 1 to 400 do
          ignore
            (Database.insert_names hub (Printf.sprintf "N%d" (Rng.int rng 200)) "R0" "N1")
        done;
        let checks () =
          List.iter
            (fun limit ->
              List.iter
                (fun (src, tgt) -> check_equiv "dense" db ~src ~tgt ~limit)
                [ ("N3", "N7"); ("N10", "N4") ])
            [ 2; 4; 5 ];
          List.iter
            (fun limit -> check_equiv "hub" hub ~src:"N3" ~tgt:"N1" ~limit)
            [ 3; 4; 5 ]
        in
        checks ();
        let fanouts () =
          Lsdb_obs.Metrics.counter_value
            (Lsdb_obs.Metrics.counter "lsdb_pool_maps_total")
        in
        let before = fanouts () in
        List.iter
          (fun domains ->
            with_pool ~domains (fun pool ->
                List.iter (fun d -> Database.set_pool d (Some pool)) [ db; hub ];
                Fun.protect
                  ~finally:(fun () -> List.iter (fun d -> Database.set_pool d None) [ db; hub ])
                  checks))
          [ 1; 2; 4; 8 ];
        (* Guard the parallel path from silently never running: the dense
           frontiers must cross the fan-out threshold. *)
        Alcotest.(check bool) "pooled expansion ran" true (fanouts () > before));
    test "university workload: search ≡ oracle" (fun () ->
        let rng = Rng.create 31337 in
        let uni =
          Lsdb_workload.University_gen.generate
            ~params:
              {
                Lsdb_workload.University_gen.students = 30;
                courses = 8;
                instructors = 4;
                enrollments_per_student = 3;
              }
            rng
        in
        let db = Lsdb_workload.University_gen.to_database uni in
        List.iter
          (fun limit ->
            List.iter
              (fun (src, tgt) -> check_equiv "university" db ~src ~tgt ~limit)
              [ ("STU-0001", "PROF-01"); ("STU-0002", "STU-0003") ])
          [ 2; 3; 4; 5; 6 ]);
    test "citation workload: search ≡ oracle" (fun () ->
        let rng = Rng.create 424242 in
        let lib =
          Lsdb_workload.Citation_gen.generate
            ~params:
              {
                Lsdb_workload.Citation_gen.books = 120;
                authors = 30;
                subjects = 6;
                citations_per_book = 5;
                skew = 1.0;
              }
            rng
        in
        let db = Lsdb_workload.Citation_gen.to_database lib in
        let book i = lib.Lsdb_workload.Citation_gen.book_names.(i) in
        List.iter
          (fun limit ->
            List.iter
              (fun (src, tgt) -> check_equiv "citation" db ~src ~tgt ~limit)
              [ (book 5, book 0); (book 50, book 119) ])
          [ 2; 3; 4; 5 ]);
    test "unreachable targets answer empty at the frontier join" (fun () ->
        let db =
          db_of [ ("A", "R", "B"); ("B", "R", "C"); ("X", "R", "Y") ]
        in
        Database.set_limit db 6;
        let e = Database.entity db in
        let result = Composition.search db ~src:(e "A") ~tgt:(e "X") in
        Alcotest.(check int) "no paths" 0 (List.length result.Composition.paths);
        Alcotest.(check int) "no meets" 0 result.Composition.meet_nodes;
        Alcotest.(check bool) "not truncated" false result.Composition.truncated);
  ]
