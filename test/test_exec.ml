(* The domain pool, and the determinism guarantees of the parallel paths:
   probing waves and closure rounds must produce byte-identical outcomes
   for every pool size, including none. *)

open Lsdb
open Testutil
module Pool = Lsdb_exec.Pool

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Pool behavior                                                       *)

let pool_tests =
  [
    test "map preserves input order over 10k items" (fun () ->
        with_pool ~domains:4 (fun pool ->
            let xs = List.init 10_000 Fun.id in
            Alcotest.(check (list int))
              "squares in order"
              (List.map (fun x -> x * x) xs)
              (Pool.map pool (fun x -> x * x) xs)));
    test "fold with a non-associative combine is deterministic" (fun () ->
        with_pool ~domains:4 (fun pool ->
            let xs = List.init 1_000 (fun i -> i + 1) in
            let expected = List.fold_left (fun acc x -> acc - (2 * x)) 0 xs in
            Alcotest.(check int) "same as sequential" expected
              (Pool.fold pool ~f:(fun x -> 2 * x) ~combine:( - ) ~init:0 xs)));
    test "lowest-indexed exception propagates" (fun () ->
        with_pool ~domains:4 (fun pool ->
            let run () =
              Pool.map pool
                (fun x -> if x mod 7 = 3 then failwith (string_of_int x) else x)
                (List.init 1_000 Fun.id)
            in
            (* Items 3, 10, 17, … all raise; the caller must always see
               item 3's exception, regardless of scheduling. *)
            match run () with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure msg -> Alcotest.(check string) "item 3" "3" msg));
    test "domains <= 1 run inline" (fun () ->
        List.iter
          (fun domains ->
            with_pool ~domains (fun pool ->
                Alcotest.(check int) "one lane" 1 (Pool.size pool);
                Alcotest.(check (list int)) "map works" [ 2; 4; 6 ]
                  (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])))
          [ -1; 0; 1 ]);
    test "empty input" (fun () ->
        with_pool ~domains:4 (fun pool ->
            Alcotest.(check (list int)) "empty" [] (Pool.map pool Fun.id [])));
    test "nested maps on the same pool do not deadlock" (fun () ->
        with_pool ~domains:2 (fun pool ->
            let result =
              Pool.map pool
                (fun row -> Pool.map pool (fun x -> (row * 10) + x) [ 0; 1; 2 ])
                [ 1; 2; 3; 4 ]
            in
            Alcotest.(check (list (list int)))
              "rows in order"
              [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
              result));
    test "shutdown is idempotent; map afterwards raises" (fun () ->
        let pool = Pool.create ~domains:4 in
        Pool.shutdown pool;
        Pool.shutdown pool;
        match Pool.map pool Fun.id [ 1 ] with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Persistent lanes and escaped-exception accounting                   *)

let lanes_tests =
  [
    test "lanes run every index each round, any n vs pool size" (fun () ->
        List.iter
          (fun domains ->
            with_pool ~domains (fun pool ->
                List.iter
                  (fun n ->
                    let lg = Pool.lanes pool ~n in
                    Fun.protect ~finally:(fun () -> Pool.lanes_close lg)
                    @@ fun () ->
                    Alcotest.(check int) "lanes_size" n (Pool.lanes_size lg);
                    let out = Array.make n 0 in
                    for round = 1 to 5 do
                      Pool.lanes_run lg (fun i -> out.(i) <- out.(i) + i + round)
                    done;
                    Array.iteri
                      (fun i got ->
                        Alcotest.(check int)
                          (Printf.sprintf "lane %d ran all 5 rounds" i)
                          ((5 * i) + 15)
                          got)
                      out)
                  [ 1; 2; 3; 8 ]))
          [ 1; 2; 4 ]);
    test "lanes_run re-raises the lowest failing lane" (fun () ->
        with_pool ~domains:3 (fun pool ->
            let lg = Pool.lanes pool ~n:8 in
            Fun.protect ~finally:(fun () -> Pool.lanes_close lg)
            @@ fun () ->
            let ran = Array.make 8 false in
            (match
               Pool.lanes_run lg (fun i ->
                   ran.(i) <- true;
                   if i mod 3 = 2 then failwith (string_of_int i))
             with
            | () -> Alcotest.fail "expected Failure"
            | exception Failure msg ->
                (* Lanes 2, 5 fail; lane 2 wins deterministically. *)
                Alcotest.(check string) "lane 2's exception" "2" msg);
            Alcotest.(check bool) "all lanes still ran" true
              (Array.for_all Fun.id ran);
            (* The group survives a failing round. *)
            Pool.lanes_run lg (fun _ -> ())));
    test "closed lanes refuse to run; close is idempotent" (fun () ->
        with_pool ~domains:2 (fun pool ->
            let lg = Pool.lanes pool ~n:4 in
            Pool.lanes_run lg ignore;
            Pool.lanes_close lg;
            Pool.lanes_close lg;
            (match Pool.lanes_run lg ignore with
            | () -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ());
            (* The pool is still fully usable afterwards. *)
            Alcotest.(check (list int)) "map after close" [ 1; 4; 9 ]
              (Pool.map pool (fun x -> x * x) [ 1; 2; 3 ])));
    test "shutdown closes a leaked lane group without deadlock" (fun () ->
        let pool = Pool.create ~domains:3 in
        let lg = Pool.lanes pool ~n:4 in
        Pool.lanes_run lg ignore;
        (* No lanes_close: shutdown must release the bound workers. *)
        Pool.shutdown pool);
    test "submitted job exceptions are counted and re-raised" (fun () ->
        let module Metrics = Lsdb_obs.Metrics in
        let m =
          Metrics.counter
            ~help:"Exceptions that escaped a queued job (invariant violations)"
            "lsdb_pool_job_exceptions_total"
        in
        with_pool ~domains:2 (fun pool ->
            let before = Metrics.counter_value m in
            let exploded = ref false in
            Pool.submit pool (fun () ->
                exploded := true;
                failwith "escaped");
            (* Wait for the worker to pick the job up. *)
            let deadline = Unix.gettimeofday () +. 5.0 in
            while
              Metrics.counter_value m = before
              && Unix.gettimeofday () < deadline
            do
              Domain.cpu_relax ()
            done;
            Alcotest.(check bool) "job ran" true !exploded;
            Alcotest.(check int) "counted once" (before + 1)
              (Metrics.counter_value m);
            (* The next caller-path operation surfaces it instead of
               dropping it: the Governor.Trip-class escape contract. *)
            (match Pool.map pool Fun.id [ 1 ] with
            | _ -> Alcotest.fail "expected the escaped Failure"
            | exception Failure msg ->
                Alcotest.(check string) "escaped message" "escaped" msg);
            (* Re-raise is one-shot; the pool then works normally. *)
            Alcotest.(check (list int)) "pool healthy" [ 1 ]
              (Pool.map pool Fun.id [ 1 ])));
  ]

(* ------------------------------------------------------------------ *)
(* Probing determinism                                                 *)

(* A workload whose probe explores several waves: relationship and goal
   taxonomies with facts at the general end, asked at the specific end. *)
let wave_db () =
  let r = Lsdb_workload.Rng.create 0xBEEF in
  let rel_tax = Lsdb_workload.Taxonomy.generate ~prefix:"REL" ~depth:3 ~fanout:2 r in
  let goal_tax = Lsdb_workload.Taxonomy.generate ~prefix:"GOAL" ~depth:2 ~fanout:2 r in
  let db = Database.create () in
  Lsdb_workload.Taxonomy.insert db rel_tax;
  Lsdb_workload.Taxonomy.insert db goal_tax;
  for j = 0 to 19 do
    ignore
      (Database.insert_names db
         (Printf.sprintf "SRC-%02d" j)
         (List.hd rel_tax.Lsdb_workload.Taxonomy.leaves)
         (Printf.sprintf "ITM-%02d" j));
    ignore
      (Database.insert_names db
         (Printf.sprintf "NDL-%02d" j)
         "NEEDLE"
         (List.hd goal_tax.Lsdb_workload.Taxonomy.leaves))
  done;
  let query =
    q db
      (Printf.sprintf "(?x, %s, ?y) & (?y, NEEDLE, %s)"
         (List.hd rel_tax.Lsdb_workload.Taxonomy.leaves)
         (List.hd goal_tax.Lsdb_workload.Taxonomy.leaves))
  in
  (db, query)

let check_probe_matches_sequential what build texts =
  let db = build () in
  let queries = List.map (q db) texts in
  let expected = List.map (fun query -> Probing.probe db query) queries in
  with_pool ~domains:4 (fun pool ->
      List.iter2
        (fun query reference ->
          let parallel = Probing.probe ~pool db query in
          Alcotest.(check bool)
            (what ^ ": outcome structurally equal")
            true
            (parallel = reference);
          Alcotest.(check string)
            (what ^ ": rendered menu equal")
            (Probing.render_menu db query reference)
            (Probing.render_menu db query parallel))
        queries expected);
  (* The pool can also be attached to the database itself. *)
  let db2 = build () in
  with_pool ~domains:3 (fun pool ->
      Database.set_pool db2 (Some pool);
      List.iteri
        (fun i text ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: db-attached pool, query %d" what i)
            true
            (Probing.probe db2 (q db2 text) = List.nth expected i))
        texts;
      Database.set_pool db2 None)

let probing_tests =
  [
    test "campus probes match sequential under a pool" (fun () ->
        check_probe_matches_sequential "campus" Paper_examples.campus
          [
            "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)";
            "(SUE, ENJOYS, OPERA)";
            "(X-UNKNOWN, LOVES, ?z)";
          ]);
    test "music probes match sequential under a pool" (fun () ->
        check_probe_matches_sequential "music" Paper_examples.music
          [ "(?x, PLAYS, VIOLA)"; "(JOHN, TEACHES, ?z)" ]);
    test "seeded wave workload matches sequential under a pool" (fun () ->
        let db, query = wave_db () in
        let reference = Probing.probe db query in
        (* A genuinely multi-wave search, so parallel evaluation really
           fans out. *)
        (match reference with
        | Probing.Answered _ -> Alcotest.fail "workload query should fail"
        | Probing.Retracted { wave; _ } ->
            Alcotest.(check bool) "needs several waves" true (wave >= 2)
        | Probing.Exhausted { waves; _ } ->
            Alcotest.(check bool) "needs several waves" true (waves >= 2));
        List.iter
          (fun domains ->
            with_pool ~domains (fun pool ->
                Alcotest.(check bool)
                  (Printf.sprintf "%d domains identical" domains)
                  true
                  (Probing.probe ~pool db query = reference)))
          [ 2; 4 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Closure determinism                                                 *)

let closure_tests =
  [
    test "engine closure is identical under a pool" (fun () ->
        let open Lsdb_datalog in
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:
              [
                Atom.make (Term.Var 0) (Term.Const edge) (Term.Var 1);
                Atom.make (Term.Var 1) (Term.Const edge) (Term.Var 2);
              ]
            ~heads:[ Atom.make (Term.Var 0) (Term.Const edge) (Term.Var 2) ]
            ()
        in
        let base = List.init 40 (fun i -> Triple.make (100 + i) edge (101 + i)) in
        (* One stratum at one shard: with 4 domains each round's delta fans
           out in contiguous chunks of at least 32 facts. *)
        let reference, reference_derived = stratum [ rule ] base in
        with_pool ~domains:4 (fun pool ->
            let parallel, parallel_derived = stratum ~pool [ rule ] base in
            Alcotest.(check int) "cardinal" (Sharded.cardinal reference)
              (Sharded.cardinal parallel);
            Alcotest.(check int) "rounds" (Sharded.rounds reference)
              (Sharded.rounds parallel);
            Alcotest.(check bool) "derived order identical" true
              (List.equal Triple.equal reference_derived parallel_derived);
            List.iter
              (fun triple ->
                Alcotest.(check bool) "same provenance" true
                  (Sharded.provenance reference triple
                  = Sharded.provenance parallel triple))
              reference_derived));
    test "database closure is identical with an attached pool" (fun () ->
        let seq_db = Paper_examples.organization () in
        let seq_closure = Database.closure seq_db in
        with_pool ~domains:4 (fun pool ->
            let par_db = Paper_examples.organization () in
            Database.set_pool par_db (Some pool);
            let par_closure = Database.closure par_db in
            Alcotest.(check int) "cardinal" (Closure.cardinal seq_closure)
              (Closure.cardinal par_closure);
            Alcotest.(check int) "derived count"
              (Closure.derived_count seq_closure)
              (Closure.derived_count par_closure);
            Alcotest.(check bool) "derived lists identical" true
              (Closure.derived seq_closure = Closure.derived par_closure)));
    test "incremental extension is identical with an attached pool" (fun () ->
        let extend db =
          ignore (Database.closure db);
          for i = 0 to 30 do
            ignore
              (Database.insert_names db (Printf.sprintf "NEW-%02d" i) "in" "STUDENT")
          done;
          let closure = Database.closure db in
          (Closure.cardinal closure, List.length (Closure.derived closure))
        in
        let reference = extend (Paper_examples.campus ()) in
        with_pool ~domains:4 (fun pool ->
            let db = Paper_examples.campus () in
            Database.set_pool db (Some pool);
            Alcotest.(check (pair int int)) "same closure after extension"
              reference (extend db)));
  ]

let tests = pool_tests @ lanes_tests @ probing_tests @ closure_tests
