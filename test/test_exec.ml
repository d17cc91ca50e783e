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
(* Chunked closure rounds and escaped-exception accounting             *)

(* A stratum whose first round's delta is exactly [width] facts:
   [width - 4] leaves under four hubs, the hubs under one top, so the
   first round derives each leaf's edge to the top and the second finds
   nothing new. A pooled round splits its delta into contiguous chunks of
   at least 32 facts, so the pool fans out exactly when the delta is
   wider than 32; either way the derivations, rounds and provenance come
   out as on the caller alone. *)
let check_chunked_round width =
  let open Lsdb_datalog in
  let module Metrics = Lsdb_obs.Metrics in
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
  let base =
    List.init (width - 4) (fun i -> Triple.make (100 + i) edge (10 + (i mod 4)))
    @ List.init 4 (fun j -> Triple.make (10 + j) edge 1)
  in
  let reference, reference_derived = stratum [ rule ] base in
  Alcotest.(check int) "every leaf reaches the top" (width - 4)
    (List.length reference_derived);
  let maps =
    Metrics.counter ~help:"Parallel fan-outs executed" "lsdb_pool_maps_total"
  in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let what fmt = Printf.sprintf ("%d domains: " ^^ fmt) domains in
          let before = Metrics.counter_value maps in
          let parallel, parallel_derived = stratum ~pool [ rule ] base in
          Alcotest.(check bool) (what "fans out iff wider than 32 facts")
            (width > 32)
            (Metrics.counter_value maps > before);
          Alcotest.(check int) (what "rounds") (Stratum.rounds reference)
            (Stratum.rounds parallel);
          Alcotest.(check bool) (what "derived in the inline order") true
            (List.equal Triple.equal reference_derived parallel_derived);
          List.iter
            (fun triple ->
              Alcotest.(check bool) (what "same provenance") true
                (Stratum.provenance reference triple
                = Stratum.provenance parallel triple))
            reference_derived))
    [ 2; 4 ]

let chunk_tests =
  [
    test "a 31-fact round stays on the caller, in the inline order" (fun () ->
        check_chunked_round 31);
    test "a 32-fact round is one chunk, in the inline order" (fun () ->
        check_chunked_round 32);
    test "a 33-fact round fans out in two chunks, in the inline order" (fun () ->
        check_chunked_round 33);
    test "a 1,000-fact round fans out across the pool, in the inline order"
      (fun () -> check_chunked_round 1_000);
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
        (* One stratum: with 4 domains each round's delta fans out in
           contiguous chunks of at least 32 facts. *)
        let reference, reference_derived = stratum [ rule ] base in
        with_pool ~domains:4 (fun pool ->
            let parallel, parallel_derived = stratum ~pool [ rule ] base in
            Alcotest.(check int) "cardinal" (Stratum.cardinal reference)
              (Stratum.cardinal parallel);
            Alcotest.(check int) "rounds" (Stratum.rounds reference)
              (Stratum.rounds parallel);
            Alcotest.(check bool) "derived order identical" true
              (List.equal Triple.equal reference_derived parallel_derived);
            List.iter
              (fun triple ->
                Alcotest.(check bool) "same provenance" true
                  (Stratum.provenance reference triple
                  = Stratum.provenance parallel triple))
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

let tests = pool_tests @ chunk_tests @ probing_tests @ closure_tests
