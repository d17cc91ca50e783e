(* Sharded fact heaps: the hash partitioner, the sharded store and the
   closure over it. The master contract throughout: query results are
   content-identical at every shard count — the oracle is always the
   1-shard heap. *)

open Lsdb
open Testutil
module Shard = Lsdb_datalog.Shard

let sorted_facts_of_closure c =
  let acc = ref [] in
  Closure.iter (fun f -> acc := f :: !acc) c;
  List.sort Fact.compare !acc

(* Two databases built by identical insert sequences intern identically,
   so their facts compare directly. *)
let closure_facts db = sorted_facts_of_closure (Database.closure db)

let org_at_shards n =
  let db = Paper_examples.organization () in
  Database.set_shards db n;
  db

let check_same_closure what oracle db =
  Alcotest.(check bool) (what ^ ": closure content identical") true
    (closure_facts oracle = closure_facts db);
  Alcotest.(check int)
    (what ^ ": derived count identical")
    (Closure.derived_count (Database.closure oracle))
    (Closure.derived_count (Database.closure db))

let tests =
  [
    (* --- the partitioner ------------------------------------------- *)
    test "partitioner: of_entity is deterministic and in range" (fun () ->
        let plan = Shard.plan 8 in
        for e = 0 to 10_000 do
          let s = Shard.of_entity plan e in
          Alcotest.(check bool) "in range" true (s >= 0 && s < 8);
          Alcotest.(check int) "stable on re-query" s (Shard.of_entity plan e)
        done);
    test "partitioner: one shard maps everything to 0" (fun () ->
        let plan = Shard.plan 1 in
        List.iter
          (fun e -> Alcotest.(check int) "shard 0" 0 (Shard.of_entity plan e))
          [ 0; 1; 42; 999_999; max_int ]);
    test "partitioner: plan clamps to at least one shard" (fun () ->
        Alcotest.(check int) "0 shards" 1 (Shard.shards (Shard.plan 0));
        Alcotest.(check int) "-3 shards" 1 (Shard.shards (Shard.plan (-3)));
        Alcotest.(check int) "4 shards" 4 (Shard.shards (Shard.plan 4)));
    test "partitioner: of_triple routes by the source entity" (fun () ->
        let plan = Shard.plan 4 in
        let t = Lsdb_datalog.Triple.make 17 3 99 in
        Alcotest.(check int) "source owns the fact"
          (Shard.of_entity plan 17) (Shard.of_triple plan t));
    qcheck "partitioner: every entity id lands in range"
      QCheck.(pair (int_range 1 16) (int_range 0 1_000_000_000))
      (fun (n, e) ->
        let s = Shard.of_entity (Shard.plan n) e in
        0 <= s && s < n);
    test "partitioner: consecutive entity ids spread over every shard" (fun () ->
        (* Interned ids are small consecutive integers: the hash must
           still give every shard a fair share of them. *)
        List.iter
          (fun n ->
            let plan = Shard.plan n in
            let counts = Array.make n 0 in
            for e = 0 to 9_999 do
              let s = Shard.of_entity plan e in
              counts.(s) <- counts.(s) + 1
            done;
            Array.iteri
              (fun i c ->
                Alcotest.(check bool)
                  (Printf.sprintf "%d shards: shard %d got a fair share" n i)
                  true
                  (c > 10_000 / n / 2 && c < 10_000 / n * 2))
              counts)
          [ 2; 4; 8; 16 ]);
    (* --- the sharded store ----------------------------------------- *)
    test "store: sharded content equals the single-heap layout" (fun () ->
        let mk shards =
          let st = Store.create ~shards () in
          for i = 0 to 499 do
            ignore (Store.add st (Fact.make (i mod 37) (i mod 5) (i mod 61)))
          done;
          st
        in
        let oracle = mk 1 in
        List.iter
          (fun shards ->
            let st = mk shards in
            Alcotest.(check int) "cardinal" (Store.cardinal oracle)
              (Store.cardinal st);
            Alcotest.(check bool) "same facts" true
              (List.sort Fact.compare (Store.to_list oracle)
              = List.sort Fact.compare (Store.to_list st));
            (* Every pattern shape agrees with the oracle. *)
            List.iter
              (fun pat ->
                Alcotest.(check bool) "match_list" true
                  (List.sort Fact.compare (Store.match_list oracle pat)
                  = List.sort Fact.compare (Store.match_list st pat));
                Alcotest.(check int) "count_fast" (Store.count_fast oracle pat)
                  (Store.count_fast st pat);
                Alcotest.(check int) "count_fast counts the matches"
                  (List.length (Store.match_list st pat))
                  (Store.count_fast st pat))
              [
                Store.pattern ();
                Store.pattern ~s:3 ();
                Store.pattern ~r:2 ();
                Store.pattern ~t:7 ();
                Store.pattern ~s:3 ~r:2 ();
                Store.pattern ~r:2 ~t:7 ();
                Store.pattern ~s:3 ~t:7 ();
                Store.pattern ~s:3 ~r:2 ~t:7 ();
              ])
          [ 2; 4; 8 ]);
    test "store: shard_cardinals sum to the cardinal" (fun () ->
        let st = Store.create ~shards:4 () in
        for i = 0 to 99 do
          ignore (Store.add st (Fact.make i 0 (i + 1)))
        done;
        Alcotest.(check int) "sum" (Store.cardinal st)
          (Array.fold_left ( + ) 0 (Store.shard_cardinals st));
        Alcotest.(check int) "one array slot per shard" 4
          (Array.length (Store.shard_cardinals st)));
    test "store: reshard preserves content in place" (fun () ->
        let st = Store.create ~shards:1 () in
        for i = 0 to 199 do
          ignore (Store.add st (Fact.make (i mod 23) (i mod 3) i))
        done;
        let before = List.sort Fact.compare (Store.to_list st) in
        List.iter
          (fun n ->
            Store.reshard st n;
            Alcotest.(check int) "shard count" n (Store.shards st);
            Alcotest.(check bool) "content" true
              (before = List.sort Fact.compare (Store.to_list st));
            Alcotest.(check bool) "membership survives" true
              (Store.mem st (Fact.make 5 2 97)
              = List.mem (Fact.make 5 2 97) before))
          [ 4; 8; 1; 3 ]);
    test "store: removal updates the owning shard only" (fun () ->
        let st = Store.create ~shards:4 () in
        ignore (Store.add st (Fact.make 1 2 3));
        ignore (Store.add st (Fact.make 4 5 6));
        Alcotest.(check bool) "remove present" true
          (Store.remove st (Fact.make 1 2 3));
        Alcotest.(check bool) "gone" false (Store.mem st (Fact.make 1 2 3));
        Alcotest.(check bool) "other fact untouched" true
          (Store.mem st (Fact.make 4 5 6));
        Alcotest.(check bool) "remove absent" false
          (Store.remove st (Fact.make 1 2 3));
        Alcotest.(check int) "cardinal" 1 (Store.cardinal st));
    test "store: copy carries the shard plan" (fun () ->
        let st = Store.create ~shards:4 () in
        ignore (Store.add st (Fact.make 1 2 3));
        let c = Store.copy st in
        Alcotest.(check int) "shards" 4 (Store.shards c);
        Alcotest.(check bool) "content" true (Store.mem c (Fact.make 1 2 3));
        ignore (Store.add c (Fact.make 7 8 9));
        Alcotest.(check bool) "copies are independent" false
          (Store.mem st (Fact.make 7 8 9)));
    test "store: the read view answers like the store" (fun () ->
        let st = Store.create ~shards:4 () in
        for i = 0 to 299 do
          ignore (Store.add st (Fact.make (i mod 29) (i mod 4) (i mod 41)))
        done;
        let v = Store.view st in
        let check_view what =
          Alcotest.(check int) (what ^ ": cardinal") (Store.cardinal st)
            (v.v_cardinal ());
          Alcotest.(check bool) (what ^ ": sequence") true
            (List.of_seq (v.v_seq ()) = Store.to_list st);
          List.iter
            (fun (pat : Store.pattern) ->
              let got = ref [] in
              v.v_iter ~s:pat.s ~r:pat.r ~tgt:pat.t (fun f -> got := f :: !got);
              Alcotest.(check bool) (what ^ ": v_iter") true
                (List.sort Fact.compare !got
                = List.sort Fact.compare (Store.match_list st pat));
              Alcotest.(check int) (what ^ ": v_count") (Store.count_fast st pat)
                (v.v_count ~s:pat.s ~r:pat.r ~tgt:pat.t))
            [
              Store.pattern ();
              Store.pattern ~s:3 ();
              Store.pattern ~r:2 ();
              Store.pattern ~t:7 ();
              Store.pattern ~s:3 ~r:2 ();
              Store.pattern ~s:3 ~r:2 ~t:7 ();
            ];
          List.iter
            (fun f ->
              Alcotest.(check bool) (what ^ ": v_mem") (Store.mem st f) (v.v_mem f))
            [ Fact.make 3 3 3; Fact.make 5 1 5; Fact.make 28 0 40; Fact.make 100 1 101 ]
        in
        check_view "4 shards";
        (* The view is taken once and must follow the store it reads. *)
        Store.reshard st 2;
        check_view "after reshard";
        ignore (Store.add st (Fact.make 100 1 101));
        check_view "after add";
        Store.clear st;
        check_view "after clear";
        Alcotest.(check int) "empty" 0 (v.v_cardinal ()));
    (* --- the closure over a sharded store ---------------------------- *)
    test "closure: tier stats, rounds and derived count are equal at 1 and 4 shards"
      (fun () ->
        (* Every stratum copies its input into one index whatever the
           store's shard count, so the closure's own indexes hold the same
           facts in the same tiers at every count. *)
        let c1 = Database.closure (Paper_examples.organization ()) in
        let c4 = Database.closure (org_at_shards 4) in
        Alcotest.(check bool) "tier stats" true
          (Closure.tier_stats c1 = Closure.tier_stats c4);
        let live (ts : Lsdb_datalog.Index.tier_stats) =
          ts.frozen_live + ts.delta_live
        in
        (* The main stratum's index alone holds the whole closure. *)
        Alcotest.(check bool) "the tiers hold the whole closure" true
          (live (Closure.tier_stats c4) >= Closure.cardinal c4);
        Alcotest.(check int) "rounds" (Closure.rounds c1) (Closure.rounds c4);
        Alcotest.(check int) "derived count" (Closure.derived_count c1)
          (Closure.derived_count c4));
    test "closure: identical at 2, 4 and 8 shards" (fun () ->
        let oracle = Paper_examples.organization () in
        List.iter
          (fun n ->
            check_same_closure
              (Printf.sprintf "%d shards" n)
              oracle (org_at_shards n))
          [ 2; 4; 8 ]);
    test "closure: extension maintains identity" (fun () ->
        let grow db =
          ignore (Database.insert_names db "ALICE" "in" "EMPLOYEE");
          ignore (Database.insert_names db "EMPLOYEE" "isa" "AGENT");
          ignore (Database.closure db)
        in
        let oracle = Paper_examples.organization () in
        grow oracle;
        List.iter
          (fun n ->
            let db = org_at_shards n in
            ignore (Database.closure db);
            grow db;
            check_same_closure (Printf.sprintf "extend at %d shards" n) oracle db)
          [ 2; 8 ]);
    test "closure: retraction maintains identity" (fun () ->
        let shrink db =
          ignore (Database.remove_names db "JOHN" "in" "EMPLOYEE");
          ignore (Database.remove_names db "MANAGER" "isa" "EMPLOYEE");
          ignore (Database.closure db)
        in
        let oracle = Paper_examples.organization () in
        shrink oracle;
        List.iter
          (fun n ->
            let db = org_at_shards n in
            ignore (Database.closure db);
            shrink db;
            check_same_closure
              (Printf.sprintf "retract at %d shards" n)
              oracle db)
          [ 2; 8 ]);
    test "closure: demotion — asserting a derived fact as base" (fun () ->
        (* (A isa C) is derived from the chain; asserting it as base must
           demote it at both shard counts, and retracting the chain must
           keep it alive as base. *)
        let run shards =
          let db = Database.create ~shards () in
          ignore (Database.insert_names db "A" "isa" "B");
          ignore (Database.insert_names db "B" "isa" "C");
          ignore (Database.closure db);
          Alcotest.(check bool) "derived first" true
            (Closure.is_derived (Database.closure db) (fact db ("A", "isa", "C")));
          ignore (Database.insert_names db "A" "isa" "C");
          Alcotest.(check bool) "demoted to base" false
            (Closure.is_derived (Database.closure db) (fact db ("A", "isa", "C")));
          ignore (Database.remove_names db "B" "isa" "C");
          Alcotest.(check bool) "survives the chain's retraction" true
            (holds db ("A", "isa", "C"))
        in
        run 1;
        run 4);
    test "closure: rule toggles keep identity across shard counts" (fun () ->
        let toggle db =
          ignore (Database.exclude db "syn-symmetry");
          ignore (Database.closure db);
          ignore (Database.include_rule db "syn-symmetry");
          ignore (Database.closure db)
        in
        let oracle = Paper_examples.organization () in
        toggle oracle;
        let db = org_at_shards 4 in
        toggle db;
        check_same_closure "after exclude/include round-trip" oracle db);
    test "closure: re-sharding a closed database keeps identity" (fun () ->
        let oracle = Paper_examples.organization () in
        let db = Paper_examples.organization () in
        ignore (Database.closure db);
        List.iter
          (fun n ->
            Database.set_shards db n;
            check_same_closure (Printf.sprintf "resharded to %d" n) oracle db)
          [ 4; 8; 1; 2 ];
        ignore (Database.insert_names oracle "ALICE" "in" "EMPLOYEE");
        ignore (Database.insert_names db "ALICE" "in" "EMPLOYEE");
        check_same_closure "extended after resharding" oracle db;
        ignore (Database.remove_names oracle "JOHN" "in" "EMPLOYEE");
        ignore (Database.remove_names db "JOHN" "in" "EMPLOYEE");
        check_same_closure "retracted after resharding" oracle db);
    test "closure: degree and count accessors agree" (fun () ->
        let oracle = Paper_examples.organization () in
        let db = org_at_shards 8 in
        let co = Database.closure oracle and cs = Database.closure db in
        List.iter
          (fun name ->
            let eo = Database.entity oracle name
            and es = Database.entity db name in
            Alcotest.(check int)
              (name ^ " out_degree")
              (Closure.out_degree co eo) (Closure.out_degree cs es);
            Alcotest.(check int)
              (name ^ " in_degree")
              (Closure.in_degree co eo) (Closure.in_degree cs es);
            Alcotest.(check bool)
              (name ^ " entity_active")
              (Closure.entity_active co eo)
              (Closure.entity_active cs es))
          [ "JOHN"; "EMPLOYEE"; "DEPARTMENT"; "SALARY" ];
        Alcotest.(check int) "count_pattern over closure"
          (Closure.count_pattern co
             (Store.pattern ~r:(Database.entity oracle "isa") ()))
          (Closure.count_pattern cs
             (Store.pattern ~r:(Database.entity db "isa") ())));
    test "closure: an extension keeps tier stats, rounds and derived count equal at 1 and 8 shards"
      (fun () ->
        (* An extension copies the new base facts into the stage's index
           and derives into the strata's own indexes at every shard
           count, so both closures grow the same tiers. *)
        let grow db =
          ignore (Database.closure db);
          for i = 0 to 39 do
            ignore
              (Database.insert_names db (Printf.sprintf "HIRE-%02d" i) "in" "EMPLOYEE")
          done;
          ignore (Database.insert_names db "EMPLOYEE" "isa" "AGENT");
          let c = Database.closure db in
          Alcotest.(check int) "computed once, then extended" 1
            (Database.closure_computations db);
          c
        in
        let c1 = grow (Paper_examples.organization ()) in
        let c8 = grow (org_at_shards 8) in
        Alcotest.(check bool) "tier stats" true
          (Closure.tier_stats c1 = Closure.tier_stats c8);
        Alcotest.(check int) "rounds" (Closure.rounds c1) (Closure.rounds c8);
        Alcotest.(check int) "derived count" (Closure.derived_count c1)
          (Closure.derived_count c8);
        Alcotest.(check int) "cardinal" (Closure.cardinal c1) (Closure.cardinal c8));
    test "closure: governor trip yields a sound subset, sharded" (fun () ->
        let full = closure_facts (Paper_examples.organization ()) in
        let db = org_at_shards 8 in
        let gov = Lsdb_exec.Governor.create ~max_facts:5 () in
        Database.set_governor db (Some gov);
        let partial = Database.closure db in
        Alcotest.(check bool) "tripped" true
          (Lsdb_exec.Governor.tripped gov <> None);
        Alcotest.(check bool) "flagged partial" true (Database.closure_partial db);
        Closure.iter
          (fun f ->
            Alcotest.(check bool) "kept fact is in the true closure" true
              (List.exists (Fact.equal f) full))
          partial;
        Store.iter
          (fun f ->
            Alcotest.(check bool) "base fact still visible" true
              (Closure.mem partial f))
          (Database.store db);
        Database.set_governor db None;
        check_same_closure "recovers once the governor is lifted"
          (Paper_examples.organization ())
          db);
    test "closure: domain pool composes with sharding" (fun () ->
        let oracle = Paper_examples.organization () in
        let db = org_at_shards 4 in
        let pool = Lsdb_exec.Pool.create ~domains:3 in
        Fun.protect
          ~finally:(fun () ->
            Database.set_pool db None;
            Lsdb_exec.Pool.shutdown pool)
          (fun () ->
            Database.set_pool db (Some pool);
            check_same_closure "pooled sharded closure" oracle db;
            ignore (Database.insert_names db "ALICE" "in" "EMPLOYEE");
            ignore (Database.insert_names oracle "ALICE" "in" "EMPLOYEE");
            check_same_closure "pooled sharded extension" oracle db));
    (* --- multi-domain pools ----------------------------------------- *)
    test "closure: the pool keeps identity over the shards × domains grid"
      (fun () ->
        (* The Zipf workload makes rounds wide enough that the chunked
           fan-out engages; the contract under test: content-identical to
           the single-heap oracle at every (shards × domains) point, and
           byte-identical derivation order across domains for a fixed
           shard count. *)
        let params =
          {
            Lsdb_workload.Shard_gen.default_params with
            facts = 2_000;
            entities = 400;
            memberships = 50;
          }
        in
        let gen =
          Lsdb_workload.Shard_gen.generate ~params (Lsdb_workload.Rng.create 11)
        in
        let mutate db =
          ignore (Database.insert_names db "XA" "isa" "XB");
          ignore (Database.insert_names db "XB" "isa" "XC");
          ignore (Database.insert_names db "XC" "isa" "XD");
          ignore (Database.closure db);
          ignore (Database.remove_names db "XB" "isa" "XC");
          ignore (Database.closure db)
        in
        let oracle = Lsdb_workload.Shard_gen.to_database gen in
        ignore (Database.closure oracle);
        mutate oracle;
        List.iter
          (fun shards ->
            let order = ref None in
            List.iter
              (fun domains ->
                let db = Lsdb_workload.Shard_gen.to_database ~shards gen in
                let pool = Lsdb_exec.Pool.create ~domains in
                Fun.protect
                  ~finally:(fun () ->
                    Database.set_pool db None;
                    Lsdb_exec.Pool.shutdown pool)
                  (fun () ->
                    Database.set_pool db (Some pool);
                    ignore (Database.closure db);
                    mutate db;
                    let what =
                      Printf.sprintf "%d shards × %d domains" shards domains
                    in
                    check_same_closure what oracle db;
                    let got =
                      Closure.derived (Database.closure db)
                    in
                    match !order with
                    | None -> order := Some got
                    | Some reference ->
                        Alcotest.(check bool)
                          (what ^ ": derivation order byte-identical")
                          true
                          (List.equal Fact.equal reference got)))
              [ 1; 2; 4 ])
          [ 2; 8 ]);
    test "closure: governor trip stays a sound subset under the pool" (fun () ->
        let params =
          {
            Lsdb_workload.Shard_gen.default_params with
            facts = 2_000;
            entities = 400;
            memberships = 50;
          }
        in
        let gen =
          Lsdb_workload.Shard_gen.generate ~params (Lsdb_workload.Rng.create 11)
        in
        let full = closure_facts (Lsdb_workload.Shard_gen.to_database gen) in
        List.iter
          (fun domains ->
            let db = Lsdb_workload.Shard_gen.to_database ~shards:8 gen in
            let pool = Lsdb_exec.Pool.create ~domains in
            Fun.protect
              ~finally:(fun () ->
                Database.set_pool db None;
                Lsdb_exec.Pool.shutdown pool)
              (fun () ->
                Database.set_pool db (Some pool);
                let gov = Lsdb_exec.Governor.create ~max_facts:50 () in
                Database.set_governor db (Some gov);
                let partial = Database.closure db in
                let what = Printf.sprintf "%d domains" domains in
                Alcotest.(check bool) (what ^ ": tripped") true
                  (Lsdb_exec.Governor.tripped gov <> None);
                Alcotest.(check bool)
                  (what ^ ": flagged partial")
                  true
                  (Database.closure_partial db);
                (* Worker-domain checkpoints must not have let a single
                   overshoot fact through: everything kept is in the true
                   closure, and nothing from the base tier went missing. *)
                Closure.iter
                  (fun f ->
                    if not (List.exists (Fact.equal f) full) then
                      Alcotest.fail (what ^ ": kept fact outside true closure"))
                  partial;
                Store.iter
                  (fun f ->
                    if not (Closure.mem partial f) then
                      Alcotest.fail (what ^ ": base fact went missing"))
                  (Database.store db);
                Database.set_governor db None;
                check_same_closure
                  (what ^ ": recovers once the governor is lifted")
                  (Lsdb_workload.Shard_gen.to_database gen)
                  db))
          [ 2; 4 ]);
    (* --- base-tier cardinality accounting ---------------------------- *)
    test "sharded closure: base_cardinal tracks the store, not the batch"
      (fun () ->
        (* Regression: extend with a duplicate / retract with a
           non-member used to drift a shadow counter adjusted by
           [List.length facts]; the cardinal must always equal what the
           store actually holds. *)
        let open Lsdb_datalog in
        let edge = 3 in
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
        List.iter
          (fun shards ->
            let what fmt = Printf.sprintf ("%d shard(s): " ^^ fmt) shards in
            let store = Store.create ~shards () in
            for i = 0 to 9 do
              ignore (Store.add store (Fact.make i edge (i + 1)))
            done;
            let c = Closure.compute ~rules:[ rule ] store in
            Alcotest.(check int) (what "initial") 10 (Closure.base_cardinal c);
            (* One genuinely new fact, one duplicate the store refuses. *)
            let fresh = Fact.make 100 edge 101 in
            let dup = Fact.make 0 edge 1 in
            Alcotest.(check bool) (what "fresh accepted") true (Store.add store fresh);
            Alcotest.(check bool) (what "duplicate refused") false (Store.add store dup);
            ignore (Closure.extend c [ fresh; dup ] : Fact.t list);
            Alcotest.(check int) (what "after duplicate extend") 11
              (Closure.base_cardinal c);
            (* One member, one fact that was never in the base tier. *)
            let member = Fact.make 5 edge 6 in
            let ghost = Fact.make 500 edge 501 in
            Alcotest.(check bool) (what "member removed") true (Store.remove store member);
            Alcotest.(check bool) (what "ghost refused") false (Store.remove store ghost);
            let c = Closure.retract c [ member; ghost ] in
            Alcotest.(check int) (what "after non-member retract") 10
              (Closure.base_cardinal c);
            Alcotest.(check int) (what "agrees with the store") (Store.cardinal store)
              (Closure.base_cardinal c))
          [ 1; 4 ]);
    (* --- database and federation plumbing -------------------------- *)
    test "database: set_shards re-partitions and keeps the caches" (fun () ->
        (* The fact set does not change, and no cache depends on the
           shard count: the closure stays, the generation too. *)
        let db = Paper_examples.organization () in
        let c = Database.closure db in
        let g0 = Database.generation db in
        Database.set_shards db 4;
        Alcotest.(check int) "shards" 4 (Database.shards db);
        Alcotest.(check bool) "same closure" true (Database.closure db == c);
        Alcotest.(check int) "generation kept" g0 (Database.generation db);
        Database.set_shards db 4;
        Alcotest.(check int) "restating is a no-op" g0 (Database.generation db);
        Database.set_shards db 0;
        Alcotest.(check int) "clamped to one shard" 1 (Database.shards db);
        Alcotest.(check bool) "still the same closure" true
          (Database.closure db == c));
    test "database: copy carries the shard count" (fun () ->
        let db = Database.create ~shards:4 () in
        ignore (Database.insert_names db "A" "isa" "B");
        let c = Database.copy db in
        Alcotest.(check int) "shards" 4 (Database.shards c);
        Alcotest.(check bool) "content" true (holds c ("A", "isa", "B")));
    test "federation: ?shards partitions the merged heap" (fun () ->
        let member name facts =
          (name, db_of facts)
        in
        let members =
          [
            member "hr" [ ("JOHN", "in", "EMPLOYEE") ];
            member "org" [ ("EMPLOYEE", "isa", "PERSON") ];
          ]
        in
        let oracle = Federation.create members in
        let f = Federation.create ~shards:4 members in
        Alcotest.(check int) "merged heap is sharded" 4
          (Database.shards (Federation.database f));
        Alcotest.(check bool) "merged inference unchanged" true
          (closure_facts (Federation.database oracle)
          = closure_facts (Federation.database f));
        check_holds (Federation.database f) "cross-member inference"
          ("JOHN", "in", "PERSON"));
    (* --- read views and the on-disk heap --------------------------- *)
    test "sharded store: a stratum over it answers like one index" (fun () ->
        let open Lsdb_datalog in
        let edge = 3 in
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
        (* The stratum loads its input through the store's view, which
           enumerates shard-major above one shard. *)
        let closed shards =
          let store = Store.create ~shards () in
          for i = 0 to 39 do
            ignore (Store.add store (Fact.make (i mod 13) edge ((i * 7) mod 17)));
            ignore (Store.add store (Fact.make i 1 (i + 1)))
          done;
          let s = Stratum.create (Store.view store) in
          ignore (Stratum.closure [ rule ] s : Triple.t list);
          Stratum.view s
        in
        let matches (v : Engine.view) ~s ~r ~tgt =
          let acc = ref [] in
          v.v_iter ~s ~r ~tgt (fun f -> acc := f :: !acc);
          List.sort Triple.compare !acc
        in
        let oracle = closed 1 in
        let everything = List.sort Triple.compare (List.of_seq (oracle.v_seq ())) in
        Alcotest.(check bool) "the rule derived something" true
          (List.length everything > 80);
        List.iter
          (fun shards ->
            let v = closed shards in
            let what fmt = Printf.sprintf ("%d shards: " ^^ fmt) shards in
            let seq = List.of_seq (v.v_seq ()) in
            Alcotest.(check int) (what "cardinal") (oracle.v_cardinal ()) (v.v_cardinal ());
            Alcotest.(check int) (what "sequence yields each fact once")
              (v.v_cardinal ()) (List.length seq);
            Alcotest.(check bool) (what "same facts") true
              (List.sort Triple.compare seq = everything);
            List.iter
              (fun (s, r, tgt) ->
                let expected = matches oracle ~s ~r ~tgt in
                Alcotest.(check bool) (what "v_iter") true (matches v ~s ~r ~tgt = expected);
                Alcotest.(check int) (what "v_count") (List.length expected)
                  (v.v_count ~s ~r ~tgt))
              [
                (None, None, None);
                (Some 4, None, None);
                (None, Some edge, None);
                (None, None, Some 9);
                (Some 4, Some edge, None);
                (None, Some edge, Some 9);
                (Some 4, None, Some 9);
              ];
            List.iter
              (fun f -> Alcotest.(check bool) (what "v_mem") true (v.v_mem f))
              everything;
            Alcotest.(check bool) (what "v_mem refuses a stranger") false
              (v.v_mem (Triple.make 500 edge 501)))
          [ 2; 4; 8 ]);
    test "persistent: a sharded heap survives compaction and reopen" (fun () ->
        let module P = Lsdb_storage.Persistent in
        let name_facts db =
          Store.to_list (Database.store db)
          |> List.map (Fact.names (Database.symtab db))
          |> List.sort compare
        in
        let name_closure db =
          let acc = ref [] in
          Closure.iter
            (fun f -> acc := Fact.names (Database.symtab db) f :: !acc)
            (Database.closure db);
          List.sort compare !acc
        in
        with_temp_dir (fun dir ->
            let p = P.open_dir dir in
            let db = P.database p in
            Database.set_shards db 4;
            for i = 0 to 49 do
              ignore
                (P.insert_names p (Printf.sprintf "E%d" i) "isa"
                   (Printf.sprintf "E%d" (i + 1)))
            done;
            ignore (P.remove p (fact db ("E0", "isa", "E1")));
            (* The snapshot is written from the shard-major heap; one more
               op stays in the log. *)
            P.compact p;
            ignore (P.insert_names p "JOHN" "in" "E7");
            let facts = name_facts db and closed = name_closure db in
            P.close p;
            let p = P.open_dir dir in
            Fun.protect
              ~finally:(fun () -> P.close p)
              (fun () ->
                let back = P.database p in
                Alcotest.(check bool) "base facts" true (name_facts back = facts);
                Alcotest.(check bool) "closure at one shard" true
                  (name_closure back = closed);
                Database.set_shards back 4;
                (* Resharding keeps the cached closure: drop it, so the
                   next one is computed over the four-shard heap. *)
                Database.invalidate back;
                Alcotest.(check bool) "closure at four shards" true
                  (name_closure back = closed);
                check_holds back "membership climbs the chain" ("JOHN", "in", "E50"))));
    (* --- the workload generator ------------------------------------ *)
    test "shard_gen: deterministic for a fixed seed" (fun () ->
        let params =
          { Lsdb_workload.Shard_gen.default_params with facts = 2_000 }
        in
        let a =
          Lsdb_workload.Shard_gen.generate ~params
            (Lsdb_workload.Rng.create 42)
        in
        let b =
          Lsdb_workload.Shard_gen.generate ~params
            (Lsdb_workload.Rng.create 42)
        in
        Alcotest.(check bool) "same fact list" true
          (a.Lsdb_workload.Shard_gen.facts = b.Lsdb_workload.Shard_gen.facts);
        let c =
          Lsdb_workload.Shard_gen.generate ~params
            (Lsdb_workload.Rng.create 43)
        in
        Alcotest.(check bool) "different seed differs" false
          (a.Lsdb_workload.Shard_gen.facts = c.Lsdb_workload.Shard_gen.facts));
    test "shard_gen: skew concentrates sources, closure stays identical"
      (fun () ->
        let params =
          {
            Lsdb_workload.Shard_gen.default_params with
            facts = 3_000;
            entities = 500;
            memberships = 60;
          }
        in
        let gen =
          Lsdb_workload.Shard_gen.generate ~params
            (Lsdb_workload.Rng.create 7)
        in
        let oracle = Lsdb_workload.Shard_gen.to_database gen in
        let db = Lsdb_workload.Shard_gen.to_database ~shards:8 gen in
        Alcotest.(check int) "same base heap" (Database.base_cardinal oracle)
          (Database.base_cardinal db);
        check_same_closure "workload closure" oracle db;
        (* Zipf skew: the busiest source entity must own well more than
           the uniform share of the flat graph. *)
        let store = Database.store oracle in
        let busiest = ref 0 in
        Seq.iter
          (fun e ->
            let d = Store.count_fast store (Store.pattern ~s:e ()) in
            if d > !busiest then busiest := d)
          (Store.active_entities store);
        Alcotest.(check bool) "hot key exists" true
          (!busiest > 3 * (3_000 / 500)));
    (* --- one engine, one layout ------------------------------------- *)
    test "closure: one shard is byte-identical to the from-scratch oracle"
      (fun () ->
        let org n () =
          Lsdb_workload.Org_gen.to_database
            (Lsdb_workload.Org_gen.generate
               ~params:{ Lsdb_workload.Org_gen.default_params with employees = n }
               (Lsdb_workload.Rng.create 5))
        in
        List.iter
          (fun (name, make) ->
            List.iter
              (fun domains ->
                let what fmt = Printf.sprintf ("%s, %d domain(s): " ^^ fmt) name domains in
                let db = make () in
                let pool =
                  if domains > 1 then Some (Lsdb_exec.Pool.create ~domains) else None
                in
                Database.set_pool db pool;
                Fun.protect
                  ~finally:(fun () -> Option.iter Lsdb_exec.Pool.shutdown pool)
                  (fun () ->
                    let c = Database.closure db in
                    let o = Oracle.of_database db in
                    Alcotest.(check int) (what "cardinal")
                      (Lsdb_datalog.Index.cardinal o.index) (Closure.cardinal c);
                    Alcotest.(check int) (what "rounds") o.rounds (Closure.rounds c);
                    Alcotest.(check bool) (what "derivation order") true
                      (List.equal Fact.equal o.derived (Closure.derived c));
                    List.iter
                      (fun f ->
                        let expected =
                          Option.map
                            (fun { Lsdb_datalog.Engine.rule; premises } -> (rule, premises))
                            (Lsdb_datalog.Triple.Tbl.find_opt o.provenance f)
                        in
                        Alcotest.(check bool) (what "provenance") true
                          (expected = Closure.provenance c f))
                      o.derived))
              [ 1; 4 ])
          [
            ("organization", Paper_examples.organization);
            ("campus", Paper_examples.campus);
            ("org-400", org 400);
          ]);
    test "closure: a retraction at 2 shards moves the cone counters" (fun () ->
        let db = org_at_shards 2 in
        let c = Database.closure db in
        let counter name = Lsdb_obs.Metrics.counter_value (Lsdb_obs.Metrics.counter name) in
        let cone0 = counter "lsdb_engine_retract_cone_facts_total"
        and checks0 = counter "lsdb_engine_rederive_checks_total"
        and retracts0 = counter "lsdb_engine_retracts_total" in
        (* A stored premise of some derived fact: its cone is non-empty. *)
        let premise =
          List.find_map
            (fun f ->
              match Closure.provenance c f with
              | Some (_, premises) -> List.find_opt (Store.mem (Database.store db)) premises
              | None -> None)
            (Closure.derived c)
          |> Option.get
        in
        Alcotest.(check bool) "premise removed" true (Database.remove db premise);
        ignore (Database.closure db);
        Alcotest.(check bool) "cone counter moved" true
          (counter "lsdb_engine_retract_cone_facts_total" > cone0);
        Alcotest.(check bool) "rederive checks counted" true
          (counter "lsdb_engine_rederive_checks_total" > checks0);
        Alcotest.(check bool) "retractions counted" true
          (counter "lsdb_engine_retracts_total" > retracts0));
  ]
