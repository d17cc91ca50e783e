(* EX5: every inference example in §3 of the paper, verified mechanically
   against the closure of the reconstructed organization database. *)

open Lsdb
open Testutil

let tests =
  [
    test "extension keeps the active-entity table exact" (fun () ->
        List.iter
          (fun shards ->
            let db = Paper_examples.organization () in
            Database.set_shards db shards;
            (* Build the table, then extend with new entities: a derived
               one (NEWBIE works for a department through MANAGER) and a
               fresh relationship. *)
            Alcotest.(check bool) "not yet active" false
              (Database.entity_in_closure db (Database.entity db "NEWBIE"));
            ignore (Database.insert_names db "NEWBIE" "in" "MANAGER");
            ignore (Database.insert_names db "NEWBIE" "MENTORS" "ROOKIE");
            let sorted db = List.sort compare (List.of_seq (Database.active_domain db)) in
            Alcotest.(check (list int))
              (Printf.sprintf "%d shard(s): active entities" shards)
              (sorted (Database.copy db)) (sorted db);
            List.iter
              (fun name ->
                Alcotest.(check bool) (name ^ " active") true
                  (Database.entity_in_closure db (Database.entity db name)))
              [ "NEWBIE"; "MENTORS"; "ROOKIE" ])
          [ 1; 4 ]);
    test "§3.1 generalization, source rule: managers work for departments" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "manager works-for department"
          ("MANAGER", "WORKS-FOR", "DEPARTMENT"));
    test "§3.1 generalization, target rule: employees earn compensation" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "employee earns compensation"
          ("EMPLOYEE", "EARNS", "COMPENSATION"));
    test "§3.1 generalization, relationship rule: John is paid by Shipping" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "john is-paid-by shipping" ("JOHN", "IS-PAID-BY", "SHIPPING"));
    test "§3.1 transitivity of generalization" (fun () ->
        let db = db_of [ ("A", "isa", "B"); ("B", "isa", "C"); ("C", "isa", "D") ] in
        check_holds db "A isa C" ("A", "isa", "C");
        check_holds db "A isa D" ("A", "isa", "D"));
    test "§3.2 membership, source rule: John works for some department" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "john works-for department" ("JOHN", "WORKS-FOR", "DEPARTMENT"));
    test "§3.2 membership, target rule: Tom works for some department" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "tom works-for department" ("TOM", "WORKS-FOR", "DEPARTMENT"));
    test "§3.2 members are instances of more general entities" (fun () ->
        let db = db_of [ ("JOHN", "in", "EMPLOYEE"); ("EMPLOYEE", "isa", "PERSON") ] in
        check_holds db "john in person" ("JOHN", "in", "PERSON"));
    test "§2.2 class relationships do not propagate to members" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "the aggregate fact itself" ("EMPLOYEE", "TOTAL-NUMBER", "180");
        check_not_holds db "john does not have TOTAL-NUMBER 180"
          ("JOHN", "TOTAL-NUMBER", "180"));
    test "§3.3 synonym substitution: Johnny earns $25000" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "johnny earns" ("JOHNNY", "EARNS", "$25000"));
    test "§3.3 synonymy is symmetric and transitive" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "symmetry" ("JOHNNY", "syn", "JOHN");
        (* WAGE ≈ PAY inferred from SALARY ≈ WAGE and SALARY ≈ PAY *)
        check_holds db "transitivity through the hub" ("WAGE", "syn", "PAY"));
    test "§3.3 synonymy is mutual generalization" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "john ⊑ johnny" ("JOHN", "isa", "JOHNNY");
        check_holds db "johnny ⊑ john" ("JOHNNY", "isa", "JOHN"));
    test "§3.3 mutual generalization implies synonymy" (fun () ->
        let db = db_of [ ("CAR", "isa", "AUTOMOBILE"); ("AUTOMOBILE", "isa", "CAR") ] in
        check_holds db "syn introduced" ("CAR", "syn", "AUTOMOBILE"));
    test "§3.4 inversion: course taught-by instructor" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "class-level inverse" ("COURSE", "TAUGHT-BY", "INSTRUCTOR");
        check_holds db "instance-level inverse" ("CS100", "TAUGHT-BY", "HARRY"));
    test "§3.4 inversion facts come in pairs via the (↔,↔,↔) axiom" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "taught-by ↔ teaches" ("TAUGHT-BY", "inv", "TEACHES"));
    test "§3.4 the inverse direction derives facts too" (fun () ->
        let db =
          db_of [ ("COURSE", "TAUGHT-BY", "INSTRUCTOR"); ("TEACHES", "inv", "TAUGHT-BY") ]
        in
        check_holds db "teaches derived" ("INSTRUCTOR", "TEACHES", "COURSE"));
    test "§3.5 ⊥ is symmetric via the (⊥,↔,⊥) axiom" (fun () ->
        let db = Paper_examples.organization () in
        check_holds db "hates ⊥ loves" ("HATES", "contra", "LOVES"));
    test "closure caching: inserts extend, removals retract, never recompute"
      (fun () ->
        let db = Paper_examples.organization () in
        ignore (Database.closure db);
        ignore (Database.closure db);
        Alcotest.(check int) "one computation" 1 (Database.closure_computations db);
        ignore (Database.insert_names db "NEW" "in" "EMPLOYEE");
        check_holds db "extension sees the consequences" ("NEW", "EARNS", "SALARY");
        Alcotest.(check int) "still one computation" 1 (Database.closure_computations db);
        Alcotest.(check int) "one extension" 1 (Database.closure_extensions db);
        ignore (Database.remove_names db "NEW" "in" "EMPLOYEE");
        check_not_holds db "retraction deletes the consequences"
          ("NEW", "EARNS", "SALARY");
        Alcotest.(check int)
          "removal retracts instead of recomputing" 1
          (Database.closure_computations db);
        Alcotest.(check int) "one retraction" 1 (Database.closure_retractions db);
        Alcotest.(check bool)
          "retraction built the support index" true
          (Database.support_size db > 0));
    test "incremental extension equals recomputation from scratch" (fun () ->
        let base = Paper_examples.organization () in
        let additions =
          [
            ("SUE", "in", "MANAGER");
            ("SUE", "syn", "SUSAN");
            ("MANAGER", "LEADS", "TEAM");
            ("LEADS", "inv", "LED-BY");
            ("SUE", "EARNS", "$44000");
          ]
        in
        (* Path A: closure first, then insert one by one, extending each
           time. *)
        let incremental = Paper_examples.organization () in
        ignore (Database.closure incremental);
        List.iter
          (fun (s, r, t) ->
            ignore (Database.insert_names incremental s r t);
            ignore (Database.closure incremental))
          additions;
        (* Path B: insert everything, then compute once from scratch. *)
        List.iter (fun (s, r, t) -> ignore (Database.insert_names base s r t)) additions;
        Database.invalidate base;
        let dump db =
          Closure.to_seq (Database.closure db)
          |> Seq.map (fun f -> Fact.names (Database.symtab db) f)
          |> List.of_seq |> List.sort compare
        in
        Alcotest.(check bool) "same closure" true (dump incremental = dump base);
        Alcotest.(check bool) "really was incremental" true
          (Database.closure_extensions incremental >= 1));
    test "derived facts disappear when their premises are removed" (fun () ->
        let db = db_of [ ("JOHN", "in", "EMPLOYEE"); ("EMPLOYEE", "EARNS", "SALARY") ] in
        check_holds db "derived" ("JOHN", "EARNS", "SALARY");
        ignore (Database.remove_names db "JOHN" "in" "EMPLOYEE");
        check_not_holds db "gone after removal" ("JOHN", "EARNS", "SALARY"));
    test "provenance is available for derived facts" (fun () ->
        let db = db_of [ ("JOHN", "in", "EMPLOYEE"); ("EMPLOYEE", "EARNS", "SALARY") ] in
        let closure = Database.closure db in
        match Closure.provenance closure (fact db ("JOHN", "EARNS", "SALARY")) with
        | Some (rule, premises) ->
            Alcotest.(check string) "rule" "mem-source" rule;
            Alcotest.(check int) "premises" 2 (List.length premises)
        | None -> Alcotest.fail "no provenance");
    test "excluding a builtin rule disables its inferences" (fun () ->
        let db = db_of [ ("JOHN", "in", "EMPLOYEE"); ("EMPLOYEE", "EARNS", "SALARY") ] in
        ignore (Database.exclude db "mem-source");
        check_not_holds db "no membership inference" ("JOHN", "EARNS", "SALARY");
        ignore (Database.include_rule db "mem-source");
        check_holds db "restored" ("JOHN", "EARNS", "SALARY"));
    test "inversion is stratified: no ∀/∃ flip through generalized endpoints"
      (fun () ->
        (* Executing the §3 rules as printed would derive, in the music
           database, (MOZART, FAVORITE-MUSIC, PC#9-WAM): John's favorite
           inverts to (PC#9-WAM, FAVORITE-OF, JOHN), generalizes to
           (PC#9-WAM, FAVORITE-OF, PERSON) — favorite of SOME person —
           and re-inverting that reads it as EVERY person's favorite,
           which then specializes to Mozart. Inversion therefore applies
           to stored facts only. *)
        let db = Paper_examples.music () in
        check_holds db "sound inverse" ("PC#9-WAM", "FAVORITE-OF", "JOHN");
        check_holds db "∃-generalization fine" ("PC#9-WAM", "FAVORITE-OF", "PERSON");
        check_not_holds db "no ∀ flip" ("MOZART", "FAVORITE-MUSIC", "PC#9-WAM");
        check_not_holds db "no ∀ flip via PERSON" ("PERSON", "FAVORITE-MUSIC", "PC#9-WAM"));
    test "user rules participate in the closure" (fun () ->
        let db = db_of [ ("REX", "in", "DOG") ] in
        let rule =
          Rule.make ~name:"dogs-bark"
            ~body:
              [ Template.make (Template.Var "x") (Template.Ent Entity.member)
                  (Template.Ent (Database.entity db "DOG")) ]
            ~heads:
              [ Template.make (Template.Var "x")
                  (Template.Ent (Database.entity db "CAN"))
                  (Template.Ent (Database.entity db "BARK")) ]
            ()
        in
        Database.add_rule db rule;
        check_holds db "rex can bark" ("REX", "CAN", "BARK"));
  ]
