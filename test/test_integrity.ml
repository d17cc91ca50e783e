open Lsdb
open Testutil

(* Differential scripts for the incremental check: ⊥ facts, synonyms,
   isa, memberships, a comparator constraint like B8's
   salaries-positive, removals, plain (unchecked) inserts that leave
   violations behind, and checked inserts that get rejected. After every
   step the check must equal the full scan of a copy, which has no clean
   check on record. Returns the number of rejected inserts. *)
let differential mode seed =
  let module Rng = Lsdb_workload.Rng in
  let rng = Rng.create seed in
  let db = Database.create () in
  Database.set_closure_mode db mode;
  let e = Database.entity db in
  Database.add_rule db
    (Rule.make ~name:"salaries-positive"
       ~body:[ Template.make (Template.Var "x") (Template.Ent (e "EARNS")) (Template.Var "s") ]
       ~heads:[ Template.make (Template.Var "s") (Template.Ent Entity.ge) (Template.Ent (e "$0")) ]
       ());
  let pick a = Rng.choose_array rng a in
  let people = [| "P0"; "P1"; "P2"; "P3"; "P4"; "P5" |]
  and rels = [| "LOVES"; "HATES"; "LIKES"; "ADMIRES"; "DESPISES" |]
  and classes = [| "C0"; "C1"; "C2"; "C3" |]
  and amounts = [| "$5"; "$-3"; "$0"; "$12" |] in
  let random_fact () =
    let names =
      match Rng.int rng 12 with
      | 0 | 1 -> (pick rels, "contra", pick rels)
      | 2 -> (pick rels, "syn", pick rels)
      | 3 -> (pick people, "syn", pick people)
      | 4 -> (pick classes, "isa", pick classes)
      | 5 -> (pick rels, "isa", pick rels)
      | 6 -> (pick people, "in", pick classes)
      | 7 -> (pick people, "EARNS", pick amounts)
      | _ -> (pick people, pick rels, (if Rng.bool rng then pick people else pick classes))
    in
    fact db names
  in
  (* Plain inserts, newest first: the only source of lasting violations,
     so undoing them all makes the database valid again. *)
  let plain = ref [] in
  let undo () =
    match !plain with
    | fact :: rest ->
        plain := rest;
        ignore (Database.remove db fact)
    | [] -> ()
  in
  let rejected = ref 0 in
  let check what =
    let render vs = List.map (Integrity.describe db) vs in
    let full = Integrity.violations (Database.copy db) in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d %s" seed what)
      (render full) (render (Integrity.violations db));
    full
  in
  for step = 1 to 60 do
    for _ = 0 to Rng.int rng 4 do
      match Rng.int rng 10 with
      | 0 | 1 | 2 -> (
          match Integrity.insert_checked db (random_fact ()) with
          | Error _ -> incr rejected
          | Ok _ -> ())
      | 3 | 4 | 5 ->
          let fact = random_fact () in
          if Database.insert db fact then plain := fact :: !plain
      | 6 -> (
          match Database.facts db with
          | [] -> ()
          | facts -> ignore (Database.remove db (Rng.choose rng facts)))
      | 7 | 8 -> undo ()
      | _ -> ()
    done;
    if check (Printf.sprintf "step %d" step) <> [] then begin
      while !plain <> [] do undo () done;
      ignore (check (Printf.sprintf "step %d, undone" step) : Integrity.violation list)
    end
  done;
  !rejected

let tests =
  [
    test "incremental check ≡ full scan over random scripts, both modes" (fun () ->
        let rejected = ref 0 in
        List.iter
          (fun mode ->
            List.iter
              (fun seed -> rejected := !rejected + differential mode seed)
              [ 1; 2; 3; 4; 5; 6; 7; 8 ])
          [ Database.Eager; Database.Demand ];
        Alcotest.(check bool) "some inserts were rejected" true (!rejected > 0));
    test "violations come in one canonical order" (fun () ->
        let db =
          db_of
            [
              ("LOVES", "contra", "HATES");
              ("LIKES", "contra", "HATES");
              ("JOHN", "LOVES", "MARY");
              ("JOHN", "HATES", "MARY");
              ("ANN", "LIKES", "MARY");
              ("ANN", "HATES", "MARY");
            ]
        in
        let eager = Integrity.violations db in
        Alcotest.(check bool) "sorted" true (List.sort compare eager = eager);
        Database.set_closure_mode db Database.Demand;
        Alcotest.(check bool) "demand agrees" true (Integrity.violations db = eager));

    test "a contradiction-free database validates" (fun () ->
        Alcotest.(check bool) "organization valid" true
          (Integrity.is_valid (Paper_examples.organization ())));
    test "§3.5 contradiction facts flag clashing pairs" (fun () ->
        let db =
          db_of
            [
              ("LOVES", "contra", "HATES");
              ("JOHN", "LOVES", "MARY");
              ("JOHN", "HATES", "MARY");
            ]
        in
        let violations = Integrity.violations db in
        Alcotest.(check int) "one violation" 1 (List.length violations);
        match violations with
        | [ { Integrity.conflict = Integrity.Contradictory clash; fact } ] ->
            let pair =
              List.sort String.compare
                [ Database.entity_name db fact.Fact.r;
                  Database.entity_name db clash.Fact.r ]
            in
            Alcotest.(check (list string)) "loves/hates" [ "HATES"; "LOVES" ] pair
        | _ -> Alcotest.fail "expected one Contradictory violation");
    test "§2.5 constraint rules surface as math refutations" (fun () ->
        (* (x,∈,AGE) ⇒ (x,>,0): a negative age derives (−5,>,0), refuted
           by the oracle. *)
        let db = db_of [ ("-5", "in", "AGE") ] in
        let rule =
          Rule.make ~name:"ages-positive"
            ~body:
              [ Template.make (Template.Var "x") (Template.Ent Entity.member)
                  (Template.Ent (Database.entity db "AGE")) ]
            ~heads:
              [ Template.make (Template.Var "x") (Template.Ent Entity.gt)
                  (Template.Ent (Database.entity db "0")) ]
            ()
        in
        Database.add_rule db rule;
        let violations = Integrity.violations db in
        Alcotest.(check bool) "math violation found" true
          (List.exists
             (fun v -> v.Integrity.conflict = Integrity.Math)
             violations));
    test "a positive age satisfies the same constraint" (fun () ->
        let db = db_of [ ("30", "in", "AGE") ] in
        let rule =
          Rule.make ~name:"ages-positive"
            ~body:
              [ Template.make (Template.Var "x") (Template.Ent Entity.member)
                  (Template.Ent (Database.entity db "AGE")) ]
            ~heads:
              [ Template.make (Template.Var "x") (Template.Ent Entity.gt)
                  (Template.Ent (Database.entity db "0")) ]
            ()
        in
        Database.add_rule db rule;
        Alcotest.(check bool) "valid" true (Integrity.is_valid db));
    test "§2.5 the manager-salary constraint" (fun () ->
        (* employee x earning u with manager y earning v requires v > u. *)
        let db =
          db_of
            [
              ("X", "in", "WORKER");
              ("Y", "in", "WORKER");
              ("X", "PAID", "5000");
              ("Y", "PAID", "4000");
              ("X", "BOSS", "Y");
            ]
        in
        let e name = Template.Ent (Database.entity db name) in
        let v name = Template.Var name in
        let rule =
          Rule.make ~name:"boss-earns-more"
            ~body:
              [
                Template.make (v "x") (e "PAID") (v "u");
                Template.make (v "y") (e "PAID") (v "v");
                Template.make (v "x") (e "BOSS") (v "y");
              ]
            ~heads:[ Template.make (v "v") (Template.Ent Entity.gt) (v "u") ]
            ()
        in
        Database.add_rule db rule;
        (* Y (the boss) earns less: violation. *)
        Alcotest.(check bool) "violated" false (Integrity.is_valid db);
        (* Raise the boss's salary: the constraint is satisfied. *)
        ignore (Database.remove_names db "Y" "PAID" "4000");
        ignore (Database.insert_names db "Y" "PAID" "6000");
        Alcotest.(check bool) "satisfied" true (Integrity.is_valid db));
    test "insert_checked rolls back a violating fact" (fun () ->
        let db =
          db_of [ ("LOVES", "contra", "HATES"); ("JOHN", "LOVES", "MARY") ] in
        let bad = fact db ("JOHN", "HATES", "MARY") in
        (match Integrity.insert_checked db bad with
        | Error violations -> Alcotest.(check bool) "reported" true (violations <> [])
        | Ok _ -> Alcotest.fail "expected Error");
        Alcotest.(check bool) "rolled back" false (Database.mem_base db bad);
        Alcotest.(check bool) "database still valid" true (Integrity.is_valid db));
    test "insert_checked accepts a harmless fact" (fun () ->
        let db = db_of [ ("JOHN", "LOVES", "MARY") ] in
        match Integrity.insert_checked db (fact db ("JOHN", "LIKES", "FELIX")) with
        | Ok true -> ()
        | _ -> Alcotest.fail "expected Ok true");
    test "insert_checked is idempotent on present facts" (fun () ->
        let db = db_of [ ("JOHN", "LOVES", "MARY") ] in
        match Integrity.insert_checked db (fact db ("JOHN", "LOVES", "MARY")) with
        | Ok false -> ()
        | _ -> Alcotest.fail "expected Ok false");
    test "add_rule_checked rejects a constraint the data violates" (fun () ->
        let db = db_of [ ("-5", "in", "AGE") ] in
        let rule =
          Rule.make ~name:"ages-positive"
            ~body:
              [ Template.make (Template.Var "x") (Template.Ent Entity.member)
                  (Template.Ent (Database.entity db "AGE")) ]
            ~heads:
              [ Template.make (Template.Var "x") (Template.Ent Entity.gt)
                  (Template.Ent (Database.entity db "0")) ]
            ()
        in
        (match Integrity.add_rule_checked db rule with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected Error");
        Alcotest.(check bool) "rule rolled back" false
          (List.exists
             (fun (r, _) -> Rule.equal_name r rule)
             (Database.rules db)));
    test "contradictions via inferred facts are caught" (fun () ->
        (* HATES is derived through a synonym; the clash is still found. *)
        let db =
          db_of
            [
              ("LOVES", "contra", "HATES");
              ("JOHN", "LOVES", "MARY");
              ("JOHN", "DESPISES", "MARY");
              ("DESPISES", "syn", "HATES");
            ]
        in
        Alcotest.(check bool) "invalid" false (Integrity.is_valid db));
    test "describe renders both violation kinds" (fun () ->
        let db =
          db_of
            [
              ("LOVES", "contra", "HATES");
              ("JOHN", "LOVES", "MARY");
              ("JOHN", "HATES", "MARY");
            ]
        in
        List.iter
          (fun v ->
            Alcotest.(check bool) "nonempty description" true
              (String.length (Integrity.describe db v) > 0))
          (Integrity.violations db));
  ]
