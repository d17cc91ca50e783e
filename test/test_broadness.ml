open Lsdb
open Testutil

(* A diamond with a long side chain:
       TOP0
      /    \
   MID-A  MID-B
      \    /
       LOW        and  LOW ⊑ DEEP? no: DEEP ⊑ LOW. *)
let diamond () =
  db_of
    [
      ("MID-A", "isa", "TOP0");
      ("MID-B", "isa", "TOP0");
      ("LOW", "isa", "MID-A");
      ("LOW", "isa", "MID-B");
      ("DEEP", "isa", "LOW");
    ]

(* A Taxonomy DAG with cross links, synonym cycles (stored synonyms and
   an isa back edge), scattered memberships, and one class hub of 320
   members placed under a taxonomy node. *)
let hub_db seed =
  let module Rng = Lsdb_workload.Rng in
  let module Taxonomy = Lsdb_workload.Taxonomy in
  let rng = Rng.create seed in
  let tax = Taxonomy.generate ~cross_links:8 ~prefix:"T" ~depth:3 ~fanout:3 rng in
  let db = Database.create () in
  Taxonomy.insert db tax;
  let node () = Taxonomy.random_node tax rng in
  for _ = 1 to 3 do
    let a = node () and b = node () in
    if a <> b then ignore (Database.insert_names db a "syn" b)
  done;
  ignore (Database.insert_names db tax.Taxonomy.root "isa" (Taxonomy.random_leaf tax rng));
  for i = 0 to 29 do
    ignore (Database.insert_names db (Printf.sprintf "M%d" i) "in" (node ()))
  done;
  for i = 0 to 319 do
    ignore (Database.insert_names db (Printf.sprintf "H%03d" i) "in" "HUB")
  done;
  ignore (Database.insert_names db "HUB" "isa" (node ()));
  db

(* The §5.2 retraction set of [(e, ?r, ?x)] (source) or [(?x, ?r, e)]
   (target): the entities substituted for [e]. *)
let replaced_by db policy ~source e =
  let name = Database.entity_name db e in
  let text = if source then "(" ^ name ^ ", ?r, ?x)" else "(?x, ?r, " ^ name ^ ")" in
  Retraction.retraction_set ~policy db (Broadness.of_db db) (q db text)
  |> List.filter_map (fun (br : Retraction.broader) ->
         match br.Retraction.step with
         | Retraction.Replace { by; _ } -> Some by
         | Retraction.Delete_atom _ -> None)
  |> List.sort Entity.compare

(* The same set from the table-based oracle. *)
let oracle_replaced_by tables (policy : Retraction.policy) ~source e =
  (if not source then Broadness_tables.minimal_generalizations tables e
   else
     match policy.Retraction.source_mode with
     | `Generalize -> Broadness_tables.minimal_generalizations tables e
     | `Specialize ->
         List.filter
           (fun e' -> not (Entity.equal e' Entity.bottom))
           (Broadness_tables.minimal_specializations tables e))
  |> List.sort Entity.compare

let sorted l = List.sort Entity.compare l

let tests =
  [
    test "covers equal the table oracle on hub DAGs, both modes and policies" (fun () ->
        List.iter
          (fun seed ->
            let db = hub_db seed in
            let tables = Broadness_tables.compute db in
            let per_mode =
              List.map
                (fun mode ->
                  Database.set_closure_mode db mode;
                  let b = Broadness.of_db db in
                  List.init (Database.entity_count db) (fun e ->
                      let ups = Broadness.minimal_generalizations b e
                      and downs = Broadness.minimal_specializations b e in
                      let what fmt =
                        Printf.sprintf
                          ("seed %d %s %s: " ^^ fmt)
                          seed
                          (if mode = Database.Eager then "eager" else "demand")
                          (Database.entity_name db e)
                      in
                      Alcotest.(check (list int)) (what "up covers")
                        (sorted (Broadness_tables.minimal_generalizations tables e))
                        ups;
                      Alcotest.(check (list int)) (what "down covers")
                        (sorted (Broadness_tables.minimal_specializations tables e))
                        downs;
                      if not (Entity.is_special e) then
                        List.iter
                          (fun (policy, source) ->
                            Alcotest.(check (list int)) (what "retraction set")
                              (oracle_replaced_by tables policy ~source e)
                              (replaced_by db policy ~source e))
                          [
                            (Retraction.default_policy, true);
                            ({ Retraction.source_mode = `Generalize }, true);
                            (Retraction.default_policy, false);
                          ];
                      (ups, downs)))
                [ Database.Eager; Database.Demand ]
            in
            (* Entity-id order, the same in both modes. *)
            match per_mode with
            | [ eager; demand ] ->
                Alcotest.(check bool) (Printf.sprintf "seed %d: modes agree" seed) true
                  (eager = demand)
            | _ -> assert false)
          [ 3; 17; 2024 ]);

    test "generalizations are transitively closed" (fun () ->
        let db = diamond () in
        let b = Broadness.of_db db in
        Alcotest.(check (list string)) "ups of DEEP"
          [ "LOW"; "MID-A"; "MID-B"; "TOP0" ]
          (names db (Broadness.generalizations b (Database.entity db "DEEP"))));
    test "minimal generalizations are the covers, not all ancestors" (fun () ->
        let db = diamond () in
        let b = Broadness.of_db db in
        Alcotest.(check (list string)) "covers of LOW" [ "MID-A"; "MID-B" ]
          (names db (Broadness.minimal_generalizations b (Database.entity db "LOW")));
        Alcotest.(check (list string)) "covers of DEEP" [ "LOW" ]
          (names db (Broadness.minimal_generalizations b (Database.entity db "DEEP"))));
    test "minimal specializations are the down-covers" (fun () ->
        let db = diamond () in
        let b = Broadness.of_db db in
        Alcotest.(check (list string)) "down-covers of TOP0" [ "MID-A"; "MID-B" ]
          (names db (Broadness.minimal_specializations b (Database.entity db "TOP0"))));
    test "entities outside the hierarchy fall back to Δ and ∇" (fun () ->
        let db = db_of [ ("LONER", "LIKES", "SOMETHING") ] in
        let b = Broadness.of_db db in
        Alcotest.(check (list int)) "Δ up" [ Entity.top ]
          (Broadness.minimal_generalizations b (Database.entity db "LONER"));
        Alcotest.(check (list int)) "∇ down" [ Entity.bottom ]
          (Broadness.minimal_specializations b (Database.entity db "LONER")));
    test "Δ and ∇ themselves have no further extremes" (fun () ->
        let db = diamond () in
        let b = Broadness.of_db db in
        Alcotest.(check (list int)) "Δ" [] (Broadness.minimal_generalizations b Entity.top);
        Alcotest.(check (list int)) "∇" [] (Broadness.minimal_specializations b Entity.bottom));
    test "synonyms cover each other without blocking real covers" (fun () ->
        let db =
          db_of [ ("CAR", "syn", "AUTO"); ("CAR", "isa", "VEHICLE") ]
        in
        let b = Broadness.of_db db in
        let covers = names db (Broadness.minimal_generalizations b (Database.entity db "CAR")) in
        Alcotest.(check bool) "auto is minimal" true (List.mem "AUTO" covers);
        Alcotest.(check bool) "vehicle not blocked by the synonym" true
          (List.mem "VEHICLE" covers));
    test "is_generalization includes Δ and strict ancestors only" (fun () ->
        let db = diamond () in
        let b = Broadness.of_db db in
        let e = Database.entity db in
        Alcotest.(check bool) "strict" true
          (Broadness.is_generalization b ~of_:(e "DEEP") (e "TOP0"));
        Alcotest.(check bool) "Δ always" true
          (Broadness.is_generalization b ~of_:(e "DEEP") Entity.top);
        Alcotest.(check bool) "not downward" false
          (Broadness.is_generalization b ~of_:(e "TOP0") (e "DEEP")));
    test "height measures the longest chain" (fun () ->
        let db = diamond () in
        let b = Broadness.of_db db in
        Alcotest.(check int) "DEEP height" 3 (Broadness.height b (Database.entity db "DEEP"));
        Alcotest.(check int) "TOP0 height" 0 (Broadness.height b (Database.entity db "TOP0")));
    test "height terminates on synonym cycles" (fun () ->
        let db = db_of [ ("A", "syn", "B"); ("A", "isa", "C") ] in
        let b = Broadness.of_db db in
        Alcotest.(check bool) "finite" true
          (Broadness.height b (Database.entity db "A") <= 3));
    test "taxonomy covers agree with the generator's structure" (fun () ->
        let rng = Lsdb_workload.Rng.create 7 in
        let taxonomy =
          Lsdb_workload.Taxonomy.generate ~prefix:"T" ~depth:3 ~fanout:2 rng
        in
        let db = Database.create () in
        Lsdb_workload.Taxonomy.insert db taxonomy;
        let b = Broadness.of_db db in
        (* Every leaf's minimal generalization is its unique tree parent. *)
        List.iter
          (fun leaf ->
            let covers =
              Broadness.minimal_generalizations b (Database.entity db leaf)
            in
            Alcotest.(check int) (leaf ^ " has one parent") 1 (List.length covers))
          taxonomy.Lsdb_workload.Taxonomy.leaves);
  ]
