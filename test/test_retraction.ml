open Lsdb
open Testutil

let broader_strings db query =
  let b = Broadness.of_db db in
  Retraction.retraction_set db b query
  |> List.map (fun (br : Retraction.broader) ->
         Query.to_string (Database.symtab db) br.Retraction.query)
  |> List.sort String.compare

let tests =
  [
    test "EX2: the opera query's minimally broader set (§5.1)" (fun () ->
        let db = Paper_examples.campus () in
        let query = q db "(?z, LOVES, OPERA)" in
        Alcotest.(check (list string)) "three broader queries"
          [ "(?z, ENJOYS, OPERA)"; "(?z, LOVES, MUSIC)"; "(?z, LOVES, THEATER)" ]
          (broader_strings db query));
    test "EX3: the students/FREE query generates the §5.2 retraction set" (fun () ->
        let db = Paper_examples.campus () in
        let query = q db "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)" in
        let broader = broader_strings db query in
        Alcotest.(check (list string)) "four broader queries"
          [
            "(FRESHMAN, LOVE, ?z) ∧ (?z, COSTS, FREE)";
            "(STUDENT, LIKE, ?z) ∧ (?z, COSTS, FREE)";
            "(STUDENT, LOVE, ?z) ∧ (?z, COSTS, CHEAP)";
            "(STUDENT, LOVE, ?z) ∧ (?z, Δ, FREE)";
          ]
          broader);
    test "broadness soundness: Q ⇒ Q' (answers only grow)" (fun () ->
        let db = Paper_examples.campus () in
        let b = Broadness.of_db db in
        let queries =
          [
            "(?z, LOVES, OPERA)";
            "(FRESHMAN, LOVE, ?z)";
            "(?z, ENJOYS, ?w)";
            "(STUDENT, LOVE, ?z) & (?z, COSTS, CHEAP)";
          ]
        in
        List.iter
          (fun text ->
            let query = q db text in
            let original =
              (Eval.eval db query).Eval.rows |> List.map Array.to_list
            in
            List.iter
              (fun (br : Retraction.broader) ->
                let broader_rows =
                  (Eval.eval db br.Retraction.query).Eval.rows |> List.map Array.to_list
                in
                List.iter
                  (fun row ->
                    if not (List.mem row broader_rows) then
                      Alcotest.failf "broadening %s lost answer row" text)
                  original)
              (Retraction.retraction_set db b query))
          queries);
    test "source position specializes (FRESHMAN for STUDENT), not generalizes"
      (fun () ->
        let db = Paper_examples.campus () in
        let query = q db "(STUDENT, LOVE, ?z)" in
        let b = Broadness.of_db db in
        let steps =
          Retraction.retraction_set db b query
          |> List.filter_map (fun (br : Retraction.broader) ->
                 match br.Retraction.step with
                 | Retraction.Replace { position = Retraction.Source; by; _ } ->
                     Some (Database.entity_name db by)
                 | _ -> None)
        in
        Alcotest.(check (list string)) "freshman only" [ "FRESHMAN" ] steps);
    test "generalize policy sends sources toward Δ" (fun () ->
        let db = Paper_examples.campus () in
        let query = q db "(FRESHMAN, LOVE, ?z)" in
        let b = Broadness.of_db db in
        let policy = { Retraction.source_mode = `Generalize } in
        let sources =
          Retraction.retraction_set ~policy db b query
          |> List.filter_map (fun (br : Retraction.broader) ->
                 match br.Retraction.step with
                 | Retraction.Replace { position = Retraction.Source; by; _ } ->
                     Some (Database.entity_name db by)
                 | _ -> None)
        in
        Alcotest.(check (list string)) "student" [ "STUDENT" ] sources);
    test "comparators and extremes are not substituted" (fun () ->
        let db = db_of [ ("X", "EARNS", "100") ] in
        let query = q db "(?z, EARNS, ?y) & (?y, gt, 50)" in
        let b = Broadness.of_db db in
        List.iter
          (fun (br : Retraction.broader) ->
            match br.Retraction.step with
            | Retraction.Replace { replaced; _ } ->
                if Entity.is_comparator replaced then
                  Alcotest.fail "comparator was substituted"
            | Retraction.Delete_atom _ -> ())
          (Retraction.retraction_set db b query));
    test "weak templates are broadened by deletion (§5.2)" (fun () ->
        let db = Paper_examples.campus () in
        (* (?z, Δ, FREE) is not weak (FREE is real), but (?z, Δ, ?w) is. *)
        let weak = Template.make (Template.Var "z") (Template.Ent Entity.top) (Template.Var "w") in
        Alcotest.(check bool) "weak" true (Retraction.is_weak weak);
        let query =
          Query.conj [ q db "(STUDENT, LOVE, ?z)"; Query.atom weak ]
        in
        let b = Broadness.of_db db in
        let has_deletion =
          List.exists
            (fun (br : Retraction.broader) ->
              match br.Retraction.step with
              | Retraction.Delete_atom { atom_index = 1; _ } -> true
              | _ -> false)
            (Retraction.retraction_set db b query)
        in
        Alcotest.(check bool) "deletion offered" true has_deletion);
    test "describe renders the paper's phrasing" (fun () ->
        let db = Paper_examples.campus () in
        let step =
          Retraction.Replace
            {
              atom_index = 0;
              position = Retraction.Source;
              replaced = Database.entity db "STUDENT";
              by = Database.entity db "FRESHMAN";
            }
        in
        Alcotest.(check string) "description" "FRESHMAN instead of STUDENT (source)"
          (Retraction.describe db step));
    test "retraction sets are deduplicated" (fun () ->
        (* Two atoms both mentioning OPERA at the same position would
           generate the same broader query twice without dedup. *)
        let db = Paper_examples.campus () in
        let query = q db "(?z, LOVES, OPERA) & (?z, LOVES, OPERA)" in
        let b = Broadness.of_db db in
        let set = Retraction.retraction_set db b query in
        let texts =
          List.map
            (fun (br : Retraction.broader) ->
              Query.to_string (Database.symtab db) br.Retraction.query)
            set
        in
        Alcotest.(check int) "no duplicates" (List.length texts)
          (List.length (List.sort_uniq String.compare texts)));
  ]
