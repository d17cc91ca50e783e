(* The end-to-end paper reproduction suite: one test per worked example
   (experiments EX1–EX7 of DESIGN.md), asserting the artifacts the paper
   prints. The bench harness re-renders these; here they are verified. *)

open Lsdb
open Testutil

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let tests =
  [
    test "EX1a: (JOHN, *, *) table cells" (fun () ->
        let db = Paper_examples.music () in
        let table = Navigation.render_source_table db (Database.entity db "JOHN") in
        (* Every cell the paper's first table prints. *)
        List.iter
          (fun cell -> Alcotest.(check bool) cell true (contains table cell))
          [
            "PERSON"; "EMPLOYEE"; "PET-OWNER"; "MUSIC-LOVER";
            "CAT"; "FELIX"; "HEATHCLIFF"; "MOZART"; "MARY";
            "SHIPPING"; "PETER"; "PC#9-WAM"; "PC#20-PIT"; "S#5-LVB";
            "LIKES"; "WORKS-FOR"; "FAVORITE-MUSIC"; "BOSS";
          ]);
    test "EX1b: (PC#9-WAM, *, *) table cells" (fun () ->
        let db = Paper_examples.music () in
        let table = Navigation.render_source_table db (Database.entity db "PC#9-WAM") in
        List.iter
          (fun cell -> Alcotest.(check bool) cell true (contains table cell))
          [
            "CONCERTO"; "MOZART"; "SERKIN"; "BARENBOIM";
            "COMPOSED-BY"; "PERFORMED-BY"; "FAVORITE-OF"; "JOHN"; "LEOPOLD";
          ]);
    test "EX1c: (LEOPOLD, *, MOZART) association table" (fun () ->
        let db = Paper_examples.music () in
        let e = Database.entity db in
        let table = Navigation.render_associations db ~src:(e "LEOPOLD") ~tgt:(e "MOZART") in
        Alcotest.(check bool) "FATHER-OF" true (contains table "FATHER-OF");
        Alcotest.(check bool) "composed path" true
          (contains table "FAVORITE-MUSIC·COMPOSED-BY"));
    test "EX2: §5.1 minimally broader queries of the opera query" (fun () ->
        let db = Paper_examples.campus () in
        let b = Broadness.of_db db in
        let broader =
          Retraction.retraction_set db b (q db "(?z, LOVES, OPERA)")
          |> List.map (fun (br : Retraction.broader) ->
                 Query.to_string (Database.symtab db) br.Retraction.query)
          |> List.sort String.compare
        in
        Alcotest.(check (list string)) "Q1, Q2, Q3"
          [ "(?z, ENJOYS, OPERA)"; "(?z, LOVES, MUSIC)"; "(?z, LOVES, THEATER)" ]
          broader);
    test "EX3: §5.2 retraction menu" (fun () ->
        let db = Paper_examples.campus () in
        let query = q db "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)" in
        let menu = Probing.render_menu db query (Probing.probe db query) in
        Alcotest.(check bool) "menu item 1" true
          (contains menu "FRESHMAN instead of STUDENT");
        Alcotest.(check bool) "menu item 2" true (contains menu "CHEAP instead of FREE"));
    test "EX4: §6.1 relation operator table" (fun () ->
        let db = Paper_examples.payroll () in
        let view =
          Operators.relation db "EMPLOYEE"
            [ ("WORKS-FOR", "DEPARTMENT"); ("EARNS", "SALARY") ]
        in
        Alcotest.(check bool) "all paper rows" true
          (List.for_all
             (fun row -> List.mem row (View.rows_named db view))
             [
               [ "JOHN"; "SHIPPING"; "$26000" ];
               [ "TOM"; "ACCOUNTING"; "$27000" ];
               [ "MARY"; "RECEIVING"; "$25000" ];
             ]));
    test "EX5: every §3 inference example holds (summary)" (fun () ->
        let db = Paper_examples.organization () in
        List.iter (check_holds db "inference")
          [
            ("MANAGER", "WORKS-FOR", "DEPARTMENT");
            ("EMPLOYEE", "EARNS", "COMPENSATION");
            ("JOHN", "IS-PAID-BY", "SHIPPING");
            ("JOHN", "WORKS-FOR", "DEPARTMENT");
            ("TOM", "WORKS-FOR", "DEPARTMENT");
            ("JOHNNY", "EARNS", "$25000");
            ("WAGE", "syn", "PAY");
            ("CS100", "TAUGHT-BY", "HARRY");
            ("TAUGHT-BY", "inv", "TEACHES");
            ("HATES", "contra", "LOVES");
          ]);
    test "EX6: §5 quarterback probe finds the ATTENDED retraction" (fun () ->
        let db = Paper_examples.library () in
        let query = q db "(?x, in, QUARTERBACK) & (?x, GRADUATE-OF, USC)" in
        match Probing.probe db query with
        | Probing.Retracted { successes; _ } ->
            let menu_rel_substitutions =
              successes
              |> List.concat_map (fun s -> s.Probing.steps)
              |> List.filter_map (fun step ->
                     match step with
                     | Retraction.Replace { by; _ } -> Some (Database.entity_name db by)
                     | Retraction.Delete_atom _ -> None)
            in
            Alcotest.(check bool) "ATTENDED substitution succeeds" true
              (List.mem "ATTENDED" menu_rel_substitutions)
        | _ -> Alcotest.fail "expected Retracted");
    test "EX6b: broadened quarterback query answers JAKE" (fun () ->
        let db = Paper_examples.library () in
        check_answers db "attendees" "(?x, in, QUARTERBACK) & (?x, ATTENDED, USC)"
          [ "JAKE" ]);
    test "EX7: misspelled entity diagnosed as 'no such database entities'" (fun () ->
        let db = Paper_examples.campus () in
        let query, unknowns = Query_parser.parse_with_unknowns db "(JOHM, LOVES, ?x)" in
        Alcotest.(check (list string)) "parser sees it" [ "JOHM" ] unknowns;
        let menu = Probing.render_menu db query (Probing.probe db query) in
        Alcotest.(check bool) "diagnosis" true
          (contains menu "no such database entities: JOHM"));
    test "the schema/data unification: schema facts browse like data facts" (fun () ->
        (* §2.6's claim: one access strategy for both. The class-level fact
           (EMPLOYEE, EARNS, SALARY) and the instance-level (JOHN, EARNS,
           $25000) answer the same template forms. *)
        let db = Paper_examples.organization () in
        let nbhd_schema = Navigation.neighborhood db (Database.entity db "EMPLOYEE") in
        let nbhd_data = Navigation.neighborhood db (Database.entity db "JOHN") in
        let has_earns nbhd =
          List.mem_assoc (Database.entity db "EARNS") nbhd.Navigation.as_source
        in
        Alcotest.(check bool) "schema entity browses" true (has_earns nbhd_schema);
        Alcotest.(check bool) "data entity browses" true (has_earns nbhd_data));
  ]
