(* Cross-layer soundness properties on structured random workloads. *)

open Lsdb
open Testutil

let university rng =
  Lsdb_workload.University_gen.generate
    ~params:
      {
        Lsdb_workload.University_gen.students = 15;
        courses = 5;
        instructors = 3;
        enrollments_per_student = 2;
      }
    rng

let tests =
  [
    test "every enumerated composition path actually walks" (fun () ->
        let rng = Lsdb_workload.Rng.create 31 in
        let db = Lsdb_workload.University_gen.to_database (university rng) in
        Database.set_limit db 3;
        let closure = Database.closure db in
        let actives = List.of_seq (Closure.active_entities closure) in
        let sources = List.filteri (fun i _ -> i mod 7 = 0) actives in
        List.iter
          (fun src ->
            List.iter
              (fun tgt ->
                List.iter
                  (fun (path : Composition.path) ->
                    (* Walking the chain from the source must reach the
                       target. *)
                    let reached = Composition.walk db ~chain:path.Composition.chain ~src in
                    if not (List.exists (Entity.equal tgt) reached) then
                      Alcotest.failf "path does not walk: %s"
                        (String.concat "·"
                           (List.map (Database.entity_name db) path.Composition.chain)))
                  (Composition.paths db ~src ~tgt))
              (List.filteri (fun i _ -> i mod 11 = 0) actives))
          sources);
    test "probing successes are genuinely satisfiable and licensed" (fun () ->
        (* For a batch of failing class-level queries, every reported
           success must (a) evaluate non-empty and (b) be reachable from
           the original by the reported steps. *)
        let db = Paper_examples.campus () in
        let queries =
          [
            "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)";
            "(FRESHMAN, LIKE, ?z) & (?z, COSTS, ?c)";
            "(STUDENT, LOVES, OPERA)";
          ]
        in
        List.iter
          (fun text ->
            match Probing.probe db (q db text) with
            | Probing.Answered _ -> ()
            | Probing.Exhausted _ -> ()
            | Probing.Retracted { successes; _ } ->
                List.iter
                  (fun success ->
                    Alcotest.(check bool) "non-empty" true
                      (success.Probing.answer.Eval.rows <> []);
                    Alcotest.(check bool) "fresh evaluation agrees" true
                      ((Eval.eval db success.Probing.query).Eval.rows <> []);
                    Alcotest.(check bool) "has steps" true (success.Probing.steps <> []))
                  successes)
          queries);
    test "engine premises are reported in body order" (fun () ->
        let open Lsdb_datalog in
        let v i = Term.Var i and c x = Term.Const x in
        let rule =
          Rule.make ~name:"chain"
            ~body:[ Atom.make (v 0) (c 7) (v 1); Atom.make (v 1) (c 8) (v 2) ]
            ~heads:[ Atom.make (v 0) (c 9) (v 2) ]
            ()
        in
        let base = [ Triple.make 1 7 2; Triple.make 2 8 3 ] in
        let result, _ = stratum [ rule ] base in
        match Stratum.provenance result (Triple.make 1 9 3) with
        | Some { Engine.premises = [ p1; p2 ]; _ } ->
            Alcotest.(check bool) "first premise is body atom 0" true
              (Triple.equal p1 (Triple.make 1 7 2));
            Alcotest.(check bool) "second premise is body atom 1" true
              (Triple.equal p2 (Triple.make 2 8 3))
        | _ -> Alcotest.fail "expected two premises");
    test "explain trees ground out in stored or virtual facts" (fun () ->
        let db = Paper_examples.organization () in
        let closure = Database.closure db in
        (* Every derived fact's tree must terminate with Stored/Virtual
           leaves. *)
        let checked = ref 0 in
        Closure.iter
          (fun fact ->
            if Closure.is_derived closure fact && !checked < 200 then begin
              incr checked;
              let tree = Explain.explain db fact in
              let rec leaves t =
                match t.Explain.premises with
                | [] -> [ t.Explain.source ]
                | premises -> List.concat_map leaves premises
              in
              List.iter
                (fun source ->
                  match source with
                  | Explain.Stored | Explain.Virtual | Explain.Derived _ -> ()
                  | Explain.Composed | Explain.Unknown ->
                      Alcotest.fail "derivation tree has a non-grounded leaf")
                (leaves tree)
            end)
          closure;
        Alcotest.(check bool) "examined some" true (!checked > 10));
    test "incremental extension keeps provenance for new derivations" (fun () ->
        let db = db_of [ ("EMPLOYEE", "EARNS", "SALARY") ] in
        ignore (Database.closure db);
        ignore (Database.insert_names db "EVE" "in" "EMPLOYEE");
        let closure = Database.closure db in
        match Closure.provenance closure (fact db ("EVE", "EARNS", "SALARY")) with
        | Some ("mem-source", premises) ->
            Alcotest.(check int) "two premises" 2 (List.length premises)
        | Some (rule, _) -> Alcotest.failf "unexpected rule %s" rule
        | None -> Alcotest.fail "no provenance after extension");
    test "incremental extension handles new inversion facts" (fun () ->
        let db = db_of [ ("HARRY", "TEACHES", "CS100") ] in
        ignore (Database.closure db);
        ignore (Database.insert_names db "TEACHES" "inv" "TAUGHT-BY");
        check_holds db "inverted after extension" ("CS100", "TAUGHT-BY", "HARRY");
        ignore (Database.insert_names db "SALLY" "TEACHES" "ART1");
        check_holds db "new base fact inverted too" ("ART1", "TAUGHT-BY", "SALLY"));
    test "view rows are sound: every cell entity satisfies the defining query"
      (fun () ->
        let rng = Lsdb_workload.Rng.create 77 in
        let org =
          Lsdb_workload.Org_gen.generate
            ~params:{ Lsdb_workload.Org_gen.default_params with employees = 40 }
            rng
        in
        let db = Lsdb_workload.Org_gen.to_database org in
        let view =
          View.relation_names db "EMPLOYEE" [ ("WORKS-FOR", "DEPARTMENT") ]
        in
        List.iter
          (fun row ->
            match row with
            | [ [ emp ]; depts ] ->
                List.iter
                  (fun dept ->
                    Alcotest.(check bool) "works-for holds" true
                      (Database.mem db (Fact.make emp (Database.entity db "WORKS-FOR") dept));
                    Alcotest.(check bool) "department membership holds" true
                      (Database.mem db
                         (Fact.make dept Entity.member (Database.entity db "DEPARTMENT"))))
                  depts
            | _ -> Alcotest.fail "unexpected row shape")
          view.View.rows);
  ]
