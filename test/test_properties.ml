(* Cross-cutting properties of the whole system, on random databases. *)

open Lsdb
open Testutil

(* Small random fact sets over a fixed vocabulary, including hierarchy
   facts so the §3 rules all get exercise. *)
let gen_facts =
  let entity_names = [| "A"; "B"; "C"; "D"; "E"; "R1"; "R2"; "CLS1"; "CLS2" |] in
  QCheck.Gen.(
    let name = map (fun i -> entity_names.(i)) (int_bound (Array.length entity_names - 1)) in
    let rel = frequency [ (4, name); (1, return "isa"); (1, return "in"); (1, return "syn") ] in
    list_size (int_range 0 15) (triple name rel name))

let arb_facts = QCheck.make ~print:(fun facts ->
    String.concat "; " (List.map (fun (s, r, t) -> Printf.sprintf "(%s,%s,%s)" s r t) facts))
    gen_facts

let closure_facts db =
  Closure.to_seq (Database.closure db) |> List.of_seq |> List.sort Fact.compare

let tests =
  [
    qcheck ~count:150 "closure is monotone: more facts, never fewer consequences"
      QCheck.(pair arb_facts (triple (string_of_size (QCheck.Gen.return 1)) (string_of_size (QCheck.Gen.return 1)) (string_of_size (QCheck.Gen.return 1))))
      (fun (facts, (s, r, t)) ->
        let db = db_of facts in
        let before = closure_facts db in
        ignore (Database.insert_names db s r t);
        let after = Closure.mem (Database.closure db) in
        List.for_all after before);
    qcheck ~count:150 "closure is idempotent: re-inserting closure facts adds nothing"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        (* Compare by names: the second database interns in a different
           order, so raw ids differ. *)
        let dump db =
          closure_facts db
          |> List.map (fun f -> Fact.names (Database.symtab db) f)
          |> List.sort compare
        in
        let closed = dump db in
        let db2 = Database.create () in
        List.iter (fun (s, r, t) -> ignore (Database.insert_names db2 s r t)) closed;
        dump db2 = closed);
    qcheck ~count:150 "closure contains the base facts"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        let closure = Database.closure db in
        Store.fold (fun f acc -> acc && Closure.mem closure f) (Database.store db) true);
    qcheck ~count:100 "broadening never loses answers (Q ⇒ Q′ on random DBs)"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        if Database.base_cardinal db <= 2 then true
        else begin
          let broadness = Broadness.of_db db in
          (* Q ⇒ Q′ is guaranteed for individual relationships only (the
             §3.1 rules are guarded on R_i; class relationships like ∈/≈
             deliberately do not propagate down), so the probes fix an
             ordinary relationship in the template. *)
          let queries =
            [ "(A, C, ?x)"; "(?x, R1, B)"; "(A, R1, ?x)"; "(CLS1, R2, ?x)" ]
          in
          List.for_all
            (fun text ->
              let query = q db text in
              let rows answer = List.map Array.to_list answer.Eval.rows in
              let original = rows (Eval.eval db query) in
              List.for_all
                (fun (br : Retraction.broader) ->
                  let broader_rows = rows (Eval.eval db br.Retraction.query) in
                  List.for_all (fun row -> List.mem row broader_rows) original)
                (Retraction.retraction_set db broadness query))
            queries
        end);
    qcheck ~count:100 "fact-file save/load round-trips random databases"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        let db' = Database.create () in
        ignore (Fact_file.load_string db' (Fact_file.save_string db));
        let dump db =
          Database.facts db
          |> List.map (fun f -> Fact.names (Database.symtab db) f)
          |> List.sort compare
        in
        dump db = dump db');
    qcheck ~count:100 "snapshot round-trips random databases"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        let db' = Lsdb_storage.Snapshot.decode (Lsdb_storage.Snapshot.encode db) in
        let dump db =
          Database.facts db
          |> List.map (fun f -> Fact.names (Database.symtab db) f)
          |> List.sort compare
        in
        dump db = dump db');
    qcheck ~count:100 "synonymy is an equivalence over the closure"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        let closure = Database.closure db in
        let syn_pairs =
          Closure.match_list closure (Store.pattern ~r:Entity.syn ())
        in
        (* Symmetry. *)
        List.for_all
          (fun (f : Fact.t) -> Closure.mem closure (Fact.make f.Fact.t Entity.syn f.Fact.s))
          syn_pairs
        (* Transitivity through shared endpoints. *)
        && List.for_all
             (fun (f : Fact.t) ->
               List.for_all
                 (fun (g : Fact.t) ->
                   (not (Entity.equal f.Fact.t g.Fact.s))
                   || Entity.equal f.Fact.s g.Fact.t
                   || Closure.mem closure (Fact.make f.Fact.s Entity.syn g.Fact.t))
                 syn_pairs)
             syn_pairs);
    qcheck ~count:50 "navigation neighborhood facts all hold in the match layer"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        let ok = ref true in
        Symtab.iter_user
          (fun e ->
            let nbhd = Navigation.neighborhood db e in
            List.iter
              (fun (r, targets) ->
                List.iter
                  (fun t ->
                    if not (Match_layer.holds ~opts:Match_layer.nav_opts db (Fact.make e r t))
                    then ok := false)
                  targets)
              nbhd.Navigation.as_source)
          (Database.symtab db);
        !ok);
    qcheck ~count:100 "conjunct reordering preserves answers"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        let queries =
          [
            "(?x, isa, top) & (?x, in, CLS1)";
            "(A, ?r, ?x) & (?x, R1, ?y)";
            "(?x, R1, ?y) & (?y, in, CLS2) & (?x, isa, ?z)";
            "(?x, syn, ?y) & (?x, R2, ?z)";
          ]
        in
        List.for_all
          (fun text ->
            let query = q db text in
            let dump reorder =
              (Eval.eval ~reorder db query).Eval.rows
              |> List.map Array.to_list |> List.sort compare
            in
            dump true = dump false)
          queries);
    qcheck ~count:50 "integrity violations are stable under recomputation"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        let v1 = List.length (Integrity.violations db) in
        Database.invalidate db;
        let v2 = List.length (Integrity.violations db) in
        v1 = v2);
      qcheck ~count:60 "Eval agrees with a brute-force reference evaluator"
      arb_facts
      (fun facts ->
        let db = db_of facts in
        (* Conjunctive queries with up to two variables, evaluated both by
           Eval and by brute-force enumeration of the active domain. *)
        let queries =
          [ "(?x, R1, ?y)"; "(A, ?r, ?x)"; "(?x, in, ?c)";
            "(?x, R1, B) & (?x, in, ?c)"; "(A, R2, ?x) & (?x, isa, ?y)" ]
        in
        let domain =
          (* ⊑ is always active: §2.3 makes the hierarchy's reflexive facts
             part of every database, so a free relationship may denote it
             even when no stored fact mentions it. *)
          Entity.gen
          :: (List.of_seq (Closure.active_entities (Database.closure db))
             |> List.filter (fun e -> not (Entity.equal e Entity.gen)))
        in
        List.for_all
          (fun text ->
            let query = q db text in
            let vars = Query.free_vars query in
            let atoms = Query.atoms query in
            (* The query's own constants are entities even when no stored
               fact mentions them (their reflexive ⊑ facts exist). *)
            let domain =
              List.sort_uniq compare
                (domain @ List.map (fun (_, _, e) -> e) (Query.constants query))
            in
            let brute =
              (* Enumerate assignments var -> domain entity; keep those
                 under which every atom holds in the match layer. *)
              let rec assignments = function
                | [] -> [ [] ]
                | v :: rest ->
                    List.concat_map
                      (fun tail -> List.map (fun e -> (v, e) :: tail) domain)
                      (assignments rest)
              in
              assignments vars
              |> List.filter (fun env ->
                     List.for_all
                       (fun tpl ->
                         match
                           Template.to_fact
                             (Template.subst (fun v -> List.assoc_opt v env) tpl)
                         with
                         | Some fact -> Match_layer.holds db fact
                         | None -> false)
                       atoms)
              |> List.map (fun env -> List.map (fun v -> List.assoc v env) vars)
              |> List.sort_uniq compare
            in
            let evaluated =
              (Eval.eval db query).Eval.rows
              |> List.map Array.to_list |> List.sort_uniq compare
            in
            if brute <> evaluated then
              QCheck.Test.fail_reportf "query %s: brute %d rows, eval %d rows" text
                (List.length brute) (List.length evaluated)
            else true)
          queries);
  ]
