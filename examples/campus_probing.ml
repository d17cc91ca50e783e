(* The §5 probing walkthrough: hit-and-miss querying with automatic
   retraction — the opera retraction set, the students/FREE menu, the
   quarterback example, and the misspelling diagnosis.

   Run with: dune exec examples/campus_probing.exe *)

open Lsdb

let probe_and_print db text =
  let query, unknowns = Query_parser.parse_with_unknowns db text in
  if unknowns <> [] then
    Printf.printf "(parser note: names not seen before: %s)\n"
      (String.concat ", " unknowns);
  print_endline (Probing.render_menu db query (Probing.probe db query))

let () =
  let campus = Paper_examples.campus () in

  (* §5.1: the retraction set of "who loves opera". *)
  print_endline "== §5.1 minimally broader queries of (?z, LOVES, OPERA) ==";
  let broadness = Broadness.of_db campus in
  let query = Query_parser.parse campus "(?z, LOVES, OPERA)" in
  List.iter
    (fun (br : Retraction.broader) ->
      Printf.printf "  %-28s via %s\n"
        (Query.to_string (Database.symtab campus) br.Retraction.query)
        (Retraction.describe campus br.Retraction.step))
    (Retraction.retraction_set campus broadness query);

  (* §5.2: the automatic retraction menu. *)
  print_endline "\n== §5.2 the free things all students love ==";
  probe_and_print campus "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)";

  (* The quarterback example from §5's introduction. *)
  print_endline "== §5 quarterbacks who graduated from USC ==";
  let library = Paper_examples.library () in
  probe_and_print library "(?x, in, QUARTERBACK) & (?x, GRADUATE-OF, USC)";

  (* Misspellings: queries that can no longer be broadened. *)
  print_endline "== §5.2 a misspelled entity ==";
  probe_and_print campus "(JOHM, LOVES, ?x)";

  (* Deeper waves: data two levels below the query's vocabulary. *)
  print_endline "== a second-wave retraction ==";
  let deep =
    Database.create ()
  in
  List.iter
    (fun (s, r, t) -> ignore (Database.insert_names deep s r t))
    [
      ("ADORES", "isa", "LOVES");
      ("LOVES", "isa", "LIKES");
      ("SUE", "LIKES", "SKIING");
    ];
  probe_and_print deep "(SUE, ADORES, ?what)";

  (* The generalize-source policy (§5.2's other reading). *)
  print_endline "== source position under the `Generalize policy ==";
  let policy = { Retraction.source_mode = `Generalize } in
  let q2 = Query_parser.parse campus "(FRESHMAN, LOVE, ?z) & (?z, COSTS, CHEAP)" in
  (match Probing.probe ~policy campus q2 with
  | Probing.Answered answer ->
      Printf.printf "answered directly with %d row(s)\n" (List.length answer.Eval.rows)
  | Probing.Retracted { successes; _ } ->
      List.iter
        (fun s ->
          Printf.printf "  success via %s\n"
            (String.concat ", " (List.map (Retraction.describe campus) s.Probing.steps)))
        successes
  | Probing.Exhausted _ -> print_endline "exhausted");

  (* Integrity (§2.5/§3.5): constraints are rules; violations are
     contradictions in the closure. *)
  print_endline "\n== integrity: loves ⊥ hates ==";
  let db = Database.create () in
  List.iter
    (fun (s, r, t) -> ignore (Database.insert_names db s r t))
    [ ("LOVES", "contra", "HATES"); ("PAT", "LOVES", "OPERA") ];
  (match Integrity.insert_checked db (Fact.of_names (Database.symtab db) "PAT" "HATES" "OPERA") with
  | Ok _ -> print_endline "inserted (unexpected)"
  | Error violations ->
      List.iter (fun v -> print_endline ("  rejected: " ^ Integrity.describe db v)) violations)
