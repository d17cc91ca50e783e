(* The benchmark harness: regenerates every experiment in DESIGN.md's
   index — the paper's worked examples (EX1–EX7) cell by cell, and the
   performance characterizations (B1–B8) of the design levers the text
   calls out. EXPERIMENTS.md records the expected shapes.

   Run everything:        dune exec bench/main.exe
   Run a subset:          dune exec bench/main.exe -- ex1 b3 b5
   Smaller/faster sweeps: dune exec bench/main.exe -- --quick
   Record the numbers:    dune exec bench/main.exe -- b20 --json FILE *)

open Lsdb

let quick = ref false

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)

(* Every headline number printed in a pretty table is also recorded here
   and, with --json FILE, dumped as JSON so regressions can be tracked
   without parsing tables. Without --json nothing is written: a run from
   the repository root must not edit a committed results file. Writing
   merges into an existing file: rows measured this run replace same-id
   rows, rows from experiments not re-run are preserved, so partial runs
   (`bench b15 --json FILE`) refresh their slice of the file instead of
   erasing the rest. *)
let json_path = ref None
let json_rows : (string * float * string) list ref = ref []
let record id value unit_ = json_rows := (id, value, unit_) :: !json_rows

(* Parse back the exact row format [write_json] emits (one object per
   line); anything else — brackets, hand-edits we can't read — is
   ignored rather than fatal, and will be dropped on rewrite. *)
let read_json_rows path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rows = ref [] in
        (try
           while true do
             let line = input_line ic in
             match
               Scanf.sscanf line " {\"id\": %S, \"value\": %f, \"unit\": %S"
                 (fun id value unit_ -> (id, value, unit_))
             with
             | row -> rows := row :: !rows
             | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
           done
         with End_of_file -> ());
        List.rev !rows)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path =
  let fresh = List.rev !json_rows in
  let kept =
    List.filter
      (fun (id, _, _) -> not (List.exists (fun (id', _, _) -> id = id') fresh))
      (read_json_rows path)
  in
  let rows = kept @ fresh in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i (id, value, unit_) ->
      Printf.fprintf oc "  {\"id\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}%s\n"
        (json_escape id) value (json_escape unit_)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "\nwrote %d measurement(s) to %s\n" (List.length rows) path

(* ------------------------------------------------------------------ *)
(* Small measurement helpers                                           *)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, (Unix.gettimeofday () -. t0) *. 1e3)

(* Every bench gate goes through [check]. An identity check compares
   content: two paths of the code must agree (B14's reopened snapshot,
   B15's incrementally maintained closure against a recompute, the
   shard, domain, mode and policy grids). A speed gate bounds a time, a
   ratio or an allocation. Either kind makes the process exit nonzero
   after the JSON dump; they are counted apart so that the exit line says
   which kind failed. B16's and B19's overhead rows keep their own
   counter ([overhead_failures]). *)
type gate = Identity | Speed

let identity_failures = ref 0
let speed_failures = ref 0
let current_experiment = ref ""

let check ?(gate = Identity) what ok =
  if not ok then begin
    let kind =
      match gate with
      | Identity ->
          incr identity_failures;
          "identity check"
      | Speed ->
          incr speed_failures;
          "speed gate"
    in
    Printf.printf "  ✗ %s %s failed: %s\n" !current_experiment kind what
  end

(* Median-of-runs wall-clock, for macro operations. *)
let measure_ms ?(runs = 5) f =
  let samples =
    List.init runs (fun _ ->
        let _, ms = time_ms f in
        ms)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)

(* Bechamel micro-benchmarks: returns (name, ns/run) rows. *)
let bechamel_ns tests =
  let open Bechamel in
  let grouped =
    Test.make_grouped ~name:"µ"
      (List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) tests)
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if !quick then 0.2 else 0.5))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  List.filter_map
    (fun (name, _) ->
      let key = "µ/" ^ name in
      match Hashtbl.find_opt results key with
      | Some ols -> (
          match Analyze.OLS.estimates ols with
          | Some [ ns ] -> Some (name, ns)
          | _ -> None)
      | None -> None)
    tests

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let table headers rows = print_endline (Pretty.grid ~headers rows)

let ns_pretty ns =
  if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f µs" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let rng () = Lsdb_workload.Rng.create 0xC0FFEE

(* ------------------------------------------------------------------ *)
(* EX1–EX7: the paper's worked examples                                 *)

let ex1 () =
  section "EX1 — §4.1 navigation tables (JOHN / PC#9-WAM / LEOPOLD→MOZART)";
  let db = Paper_examples.music () in
  let e = Database.entity db in
  print_endline (Navigation.render_source_table db (e "JOHN"));
  print_endline (Navigation.render_source_table db (e "PC#9-WAM"));
  print_endline (Navigation.render_associations db ~src:(e "LEOPOLD") ~tgt:(e "MOZART"))

let ex2 () =
  section "EX2 — §5.1 minimally broader queries of (?z, LOVES, OPERA)";
  let db = Paper_examples.campus () in
  let broadness = Broadness.of_db db in
  let query = Query_parser.parse db "(?z, LOVES, OPERA)" in
  List.iter
    (fun (br : Retraction.broader) ->
      Printf.printf "  %-26s  via %s\n"
        (Query.to_string (Database.symtab db) br.Retraction.query)
        (Retraction.describe db br.Retraction.step))
    (Retraction.retraction_set db broadness query)

let ex3 () =
  section "EX3 — §5.2 automatic retraction menu (the free things all students love)";
  let db = Paper_examples.campus () in
  let query = Query_parser.parse db "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)" in
  print_string (Probing.render_menu db query (Probing.probe db query))

let ex4 () =
  section "EX4 — §6.1 relation(EMPLOYEE, WORKS-FOR DEPARTMENT, EARNS SALARY)";
  let db = Paper_examples.payroll () in
  let view =
    Operators.relation db "EMPLOYEE"
      [ ("WORKS-FOR", "DEPARTMENT"); ("EARNS", "SALARY") ]
  in
  print_endline (View.render db view)

let ex5 () =
  section "EX5 — §3 standard inference examples, verified";
  let db = Paper_examples.organization () in
  let e = Database.entity db in
  let rows =
    List.map
      (fun ((s, r, t), label) ->
        let holds = Database.mem db (Fact.make (e s) (e r) (e t)) in
        [
          label;
          Printf.sprintf "(%s, %s, %s)" s r t;
          (if holds then "✓" else "✗ MISSING");
        ])
      [
        (("MANAGER", "WORKS-FOR", "DEPARTMENT"), "§3.1 gen-source");
        (("EMPLOYEE", "EARNS", "COMPENSATION"), "§3.1 gen-target");
        (("JOHN", "IS-PAID-BY", "SHIPPING"), "§3.1 gen-rel");
        (("JOHN", "WORKS-FOR", "DEPARTMENT"), "§3.2 mem-source");
        (("TOM", "WORKS-FOR", "DEPARTMENT"), "§3.2 mem-target");
        (("JOHNNY", "EARNS", "$25000"), "§3.3 synonym subst");
        (("WAGE", "syn", "PAY"), "§3.3 syn transitivity");
        (("CS100", "TAUGHT-BY", "HARRY"), "§3.4 inversion");
        (("TAUGHT-BY", "inv", "TEACHES"), "§3.4 inverse pairing");
        (("HATES", "contra", "LOVES"), "§3.5 ⊥ symmetry");
      ]
  in
  table [ "rule"; "inferred fact"; "holds" ] rows

let ex6 () =
  section "EX6 — §2.7/§3.6 standard queries";
  let library = Paper_examples.library () in
  let run db label text =
    let answer = Eval.eval db (Query_parser.parse db text) in
    Printf.printf "  %-30s -> {%s}\n" label
      (String.concat "; "
         (List.map (String.concat ",") (Eval.rows_named (Database.symtab db) answer)))
  in
  run library "self-citing authors"
    "exists x . (?x, in, BOOK) & (?y, in, PERSON) & (?x, CITES, ?x) & (?x, AUTHOR, ?y)";
  let org = Paper_examples.organization () in
  run org "employees earning > 20000"
    "(?z, in, EMPLOYEE) & exists y . (?z, EARNS, ?y) & (?y, gt, 20000)";
  let prop =
    Query_parser.parse org "(JOHN, WORKS-FOR, SHIPPING) & (TOM, WORKS-FOR, SHIPPING)"
  in
  Printf.printf "  %-30s -> %b\n" "proposition: both in shipping" (Eval.holds org prop);
  let query =
    Query_parser.parse library "(?x, in, QUARTERBACK) & (?x, GRADUATE-OF, USC)"
  in
  print_string (Probing.render_menu library query (Probing.probe library query))

let ex7 () =
  section "EX7 — §5.2 misspelling diagnosis";
  let db = Paper_examples.campus () in
  let query, unknowns = Query_parser.parse_with_unknowns db "(JOHM, LOVES, ?x)" in
  Printf.printf "parser-side unknown names: %s\n" (String.concat ", " unknowns);
  print_string (Probing.render_menu db query (Probing.probe db query))

(* ------------------------------------------------------------------ *)
(* B1 — closure materialization sweep                                   *)

let b1 () =
  section "B1 — closure cost vs. database size (org workload)";
  let sizes = if !quick then [ 250; 1000; 4000 ] else [ 250; 1000; 4000; 16000 ] in
  let rows =
    List.map
      (fun employees ->
        let org =
          Lsdb_workload.Org_gen.generate
            ~params:{ Lsdb_workload.Org_gen.default_params with employees }
            (rng ())
        in
        let db = Lsdb_workload.Org_gen.to_database org in
        let closure, ms = time_ms (fun () -> Database.closure db) in
        record (Printf.sprintf "b1/closure_ms/employees=%d" employees) ms "ms";
        [
          string_of_int employees;
          string_of_int (Closure.base_cardinal closure);
          string_of_int (Closure.cardinal closure);
          string_of_int (Closure.derived_count closure);
          string_of_int (Closure.rounds closure);
          Printf.sprintf "%.1f" ms;
          Printf.sprintf "%.2f"
            (1e3 *. ms /. float_of_int (max 1 (Closure.cardinal closure)));
        ])
      sizes
  in
  table
    [ "employees"; "base facts"; "closure"; "derived"; "rounds"; "ms"; "µs/fact" ]
    rows

(* B2 — indexed matching vs. linear scan                                 *)

let b2 () =
  section "B2 — template matching: indexes vs. scan";
  let sizes = if !quick then [ 1000; 8000 ] else [ 1000; 8000; 32000 ] in
  let rows =
    List.map
      (fun employees ->
        let org =
          Lsdb_workload.Org_gen.generate
            ~params:{ Lsdb_workload.Org_gen.default_params with employees }
            (rng ())
        in
        let db = Lsdb_workload.Org_gen.to_database org in
        let store = Database.store db in
        let e = Database.entity db in
        let pat = Store.pattern ~s:(e "EMP-0000") () in
        let consume = ref 0 in
        let results =
          bechamel_ns
            [
              ( "hash-index",
                fun () -> Store.match_pattern store pat (fun _ -> incr consume) );
              ("scan", fun () -> Store.match_scan store pat (fun _ -> incr consume));
            ]
        in
        let find name = List.assoc name results in
        List.iter
          (fun (name, ns) ->
            record
              (Printf.sprintf "b2/%s_ns/facts=%d" name (Store.cardinal store))
              ns "ns")
          results;
        [
          string_of_int (Store.cardinal store);
          ns_pretty (find "hash-index");
          ns_pretty (find "scan");
          Printf.sprintf "%.0fx" (find "scan" /. find "hash-index");
        ])
      sizes
  in
  table [ "facts"; "index"; "scan"; "index speedup" ] rows

(* B3 — composition blow-up vs. limit(n)                                 *)

let b3 () =
  section "B3 — composition facts and query time vs. limit(n) (§3.7/§6.1)";
  let uni =
    Lsdb_workload.University_gen.generate
      ~params:
        {
          Lsdb_workload.University_gen.students = (if !quick then 40 else 120);
          courses = 12;
          instructors = 6;
          enrollments_per_student = 3;
        }
      (rng ())
  in
  let db = Lsdb_workload.University_gen.to_database uni in
  let e = Database.entity db in
  let stu = uni.Lsdb_workload.University_gen.student_names.(0) in
  (* The instructor of one of the student's courses, so the 2-hop path
     ENROLLED-IN·TAUGHT-BY exists by construction. *)
  let prof =
    let answer =
      Eval.eval db
        (Query_parser.parse db
           (Printf.sprintf "exists c . (%s, ENROLLED-IN, ?c) & (?c, TAUGHT-BY, ?p)" stu))
    in
    match Eval.column answer with
    | p :: _ -> Database.entity_name db p
    | [] -> uni.Lsdb_workload.University_gen.instructor_names.(0)
  in
  let limits = if !quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4 ] in
  let rows =
    List.map
      (fun n ->
        Database.set_limit db n;
        let count, count_ms =
          time_ms (fun () -> Composition.count_compositions ~max_paths:2_000_000 db)
        in
        let paths, query_ms =
          time_ms (fun () -> Composition.paths db ~src:(e stu) ~tgt:(e prof))
        in
        [
          string_of_int n;
          string_of_int count;
          Printf.sprintf "%.1f" count_ms;
          string_of_int (List.length paths);
          Printf.sprintf "%.2f" query_ms;
        ])
      limits
  in
  Database.set_limit db 1;
  table
    [ "limit(n)"; "composition facts"; "enum ms"; "paths stu→prof"; "pair-query ms" ]
    rows

(* B4 — retraction cost vs. taxonomy shape                               *)

let b4 () =
  section "B4 — retraction waves vs. taxonomy depth and fanout (§5.2)";
  let shapes =
    if !quick then [ (2, 2); (4, 2); (4, 4) ]
    else [ (2, 2); (4, 2); (6, 2); (4, 4); (3, 6) ]
  in
  let rows =
    List.map
      (fun (depth, fanout) ->
        let r = rng () in
        let taxonomy = Lsdb_workload.Taxonomy.generate ~prefix:"REL" ~depth ~fanout r in
        let db = Database.create () in
        Lsdb_workload.Taxonomy.insert db taxonomy;
        (* Data lives at the root relationship; the probe asks with a
           leaf relationship, so it must climb [depth] waves. *)
        ignore
          (Database.insert_names db "ITEM" taxonomy.Lsdb_workload.Taxonomy.root "GOAL");
        let leaf = Lsdb_workload.Taxonomy.random_leaf taxonomy r in
        let query =
          Query.atom
            (Template.make
               (Template.Ent (Database.entity db "ITEM"))
               (Template.Ent (Database.entity db leaf))
               (Template.Var "z"))
        in
        let outcome, ms =
          time_ms (fun () -> Probing.probe ~max_waves:(depth + 2) db query)
        in
        record (Printf.sprintf "b4/probe_ms/depth=%d,fanout=%d" depth fanout) ms "ms";
        let wave, attempted =
          match outcome with
          | Probing.Retracted { wave; attempted; _ } -> (wave, attempted)
          | Probing.Answered _ -> (0, 0)
          | Probing.Exhausted { attempted; waves; _ } -> (-waves, attempted)
        in
        [
          Printf.sprintf "%d/%d" depth fanout;
          string_of_int (Lsdb_workload.Taxonomy.node_count taxonomy);
          string_of_int wave;
          string_of_int attempted;
          Printf.sprintf "%.2f" ms;
        ])
      shapes
  in
  table
    [ "depth/fanout"; "hierarchy size"; "success wave"; "queries tried"; "ms" ]
    rows

(* B5 — the organization/retrieval trade-off                             *)

let b5 () =
  section "B5 — organization investment vs. retrieval cost (LSDB vs. relational)";
  let employees = if !quick then 2000 else 10000 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let (db : Database.t), lsdb_build_ms =
    time_ms (fun () -> Lsdb_workload.Org_gen.to_database org)
  in
  let catalog, rel_build_ms =
    time_ms (fun () -> Lsdb_workload.Org_gen.to_catalog org)
  in
  let _, closure_ms = time_ms (fun () -> Database.closure db) in
  (* Retrieval: the departments EMP-0042 works for — relational needs the
     schema; LSDB needs nothing but the entity. *)
  let emp = Lsdb_relational.Catalog.relation catalog "EMP" in
  let target = "EMP-0042" in
  let e = Database.entity db in
  let consume = ref 0 in
  let micro =
    bechamel_ns
      [
        ( "lsdb-template",
          fun () ->
            Match_layer.candidates ~opts:Match_layer.plain_opts db
              (Store.pattern ~s:(e target) ~r:(e "WORKS-FOR") ())
              (fun _ -> incr consume) );
        ( "lsdb-inferred",
          fun () ->
            Match_layer.candidates db
              (Store.pattern ~s:(e target) ~r:(e "WORKS-FOR") ())
              (fun _ -> incr consume) );
        ( "relational-lookup",
          fun () ->
            List.iter
              (fun tuple -> consume := !consume + Array.length tuple)
              (Lsdb_relational.Relation.lookup emp ~attr:"name" ~value:target) );
      ]
  in
  let find name = List.assoc name micro in
  record "b5/lsdb_build_ms" lsdb_build_ms "ms";
  record "b5/closure_ms" closure_ms "ms";
  List.iter (fun (name, ns) -> record (Printf.sprintf "b5/%s_ns" name) ns "ns") micro;
  table
    [ "metric"; "LSDB (heap of facts)"; "relational (schema-first)" ]
    [
      [
        "build ms";
        Printf.sprintf "%.1f" lsdb_build_ms;
        Printf.sprintf "%.1f" rel_build_ms;
      ];
      [ "schema design ops"; "0"; "2 schemas, 6 attributes" ];
      [ "one-time closure ms"; Printf.sprintf "%.1f" closure_ms; "n/a" ];
      [
        "point lookup (stored)";
        ns_pretty (find "lsdb-template");
        ns_pretty (find "relational-lookup");
      ];
      [
        "point lookup (w/ inference)";
        ns_pretty (find "lsdb-inferred");
        "not expressible";
      ];
    ]

(* B6 — storage strategies                                               *)

let b6 () =
  section "B6 — persistence: log append/replay vs. snapshot (§6.2)";
  let employees = if !quick then 1200 else 5000 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lsdb-bench-b6" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  let p = Lsdb_storage.Persistent.open_dir dir in
  let _, append_ms =
    time_ms (fun () ->
        List.iter
          (fun (s, r, t) -> ignore (Lsdb_storage.Persistent.insert_names p s r t))
          org.Lsdb_workload.Org_gen.facts;
        Lsdb_storage.Persistent.sync p)
  in
  let n_facts = Database.base_cardinal (Lsdb_storage.Persistent.database p) in
  Lsdb_storage.Persistent.close p;
  let log_bytes = (Unix.stat (Filename.concat dir "log.lsdb")).Unix.st_size in
  let replay_ms =
    measure_ms ~runs:3 (fun () ->
        let p = Lsdb_storage.Persistent.open_dir dir in
        Lsdb_storage.Persistent.close p)
  in
  let p = Lsdb_storage.Persistent.open_dir dir in
  let _, compact_ms = time_ms (fun () -> Lsdb_storage.Persistent.compact p) in
  Lsdb_storage.Persistent.close p;
  let snap_bytes = (Unix.stat (Filename.concat dir "snapshot.lsdb")).Unix.st_size in
  let snapshot_open_ms =
    measure_ms ~runs:3 (fun () ->
        let p = Lsdb_storage.Persistent.open_dir dir in
        Lsdb_storage.Persistent.close p)
  in
  table
    [ "metric"; "value" ]
    [
      [ "facts persisted"; string_of_int n_facts ];
      [ "log append+sync ms"; Printf.sprintf "%.1f" append_ms ];
      [ "log size"; Printf.sprintf "%d KiB" (log_bytes / 1024) ];
      [ "open via log replay ms"; Printf.sprintf "%.1f" replay_ms ];
      [ "compaction ms"; Printf.sprintf "%.1f" compact_ms ];
      [ "snapshot size"; Printf.sprintf "%d KiB" (snap_bytes / 1024) ];
      [ "open via snapshot ms"; Printf.sprintf "%.1f" snapshot_open_ms ];
    ]

(* B7 — restructuring cost                                               *)

let b7 () =
  section "B7 — schema evolution: relational rewrites vs. heap insertions (§1)";
  let employees = if !quick then 2000 else 10000 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let catalog = Lsdb_workload.Org_gen.to_catalog org in
  let db = Lsdb_workload.Org_gen.to_database org in
  let rewritten, add_ms =
    time_ms (fun () ->
        Lsdb_relational.Catalog.add_attribute catalog ~relation:"EMP" ~attr:"badge"
          ~default:"UNISSUED")
  in
  let _, lsdb_add_ms =
    time_ms (fun () -> ignore (Database.insert_names db "EMPLOYEE" "HAS-A" "BADGE"))
  in
  let split_writes, split_ms =
    time_ms (fun () ->
        Lsdb_relational.Catalog.split_relation catalog ~relation:"EMP" ~key:"name"
          ~attrs:[ "salary" ] ~into:("EMP_PAY", "EMP_ORG"))
  in
  table
    [
      "evolution"; "relational tuples rewritten"; "relational ms"; "LSDB facts";
      "LSDB ms";
    ]
    [
      [
        "add attribute";
        string_of_int rewritten;
        Printf.sprintf "%.1f" add_ms;
        "1 (class-level fact)";
        Printf.sprintf "%.3f" lsdb_add_ms;
      ];
      [
        "vertical split";
        string_of_int split_writes;
        Printf.sprintf "%.1f" split_ms;
        "0 (no schema to split)";
        "0";
      ];
    ]

(* B8 — integrity checking cost                                          *)

(* Per size: a full scan that finds injected contradictions, then — with
   those removed and one clean check on record — the median checked
   insert (closure extension plus the check of what it added). *)
let b8 () =
  section "B8 — integrity checking vs. database size (§2.5/§3.5)";
  let sizes = if !quick then [ 500; 2000 ] else [ 500; 2000; 8000 ] in
  let inserts = 200 in
  let results =
    List.map
      (fun employees ->
        let org =
          Lsdb_workload.Org_gen.generate
            ~params:{ Lsdb_workload.Org_gen.default_params with employees }
            (rng ())
        in
        let db = Lsdb_workload.Org_gen.to_database org in
        ignore (Database.insert_names db "LOVES" "contra" "HATES");
        let e name = Template.Ent (Database.entity db name) in
        Database.add_rule db
          (Rule.make ~name:"salaries-positive"
             ~body:[ Template.make (Template.Var "x") (e "EARNS") (Template.Var "s") ]
             ~heads:
               [ Template.make (Template.Var "s") (Template.Ent Entity.ge) (e "$0") ]
             ());
        (* Inject a handful of genuine contradictions so the check has
           something to find. *)
        let injected =
          ("-1", "EARNS", "$-5")
          :: List.concat_map
               (fun i ->
                 let p = Printf.sprintf "P%d" i in
                 [ (p, "LOVES", "OPERA"); (p, "HATES", "OPERA") ])
               [ 0; 1; 2; 3; 4 ]
        in
        List.iter (fun (s, r, t) -> ignore (Database.insert_names db s r t)) injected;
        ignore (Database.closure db);
        let violations, ms = time_ms (fun () -> Integrity.violations db) in
        let base_facts = Database.base_cardinal db in
        let closure_facts = Closure.cardinal (Database.closure db) in
        List.iter (fun (s, r, t) -> ignore (Database.remove_names db s r t)) injected;
        let valid = Integrity.is_valid db in
        let departments = org.Lsdb_workload.Org_gen.department_names in
        let samples =
          List.init inserts (fun i ->
              let fact =
                Fact.of_names (Database.symtab db) (Printf.sprintf "HIRE-%d" i) "WORKS-FOR"
                  departments.(i mod Array.length departments)
              in
              match time_ms (fun () -> Integrity.insert_checked db fact) with
              | Ok true, ms -> ms
              | _ -> failwith "B8: a checked hire was refused")
        in
        let per_insert = List.nth (List.sort compare samples) (inserts / 2) in
        record (Printf.sprintf "b8.check_ms.%d" employees) ms "ms";
        record (Printf.sprintf "b8.insert_ms.%d" employees) per_insert "ms";
        ( per_insert,
          [
            string_of_int base_facts;
            string_of_int closure_facts;
            string_of_int (List.length violations);
            Printf.sprintf "%.1f" ms;
            (if valid then Printf.sprintf "%.3f" per_insert else "invalid");
          ] ))
      sizes
  in
  table
    [ "base facts"; "closure"; "violations"; "check ms"; "checked insert ms (median)" ]
    (List.map snd results);
  let first = fst (List.hd results) and last = fst (List.nth results (List.length results - 1)) in
  Printf.printf "checked insert, largest vs smallest closure: %.2f× (target ≤ 2×)\n"
    (last /. first)

(* B9 — incremental closure maintenance (ablation)                       *)

let b9 () =
  section "B9 — closure maintenance: incremental extension vs. recompute";
  let employees = if !quick then 500 else 2000 in
  let inserts = if !quick then 50 else 200 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let make () =
    let db = Lsdb_workload.Org_gen.to_database org in
    ignore (Database.closure db);
    db
  in
  let fresh_facts db =
    List.init inserts (fun i ->
        Fact.of_names (Database.symtab db)
          (Printf.sprintf "NEW-%04d" i)
          "in" "EMPLOYEE")
  in
  (* Incremental: each insert is folded into the cached closure. *)
  let db = make () in
  let _, incr_ms =
    time_ms (fun () ->
        List.iter
          (fun fact ->
            ignore (Database.insert db fact);
            ignore (Database.closure db))
          (fresh_facts db))
  in
  let extensions = Database.closure_extensions db in
  (* Ablation: force a full recomputation after every insert. *)
  let db2 = make () in
  let _, full_ms =
    time_ms (fun () ->
        List.iter
          (fun fact ->
            ignore (Database.insert db2 fact);
            Database.invalidate db2;
            ignore (Database.closure db2))
          (fresh_facts db2))
  in
  record "b9/incremental_ms" incr_ms "ms";
  record "b9/recompute_ms" full_ms "ms";
  table
    [ "strategy"; "inserts"; "total ms"; "ms/insert"; "speedup" ]
    [
      [
        Printf.sprintf "incremental (%d extensions)" extensions;
        string_of_int inserts;
        Printf.sprintf "%.1f" incr_ms;
        Printf.sprintf "%.3f" (incr_ms /. float_of_int inserts);
        Printf.sprintf "%.0fx" (full_ms /. incr_ms);
      ];
      [
        "recompute each time";
        string_of_int inserts;
        Printf.sprintf "%.1f" full_ms;
        Printf.sprintf "%.3f" (full_ms /. float_of_int inserts);
        "1x";
      ];
    ]

(* B10 — dynamic conjunct reordering (ablation)                           *)

let b10 () =
  section "B10 — query evaluation: dynamic conjunct reordering vs. written order";
  let employees = if !quick then 500 else 2000 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let db = Lsdb_workload.Org_gen.to_database org in
  ignore (Database.closure db);
  (* Written in the worst order: the first conjunct is satisfied by the
     entire active domain (everything is ⊑ Δ), so written-order
     evaluation enumerates every entity before filtering. *)
  let bad_order =
    Query_parser.parse db "(?z, isa, top) & (?z, in, MANAGER) & (?z, EARNS, ?y)"
  in
  let reordered_ms = measure_ms ~runs:5 (fun () -> ignore (Eval.eval db bad_order)) in
  let written_ms =
    measure_ms ~runs:3 (fun () -> ignore (Eval.eval ~reorder:false db bad_order))
  in
  let check_same =
    let a = (Eval.eval db bad_order).Eval.rows in
    let b = (Eval.eval ~reorder:false db bad_order).Eval.rows in
    List.sort compare (List.map Array.to_list a)
    = List.sort compare (List.map Array.to_list b)
  in
  record "b10/reordered_ms" reordered_ms "ms";
  record "b10/written_order_ms" written_ms "ms";
  table
    [ "strategy"; "ms/query"; "same answers" ]
    [
      [ "most-bound-first (default)"; Printf.sprintf "%.2f" reordered_ms; "—" ];
      [
        "written order (comparator first)";
        Printf.sprintf "%.2f" written_ms;
        (if check_same then "✓" else "✗");
      ];
    ]

(* B11 — cold point queries: top-down proving vs. materialization        *)

let b11 () =
  section "B11 — cold point query: backward chaining vs. full materialization";
  (* Small sizes on purpose: the honest finding is that top-down proving
     explodes on hub-heavy heaps (the EMPLOYEE class touches most facts,
     so subgoals fan out to the whole database) — see EXPERIMENTS.md. *)
  let sizes = if !quick then [ 100 ] else [ 100; 250; 500 ] in
  let rows =
    List.map
      (fun employees ->
        let org =
          Lsdb_workload.Org_gen.generate
            ~params:{ Lsdb_workload.Org_gen.default_params with employees }
            (rng ())
        in
        let make () = Lsdb_workload.Org_gen.to_database org in
        (* The inferred fact "EMP-0042 earns compensation" (3 rule
           applications deep). *)
        let goal db =
          Fact.make
            (Database.entity db "EMP-0042")
            (Database.entity db "EARNS")
            (Database.entity db "COMPENSATION")
        in
        (* Cold materialization: compute the whole closure, then ask. *)
        let db1 = make () in
        let _, full_ms = time_ms (fun () -> Database.mem db1 (goal db1)) in
        (* Cold proving: no closure at all (capped goal budget). *)
        let db2 = make () in
        let outcome, prove_ms =
          time_ms (fun () ->
              try
                let proved, expansions =
                  Prover.prove_counted ~max_expansions:500_000 db2 (goal db2)
                in
                assert proved;
                Printf.sprintf "%d goals" expansions
              with Prover.Gave_up n -> Printf.sprintf "gave up at %d goals" n)
        in
        (* Warm materialization amortizes. *)
        let warm_ms = measure_ms ~runs:5 (fun () -> ignore (Database.mem db1 (goal db1))) in
        [
          string_of_int (Database.base_cardinal db1);
          Printf.sprintf "%.1f" full_ms;
          Printf.sprintf "%.1f (%s)" prove_ms outcome;
          Printf.sprintf "%.4f" warm_ms;
        ])
      sizes
  in
  table
    [ "base facts"; "cold closure+mem ms"; "cold prove ms"; "warm mem ms" ]
    rows

(* B12 — interactive browsing latency at scale                            *)

let b12 () =
  section "B12 — browsing stays interactive on an unorganized heap (§4)";
  let sizes = if !quick then [ 1000; 4000 ] else [ 1000; 4000; 16000 ] in
  let rows =
    List.map
      (fun books ->
        let r = rng () in
        let lib =
          Lsdb_workload.Citation_gen.generate
            ~params:{ Lsdb_workload.Citation_gen.default_params with books }
            r
        in
        let db = Lsdb_workload.Citation_gen.to_database lib in
        Database.set_limit db 2;
        ignore (Database.closure db);
        let walk = Lsdb_workload.Citation_gen.browsing_walk lib r ~hops:50 in
        let entities = List.map (Database.entity db) walk in
        (* Per-step navigation: one neighborhood per hop. *)
        let _, walk_ms =
          time_ms (fun () ->
              List.iter (fun e -> ignore (Navigation.neighborhood db e)) entities)
        in
        let per_hop = walk_ms /. float_of_int (List.length entities) in
        (* try(e) on a hub (rank-0 book: the most cited). *)
        let hub = Database.entity db lib.Lsdb_workload.Citation_gen.book_names.(0) in
        let try_ms = measure_ms ~runs:5 (fun () -> ignore (Navigation.try_entity db hub)) in
        (* Associations between two random books, with composition. *)
        let pick () =
          Database.entity db
            (Lsdb_workload.Rng.choose_array r lib.Lsdb_workload.Citation_gen.book_names)
        in
        let a = pick () and b = pick () in
        let assoc_ms =
          measure_ms ~runs:5 (fun () -> ignore (Navigation.associations db ~src:a ~tgt:b))
        in
        record (Printf.sprintf "b12/hop_ms/books=%d" books) per_hop "ms";
        record (Printf.sprintf "b12/try_hub_ms/books=%d" books) try_ms "ms";
        record (Printf.sprintf "b12/assoc_ms/books=%d" books) assoc_ms "ms";
        [
          string_of_int (Database.base_cardinal db);
          string_of_int (Closure.cardinal (Database.closure db));
          Printf.sprintf "%.3f" per_hop;
          Printf.sprintf "%.2f" try_ms;
          Printf.sprintf "%.2f" assoc_ms;
        ])
      sizes
  in
  table
    [ "base facts"; "closure"; "ms/neighborhood hop"; "try(hub) ms"; "assoc (limit 2) ms" ]
    rows

(* B13 — multicore scaling                                               *)

let b13 () =
  section "B13 — multicore scaling: parallel retraction waves and closure rounds";
  Printf.printf "host: %d core(s) recommended by the runtime\n"
    (Domain.recommended_domain_count ());
  (* Probe workload: a relationship taxonomy and a goal taxonomy, with
     enough facts under every (broadened) query that each candidate costs
     ~M index probes before failing. The probe explores every wave and
     ends Exhausted, so the whole search is failed conjunctive queries —
     the §5.2 worst case the parallel waves are for. *)
  let m = if !quick then 200 else 600 in
  let build () =
    let r = rng () in
    let rel_tax = Lsdb_workload.Taxonomy.generate ~prefix:"REL" ~depth:3 ~fanout:3 r in
    let goal_tax = Lsdb_workload.Taxonomy.generate ~prefix:"GOAL" ~depth:3 ~fanout:2 r in
    let db = Database.create () in
    Lsdb_workload.Taxonomy.insert db rel_tax;
    Lsdb_workload.Taxonomy.insert db goal_tax;
    let leaf_rel = List.hd rel_tax.Lsdb_workload.Taxonomy.leaves in
    let leaf_goal = List.hd goal_tax.Lsdb_workload.Taxonomy.leaves in
    (* M facts under the first conjunct and M under the second, joining on
       disjoint entities: both conjuncts enumerate, the join always
       fails. Generalization propagates both fact sets up the taxonomies,
       so every broadened query is just as expensive. *)
    for j = 0 to m - 1 do
      ignore
        (Database.insert_names db (Printf.sprintf "SRC-%04d" j) leaf_rel
           (Printf.sprintf "ITM-%04d" j));
      ignore
        (Database.insert_names db (Printf.sprintf "NDL-%04d" j) "NEEDLE" leaf_goal)
    done;
    let query =
      Query_parser.parse db
        (Printf.sprintf "(?x, %s, ?y) & (?y, NEEDLE, %s)" leaf_rel leaf_goal)
    in
    ignore (Database.closure db);
    (db, query)
  in
  let db, query = build () in
  let outcome_sig outcome =
    match outcome with
    | Probing.Answered a -> Printf.sprintf "answered/%d" (List.length a.Eval.rows)
    | Probing.Retracted { wave; successes; attempted; critical } ->
        Printf.sprintf "retracted/w%d/s%d/a%d/c%b" wave (List.length successes)
          attempted critical
    | Probing.Exhausted { waves; attempted; unknown_entities } ->
        Printf.sprintf "exhausted/w%d/a%d/u%d" waves attempted
          (List.length unknown_entities)
  in
  let baseline = Probing.probe ~max_waves:6 db query in
  let probe_rows = ref [] in
  let seq_ms = ref 0.0 in
  List.iter
    (fun domains ->
      let pool =
        if domains <= 1 then None
        else Some (Lsdb_exec.Pool.create ~domains)
      in
      let run () = Probing.probe ~max_waves:6 ?pool db query in
      let outcome = run () in
      let identical = outcome = baseline in
      let ms = measure_ms ~runs:3 run in
      Option.iter Lsdb_exec.Pool.shutdown pool;
      if domains <= 1 then seq_ms := ms;
      record (Printf.sprintf "b13/probe_ms/domains=%d" domains) ms "ms";
      probe_rows :=
        [
          string_of_int domains;
          outcome_sig outcome;
          (if identical then "✓" else "✗ DIFFERS");
          Printf.sprintf "%.1f" ms;
          Printf.sprintf "%.2fx" (!seq_ms /. ms);
        ]
        :: !probe_rows)
    [ 1; 2; 4 ];
  Printf.printf "\nprobe: %s (%d facts in closure)\n"
    (outcome_sig baseline)
    (Closure.cardinal (Database.closure db));
  table
    [ "domains"; "outcome"; "same as seq"; "ms/probe"; "speedup" ]
    (List.rev !probe_rows);
  (* Closure workload: full recomputation of the org-workload closure,
     rounds sharded across the pool. *)
  let employees = if !quick then 1000 else 4000 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let base = Lsdb_workload.Org_gen.to_database org in
  let base_closure = Database.closure base in
  let reference = (Closure.cardinal base_closure, Closure.derived_count base_closure) in
  let closure_rows = ref [] in
  let seq_closure_ms = ref 0.0 in
  List.iter
    (fun domains ->
      let pool =
        if domains <= 1 then None
        else Some (Lsdb_exec.Pool.create ~domains)
      in
      let db = Lsdb_workload.Org_gen.to_database org in
      Database.set_pool db pool;
      let run () =
        Database.invalidate db;
        Database.closure db
      in
      let closure = run () in
      let identical =
        (Closure.cardinal closure, Closure.derived_count closure) = reference
      in
      let ms = measure_ms ~runs:3 (fun () -> ignore (run ())) in
      Option.iter Lsdb_exec.Pool.shutdown pool;
      if domains <= 1 then seq_closure_ms := ms;
      record (Printf.sprintf "b13/closure_ms/domains=%d" domains) ms "ms";
      closure_rows :=
        [
          string_of_int domains;
          string_of_int (Closure.cardinal closure);
          (if identical then "✓" else "✗ DIFFERS");
          Printf.sprintf "%.1f" ms;
          Printf.sprintf "%.2fx" (!seq_closure_ms /. ms);
        ]
        :: !closure_rows)
    [ 1; 2; 4 ];
  Printf.printf "\nclosure recompute (%d employees):\n" employees;
  table
    [ "domains"; "closure"; "same as seq"; "ms/recompute"; "speedup" ]
    (List.rev !closure_rows)

(* B14 — recovery throughput                                             *)

(* Compact an organization of about [facts] base facts into a snapshot
   on [vfs], then open it three times: the median open, and the median
   open plus the first demand-mode nav. A reopened base that differs from
   the compacted one counts as an equivalence failure. *)
let snapshot_leg ~vfs ~dir ~facts =
  let module P = Lsdb_storage.Persistent in
  let employees = max 100 (facts / 4) in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (Lsdb_workload.Rng.create 14)
  in
  let base db =
    List.sort compare (List.map (Fact.names (Database.symtab db)) (Database.facts db))
  in
  let p = P.open_dir ~vfs dir in
  List.iter (fun (s, r, t) -> ignore (P.insert_names p s r t)) org.Lsdb_workload.Org_gen.facts;
  P.compact p;
  let written = base (P.database p) in
  P.close p;
  let first = org.Lsdb_workload.Org_gen.employee_names.(0) in
  let runs =
    List.init 3 (fun _ ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let p = P.open_dir ~vfs dir in
        let open_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        let db = P.database p in
        Database.set_closure_mode db Database.Demand;
        ignore (Navigation.neighborhood db (Database.entity db first));
        let answer_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        let same = base db = written in
        P.close p;
        (open_ms, answer_ms, same))
  in
  check "a reopened snapshot's base equals the written one"
    (List.for_all (fun (_, _, same) -> same) runs);
  let median f = List.nth (List.sort compare (List.map f runs)) 1 in
  (List.length written, median (fun (o, _, _) -> o), median (fun (_, a, _) -> a))

let b14 () =
  section "B14 — recovery: log replay, salvage and snapshot open throughput";
  let n_ops = if !quick then 20_000 else 100_000 in
  (* An in-memory faulty VFS keeps the numbers about the scanner, not
     the disk, and lets us corrupt the log surgically. *)
  let vfs = Lsdb_storage.Vfs.faulty () in
  let dir = "/bench" in
  let p = Lsdb_storage.Persistent.open_dir ~vfs dir in
  for i = 0 to n_ops - 1 do
    ignore
      (Lsdb_storage.Persistent.insert_names p
         (Printf.sprintf "E%d" i)
         (Printf.sprintf "R%d" (i mod 16))
         (Printf.sprintf "T%d" (i mod 997)))
  done;
  Lsdb_storage.Persistent.sync p;
  Lsdb_storage.Persistent.close p;
  let log_path = "/bench/log.lsdb" in
  let log_bytes =
    String.length (Option.get (Lsdb_storage.Vfs.read_file vfs log_path))
  in
  let replay_ms =
    measure_ms ~runs:3 (fun () ->
        let p = Lsdb_storage.Persistent.open_dir ~vfs dir in
        Lsdb_storage.Persistent.close p)
  in
  (* Now wound the log — a bit flip every ~10k frames plus a torn tail —
     and measure a salvage open over the same volume. Salvage rewrites
     the log clean, so the damage is re-inflicted from a pristine copy
     for every run. *)
  let pristine = Option.get (Lsdb_storage.Vfs.read_file vfs log_path) in
  let wound () =
    let f = Lsdb_storage.Vfs.open_trunc vfs log_path in
    Lsdb_storage.Vfs.write f (String.sub pristine 0 (log_bytes - 7));
    Lsdb_storage.Vfs.fsync f;
    Lsdb_storage.Vfs.close f;
    let step = log_bytes / 10 in
    for i = 1 to 9 do
      Lsdb_storage.Vfs.corrupt_durable vfs log_path ~byte:(i * step)
    done;
    Lsdb_storage.Vfs.simulate_crash vfs
  in
  let salvage_ms =
    (* wound + salvage, wound again: salvage repairs the log in place,
       so the damage is re-inflicted outside the timed region. *)
    let samples =
      List.init 3 (fun _ ->
          wound ();
          let _, ms =
            time_ms (fun () ->
                let p =
                  Lsdb_storage.Persistent.open_dir ~vfs ~recovery:`Salvage dir
                in
                Lsdb_storage.Persistent.close p)
          in
          ms)
    in
    List.nth (List.sort compare samples) 1
  in
  record "b14/log_bytes" (float_of_int log_bytes) "bytes";
  record "b14/replay_ms" replay_ms "ms";
  record "b14/replay_kops_s" (float_of_int n_ops /. replay_ms) "kops/s";
  record "b14/salvage_ms" salvage_ms "ms";
  record "b14/salvage_kops_s" (float_of_int n_ops /. salvage_ms) "kops/s";
  table
    [ "metric"; "value" ]
    [
      [ "log"; Printf.sprintf "%d ops, %.1f MiB" n_ops (float_of_int log_bytes /. 1048576.) ];
      [ "strict replay"; Printf.sprintf "%.1f ms (%.0f kops/s)" replay_ms (float_of_int n_ops /. replay_ms) ];
      [ "salvage (9 flips + torn tail)"; Printf.sprintf "%.1f ms (%.0f kops/s)" salvage_ms (float_of_int n_ops /. salvage_ms) ];
    ];
  (* Snapshot opens: the base loads as one packed segment, no replay. At
     full size the leg also runs at 1M facts, item 5's open target. *)
  let sizes = if !quick then [ n_ops ] else [ n_ops; 1_000_000 ] in
  let rows =
    List.map
      (fun facts ->
        let n, open_ms, answer_ms =
          snapshot_leg ~vfs:(Lsdb_storage.Vfs.faulty ()) ~dir:"/snap" ~facts
        in
        let tag = if facts = n_ops then "" else Printf.sprintf "_%dk" (facts / 1000) in
        record ("b14/snapshot_open_ms" ^ tag) open_ms "ms";
        record ("b14/snapshot_first_answer_ms" ^ tag) answer_ms "ms";
        record ("b14/snapshot_open_kfacts_s" ^ tag) (float_of_int n /. open_ms) "kfacts/s";
        [
          Printf.sprintf "%d" n;
          Printf.sprintf "%.1f" open_ms;
          Printf.sprintf "%.0f" (float_of_int n /. open_ms);
          Printf.sprintf "%.1f" answer_ms;
        ])
      sizes
  in
  Printf.printf "\nsnapshot opens (median of 3; first answer = open + a demand-mode nav):\n";
  table [ "base facts"; "open ms"; "kfacts/s"; "first answer ms" ] rows

(* B15 — incremental retraction (delete/rederive)                        *)

let b15 () =
  section "B15 — incremental retraction: delete/rederive vs. invalidate-and-recompute";
  (* Everything observable about a closure. Databases compared here are
     built from the same generated workload, so interned ids line up and
     raw facts are comparable directly. *)
  let signature db =
    let closure = Database.closure db in
    let dump =
      Closure.to_seq closure
      |> Seq.map (fun f -> (f, Closure.is_derived closure f))
      |> List.of_seq |> List.sort compare
    in
    ( dump,
      Closure.cardinal closure,
      Closure.derived_count closure,
      Closure.base_cardinal closure )
  in
  (* --- part 1: one retraction against a large closure ---------------- *)
  let employees = if !quick then 600 else 8000 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let db = Lsdb_workload.Org_gen.to_database org in
  let closure_size = Closure.cardinal (Database.closure db) in
  (* The victim: one employee's membership — the §3 rules hang a cone of
     derived works-for/earns/is-paid-by facts off it. *)
  let victim = Fact.of_names (Database.symtab db) "EMP-0042" "in" "EMPLOYEE" in
  (* Correctness first: the incrementally retracted closure must be
     byte-identical to a from-scratch recompute of the same state. *)
  ignore (Database.remove db victim);
  ignore (Database.closure db);
  let reference = Database.copy db in
  Database.invalidate reference;
  check "single-fact retraction vs. recompute" (signature db = signature reference);
  ignore (Database.insert db victim);
  ignore (Database.closure db);
  (* Timed: retract+closure, restored (untimed) between samples. *)
  let median samples = List.nth (List.sort compare samples) (List.length samples / 2) in
  let retract_and_restore prepare =
    let _, ms =
      time_ms (fun () ->
          ignore (Database.remove db victim);
          prepare ();
          ignore (Database.closure db))
    in
    ignore (Database.insert db victim);
    ignore (Database.closure db);
    ms
  in
  let incr_ms = median (List.init 5 (fun _ -> retract_and_restore (fun () -> ()))) in
  let full_ms =
    median (List.init 3 (fun _ -> retract_and_restore (fun () -> Database.invalidate db)))
  in
  record "b15/closure_facts" (float_of_int closure_size) "facts";
  record "b15/retract_incremental_ms" incr_ms "ms";
  record "b15/retract_recompute_ms" full_ms "ms";
  record "b15/retract_speedup" (full_ms /. incr_ms) "x";
  Printf.printf "single-fact retraction, %d-fact closure:\n" closure_size;
  table
    [ "strategy"; "ms/retraction"; "speedup" ]
    [
      [ "incremental (delete/rederive)"; Printf.sprintf "%.2f" incr_ms;
        Printf.sprintf "%.0fx" (full_ms /. incr_ms) ];
      [ "invalidate and recompute"; Printf.sprintf "%.1f" full_ms; "1x" ];
    ];
  (* --- part 2: mixed insert/retract browsing workload, 1–8 domains --- *)
  let employees = if !quick then 300 else 2000 in
  let steps = if !quick then 30 else 90 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  (* A deterministic browsing session: two inserts of fresh employees,
     then a retraction of an original one, repeated. Both strategies and
     every pool size replay the identical op list. *)
  let ops =
    List.init steps (fun i ->
        if i mod 3 = 2 then `Remove (Printf.sprintf "EMP-%04d" i, "in", "EMPLOYEE")
        else `Insert (Printf.sprintf "NEW-%04d" i, "in", "EMPLOYEE"))
  in
  let apply ~incremental db =
    List.iter
      (fun op ->
        (match op with
        | `Insert (s, r, t) -> ignore (Database.insert_names db s r t)
        | `Remove (s, r, t) -> ignore (Database.remove_names db s r t));
        if not incremental then Database.invalidate db;
        ignore (Database.closure db))
      ops
  in
  let make () =
    let db = Lsdb_workload.Org_gen.to_database org in
    ignore (Database.closure db);
    db
  in
  let db_full = make () in
  let _, mixed_full_ms = time_ms (fun () -> apply ~incremental:false db_full) in
  let reference = signature db_full in
  record "b15/mixed_recompute_ms" mixed_full_ms "ms";
  let rows = ref [] in
  let seq_ms = ref 0.0 in
  List.iter
    (fun domains ->
      let pool = if domains <= 1 then None else Some (Lsdb_exec.Pool.create ~domains) in
      let db = make () in
      Database.set_pool db pool;
      let _, ms = time_ms (fun () -> apply ~incremental:true db) in
      let identical = signature db = reference in
      check
        (Printf.sprintf "mixed workload at %d domain(s) vs. recompute" domains)
        identical;
      Option.iter Lsdb_exec.Pool.shutdown pool;
      if domains <= 1 then seq_ms := ms;
      record (Printf.sprintf "b15/mixed_incremental_ms/domains=%d" domains) ms "ms";
      rows :=
        [
          string_of_int domains;
          Printf.sprintf "%.1f" ms;
          Printf.sprintf "%.3f" (ms /. float_of_int steps);
          Printf.sprintf "%.1fx" (mixed_full_ms /. ms);
          (if identical then "✓" else "✗ DIFFERS");
        ]
        :: !rows)
    [ 1; 2; 4; 8 ];
  Printf.printf "\nmixed workload: %d ops (2 inserts : 1 retraction), %d employees\n"
    steps employees;
  Printf.printf "recompute-per-op baseline: %.1f ms (%.1f ms/op)\n" mixed_full_ms
    (mixed_full_ms /. float_of_int steps);
  table
    [ "domains"; "total ms"; "ms/op"; "vs. recompute"; "same closure" ]
    (List.rev !rows);
  ignore !seq_ms

(* B16 — observability overhead                                          *)

(* Like the B15 equivalence check, B16 doubles as a CI gate: if the
   timed instrumentation costs more than 5% of wall-clock on either
   kernel, this counter flips and the process exits nonzero after the
   JSON dump. *)
let overhead_failures = ref 0
let overhead_limit_pct = 5.0

(* A --quick kernel lasts 2–9 ms, short enough that one scheduler or GC
   hiccup moves a sample by more than the 5% budget. So each sample
   repeats its kernel a fixed number of times, calibrated once from the
   fastest of three warm runs so that a sample lasts at least
   [min_sample_ms]. Returns the repeated kernel and the repetition
   count. *)
let min_sample_ms = 50.

let calibrated kernel =
  let fastest = List.fold_left Float.min infinity (List.init 3 (fun _ -> snd (time_ms kernel))) in
  let reps = max 1 (int_of_float (Float.ceil (min_sample_ms /. Float.max fastest 0.01))) in
  ((fun () -> for _ = 1 to reps do kernel () done), reps)

let b16 () =
  section "B16 — observability overhead: metrics off vs. on (5% budget)";
  let module Metrics = Lsdb_obs.Metrics in
  let module Trace = Lsdb_obs.Trace in
  let was_metrics = Metrics.enabled () in
  let was_trace = Trace.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled was_metrics;
      Trace.set_enabled was_trace)
  @@ fun () ->
  (* Tracing stays off throughout: its rings are a debugging aid with an
     explicit opt-in, while counters and the timed paths behind
     Metrics.set_enabled are what CI runs with --obs. *)
  Trace.set_enabled false;
  let runs = 7 in
  (* Kernel 1 — the B13 probe workload: every wave fails, so the whole
     cost is broadened conjunctive queries (spans + wave timers on the
     hot path). *)
  let m = if !quick then 150 else 400 in
  let probe_db, probe_query =
    let r = rng () in
    let rel_tax = Lsdb_workload.Taxonomy.generate ~prefix:"REL" ~depth:3 ~fanout:3 r in
    let goal_tax = Lsdb_workload.Taxonomy.generate ~prefix:"GOAL" ~depth:3 ~fanout:2 r in
    let db = Database.create () in
    Lsdb_workload.Taxonomy.insert db rel_tax;
    Lsdb_workload.Taxonomy.insert db goal_tax;
    let leaf_rel = List.hd rel_tax.Lsdb_workload.Taxonomy.leaves in
    let leaf_goal = List.hd goal_tax.Lsdb_workload.Taxonomy.leaves in
    for j = 0 to m - 1 do
      ignore
        (Database.insert_names db (Printf.sprintf "SRC-%04d" j) leaf_rel
           (Printf.sprintf "ITM-%04d" j));
      ignore
        (Database.insert_names db (Printf.sprintf "NDL-%04d" j) "NEEDLE" leaf_goal)
    done;
    let query =
      Query_parser.parse db
        (Printf.sprintf "(?x, %s, ?y) & (?y, NEEDLE, %s)" leaf_rel leaf_goal)
    in
    ignore (Database.closure db);
    (db, query)
  in
  let probe_kernel () = ignore (Probing.probe ~max_waves:6 probe_db probe_query) in
  (* Kernel 2 — the B15 single-fact retraction: delete/rederive a cone
     out of a large closure (retract timers + round spans). *)
  let employees = if !quick then 600 else 4000 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let retract_db = Lsdb_workload.Org_gen.to_database org in
  ignore (Database.closure retract_db);
  let victim =
    Fact.of_names (Database.symtab retract_db) "EMP-0042" "in" "EMPLOYEE"
  in
  let retract_kernel () =
    (* One retract+rederive cycle is tens of microseconds; batch enough
       of them that a sample dwarfs timer resolution. *)
    for _ = 1 to 50 do
      ignore (Database.remove retract_db victim);
      ignore (Database.closure retract_db);
      ignore (Database.insert retract_db victim);
      ignore (Database.closure retract_db)
    done
  in
  (* Samples alternate off/on pairwise: two back-to-back series would
     fold GC and cache drift into the comparison and swamp the few clock
     reads actually being measured. *)
  let measure_pair kernel =
    Metrics.set_enabled false;
    kernel ();
    Metrics.set_enabled true;
    kernel ();
    Metrics.set_enabled false;
    let kernel, reps = calibrated kernel in
    let samples =
      List.init runs (fun _ ->
          Metrics.set_enabled false;
          let _, off = time_ms kernel in
          Metrics.set_enabled true;
          let _, on = time_ms kernel in
          (off, on))
    in
    (* Best-of-runs, not median: the kernels are deterministic, so the
       minimum is the run least disturbed by GC and scheduling — exactly
       the floor where a real per-operation cost would still show up. *)
    let best xs = List.fold_left Float.min (List.hd xs) (List.tl xs) in
    (best (List.map fst samples), best (List.map snd samples), reps)
  in
  let rows =
    List.map
      (fun (id, label, kernel) ->
        let off_ms, on_ms, reps = measure_pair kernel in
        let pct = 100. *. ((on_ms -. off_ms) /. off_ms) in
        record (Printf.sprintf "b16/%s_reps" id) (float_of_int reps) "count";
        record (Printf.sprintf "b16/%s_ms_off" id) off_ms "ms";
        record (Printf.sprintf "b16/%s_ms_on" id) on_ms "ms";
        record (Printf.sprintf "b16/%s_overhead_pct" id) pct "%";
        let over = pct > overhead_limit_pct in
        if over then begin
          incr overhead_failures;
          Printf.printf "  ✗ OVERHEAD FAILURE: %s costs %.1f%% with metrics on\n"
            label pct
        end;
        [
          label;
          string_of_int reps;
          Printf.sprintf "%.2f" off_ms;
          Printf.sprintf "%.2f" on_ms;
          Printf.sprintf "%+.1f%%" pct;
          (if over then "✗ OVER" else "✓");
        ])
      [
        ("probe", "exhaustive probe (B13 kernel)", probe_kernel);
        ("retract", "retract+rederive (B15 kernel)", retract_kernel);
      ]
  in
  table
    [ "kernel"; "reps"; "metrics off ms"; "metrics on ms"; "overhead";
      Printf.sprintf "budget %.0f%%" overhead_limit_pct ]
    rows

(* B17 — bidirectional composition path search                           *)

(* Like B15's incremental/recompute comparison, B17 is a CI gate: the
   bidirectional search must return byte-identical paths (same paths,
   same order, same truncation point) to the retained DFS oracle, at
   every limit and every pool size, or the process exits nonzero. *)
let b17 () =
  section "B17 — inference by composition: DFS vs bidirectional meet-in-the-middle";
  let limits = if !quick then [ 2; 3; 4; 5 ] else [ 2; 3; 4; 5; 6 ] in
  let runs = if !quick then 3 else 5 in
  let compare_at key db ~src ~tgt =
    List.map
      (fun limit ->
        Database.set_limit db limit;
        let dfs = Composition.paths_dfs db ~src ~tgt in
        let result = Composition.search db ~src ~tgt in
        let identical = dfs = result.Composition.paths in
        check (Printf.sprintf "%s limit=%d" key limit) identical;
        let dfs_ms =
          measure_ms ~runs (fun () -> ignore (Composition.paths_dfs db ~src ~tgt))
        in
        let bidir_ms =
          measure_ms ~runs (fun () -> ignore (Composition.search db ~src ~tgt))
        in
        record (Printf.sprintf "b17/%s/dfs_ms/limit=%d" key limit) dfs_ms "ms";
        record (Printf.sprintf "b17/%s/bidir_ms/limit=%d" key limit) bidir_ms "ms";
        record (Printf.sprintf "b17/%s/speedup/limit=%d" key limit)
          (dfs_ms /. bidir_ms) "x";
        [
          string_of_int limit;
          string_of_int (List.length dfs);
          Printf.sprintf "%.2f" dfs_ms;
          Printf.sprintf "%.2f" bidir_ms;
          Printf.sprintf "%.1fx" (dfs_ms /. bidir_ms);
          (if identical then "✓" else "✗ DIFFERS");
        ])
      limits
  in
  (* Citation workload — the paper's library: a sparse pair (an early
     book to the least-cited one) makes the DFS walk its whole forward
     cone while the bidirectional frontiers stay small. *)
  let books = if !quick then 200 else 800 in
  let lib =
    Lsdb_workload.Citation_gen.generate
      ~params:
        {
          Lsdb_workload.Citation_gen.books;
          authors = books / 4;
          subjects = 8;
          citations_per_book = 5;
          skew = 1.0;
        }
      (rng ())
  in
  let cit_db = Lsdb_workload.Citation_gen.to_database lib in
  let book i = Database.entity cit_db lib.Lsdb_workload.Citation_gen.book_names.(i) in
  Printf.printf "citation workload: %d books, %d facts in closure\n" books
    (Closure.cardinal (Database.closure cit_db));
  table
    [ "limit"; "paths"; "DFS ms"; "bidir ms"; "speedup"; "identical" ]
    (compare_at "citation" cit_db ~src:(book 5) ~tgt:(book (books - 1)));
  (* University workload — the §3.7 enrollment shape at browsing scale. *)
  let uni =
    Lsdb_workload.University_gen.generate
      ~params:
        {
          Lsdb_workload.University_gen.students = (if !quick then 60 else 200);
          courses = 20;
          instructors = 8;
          enrollments_per_student = 3;
        }
      (rng ())
  in
  let uni_db = Lsdb_workload.University_gen.to_database uni in
  let uent = Database.entity uni_db in
  Printf.printf "\nuniversity workload: %d facts in closure\n"
    (Closure.cardinal (Database.closure uni_db));
  table
    [ "limit"; "paths"; "DFS ms"; "bidir ms"; "speedup"; "identical" ]
    (compare_at "university" uni_db ~src:(uent "STU-0001") ~tgt:(uent "PROF-01"));
  (* Pool scaling: parallel frontier expansion at the widest limit. The
     citation frontiers are hundreds of nodes deep into the search, well
     past the fan-out threshold. *)
  let scale_limit = List.fold_left max 2 limits in
  Database.set_limit cit_db scale_limit;
  let src = book 5 and tgt = book (books - 1) in
  let baseline = (Composition.search cit_db ~src ~tgt).Composition.paths in
  let rows = ref [] in
  let seq_ms = ref 0.0 in
  List.iter
    (fun domains ->
      let pool = if domains <= 1 then None else Some (Lsdb_exec.Pool.create ~domains) in
      Database.set_pool cit_db pool;
      let paths = (Composition.search cit_db ~src ~tgt).Composition.paths in
      let identical = paths = baseline in
      check (Printf.sprintf "citation pool scaling at %d domain(s)" domains) identical;
      let ms =
        measure_ms ~runs (fun () -> ignore (Composition.search cit_db ~src ~tgt))
      in
      Database.set_pool cit_db None;
      Option.iter Lsdb_exec.Pool.shutdown pool;
      if domains <= 1 then seq_ms := ms;
      record (Printf.sprintf "b17/pool_ms/domains=%d" domains) ms "ms";
      rows :=
        [
          string_of_int domains;
          Printf.sprintf "%.2f" ms;
          Printf.sprintf "%.2fx" (!seq_ms /. ms);
          (if identical then "✓" else "✗ DIFFERS");
        ]
        :: !rows)
    [ 1; 2; 4 ];
  Printf.printf "\npool scaling, citation workload at limit %d:\n" scale_limit;
  table [ "domains"; "ms/search"; "speedup"; "same paths" ] (List.rev !rows)

(* B18 — demand-driven closure (magic sets)                              *)

let b18 () =
  section "B18 — demand-driven closure: cold-start magic sets vs eager saturation";
  let sorted_pattern db pat =
    let out = ref [] in
    Database.closure_match db pat (fun (f : Fact.t) -> out := (f.s, f.r, f.t) :: !out);
    List.sort compare !out
  in
  let cone_facts db =
    match Database.demand_stats db with
    | Some s ->
        s.Lsdb_datalog.Magic.stage_cone_facts + s.Lsdb_datalog.Magic.full_cone_facts
    | None -> 0
  in
  (* --- part 1: cold start on the org workload ------------------------ *)
  (* Time to first answer on a fresh heap: the browsing probe is one
     employee's full neighborhood. Eager mode pays the whole saturation
     on that first touch; demand mode derives just the employee's cone.
     8000 employees is B15's 175k-fact closure; 46000 crosses 1M. *)
  let scales =
    if !quick then [ ("600", 600) ] else [ ("175k", 8000); ("1m", 46000) ]
  in
  let rows = ref [] in
  List.iter
    (fun (label, employees) ->
      let org =
        Lsdb_workload.Org_gen.generate
          ~params:{ Lsdb_workload.Org_gen.default_params with employees }
          (rng ())
      in
      let probe db =
        let n = ref 0 in
        Database.closure_match db
          (Store.pattern ~s:(Database.entity db "EMP-0042") ())
          (fun _ -> incr n);
        !n
      in
      let db_eager = Lsdb_workload.Org_gen.to_database org in
      let eager_n, eager_ms = time_ms (fun () -> probe db_eager) in
      let closure = Database.closure db_eager in
      let full = Closure.cardinal closure in
      let derived = Closure.derived_count closure in
      let db_demand = Lsdb_workload.Org_gen.to_database org in
      Database.set_closure_mode db_demand Database.Demand;
      let demand_n, demand_ms = time_ms (fun () -> probe db_demand) in
      let cone = cone_facts db_demand in
      check
        (Printf.sprintf "cold probe count at %s" label)
        (eager_n = demand_n);
      (* Byte-identity on the benchmarked selective patterns (sorted
         answer sets; the two heaps intern identically). *)
      List.iter
        (fun (what, mk) ->
          check
            (Printf.sprintf "%s at %s" what label)
            (sorted_pattern db_eager (mk db_eager)
            = sorted_pattern db_demand (mk db_demand)))
        [
          ( "neighborhood answers",
            fun db -> Store.pattern ~s:(Database.entity db "EMP-0042") () );
          ( "point-query answers",
            fun db ->
              Store.pattern
                ~s:(Database.entity db "EMP-0042")
                ~r:(Database.entity db "EARNS")
                () );
          ( "second neighborhood",
            fun db -> Store.pattern ~s:(Database.entity db "EMP-0123") () );
        ];
      let speedup = eager_ms /. demand_ms in
      let pct = 100. *. float_of_int cone /. float_of_int (max 1 derived) in
      record (Printf.sprintf "b18/eager_cold_ms/scale=%s" label) eager_ms "ms";
      record (Printf.sprintf "b18/demand_cold_ms/scale=%s" label) demand_ms "ms";
      record (Printf.sprintf "b18/cold_speedup/scale=%s" label) speedup "x";
      record (Printf.sprintf "b18/closure_facts/scale=%s" label)
        (float_of_int full) "facts";
      record (Printf.sprintf "b18/cone_facts/scale=%s" label)
        (float_of_int cone) "facts";
      record (Printf.sprintf "b18/cone_pct/scale=%s" label) pct "%";
      rows :=
        [
          label;
          string_of_int full;
          Printf.sprintf "%.1f" eager_ms;
          Printf.sprintf "%.1f" demand_ms;
          Printf.sprintf "%.0fx" speedup;
          Printf.sprintf "%d (%.2f%% of derived)" cone pct;
        ]
        :: !rows)
    scales;
  Printf.printf "cold-start probe (one employee's neighborhood, fresh heap):\n";
  table
    [ "scale"; "closure"; "eager ms"; "demand ms"; "speedup"; "cone" ]
    (List.rev !rows);
  (* --- part 2: selective browsing queries, facts derived ------------- *)
  let uni =
    Lsdb_workload.University_gen.generate
      ~params:
        {
          Lsdb_workload.University_gen.students = (if !quick then 60 else 200);
          courses = 20;
          instructors = 8;
          enrollments_per_student = 3;
        }
      (rng ())
  in
  let uni_make () = Lsdb_workload.University_gen.to_database uni in
  let books = if !quick then 200 else 800 in
  let cit =
    Lsdb_workload.Citation_gen.generate
      ~params:
        {
          Lsdb_workload.Citation_gen.books;
          authors = books / 4;
          subjects = 8;
          citations_per_book = 5;
          skew = 1.0;
        }
      (rng ())
  in
  let cit_make () = Lsdb_workload.Citation_gen.to_database cit in
  let selective label make mk_pat =
    let db_eager = make () in
    let db_demand = make () in
    Database.set_closure_mode db_demand Database.Demand;
    check
      (Printf.sprintf "%s selective answers" label)
      (sorted_pattern db_eager (mk_pat db_eager)
      = sorted_pattern db_demand (mk_pat db_demand));
    let derived = Closure.derived_count (Database.closure db_eager) in
    let cone = cone_facts db_demand in
    let pct = 100. *. float_of_int cone /. float_of_int (max 1 derived) in
    record (Printf.sprintf "b18/%s/cone_facts" label) (float_of_int cone) "facts";
    record (Printf.sprintf "b18/%s/cone_pct" label) pct "%";
    check ~gate:Speed
      (Printf.sprintf "%s cone below 10%% (got %.2f%%)" label pct)
      (pct < 10.);
    [ label; string_of_int derived; string_of_int cone; Printf.sprintf "%.2f%%" pct ]
  in
  Printf.printf "\nselective browsing queries (facts derived, demand vs eager):\n";
  table
    [ "workload"; "full derived"; "cone facts"; "cone/derived" ]
    [
      selective "university" uni_make (fun db ->
          Store.pattern ~s:(Database.entity db "STU-0001") ());
      selective "citation" cit_make (fun db ->
          Store.pattern
            ~t:(Database.entity db cit.Lsdb_workload.Citation_gen.book_names.(5))
            ());
    ];
  (* --- part 3: byte-identity at every pool size ---------------------- *)
  (* Demand evaluation is single-threaded by design, so answers are
     pool-size independent by construction — this verifies it against
     the eager oracle anyway, full extent included. *)
  let patterns db =
    [
      Store.pattern ();
      Store.pattern ~s:(Database.entity db "STU-0001") ();
      Store.pattern ~r:(Database.entity db "ENROLL-STUDENT") ();
    ]
  in
  let eager_ref = uni_make () in
  let expected = List.map (sorted_pattern eager_ref) (patterns eager_ref) in
  List.iter
    (fun domains ->
      let db = uni_make () in
      Database.set_closure_mode db Database.Demand;
      let pool = if domains <= 1 then None else Some (Lsdb_exec.Pool.create ~domains) in
      Database.set_pool db pool;
      let got = List.map (sorted_pattern db) (patterns db) in
      Database.set_pool db None;
      Option.iter Lsdb_exec.Pool.shutdown pool;
      check
        (Printf.sprintf "demand ≡ eager at %d domain(s)" domains)
        (got = expected))
    [ 1; 2; 4; 8 ];
  Printf.printf "\nbyte-identity vs the eager oracle at pool sizes 1/2/4/8: checked\n"

(* B19 — query governor overhead + deadline'd partial results            *)

(* Two CI gates in one experiment. First, the overhead budget: a roomy
   governor (installed, checkpointing, never tripping) must cost less
   than 5% of wall-clock on the B13/B15/B17-shaped kernels — the same
   discipline B16 applies to the metrics layer, because a governor that
   taxes every untripped query is not "pay only when you trip". Second,
   graceful degradation: a wall deadline on the 175k-fact closure must
   return within 2x the deadline with a typed Partial whose facts are a
   sound subset of the ungoverned oracle's. *)
let b19 () =
  section "B19 — query governor: untripped overhead (5% budget), deadline'd closure";
  let module Governor = Lsdb_exec.Governor in
  let runs = 7 in
  (* --- part 1: untripped overhead on the three kernel shapes --------- *)
  (* Kernel 1 — the B13 probe workload: broadened conjunctive queries,
     so the governed path is Probing's wave loop plus Eval's join
     iteration. *)
  let m = if !quick then 150 else 400 in
  let probe_db, probe_query =
    let r = rng () in
    let rel_tax = Lsdb_workload.Taxonomy.generate ~prefix:"REL" ~depth:3 ~fanout:3 r in
    let goal_tax = Lsdb_workload.Taxonomy.generate ~prefix:"GOAL" ~depth:3 ~fanout:2 r in
    let db = Database.create () in
    Lsdb_workload.Taxonomy.insert db rel_tax;
    Lsdb_workload.Taxonomy.insert db goal_tax;
    let leaf_rel = List.hd rel_tax.Lsdb_workload.Taxonomy.leaves in
    let leaf_goal = List.hd goal_tax.Lsdb_workload.Taxonomy.leaves in
    for j = 0 to m - 1 do
      ignore
        (Database.insert_names db (Printf.sprintf "SRC-%04d" j) leaf_rel
           (Printf.sprintf "ITM-%04d" j));
      ignore
        (Database.insert_names db (Printf.sprintf "NDL-%04d" j) "NEEDLE" leaf_goal)
    done;
    let query =
      Query_parser.parse db
        (Printf.sprintf "(?x, %s, ?y) & (?y, NEEDLE, %s)" leaf_rel leaf_goal)
    in
    ignore (Database.closure db);
    (db, query)
  in
  let probe_kernel () = ignore (Probing.probe ~max_waves:6 probe_db probe_query) in
  (* Kernel 2 — the B15 single-fact retraction: delete/rederive a cone
     out of a large closure (Engine's fixpoint and retract loops). *)
  let employees = if !quick then 600 else 4000 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let retract_db = Lsdb_workload.Org_gen.to_database org in
  ignore (Database.closure retract_db);
  let victim =
    Fact.of_names (Database.symtab retract_db) "EMP-0042" "in" "EMPLOYEE"
  in
  let retract_kernel () =
    for _ = 1 to 50 do
      ignore (Database.remove retract_db victim);
      ignore (Database.closure retract_db);
      ignore (Database.insert retract_db victim);
      ignore (Database.closure retract_db)
    done
  in
  (* Kernel 3 — the B17 citation path search: Composition's frontier
     expansion and DFS fallback under the governed tick. *)
  let books = if !quick then 150 else 400 in
  let lib =
    Lsdb_workload.Citation_gen.generate
      ~params:
        {
          Lsdb_workload.Citation_gen.books;
          authors = books / 4;
          subjects = 8;
          citations_per_book = 5;
          skew = 1.0;
        }
      (rng ())
  in
  let compose_db = Lsdb_workload.Citation_gen.to_database lib in
  let book i =
    Database.entity compose_db lib.Lsdb_workload.Citation_gen.book_names.(i)
  in
  Database.set_limit compose_db 5;
  ignore (Database.closure compose_db);
  let src = book 5 and tgt = book (books - 1) in
  let compose_kernel () =
    (* One search is ~10µs — far below what a 5% gate can resolve — so
       batch enough of them that a sample dwarfs timer noise. *)
    for _ = 1 to 100 do
      ignore (Composition.search compose_db ~src ~tgt)
    done
  in
  (* Samples alternate ungoverned/governed pairwise (B16's discipline):
     back-to-back series would fold GC and cache drift into a comparison
     whose real subject is a few amortized checkpoint reads. *)
  let measure_pair db kernel =
    Database.set_governor db None;
    kernel ();
    Database.set_governor db (Some (Governor.create ()));
    kernel ();
    Database.set_governor db None;
    let kernel, reps = calibrated kernel in
    let samples =
      List.init runs (fun _ ->
          Database.set_governor db None;
          let _, off = time_ms kernel in
          let gov = Governor.create () in
          Database.set_governor db (Some gov);
          let _, on = time_ms kernel in
          Database.set_governor db None;
          check "roomy governor stayed untripped" (Governor.tripped gov = None);
          (off, on))
    in
    let best xs = List.fold_left Float.min (List.hd xs) (List.tl xs) in
    (best (List.map fst samples), best (List.map snd samples), reps)
  in
  let rows =
    List.map
      (fun (id, label, db, kernel) ->
        let off_ms, on_ms, reps = measure_pair db kernel in
        let pct = 100. *. ((on_ms -. off_ms) /. off_ms) in
        record (Printf.sprintf "b19/%s_reps" id) (float_of_int reps) "count";
        record (Printf.sprintf "b19/%s_ms_ungoverned" id) off_ms "ms";
        record (Printf.sprintf "b19/%s_ms_governed" id) on_ms "ms";
        record (Printf.sprintf "b19/%s_overhead_pct" id) pct "%";
        let over = pct > overhead_limit_pct in
        if over then begin
          incr overhead_failures;
          Printf.printf "  ✗ OVERHEAD FAILURE: %s costs %.1f%% governed\n" label pct
        end;
        [
          label;
          string_of_int reps;
          Printf.sprintf "%.2f" off_ms;
          Printf.sprintf "%.2f" on_ms;
          Printf.sprintf "%+.1f%%" pct;
          (if over then "✗ OVER" else "✓");
        ])
      [
        ("probe", "exhaustive probe (B13 kernel)", probe_db, probe_kernel);
        ("retract", "retract+rederive (B15 kernel)", retract_db, retract_kernel);
        ("compose", "citation path search (B17 kernel)", compose_db, compose_kernel);
      ]
  in
  table
    [ "kernel"; "reps"; "ungoverned ms"; "governed ms"; "overhead";
      Printf.sprintf "budget %.0f%%" overhead_limit_pct ]
    rows;
  (* --- part 2: deadline'd large closure ------------------------------ *)
  (* B15's 175k-fact org closure (scaled down under --quick), saturated
     once ungoverned as the oracle, then recomputed on a fresh heap under
     a wall deadline. The contract: control returns within 2x the
     deadline (amortized checkpoints bound the overshoot), the trip is
     the typed Deadline reason, and whatever facts did get derived are a
     subset of the oracle's — sound partial answers, nothing invented. *)
  let employees = if !quick then 2000 else 8000 in
  let org =
    Lsdb_workload.Org_gen.generate
      ~params:{ Lsdb_workload.Org_gen.default_params with employees }
      (rng ())
  in
  let oracle_db = Lsdb_workload.Org_gen.to_database org in
  let oracle = Database.closure oracle_db in
  let full = Closure.cardinal oracle in
  (* The deadline must actually fire mid-saturation: start at a value
     comfortably below the full closure time and halve until it trips,
     so the gate is machine-speed independent. *)
  let rec deadlined deadline_ms =
    let db = Lsdb_workload.Org_gen.to_database org in
    let gov = Governor.create ~deadline_ms () in
    Database.set_governor db (Some gov);
    let closure, elapsed = time_ms (fun () -> Database.closure db) in
    match Governor.tripped gov with
    | None when deadline_ms > 0.05 -> deadlined (deadline_ms /. 2.)
    | tripped -> (db, closure, tripped, deadline_ms, elapsed)
  in
  let db, partial_closure, tripped, deadline_ms, elapsed =
    deadlined (if !quick then 20. else 50.)
  in
  let partial = Closure.cardinal partial_closure in
  check "deadline'd closure tripped" (tripped <> None);
  check
    (Printf.sprintf "trip reason is deadline (got %s)"
       (match tripped with Some r -> Governor.reason_string r | None -> "none"))
    (tripped = Some Governor.Deadline);
  check ~gate:Speed
    (Printf.sprintf "returned within 2x the deadline (%.1f ms vs %.1f ms)" elapsed
       (2. *. deadline_ms))
    (elapsed <= 2. *. deadline_ms);
  check "partial closure is flagged" (Database.closure_partial db);
  (* Subset on interned ids: both heaps load the same generated org, so
     they intern identically (the B18 argument). *)
  let sound = ref true in
  Closure.iter (fun f -> if not (Closure.mem oracle f) then sound := false)
    partial_closure;
  check "partial facts are a subset of the oracle's" !sound;
  record "b19/deadline_ms" deadline_ms "ms";
  record "b19/deadline_elapsed_ms" elapsed "ms";
  record "b19/deadline_overshoot" (elapsed /. deadline_ms) "x";
  record "b19/deadline_oracle_facts" (float_of_int full) "facts";
  record "b19/deadline_partial_facts" (float_of_int partial) "facts";
  Printf.printf
    "\ndeadline'd closure: %.1f ms budget, returned in %.1f ms (%.2fx), %d of %d \
     facts derived (%s)\n"
    deadline_ms elapsed
    (elapsed /. deadline_ms)
    partial full
    (match tripped with
    | Some r -> Governor.reason_string r
    | None -> "untripped");
  table
    [ "deadline ms"; "returned ms"; "overshoot"; "partial facts"; "oracle facts";
      "sound subset" ]
    [
      [
        Printf.sprintf "%.1f" deadline_ms;
        Printf.sprintf "%.1f" elapsed;
        Printf.sprintf "%.2fx" (elapsed /. deadline_ms);
        string_of_int partial;
        string_of_int full;
        (if !sound then "✓" else "✗ INVENTED FACTS");
      ];
    ];
  Database.set_governor db None

(* ------------------------------------------------------------------ *)
(* B20 — sharded fact heaps                                            *)

(* Closure, incremental maintenance and path search at 1–8 heap shards,
   gated on canonical identity with the one-shard heap at every shard
   count. Every closure stratum copies its input into one packed index
   whatever the store's shard count, so the timings show what the
   partition costs or saves the closure; EXPERIMENTS.md has the runs. *)
let b20 () =
  section
    "B20 — sharded heaps: closure/retract/search at 1–8 shards vs the \
     one-shard heap";
  let params =
    if !quick then
      {
        Lsdb_workload.Shard_gen.facts = 60_000;
        entities = 12_000;
        relationships = 16;
        classes = 40;
        memberships = 600;
        skew = 0.8;
      }
    else
      {
        Lsdb_workload.Shard_gen.facts = 1_000_000;
        entities = 200_000;
        relationships = 16;
        classes = 40;
        memberships = 4_000;
        skew = 0.8;
      }
  in
  let gen = Lsdb_workload.Shard_gen.generate ~params (rng ()) in
  Printf.printf "workload: %d generated facts, %d entities, zipf %.1f\n%!"
    (Lsdb_workload.Shard_gen.fact_count gen)
    params.Lsdb_workload.Shard_gen.entities
    params.Lsdb_workload.Shard_gen.skew;
  let build shards =
    Lsdb_workload.Shard_gen.to_database ~max_facts:8_000_000 ~shards gen
  in
  (* Every database loads the same generated fact list in the same order,
     so names intern to the same ids everywhere (the B18 argument) and
     closures compare directly on triples. *)
  let canon closure =
    let acc = ref [] in
    Closure.iter (fun f -> acc := f :: !acc) closure;
    let arr = Array.of_list !acc in
    Array.sort Fact.compare arr;
    arr
  in
  let canon_derived closure =
    List.sort Fact.compare (Closure.derived closure)
  in
  let arr_eq a b =
    Array.length a = Array.length b
    &&
    let ok = ref true in
    Array.iteri (fun i x -> if not (Fact.equal x b.(i)) then ok := false) a;
    !ok
  in
  let extend_batch db =
    for i = 0 to 999 do
      ignore
        (Database.insert_names db
           (Printf.sprintf "X%d" i)
           "REL0"
           (Printf.sprintf "E%d" (i * 7 mod params.Lsdb_workload.Shard_gen.entities)))
    done
  in
  let retract_names =
    let mems, rest =
      List.partition
        (fun (_, r, _) -> r = "∈")
        gen.Lsdb_workload.Shard_gen.facts
    in
    let take n l = List.filteri (fun i _ -> i < n) l in
    (* 100 membership facts (each with a generalization cone) and the
       first 100 other facts — which include taxonomy edges, whose
       removal collapses whole cones. *)
    take 100 mems @ take 100 rest
  in
  let retract_batch db =
    List.iter
      (fun (s, r, t) -> ignore (Database.remove_names db s r t))
      retract_names
  in
  (* One full lifecycle at a given shard count: cold closure, extension
     batch, retraction batch, composition search. Returns the timings
     and the canonical content after each state. *)
  let lifecycle shards =
    let db = build shards in
    let c0, closure_ms = time_ms (fun () -> Database.closure db) in
    let state0 = canon c0 in
    let derived0 = canon_derived c0 in
    let _, extend_ms =
      time_ms (fun () ->
          extend_batch db;
          ignore (Database.closure db))
    in
    let state1 = canon (Database.closure db) in
    let _, retract_ms =
      time_ms (fun () ->
          retract_batch db;
          ignore (Database.closure db))
    in
    let state2 = canon (Database.closure db) in
    Database.set_limit db 3;
    let src = Database.entity db "E500" and tgt = Database.entity db "E700" in
    let search_ms =
      measure_ms ~runs:3 (fun () -> ignore (Composition.search db ~src ~tgt))
    in
    let paths =
      List.sort compare (Composition.search db ~src ~tgt).Composition.paths
    in
    (db, closure_ms, extend_ms, retract_ms, search_ms, state0, derived0,
     state1, state2, paths)
  in
  let ( odb, oracle_closure_ms, oracle_extend_ms, oracle_retract_ms,
        oracle_search_ms, o0, od0, o1, o2, opaths ) =
    lifecycle 1
  in
  let closure8_ms = ref oracle_closure_ms in
  let rows =
    [
      "1 (oracle)";
      Printf.sprintf "%.0f" oracle_closure_ms;
      Printf.sprintf "%.0f" oracle_extend_ms;
      Printf.sprintf "%.0f" oracle_retract_ms;
      Printf.sprintf "%.1f" oracle_search_ms;
      "1.00x"; "✓";
    ]
    :: List.map
         (fun shards ->
           let ( db, closure_ms, extend_ms, retract_ms, search_ms, s0, d0, s1,
                 s2, paths ) =
             lifecycle shards
           in
           let label what = Printf.sprintf "%s at %d shards" what shards in
           check (label "cold closure identical") (arr_eq o0 s0);
           check (label "derived set identical") (d0 = od0);
           check (label "post-extension closure identical") (arr_eq o1 s1);
           check (label "post-retraction closure identical") (arr_eq o2 s2);
           check (label "composition paths identical") (paths = opaths);
           let speedup = oracle_closure_ms /. closure_ms in
           if shards = 8 then closure8_ms := closure_ms;
           record (Printf.sprintf "b20/closure_ms_%dsh" shards) closure_ms "ms";
           record (Printf.sprintf "b20/extend_ms_%dsh" shards) extend_ms "ms";
           record (Printf.sprintf "b20/retract_ms_%dsh" shards) retract_ms "ms";
           record (Printf.sprintf "b20/search_ms_%dsh" shards) search_ms "ms";
           (* Demand mode reads the sharded store directly: spot-check
              the membership cone against the oracle's eager closure. *)
           if shards = 8 then begin
             Database.set_closure_mode db Database.Demand;
             let member = Database.entity db "∈" in
             let collect d =
               let acc = ref [] in
               Database.closure_match d (Store.pattern ~r:member ()) (fun f ->
                   acc := f :: !acc);
               List.sort Fact.compare !acc
             in
             check "demand-mode membership cone matches the eager oracle"
               (collect db = collect odb);
             Database.set_closure_mode db Database.Eager
           end;
           [
             string_of_int shards;
             Printf.sprintf "%.0f" closure_ms;
             Printf.sprintf "%.0f" extend_ms;
             Printf.sprintf "%.0f" retract_ms;
             Printf.sprintf "%.1f" search_ms;
             Printf.sprintf "%.2fx" speedup;
             "✓";
           ])
         [ 2; 4; 8 ]
  in
  table
    [ "shards"; "closure ms"; "extend ms"; "retract ms"; "search ms";
      "speedup"; "identical" ]
    rows;
  let speedup = oracle_closure_ms /. !closure8_ms in
  record "b20/closure_speedup_8sh" speedup "x";
  record "b20/base_facts" (float_of_int (Database.base_cardinal odb)) "facts";
  Printf.printf "\ncold closure at 8 shards: %.2fx the one-shard heap\n"
    speedup;
  (* A tripped governor over the sharded path must still yield a sound
     subset: every fact it kept is in the oracle's closure, every base
     fact is still visible. *)
  let db = build 8 in
  let gov =
    Lsdb_exec.Governor.create
      ~max_facts:(if !quick then 50 else 500)
      ()
  in
  Database.set_governor db (Some gov);
  let partial = Database.closure db in
  check "tight fact budget tripped the sharded closure"
    (Lsdb_exec.Governor.tripped gov <> None);
  check "partial closure is flagged" (Database.closure_partial db);
  let member_of arr fact =
    (* [o0] is sorted: binary search. *)
    let lo = ref 0 and hi = ref (Array.length arr) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = Fact.compare fact arr.(mid) in
      if c = 0 then found := true
      else if c < 0 then hi := mid
      else lo := mid + 1
    done;
    !found
  in
  let sound = ref true in
  Closure.iter (fun f -> if not (member_of o0 f) then sound := false) partial;
  check "tripped sharded closure is a subset of the oracle's" !sound;
  let base_visible = ref true in
  Store.iter
    (fun f -> if not (Closure.mem partial f) then base_visible := false)
    (Database.store db);
  check "every base fact visible after the trip" !base_visible;
  Database.set_governor db None

let b21 () =
  section
    "B21 — the domain pool: closure/extend/retract over the shards × \
     domains grid (B13 × B20)";
  let params =
    if !quick then
      {
        Lsdb_workload.Shard_gen.facts = 60_000;
        entities = 12_000;
        relationships = 16;
        classes = 40;
        memberships = 600;
        skew = 0.8;
      }
    else
      {
        Lsdb_workload.Shard_gen.facts = 1_000_000;
        entities = 200_000;
        relationships = 16;
        classes = 40;
        memberships = 4_000;
        skew = 0.8;
      }
  in
  let gen = Lsdb_workload.Shard_gen.generate ~params (rng ()) in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "workload: %d generated facts, %d entities, zipf %.1f; %d core(s)\n%!"
    (Lsdb_workload.Shard_gen.fact_count gen)
    params.Lsdb_workload.Shard_gen.entities
    params.Lsdb_workload.Shard_gen.skew cores;
  let build shards =
    Lsdb_workload.Shard_gen.to_database ~max_facts:8_000_000 ~shards gen
  in
  (* Same canonical-content currency as B20: every database loads the
     same generated fact list in the same order, so ids intern
     identically and closures compare directly on triples. *)
  let canon closure =
    let acc = ref [] in
    Closure.iter (fun f -> acc := f :: !acc) closure;
    let arr = Array.of_list !acc in
    Array.sort Fact.compare arr;
    arr
  in
  let arr_eq a b =
    Array.length a = Array.length b
    &&
    let ok = ref true in
    Array.iteri (fun i x -> if not (Fact.equal x b.(i)) then ok := false) a;
    !ok
  in
  let extend_batch db n =
    for i = 0 to n - 1 do
      ignore
        (Database.insert_names db
           (Printf.sprintf "X%d" i)
           "REL0"
           (Printf.sprintf "E%d" (i * 7 mod params.Lsdb_workload.Shard_gen.entities)))
    done
  in
  let retract_names =
    let mems, rest =
      List.partition
        (fun (_, r, _) -> r = "∈")
        gen.Lsdb_workload.Shard_gen.facts
    in
    let take n l = List.filteri (fun i _ -> i < n) l in
    take 100 mems @ take 100 rest
  in
  let retract_batch db =
    List.iter
      (fun (s, r, t) -> ignore (Database.remove_names db s r t))
      retract_names
  in
  (* One lifecycle per grid cell; [domains = 1] attaches no pool, so the
     1-domain column runs every round on the caller. *)
  let lifecycle ~shards ~domains =
    let db = build shards in
    let pool =
      if domains > 1 then Some (Lsdb_exec.Pool.create ~domains) else None
    in
    Fun.protect
      ~finally:(fun () ->
        Database.set_pool db None;
        Option.iter Lsdb_exec.Pool.shutdown pool)
    @@ fun () ->
    Database.set_pool db pool;
    let c0, closure_ms = time_ms (fun () -> Database.closure db) in
    let state0 = canon c0 in
    let derived0 = Closure.derived c0 in
    let _, extend_ms =
      time_ms (fun () ->
          extend_batch db 1_000;
          ignore (Database.closure db))
    in
    let state1 = canon (Database.closure db) in
    let _, retract_ms =
      time_ms (fun () ->
          retract_batch db;
          ignore (Database.closure db))
    in
    let state2 = canon (Database.closure db) in
    (closure_ms, extend_ms, retract_ms, state0, derived0, state1, state2)
  in
  let oracle_closure_ms, oracle_extend_ms, oracle_retract_ms, o0, _od0, o1, o2 =
    lifecycle ~shards:1 ~domains:1
  in
  record "b21/closure_ms_1sh_1d" oracle_closure_ms "ms";
  record "b21/extend_ms_1sh_1d" oracle_extend_ms "ms";
  record "b21/retract_ms_1sh_1d" oracle_retract_ms "ms";
  let sharded_1d = ref oracle_closure_ms in
  let sharded_8d = ref oracle_closure_ms in
  let rows = ref [] in
  List.iter
    (fun shards ->
      (* For a fixed shard count the whole row must be byte-identical:
         same fact set, same derivation order, at every domain count. *)
      let row_order = ref None in
      List.iter
        (fun domains ->
          if not (shards = 1 && domains = 1) then begin
            let closure_ms, extend_ms, retract_ms, s0, d0, s1, s2 =
              lifecycle ~shards ~domains
            in
            let cell = Printf.sprintf "%dsh × %dd" shards domains in
            let label what = Printf.sprintf "%s at %s" what cell in
            check (label "cold closure identical to the oracle") (arr_eq o0 s0);
            check (label "post-extension closure identical") (arr_eq o1 s1);
            check (label "post-retraction closure identical") (arr_eq o2 s2);
            (match !row_order with
            | None -> row_order := Some d0
            | Some reference ->
                check
                  (label "derivation order byte-identical across domains")
                  (List.equal Fact.equal reference d0));
            if shards = 8 && domains = 1 then sharded_1d := closure_ms;
            if shards = 8 && domains = 8 then sharded_8d := closure_ms;
            record
              (Printf.sprintf "b21/closure_ms_%dsh_%dd" shards domains)
              closure_ms "ms";
            record
              (Printf.sprintf "b21/extend_ms_%dsh_%dd" shards domains)
              extend_ms "ms";
            record
              (Printf.sprintf "b21/retract_ms_%dsh_%dd" shards domains)
              retract_ms "ms";
            rows :=
              [
                string_of_int shards;
                string_of_int domains;
                Printf.sprintf "%.0f" closure_ms;
                Printf.sprintf "%.0f" extend_ms;
                Printf.sprintf "%.0f" retract_ms;
                Printf.sprintf "%.2fx" (oracle_closure_ms /. closure_ms);
                "✓";
              ]
              :: !rows
          end)
        [ 1; 2; 4; 8 ])
    [ 1; 2; 4; 8 ];
  table
    [ "shards"; "domains"; "closure ms"; "extend ms"; "retract ms";
      "vs 1sh/1d"; "identical" ]
    (List.rev !rows);
  let speedup = !sharded_1d /. !sharded_8d in
  record "b21/closure_speedup_8sh_8d_vs_1d" speedup "x";
  record "b21/cores" (float_of_int cores) "domains";
  Printf.printf
    "\ncold closure at 8 shards: 8 domains is %.2fx 1 domain\n"
    speedup;
  (* The ≥2x gate needs 8 real cores to be physically meaningful; on
     smaller machines (and in --quick, where the workload is too small
     to amortize wake-ups) the grid is still fully identity-checked
     above, which is the part a laptop can falsify. *)
  if (not !quick) && cores >= 8 then
    check ~gate:Speed
      (Printf.sprintf "≥2x at 8 domains × 8 shards (got %.2fx)" speedup)
      (speedup >= 2.0)
  else
    Printf.printf
      "(speedup gate skipped: %s — identity checks above still gate)\n"
      (if !quick then "--quick workload" else
         Printf.sprintf "%d core(s) < 8" cores);
  (* Large-batch extension: the quadratic moved-fact filter regression
     scaled with batch size, so an 8k batch runs in quick mode too. *)
  let large = 8_000 in
  let large_db = build 8 in
  let pool = Lsdb_exec.Pool.create ~domains:(min 4 (max 2 cores)) in
  Fun.protect
    ~finally:(fun () ->
      Database.set_pool large_db None;
      Lsdb_exec.Pool.shutdown pool)
  @@ fun () ->
  Database.set_pool large_db (Some pool);
  ignore (Database.closure large_db);
  let _, extend_large_ms =
    time_ms (fun () ->
        extend_batch large_db large;
        ignore (Database.closure large_db))
  in
  record "b21/extend_large_ms" extend_large_ms "ms";
  Printf.printf "%d-fact extension batch at 8 shards: %.0f ms\n" large
    extend_large_ms;
  let oracle_large = build 1 in
  ignore (Database.closure oracle_large);
  extend_batch oracle_large large;
  check "large-batch extension content identical to the single heap"
    (arr_eq (canon (Database.closure oracle_large))
       (canon (Database.closure large_db)));
  (* Governor trip under pool concurrency: a budget that trips mid-grid
     must still leave a sound subset — every kept fact in the true
     closure, every base fact visible. *)
  let db = build 8 in
  let gov =
    Lsdb_exec.Governor.create ~max_facts:(if !quick then 50 else 500) ()
  in
  Database.set_pool db (Some pool);
  Database.set_governor db (Some gov);
  let partial = Database.closure db in
  Database.set_pool db None;
  check "tight fact budget tripped under the pool"
    (Lsdb_exec.Governor.tripped gov <> None);
  check "partial closure is flagged" (Database.closure_partial db);
  let member_of arr fact =
    let lo = ref 0 and hi = ref (Array.length arr) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = Fact.compare fact arr.(mid) in
      if c = 0 then found := true
      else if c < 0 then hi := mid
      else lo := mid + 1
    done;
    !found
  in
  let sound = ref true in
  Closure.iter (fun f -> if not (member_of o0 f) then sound := false) partial;
  check "tripped pooled closure is a subset of the oracle's" !sound;
  let base_visible = ref true in
  Store.iter
    (fun f -> if not (Closure.mem partial f) then base_visible := false)
    (Database.store db);
  check "every base fact visible after the trip" !base_visible;
  Database.set_governor db None

(* Bechamel micro-op reference table                                     *)

let b22 () =
  section
    "B22 — frozen posting segments: packed cold closure vs list cells, \
     identity across the policy/shard/domain/mode grid";
  let module Index = Lsdb_datalog.Index in
  let params =
    if !quick then
      {
        Lsdb_workload.Shard_gen.facts = 60_000;
        entities = 12_000;
        relationships = 16;
        classes = 40;
        memberships = 600;
        skew = 0.8;
      }
    else
      {
        Lsdb_workload.Shard_gen.facts = 1_000_000;
        entities = 200_000;
        relationships = 16;
        classes = 40;
        memberships = 4_000;
        skew = 0.8;
      }
  in
  let gen = Lsdb_workload.Shard_gen.generate ~params (rng ()) in
  let build shards =
    Lsdb_workload.Shard_gen.to_database ~max_facts:8_000_000 ~shards gen
  in
  let with_policy policy f =
    let saved = Index.policy () in
    Index.set_policy policy;
    Fun.protect ~finally:(fun () -> Index.set_policy saved) f
  in
  (* Cold single-heap closure under a freeze policy: wall clock and
     minor-heap allocation across the closure computation only ([Never]
     is the pre-segment list-cell layout, the baseline this PR replaces;
     the database build stays outside the window). *)
  let cold policy =
    with_policy policy @@ fun () ->
    let db = build 1 in
    Gc.full_major ();
    let w0 = (Gc.quick_stat ()).Gc.minor_words in
    let c, ms = time_ms (fun () -> Database.closure db) in
    let minor_bytes = ((Gc.quick_stat ()).Gc.minor_words -. w0) *. 8.0 in
    (db, c, ms, minor_bytes)
  in
  (* The enumeration kernel: sweep every closure fact through the
     index's own iteration path. This is the loop the packed layout
     owns — a cache-linear spine scan versus a hashtable walk over a
     million boxed triples — and the one the ≥1.5x gate arms on. The
     sweep runs right after the cold closure, before any other full
     iteration touches the index. *)
  let enum_sweeps = 3 in
  let enum_ms closure =
    let n = ref 0 in
    let (), ms =
      time_ms (fun () ->
          for _ = 1 to enum_sweeps do
            Closure.iter (fun _ -> incr n) closure
          done)
    in
    ms /. float_of_int enum_sweeps
  in
  let canon closure =
    let acc = ref [] in
    Closure.iter (fun f -> acc := f :: !acc) closure;
    let arr = Array.of_list !acc in
    Array.sort Fact.compare arr;
    arr
  in
  let arr_eq a b =
    Array.length a = Array.length b
    &&
    let ok = ref true in
    Array.iteri (fun i x -> if not (Fact.equal x b.(i)) then ok := false) a;
    !ok
  in
  let list_ms, list_enum_ms, list_alloc, oracle =
    let _, c, ms, alloc = cold Index.Never in
    let ems = enum_ms c in
    (ms, ems, alloc, canon c)
  in
  let seg_db, seg_c, seg_ms, seg_alloc = cold Index.Watermark in
  let seg_enum_ms = enum_ms seg_c in
  check "segment closure content identical to the list-cell baseline"
    (arr_eq oracle (canon seg_c));
  let n_facts = float_of_int (Array.length oracle) in
  let speedup = list_ms /. seg_ms in
  let enum_speedup = list_enum_ms /. seg_enum_ms in
  let stats = Database.tier_stats seg_db in
  check "the frozen tier holds the bulk of the closure"
    (stats.Index.frozen_live > stats.Index.delta_live);
  record "b22/closure_ms_listcells" list_ms "ms";
  record "b22/closure_ms_segments" seg_ms "ms";
  record "b22/cold_closure_speedup" speedup "x";
  record "b22/enum_ms_listcells" list_enum_ms "ms";
  record "b22/enum_ms_segments" seg_enum_ms "ms";
  record "b22/cold_enum_speedup" enum_speedup "x";
  record "b22/minor_bytes_per_fact_listcells" (list_alloc /. n_facts) "bytes";
  record "b22/minor_bytes_per_fact_segments" (seg_alloc /. n_facts) "bytes";
  record "b22/frozen_live" (float_of_int stats.Index.frozen_live) "facts";
  record "b22/freezes" (float_of_int stats.Index.freezes) "segments";
  (* Refresh the GC gauges at record time so a scrape right after the
     bench reports the same allocation picture. *)
  Lsdb_obs.Metrics.sample_gc ();
  table
    [ "layout"; "closure ms"; "enum ms"; "minor B/fact"; "speedup" ]
    [
      [
        "list cells (Never)";
        Printf.sprintf "%.0f" list_ms;
        Printf.sprintf "%.1f" list_enum_ms;
        Printf.sprintf "%.0f" (list_alloc /. n_facts);
        "1.00x";
      ];
      [
        "segments (Watermark)";
        Printf.sprintf "%.0f" seg_ms;
        Printf.sprintf "%.1f" seg_enum_ms;
        Printf.sprintf "%.0f" (seg_alloc /. n_facts);
        Printf.sprintf "%.2fx enum %.2fx" speedup enum_speedup;
      ];
    ];
  if not !quick then begin
    (* The ≥1.5x gate arms on the enumeration kernel — the loop whose
       layout this PR changes. The full fixpoint is dominated by
       layout-independent engine work (unification, dedup, provenance;
       see EXPERIMENTS.md B22) and carries a no-regression backstop
       sized to this host's ±15% wall-clock variance. *)
    check ~gate:Speed
      (Printf.sprintf
         "≥1.5x cold closure enumeration speedup over list cells (got %.2fx)"
         enum_speedup)
      (enum_speedup >= 1.5);
    check ~gate:Speed
      (Printf.sprintf "cold closure no slower than list cells (got %.2fx)"
         speedup)
      (speedup >= 0.9);
    check ~gate:Speed "segments allocate fewer minor-heap bytes per fact"
      (seg_alloc < list_alloc)
  end;
  (* Identity grid: every (shards, domains, mode) cell enumerates the
     closure through its own access path — [closure_match] with the full
     wildcard, which in demand mode issues one all-free goal — and must
     be byte-identical (sorted) to the list-cell baseline above. *)
  let domains_axis = if !quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let grid_oracle = Array.to_list oracle in
  let cells = ref 0 in
  List.iter
    (fun shards ->
      List.iter
        (fun domains ->
          List.iter
            (fun mode ->
              let label =
                Printf.sprintf "%dsh-%dd-%s" shards domains
                  (match mode with
                  | Database.Eager -> "eager"
                  | Database.Demand -> "demand")
              in
              let db = build shards in
              Database.set_closure_mode db mode;
              let pool =
                if domains > 1 then Some (Lsdb_exec.Pool.create ~domains)
                else None
              in
              Database.set_pool db pool;
              Fun.protect
                ~finally:(fun () ->
                  Database.set_pool db None;
                  Option.iter Lsdb_exec.Pool.shutdown pool)
                (fun () ->
                  let acc = ref [] in
                  Database.closure_match db (Store.pattern ()) (fun f ->
                      acc := f :: !acc);
                  let got = List.sort Fact.compare !acc in
                  incr cells;
                  check
                    (Printf.sprintf "enumeration identical at %s" label)
                    (got = grid_oracle)))
            [ Database.Eager; Database.Demand ])
        domains_axis)
    [ 1; 2; 4; 8 ];
  Printf.printf
    "\nidentity grid: %d cell(s) byte-identical; cold closure %.2fx, \
     enumeration %.2fx over list cells\n"
    !cells speedup enum_speedup

(* ------------------------------------------------------------------ *)

let micro () =
  section "MICRO — core operation costs (Bechamel, ns/op)";
  let db = Paper_examples.organization () in
  ignore (Database.closure db);
  let e = Database.entity db in
  let store = Database.store db in
  let consume = ref 0 in
  let query =
    Query_parser.parse db
      "(?z, in, EMPLOYEE) & exists y . (?z, EARNS, ?y) & (?y, gt, 20000)"
  in
  let campus = Paper_examples.campus () in
  let campus_broadness = Broadness.of_db campus in
  let campus_query =
    Query_parser.parse campus "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)"
  in
  let results =
    bechamel_ns
      [
        ( "store.add+remove",
          fun () ->
            let f = Fact.make 9999 9998 9997 in
            ignore (Store.add store f);
            ignore (Store.remove store f) );
        ( "store.match (s,r,?)",
          fun () ->
            Store.match_pattern store
              (Store.pattern ~s:(e "JOHN") ~r:(e "EARNS") ())
              (fun _ -> incr consume) );
        ( "closure.mem (inferred)",
          fun () ->
            consume :=
              !consume
              +
              if Database.mem db (Fact.make (e "JOHN") (e "EARNS") (e "SALARY")) then 1
              else 0 );
        ( "eval (2-atom + comparator)",
          fun () -> consume := !consume + List.length (Eval.eval db query).Eval.rows );
        ( "neighborhood (JOHN)",
          fun () ->
            consume :=
              !consume
              + List.length (Navigation.neighborhood db (e "JOHN")).Navigation.as_source
        );
        ( "retraction_set (§5.2 query)",
          fun () ->
            consume :=
              !consume
              + List.length
                  (Retraction.retraction_set campus campus_broadness campus_query) );
      ]
  in
  List.iter (fun (n, ns) -> record (Printf.sprintf "micro/%s_ns" n) ns "ns") results;
  table [ "operation"; "cost" ] (List.map (fun (n, ns) -> [ n; ns_pretty ns ]) results)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("ex1", ex1); ("ex2", ex2); ("ex3", ex3); ("ex4", ex4); ("ex5", ex5);
    ("ex6", ex6); ("ex7", ex7);
    ("b1", b1); ("b2", b2); ("b3", b3); ("b4", b4); ("b5", b5); ("b6", b6);
    ("b7", b7); ("b8", b8); ("b9", b9); ("b10", b10); ("b11", b11); ("b12", b12);
    ("b13", b13); ("b14", b14); ("b15", b15); ("b16", b16); ("b17", b17);
    ("b18", b18); ("b19", b19); ("b20", b20); ("b21", b21); ("b22", b22);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--obs" :: rest ->
        (* Run every experiment with the timed metrics instrumentation
           enabled — the state CI gates with B16's overhead budget. *)
        Lsdb_obs.Metrics.set_enabled true;
        parse acc rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | "--json" :: [] ->
        prerr_endline "--json requires a file argument";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let selected =
    match args with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun name ->
            match List.assoc_opt (String.lowercase_ascii name) experiments with
            | Some fn -> Some (name, fn)
            | None ->
                Printf.eprintf "unknown experiment %S (known: %s)\n" name
                  (String.concat ", " (List.map fst experiments));
                None)
          names
  in
  Printf.printf "lsdb experiment harness%s\n" (if !quick then " (quick mode)" else "");
  List.iter
    (fun (name, fn) ->
      current_experiment := String.uppercase_ascii name;
      fn ())
    selected;
  Option.iter write_json !json_path;
  if !identity_failures + !speed_failures > 0 then begin
    Printf.eprintf "FAIL: %d identity check(s) and %d speed gate(s) failed\n"
      !identity_failures !speed_failures;
    exit 1
  end;
  if !overhead_failures > 0 then begin
    Printf.eprintf "FAIL: %d kernel(s) exceed the %.0f%% observability budget\n"
      !overhead_failures overhead_limit_pct;
    exit 1
  end
