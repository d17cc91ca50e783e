(* Demand-driven closure (magic sets): byte-identity against the eager
   oracle — on the paper examples, on seeded random rule/fact programs at
   the datalog level, and on the university/citation workloads — at pool
   sizes 1/2/4/8 and under interleaved insert/retract/rule-toggle
   sequences (the DRed path). Byte-identity means: the sorted answer
   sets of the two modes are equal, pattern by pattern. *)

open Lsdb
open Testutil
module Rng = Lsdb_workload.Rng
module Pool = Lsdb_exec.Pool

let fact_triples = Alcotest.(list (triple int int int))

(* Sorted answer set of a pattern through the mode-aware accessor. *)
let sorted_match db pat =
  let out = ref [] in
  Database.closure_match db pat (fun (f : Fact.t) -> out := (f.s, f.r, f.t) :: !out);
  List.sort compare !out

(* All eight pattern shapes rooted at a ground triple. *)
let shapes (s, r, t) =
  [
    Store.pattern ~s ();
    Store.pattern ~r ();
    Store.pattern ~t ();
    Store.pattern ~s ~r ();
    Store.pattern ~s ~t ();
    Store.pattern ~r ~t ();
    Store.pattern ~s ~r ~t ();
  ]

let closure_facts db =
  let out = ref [] in
  Closure.iter (fun (f : Fact.t) -> out := (f.s, f.r, f.t) :: !out) (Database.closure db);
  List.sort compare !out

(* Two structurally identical databases (same deterministic build), one
   per mode. Symtab layouts agree, so raw entity ids are comparable. *)
let twins make =
  let eager = make () and demand = make () in
  Database.set_closure_mode demand Database.Demand;
  (eager, demand)

let check_identity what eager demand pats =
  List.iter
    (fun pat ->
      Alcotest.(check fact_triples) what (sorted_match eager pat) (sorted_match demand pat))
    pats

let university () =
  Lsdb_workload.University_gen.to_database
    (Lsdb_workload.University_gen.generate
       ~params:
         {
           Lsdb_workload.University_gen.students = 12;
           courses = 4;
           instructors = 3;
           enrollments_per_student = 2;
         }
       (Rng.create 7))

let citation () =
  Lsdb_workload.Citation_gen.to_database
    (Lsdb_workload.Citation_gen.generate
       ~params:
         {
           Lsdb_workload.Citation_gen.books = 40;
           authors = 10;
           subjects = 3;
           citations_per_book = 3;
           skew = 1.0;
         }
       (Rng.create 11))

(* Multi-variable query answers as sorted rows of raw ids. *)
let rows db text =
  let a = Eval.eval db (q db text) in
  List.map Array.to_list a.Eval.rows |> List.sort compare

let tests =
  [
    test "paper examples: demand ≡ eager on every pattern shape" (fun () ->
        List.iter
          (fun make ->
            let eager, demand = twins make in
            (* The full extent first (demands everything), then every
               shape rooted at a sample of closure facts. *)
            check_identity "full extent" eager demand [ Store.pattern () ];
            let sample = List.filteri (fun i _ -> i mod 5 = 0) (closure_facts eager) in
            List.iter (fun f -> check_identity "shape" eager demand (shapes f)) sample)
          [ Paper_examples.organization; Paper_examples.music; Paper_examples.campus ]);
    test "seeded random datalog programs: cones match the eager oracle" (fun () ->
        let open Lsdb_datalog in
        for seed = 1 to 20 do
          let rng = Rng.create (100 + seed) in
          let const () = 1 + Rng.int rng 8 in
          let rel () = 20 + Rng.int rng 3 in
          let base =
            List.init
              (10 + Rng.int rng 15)
              (fun _ -> Triple.make (const ()) (rel ()) (const ()))
            |> List.sort_uniq Triple.compare
          in
          let rules =
            List.init
              (2 + Rng.int rng 3)
              (fun i ->
                let term () =
                  if Rng.int rng 4 = 0 then Term.Const (const ())
                  else Term.Var (Rng.int rng 3)
                in
                let body =
                  List.init
                    (1 + Rng.int rng 2)
                    (fun _ -> Atom.make (term ()) (Term.Const (rel ())) (term ()))
                in
                let bvars =
                  List.concat_map
                    (fun (a : Atom.t) ->
                      List.filter_map
                        (function Term.Var v -> Some v | Term.Const _ -> None)
                        [ a.s; a.r; a.t ])
                    body
                in
                let head_term () =
                  if bvars = [] || Rng.int rng 3 = 0 then Term.Const (const ())
                  else Term.Var (Rng.choose rng bvars)
                in
                Rule.make
                  ~name:(Printf.sprintf "r%d" i)
                  ~body
                  ~heads:[ Atom.make (head_term ()) (Term.Const (rel ())) (head_term ()) ]
                  ())
          in
          let eager facts =
            Oracle.facts (Oracle.closure rules (List.to_seq facts))
            |> List.map (fun (tr : Triple.t) -> (tr.s, tr.r, tr.t))
            |> List.sort compare
          in
          let eager_facts = eager base in
          (* Demand evaluates over a base the test owns and mutates. *)
          let idx = Index.create () in
          List.iter (fun tr -> ignore (Index.add idx tr : bool)) base;
          let m =
            Magic.create_shared ~staged_rules:[] ~rules (Engine.view_of_index idx)
          in
          let collect ~s ~r ~tgt =
            let got = ref [] in
            Magic.demand m ~s ~r ~tgt (fun (tr : Triple.t) ->
                got := (tr.s, tr.r, tr.t) :: !got);
            List.sort compare !got
          in
          let opt_eq o v = match o with Some x -> x = v | None -> true in
          (* Selective patterns first — each checks the cone against the
             oracle's restriction — then the full extent. *)
          for _ = 1 to 8 do
            let pos v = if Rng.bool rng then Some v else None in
            let s = pos (const ()) and r = pos (rel ()) and tgt = pos (const ()) in
            let expected =
              List.filter
                (fun (fs, fr, ft) -> opt_eq s fs && opt_eq r fr && opt_eq tgt ft)
                eager_facts
            in
            Alcotest.(check fact_triples) "selective cone" expected (collect ~s ~r ~tgt)
          done;
          Alcotest.(check fact_triples) "full extent" eager_facts
            (collect ~s:None ~r:None ~tgt:None);
          (* DRed at the datalog level: retract a base fact, compare with
             a from-scratch closure of the survivors, then restore it. *)
          let victim = Rng.choose rng base in
          ignore (Index.remove idx victim : bool);
          Magic.retract m victim;
          let eager' =
            eager (List.filter (fun tr -> Triple.compare victim tr <> 0) base)
          in
          Alcotest.(check fact_triples) "after retract" eager'
            (collect ~s:None ~r:None ~tgt:None);
          ignore (Index.add idx victim : bool);
          Magic.insert m victim;
          Alcotest.(check fact_triples) "after re-insert" eager_facts
            (collect ~s:None ~r:None ~tgt:None)
        done);
    test "university + citation workloads: demand ≡ eager" (fun () ->
        List.iter
          (fun (make, queries) ->
            let eager, demand = twins make in
            List.iter
              (fun text ->
                Alcotest.(check (list (list int))) text (rows eager text) (rows demand text))
              queries;
            check_identity "full extent" eager demand [ Store.pattern () ])
          [
            ( university,
              [
                "(?e, in, ENROLLMENT)";
                "exists s, c, g . (?e, ENROLL-STUDENT, ?s) & (?e, ENROLL-COURSE, ?c) \
                 & (?e, ENROLL-GRADE, ?g)";
              ] );
            (citation, [ "(?b, in, BOOK)"; "(?a, WROTE, ?b)" ]);
          ]);
    test "demand answers are identical at pool sizes 1/2/4/8" (fun () ->
        let queries = [ "(?e, in, ENROLLMENT)"; "(?e, ENROLL-STUDENT, ?s)" ] in
        let eager = university () in
        let expected = List.map (rows eager) queries in
        List.iter
          (fun domains ->
            let db = university () in
            Database.set_closure_mode db Database.Demand;
            let pool = if domains > 1 then Some (Pool.create ~domains) else None in
            Database.set_pool db pool;
            Fun.protect
              ~finally:(fun () ->
                Database.set_pool db None;
                Option.iter Pool.shutdown pool)
              (fun () ->
                List.iter2
                  (fun text want ->
                    Alcotest.(check (list (list int)))
                      (Printf.sprintf "%s @ %d domains" text domains)
                      want (rows db text))
                  queries expected))
          [ 1; 2; 4; 8 ]);
    test "interleaved insert/retract/rule-toggle keeps demand ≡ eager" (fun () ->
        List.iter
          (fun seed ->
            let rng = Rng.create seed in
            let eager = Database.create () and demand = Database.create () in
            Database.set_closure_mode demand Database.Demand;
            let both f =
              f eager;
              f demand
            in
            let ents = [| "A"; "B"; "C"; "D"; "E"; "F" |] in
            let rels = [| "isa"; "in"; "R"; "S"; "syn" |] in
            let base = ref [] in
            for _ = 1 to 40 do
              (match Rng.int rng 10 with
              | 0 | 1 when !base <> [] ->
                  let triple = Rng.choose rng !base in
                  base := List.filter (fun x -> x <> triple) !base;
                  both (fun db -> ignore (Database.remove db (fact db triple)))
              | 2 ->
                  let name =
                    Rng.choose rng [ "mem-source"; "gen-rel"; "syn-def"; "inversion" ]
                  in
                  let enabled =
                    List.exists
                      (fun ((r : Rule.t), on) -> on && String.equal r.Rule.name name)
                      (Database.rules eager)
                  in
                  both (fun db ->
                      ignore
                        (if enabled then Database.exclude db name
                         else Database.include_rule db name))
              | _ ->
                  let s = Rng.choose_array rng ents
                  and r = Rng.choose_array rng rels
                  and t = Rng.choose_array rng ents in
                  if not (List.mem (s, r, t) !base) then begin
                    base := (s, r, t) :: !base;
                    both (fun db -> ignore (Database.insert_names db s r t))
                  end);
              Alcotest.(check fact_triples) "full extent identical"
                (sorted_match eager (Store.pattern ()))
                (sorted_match demand (Store.pattern ()))
            done)
          [ 3; 17; 42 ]);
    test "selective demand derives a strict subset of the closure" (fun () ->
        let db = university () in
        Database.set_closure_mode db Database.Demand;
        ignore (rows db "(?e, in, ENROLLMENT)");
        match Database.demand_stats db with
        | None -> Alcotest.fail "no demand state after a query"
        | Some s ->
            let eager = university () in
            let full_derived = Closure.derived_count (Database.closure eager) in
            let cone =
              s.Lsdb_datalog.Magic.stage_cone_facts + s.Lsdb_datalog.Magic.full_cone_facts
            in
            Alcotest.(check bool)
              (Printf.sprintf "cone %d < full %d" cone full_derived)
              true
              (cone < full_derived));
    test "prover tabling keys off the shared database generation" (fun () ->
        let db = Paper_examples.organization () in
        let f = fact db ("JOHN", "WORKS-FOR", "DEPARTMENT") in
        let proved, n1 = Prover.prove_counted db f in
        Alcotest.(check bool) "proves" true proved;
        Alcotest.(check bool) "first run expands" true (n1 > 0);
        let proved2, n2 = Prover.prove_counted db f in
        Alcotest.(check bool) "still proves" true proved2;
        (* Repeat proof over an unchanged heap replays the table. *)
        Alcotest.(check int) "tabled repeat: zero expansions" 0 n2;
        (* A rule toggle bumps the one shared generation source; the
           prover table (like the match-layer answer cache) must miss. *)
        ignore (Database.exclude db "gen-rel");
        ignore (Database.include_rule db "gen-rel");
        let proved3, n3 = Prover.prove_counted db f in
        Alcotest.(check bool) "reproves" true proved3;
        Alcotest.(check bool) "toggle invalidates the table" true (n3 > 0));
    test "shell .closure flips modes in a live session" (fun () ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        let shell = Lsdb_shell.Shell.create (Paper_examples.organization ()) in
        let out = Lsdb_shell.Shell.execute shell ".closure" in
        Alcotest.(check bool) "starts eager" true (contains out "eager");
        let out = Lsdb_shell.Shell.execute shell ".closure demand" in
        Alcotest.(check bool) "switches" true (contains out "demand");
        let out = Lsdb_shell.Shell.execute shell "q (JOHN, WORKS-FOR, ?d)" in
        Alcotest.(check bool) "derived answer" true (contains out "DEPARTMENT");
        let out = Lsdb_shell.Shell.execute shell "stats" in
        Alcotest.(check bool) "stats shows the mode" true (contains out "demand"));
  ]
