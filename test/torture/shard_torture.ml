(* Shard-torture driver: the identity suite over the full
   (shard count x domain count x closure mode) matrix.

   Seeded random scripts of matches, queries, insertions, checked
   insertions and retractions run once in the one-shard, sequential, eager reference cell and once
   per matrix cell; a cell diverging from the reference in any step's
   answers, any mutation's outcome, or the final closure is a failure.
   Every cell's final closure, the reference cell's included, must also
   equal a from-scratch recompute of its final store by the test oracle
   (test/oracle), which shares no fixpoint driver with the engine.
   Answers are compared as sorted rows — enumeration order is the one
   thing the matrix is allowed to change. In every cell, each checked
   insertion's verdict and violations must also equal the full
   integrity scan of a copy of the database taken just before it.

   The domains axis runs to 8 — past the machine's core count on most
   runners, so the pool multiplexes its chunks over fewer cores than
   domains — and every multi-domain cell exercises the chunked pool
   fan-out (closure, extension and DRed retraction all route through
   it).

   Exit status 0 when every cell of every seed holds, 1 otherwise. *)

open Lsdb
module Rng = Lsdb_workload.Rng

let failures = ref 0
let cases = ref 0

let failf case fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %-32s %s\n%!" case msg)
    fmt

(* ------------------------------------------------------------------ *)
(* Workload generation (names, so one script replays on every copy)    *)

type step =
  | Match of string option * string option * string option
  | QueryText of string
  | Ins of string * string * string
  | Chk of string * string * string  (* Integrity.insert_checked *)
  | Rem of string * string * string

let base_db rng =
  Lsdb_workload.University_gen.to_database
    (Lsdb_workload.University_gen.generate
       ~params:
         {
           Lsdb_workload.University_gen.students = 15 + Rng.int rng 25;
           courses = 4 + Rng.int rng 6;
           instructors = 2 + Rng.int rng 4;
           enrollments_per_student = 2 + Rng.int rng 2;
         }
       rng)

let gen_script db rng =
  let facts = Array.of_list (Database.facts db) in
  let symtab = Database.symtab db in
  let random_names () = Fact.names symtab facts.(Rng.int rng (Array.length facts)) in
  let opt name = if Rng.bool rng then Some name else None in
  let steps = ref [] in
  for i = 1 to 14 do
    let step =
      match Rng.int rng 12 with
      | 0 | 1 | 2 | 3 ->
          let s, r, t = random_names () in
          Match (opt s, opt r, opt t)
      | 4 | 5 ->
          let s, r, _ = random_names () in
          QueryText (Printf.sprintf "(%s, %s, ?x)" s r)
      | 6 ->
          let _, r, t = random_names () in
          QueryText (Printf.sprintf "(?x, %s, %s) & (?x, in, ?c)" r t)
      | 7 ->
          let s, r, t = random_names () in
          Ins (s ^ "-SHARD" ^ string_of_int i, r, t)
      | 8 ->
          let s, _, t = random_names () and _, r, _ = random_names () in
          Chk (s, r, t)
      | 9 ->
          let _, r, _ = random_names () and _, r', _ = random_names () in
          Chk (r, "contra", r')
      | _ ->
          let s, r, t = random_names () in
          Rem (s, r, t)
    in
    steps := step :: !steps
  done;
  List.rev !steps

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* A step's observable output, sorted: the matrix may change the order
   answers are enumerated in, never the answers. *)
let run_step ~label db step =
  let symtab = Database.symtab db in
  let show f =
    let s, r, t = Fact.names symtab f in
    String.concat "," [ s; r; t ]
  in
  match step with
  | Match (s, r, t) ->
      let find n = Option.bind n (Database.find_entity db) in
      let pat = Store.{ s = find s; r = find r; t = find t } in
      List.sort compare (List.map show (Match_layer.match_list db pat))
  | QueryText text -> (
      match Query_parser.parse db text with
      | query ->
          let answer = Eval.eval db query in
          List.sort compare
            (List.map (String.concat ",") (Eval.rows_named symtab answer))
      | exception Query_parser.Parse_error _ -> [ "parse-error" ])
  | Ins (s, r, t) -> [ Printf.sprintf "ins:%b" (Database.insert_names db s r t) ]
  | Chk (s, r, t) -> (
      let fact = Fact.of_names symtab s r t in
      let reference = Database.copy db in
      let full =
        if Database.insert reference fact then Integrity.violations reference else []
      in
      let verdict = Integrity.insert_checked db fact in
      incr cases;
      let vs = match verdict with Ok _ -> [] | Error vs -> vs in
      if vs <> full then
        failf label "checked insert of %s,%s,%s: %d violations, full scan %d" s r t
          (List.length vs) (List.length full);
      match verdict with
      | Ok added -> [ Printf.sprintf "chk:%b" added ]
      | Error vs -> "chk:rejected" :: List.sort compare (List.map (Integrity.describe db) vs))
  | Rem (s, r, t) -> [ Printf.sprintf "rem:%b" (Database.remove_names db s r t) ]

(* The final state signature: every closure fact, by names, sorted. The
   copies share interning only up to the script's own insertions, so
   names are the safe currency. *)
let final_signature db =
  Database.set_closure_mode db Database.Eager;
  let symtab = Database.symtab db in
  let acc = ref [] in
  Closure.iter
    (fun f -> acc := Fact.names symtab f :: !acc)
    (Database.closure db);
  List.sort compare !acc

(* The same signature, recomputed from scratch by the oracle. *)
let oracle_signature db =
  let symtab = Database.symtab db in
  List.sort compare
    (List.map (Fact.names symtab) (Oracle.facts (Oracle.of_database db)))

let run_cell ~label ~shards ~domains ~mode db script =
  Database.set_shards db shards;
  Database.set_closure_mode db mode;
  let pool =
    if domains > 1 then Some (Lsdb_exec.Pool.create ~domains) else None
  in
  Database.set_pool db pool;
  Fun.protect
    ~finally:(fun () ->
      Database.set_pool db None;
      Option.iter Lsdb_exec.Pool.shutdown pool)
    (fun () ->
      let outputs = List.map (run_step ~label db) script in
      let final = final_signature db in
      (outputs, final, oracle_signature db = final))

let torture seed =
  let rng = Rng.create seed in
  let db0 = base_db rng in
  let script = gen_script db0 rng in
  let reference_out, reference_sig, matches_oracle =
    run_cell ~label:(Printf.sprintf "seed%d/reference" seed) ~shards:1 ~domains:1
      ~mode:Database.Eager (Database.copy db0) script
  in
  incr cases;
  if not matches_oracle then
    failf (Printf.sprintf "seed%d/reference" seed)
      "final closure differs from the oracle's recompute";
  List.iter
    (fun shards ->
      List.iter
        (fun domains ->
          List.iter
            (fun mode ->
              if not (shards = 1 && domains = 1 && mode = Database.Eager) then begin
                let case =
                  Printf.sprintf "seed%d/%dsh-%dd-%s" seed shards domains
                    (match mode with
                    | Database.Eager -> "eager"
                    | Database.Demand -> "demand")
                in
                let out, final, matches_oracle =
                  run_cell ~label:case ~shards ~domains ~mode (Database.copy db0) script
                in
                incr cases;
                if not matches_oracle then
                  failf case "final closure differs from the oracle's recompute";
                List.iteri
                  (fun i (expected, got) ->
                    incr cases;
                    if got <> expected then
                      failf case "step %d diverged (%d rows vs %d)" i
                        (List.length got) (List.length expected))
                  (List.combine reference_out out);
                incr cases;
                if final <> reference_sig then
                  failf case "final closure diverged (%d facts vs %d)"
                    (List.length final) (List.length reference_sig)
              end)
            [ Database.Eager; Database.Demand ])
        [ 1; 2; 4; 8 ])
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Segment torture: the freeze policy must be invisible. [Always]
   rebuilds the packed segment at every quiesce point, [Never] keeps
   every fact in list-cell deltas (the pre-segment layout), [Watermark]
   is the production default. Same script, same cell — the three runs
   must be byte-identical in every step's output and the final
   closure. *)

let segment_torture seed =
  let module Index = Lsdb_datalog.Index in
  let rng = Rng.create (1000 + seed) in
  let db0 = base_db rng in
  let script = gen_script db0 rng in
  let run_with policy ~shards ~domains ~mode =
    let saved = Index.policy () in
    Index.set_policy policy;
    Fun.protect
      ~finally:(fun () -> Index.set_policy saved)
      (fun () ->
        run_cell ~label:(Printf.sprintf "seg-seed%d" seed) ~shards ~domains ~mode
          (Database.copy db0) script)
  in
  List.iter
    (fun (shards, domains, mode, label) ->
      let case = Printf.sprintf "seg-seed%d/%s" seed label in
      let never = run_with Index.Never ~shards ~domains ~mode in
      let always = run_with Index.Always ~shards ~domains ~mode in
      let watermark = run_with Index.Watermark ~shards ~domains ~mode in
      incr cases;
      if always <> never then failf case "Always diverged from Never";
      incr cases;
      if watermark <> never then failf case "Watermark diverged from Never")
    [
      (1, 1, Database.Eager, "1sh-1d-eager");
      (4, 2, Database.Eager, "4sh-2d-eager");
      (1, 1, Database.Demand, "1sh-1d-demand");
      (2, 2, Database.Demand, "2sh-2d-demand");
    ]

let () =
  let seeds = List.init 4 (fun i -> i + 1) in
  List.iter torture seeds;
  List.iter segment_torture seeds;
  Printf.printf "shard-torture: %d case(s), %d failure(s)\n%!" !cases !failures;
  exit (if !failures = 0 then 0 else 1)
