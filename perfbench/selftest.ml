(* The benchmark's own test: at a reduced scale, two traced runs with one
   seed replay the identical command list and reproduce every count
   exactly, and another seed gives another command list. *)

open Perfbench

(* Counts that must repeat exactly; times never do. *)
let repeated =
  [
    "match.hits";
    "match.misses";
    "match.evictions";
    "eval.candidates";
    "eval.rows";
    "governor.work";
    "governor.trips";
    "probing.waves";
    "composition.paths";
    "render.bytes";
  ]

let reduced kind =
  let units = match kind with Workload.Maintain -> 60 | Cold_open -> 3 in
  { Workload.employees = 300; units }

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let () =
  List.iter
    (fun (name, kind) ->
      let run seed = Harness.run kind (reduced kind) ~seed ~trace:true in
      let a = run 7 and b = run 7 and c = run 8 in
      check (name ^ ": run correct") (a.correct && b.correct && c.correct);
      List.iter (fun p -> Printf.printf "  %s\n" p) (a.problems @ b.problems @ c.problems);
      check (name ^ ": same seed, same commands") (a.commands = b.commands);
      check (name ^ ": other seed, other commands") (a.commands <> c.commands);
      check (name ^ ": same failed count") (a.failed = b.failed);
      List.iter
        (fun metric ->
          let value r = Harness.metric r metric in
          check
            (Printf.sprintf "%s: %s repeats (%g vs %g)" name metric (value a) (value b))
            (value a = value b))
        repeated;
      Printf.printf "%s: %d commands, %d failed\n%!" name a.attempted a.failed)
    Workload.kinds;
  if !failures > 0 then exit 1
