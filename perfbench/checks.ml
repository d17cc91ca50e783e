(* Output checks, all run after the timed phase and never timed. *)

open Lsdb

let contains text sub =
  let n = String.length text and m = String.length sub in
  let rec at i j = j = m || (text.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
  go 0

(* The shell reports a budget trip, an exception or a parse error on the
   last line of a command's output. *)
let last_line output =
  let n = String.length output in
  let stop = if n > 0 && output.[n - 1] = '\n' then n - 1 else n in
  let start =
    if stop = 0 then 0
    else match String.rindex_from_opt output (stop - 1) '\n' with Some i -> i + 1 | None -> 0
  in
  String.sub output start (stop - start)

let tripped output = contains (last_line output) " tripped after "

(* A command fails if it tripped the budget or reported an error. *)
let failed output =
  let last = last_line output in
  contains last " tripped after " || contains last "error: "

(* What one command printed, reduced to what the checks compare and
   its size. *)
type outcome = { digest : Digest.t; tripped : bool; failed : bool; bytes : int }

let outcome output =
  {
    digest = Digest.string output;
    tripped = tripped output;
    failed = failed output;
    bytes = String.length output;
  }

(* Two runs of one command agree when neither tripped and they printed
   the same bytes, or when both tripped: where a budget trip cuts a
   command short depends on timing-free work counts, but the partial
   answers it prints need not be compared. *)
let agree a b = if a.tripped || b.tripped then a.tripped = b.tripped else a.digest = b.digest

(* Answer sets compared order-free: every rendering prints one row per
   line, and demand mode enumerates in another order than eager. *)
let same_lines a b =
  let lines s = List.sort String.compare (String.split_on_char '\n' s) in
  lines a = lines b

(* The bidirectional composition search must return exactly the paths,
   in order, of the retained depth-first oracle. *)
let assoc_paths_match db commands =
  let pairs = Hashtbl.create 64 in
  Array.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "assoc"; a; b ] -> Hashtbl.replace pairs (a, b) ()
      | _ -> ())
    commands;
  Hashtbl.fold
    (fun (a, b) () bad ->
      match (Database.find_entity db a, Database.find_entity db b) with
      | Some src, Some tgt ->
          let fast = (Composition.search db ~src ~tgt).Composition.paths in
          if fast = Composition.paths_dfs db ~src ~tgt then bad
          else Printf.sprintf "assoc %s %s: search and paths_dfs differ" a b :: bad
      | _ -> bad)
    pairs []

(* The incrementally maintained closure must equal a recompute from
   scratch on a copy of the same base (experiment B15's check). *)
let closure_signature db =
  let closure = Database.closure db in
  ( Closure.to_seq closure
    |> Seq.map (fun f -> (f, Closure.is_derived closure f))
    |> List.of_seq |> List.sort compare,
    Closure.cardinal closure,
    Closure.derived_count closure )

let closure_matches_recompute db =
  let reference = Database.copy db in
  Database.invalidate reference;
  closure_signature db = closure_signature reference

(* Base facts by name, so databases with different symbol tables
   compare. *)
let base_names db =
  let symtab = Database.symtab db in
  List.map (Fact.names symtab) (Database.facts db) |> List.sort compare
