(* Two-hinge intersection ({!Database.intersect_join} and
   {!Database.intersect_exists}), which Eval's fused conjuncts and
   Composition's bound 2-chain check rest on. Each path — the galloped
   one (eager, at one and at four shards) and the hash semi-join (demand
   mode) — must emit exactly the entities a brute force over
   [closure_mem] finds, each once. The heaps are bulk-loaded and the
   closure frozen before removes and inserts, so frozen tiers carry
   tombstones and delta tiers carry facts while the hinges are read. *)

open Lsdb
open Testutil
module Index = Lsdb_datalog.Index
module Rng = Lsdb_workload.Rng

type path = { label : string; shards : int; mode : Database.closure_mode }

let paths =
  [
    { label = "eager, 1 shard (galloped)"; shards = 1; mode = Database.Eager };
    { label = "eager, 4 shards (galloped)"; shards = 4; mode = Database.Eager };
    { label = "demand (semi-join)"; shards = 1; mode = Database.Demand };
  ]

(* A random heap over a few entities and relationships, with enough
   [in]/[isa] facts that the closure derives. After the closure is built,
   thirty rounds each remove a loaded fact and insert a fresh one. *)
let build ~seed path =
  let rng = Rng.create seed in
  let db = Database.create ~shards:path.shards () in
  let entity i = Printf.sprintf "E%d" i in
  let rels = [| "in"; "isa"; "R0"; "R1"; "R2" |] in
  let random_fact () =
    Fact.of_names (Database.symtab db)
      (entity (Rng.int rng 16))
      (Rng.choose_array rng rels)
      (entity (Rng.int rng 16))
  in
  let loaded = Array.init 120 (fun _ -> random_fact ()) in
  Database.load db (Array.copy loaded);
  Database.set_closure_mode db path.mode;
  (* Everything the closure holds now is packed into frozen segments. *)
  with_policy Index.Always (fun () ->
      ignore (Database.count_hint db (Store.pattern ()));
      if path.mode = Database.Eager then ignore (Database.closure db));
  (* From here on nothing folds: removes leave tombstones. *)
  with_policy Index.Never (fun () ->
      for i = 0 to 29 do
        ignore (Database.remove db loaded.((i * 7) mod Array.length loaded));
        ignore (Database.insert db (random_fact ()))
      done;
      if path.mode = Database.Eager then ignore (Database.closure db));
  (db, rng)

(* Hinge pairs that share a filler: the free position of [h1] filled by
   some entity [x] is a closure fact, and [h2] frees [x]'s position in
   another closure fact. Plus arbitrary pairs, mostly empty. *)
let hinge_pairs db rng =
  let facts =
    let acc = ref [] in
    Database.closure_match db (Store.pattern ()) (fun f -> acc := f :: !acc);
    Array.of_list !acc
  in
  let hinge_freeing (f : Fact.t) = function
    | 0 -> (Index.In { r = f.r; t = f.t }, f.s)
    | 1 -> (Index.Via { s = f.s; t = f.t }, f.r)
    | _ -> (Index.Out { s = f.s; r = f.r }, f.t)
  in
  let shared () =
    let h1, x = hinge_freeing (Rng.choose_array rng facts) (Rng.int rng 3) in
    let around =
      List.filter
        (fun (f : Fact.t) -> f.s = x || f.r = x || f.t = x)
        (Array.to_list facts)
    in
    let g = Rng.choose rng around in
    let pos = if g.s = x then 0 else if g.r = x then 1 else 2 in
    (h1, fst (hinge_freeing g pos))
  in
  let arbitrary () =
    ( fst (hinge_freeing (Rng.choose_array rng facts) (Rng.int rng 3)),
      fst (hinge_freeing (Rng.choose_array rng facts) (Rng.int rng 3)) )
  in
  List.init 30 (fun _ -> shared ()) @ List.init 10 (fun _ -> arbitrary ())

let check_path path =
  let nonempty = ref 0 in
  for seed = 1 to 6 do
    with_policy Index.Never @@ fun () ->
    let db, rng = build ~seed path in
    if path.mode = Database.Eager then
      Alcotest.(check bool) "the closure's frozen tier has tombstones" true
        ((Closure.tier_stats (Database.closure db)).Index.frozen_dead > 0);
    let entities = List.init (Database.entity_count db) Fun.id in
    List.iter
      (fun (h1, h2) ->
        let expected =
          List.filter
            (fun e ->
              Database.closure_mem db (Index.hinge_triple h1 e)
              && Database.closure_mem db (Index.hinge_triple h2 e))
            entities
        in
        let emitted = ref [] in
        Database.intersect_join db h1 h2 (fun e -> emitted := e :: !emitted);
        Alcotest.(check (list int))
          (path.label ^ ": emitted = brute force")
          expected
          (List.sort compare !emitted);
        Alcotest.(check int)
          (path.label ^ ": each entity once")
          (List.length expected) (List.length !emitted);
        Alcotest.(check bool)
          (path.label ^ ": intersect_exists = brute force")
          (expected <> [])
          (Database.intersect_exists db h1 h2);
        if path.mode = Database.Eager then begin
          let galloped = ref [] in
          Closure.intersect (Database.closure db) h1 h2 (fun e ->
              galloped := e :: !galloped);
          Alcotest.(check (list int))
            (path.label ^ ": gallops on every eager path")
            expected
            (List.sort compare !galloped)
        end;
        if expected <> [] then incr nonempty)
      (hinge_pairs db rng)
  done;
  Alcotest.(check bool) (path.label ^ ": some intersections are non-empty") true
    (!nonempty > 0)

let tests =
  List.map
    (fun path ->
      test (Printf.sprintf "intersect_join agrees with brute force: %s" path.label)
        (fun () -> check_path path))
    paths
