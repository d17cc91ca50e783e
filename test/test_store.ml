open Lsdb
open Testutil

let sample_store () =
  let store = Store.create () in
  let add s r t = ignore (Store.add store (Fact.make s r t)) in
  add 100 1 200;
  add 100 1 201;
  add 100 2 200;
  add 101 1 200;
  add 102 3 300;
  store

let sorted_list store pat =
  List.sort Fact.compare (Store.match_list store pat)

let enumerated store pat = List.length (Store.match_list store pat)

(* The eight bound-position shapes over the values of one fact. *)
let shapes (f : Fact.t) =
  let s = f.s and r = f.r and t = f.t in
  [
    Store.pattern ();
    Store.pattern ~s ();
    Store.pattern ~r ();
    Store.pattern ~t ();
    Store.pattern ~s ~r ();
    Store.pattern ~s ~t ();
    Store.pattern ~r ~t ();
    Store.pattern ~s ~r ~t ();
  ]

(* A store built from a bulk-loaded prefix, then [ops]: [0..4] add,
   [5..7] remove, [8] remove a loaded fact and add it back, [9] reshard
   to the other of 1 and 4 shards. *)
let loaded_model_agrees ~shards (prefix, ops) =
  let mk (a, b, c) = Fact.make a b c in
  let store = Store.create ~shards () in
  let model = Hashtbl.create 64 in
  let loaded = Array.of_list (List.map mk prefix) in
  Store.load store (Array.copy loaded);
  Array.iter (fun f -> Hashtbl.replace model f ()) loaded;
  let expect what b =
    if not b then QCheck.Test.fail_reportf "%s disagrees (%d shards at the start)" what shards
  in
  let matches ({ s; r; t } : Store.pattern) (f : Fact.t) =
    let fits v = function Some x -> x = v | None -> true in
    fits f.s s && fits f.r r && fits f.t t
  in
  List.iter
    (fun (kind, tr) ->
      let f = mk tr in
      if kind <= 4 then expect "add" (Store.add store f = not (Hashtbl.mem model f));
      if kind <= 4 then Hashtbl.replace model f ();
      if kind >= 5 && kind <= 7 then begin
        expect "remove" (Store.remove store f = Hashtbl.mem model f);
        Hashtbl.remove model f
      end;
      if kind = 8 && Array.length loaded > 0 then begin
        let g = loaded.((tr |> fun (a, b, c) -> a + b + c) mod Array.length loaded) in
        expect "remove loaded" (Store.remove store g = Hashtbl.mem model g);
        Hashtbl.remove model g;
        expect "gone" (not (Store.mem store g));
        expect "re-add loaded" (Store.add store g);
        Hashtbl.replace model g ()
      end;
      if kind = 9 then Store.reshard store (if Store.shards store = 1 then 4 else 1))
    ops;
  let model_facts = Hashtbl.fold (fun f () acc -> f :: acc) model [] in
  let probes = Fact.make 9 9 9 :: model_facts in
  List.iter
    (fun probe ->
      List.iter
        (fun pat ->
          let expected =
            List.sort Fact.compare (List.filter (matches pat) model_facts)
          in
          expect "matches" (sorted_list store pat = expected);
          expect "count" (Store.count_fast store pat = List.length expected))
        (shapes probe))
    probes;
  let entities =
    List.sort_uniq compare
      (List.concat_map (fun (f : Fact.t) -> [ f.s; f.r; f.t ]) model_facts)
  in
  expect "active entities"
    (List.sort compare (List.of_seq (Store.active_entities store)) = entities);
  for e = 0 to 9 do
    expect "entity_active" (Store.entity_active store e = List.mem e entities)
  done;
  expect "cardinal" (Store.cardinal store = List.length model_facts);
  true

let tests =
  [
    test "add/mem/remove round trip" (fun () ->
        let store = Store.create () in
        let f = Fact.make 1 2 3 in
        Alcotest.(check bool) "add new" true (Store.add store f);
        Alcotest.(check bool) "add dup" false (Store.add store f);
        Alcotest.(check bool) "mem" true (Store.mem store f);
        Alcotest.(check int) "cardinal" 1 (Store.cardinal store);
        Alcotest.(check bool) "remove" true (Store.remove store f);
        Alcotest.(check bool) "remove again" false (Store.remove store f);
        Alcotest.(check bool) "gone" false (Store.mem store f);
        Alcotest.(check int) "empty" 0 (Store.cardinal store));
    test "every pattern shape answers correctly" (fun () ->
        let store = sample_store () in
        let count pat = enumerated store pat in
        Alcotest.(check int) "(s,r,t)" 1 (count (Store.pattern ~s:100 ~r:1 ~t:200 ()));
        Alcotest.(check int) "(s,r,?)" 2 (count (Store.pattern ~s:100 ~r:1 ()));
        Alcotest.(check int) "(s,?,t)" 2 (count (Store.pattern ~s:100 ~t:200 ()));
        Alcotest.(check int) "(?,r,t)" 2 (count (Store.pattern ~r:1 ~t:200 ()));
        Alcotest.(check int) "(s,?,?)" 3 (count (Store.pattern ~s:100 ()));
        Alcotest.(check int) "(?,r,?)" 3 (count (Store.pattern ~r:1 ()));
        Alcotest.(check int) "(?,?,t)" 3 (count (Store.pattern ~t:200 ()));
        Alcotest.(check int) "(?,?,?)" 5 (count (Store.pattern ())));
    test "match_scan agrees with match_pattern on every shape" (fun () ->
        let store = sample_store () in
        let patterns =
          [
            Store.pattern ~s:100 ~r:1 ~t:200 ();
            Store.pattern ~s:100 ~r:1 ();
            Store.pattern ~s:100 ~t:200 ();
            Store.pattern ~r:1 ~t:200 ();
            Store.pattern ~s:100 ();
            Store.pattern ~r:1 ();
            Store.pattern ~t:200 ();
            Store.pattern ();
            Store.pattern ~s:999 ();
          ]
        in
        List.iter
          (fun pat ->
            let scanned = ref [] in
            Store.match_scan store pat (fun f -> scanned := f :: !scanned);
            Alcotest.(check int)
              "same cardinality"
              (List.length (Store.match_list store pat))
              (List.length !scanned);
            Alcotest.(check bool)
              "same set" true
              (List.sort Fact.compare !scanned = sorted_list store pat))
          patterns);
    test "removal updates all indexes" (fun () ->
        let store = sample_store () in
        ignore (Store.remove store (Fact.make 100 1 200));
        Alcotest.(check int) "(s,r,?)" 1 (enumerated store (Store.pattern ~s:100 ~r:1 ()));
        Alcotest.(check int) "(?,?,t)" 2 (enumerated store (Store.pattern ~t:200 ()));
        Alcotest.(check int) "(s,?,?)" 2 (enumerated store (Store.pattern ~s:100 ())));
    test "active_entities tracks refcounts through deletion" (fun () ->
        let store = Store.create () in
        ignore (Store.add store (Fact.make 1 2 3));
        ignore (Store.add store (Fact.make 1 2 4));
        let actives () = List.sort compare (List.of_seq (Store.active_entities store)) in
        Alcotest.(check (list int)) "all present" [ 1; 2; 3; 4 ] (actives ());
        ignore (Store.remove store (Fact.make 1 2 4));
        Alcotest.(check (list int)) "4 gone" [ 1; 2; 3 ] (actives ());
        ignore (Store.remove store (Fact.make 1 2 3));
        Alcotest.(check (list int)) "empty" [] (actives ()));
    test "clear and copy" (fun () ->
        let store = sample_store () in
        let copy = Store.copy store in
        Store.clear store;
        Alcotest.(check int) "cleared" 0 (Store.cardinal store);
        Alcotest.(check int) "copy unaffected" 5 (Store.cardinal copy));
    (* Model-based property: a Store behaves like a set of triples. *)
    qcheck "store agrees with a set model"
      QCheck.(
        list
          (pair (pair (int_bound 5) (int_bound 5)) (pair (int_bound 5) bool)))
      (fun ops ->
        let store = Store.create () in
        let model = Hashtbl.create 16 in
        List.iter
          (fun ((a, b), (c, is_add)) ->
            let f = Fact.make a b c in
            if is_add then begin
              let added = Store.add store f in
              let fresh = not (Hashtbl.mem model f) in
              Hashtbl.replace model f ();
              if added <> fresh then QCheck.Test.fail_report "add disagrees"
            end
            else begin
              let removed = Store.remove store f in
              let present = Hashtbl.mem model f in
              Hashtbl.remove model f;
              if removed <> present then QCheck.Test.fail_report "remove disagrees"
            end)
          ops;
        Store.cardinal store = Hashtbl.length model
        && Hashtbl.fold (fun f () acc -> acc && Store.mem store f) model true);
    qcheck "a loaded store agrees with a set model (1 and 4 shards, every freeze policy)"
      QCheck.(
        let v = int_bound 5 in
        pair (small_list (triple v v v)) (small_list (pair (int_bound 9) (triple v v v))))
      (fun case ->
        List.for_all
          (fun policy ->
            with_policy policy (fun () ->
                List.for_all (fun shards -> loaded_model_agrees ~shards case) [ 1; 4 ]))
          Lsdb_datalog.Index.[ Always; Never; Watermark ]);
    test "load: frozen facts enumerate in ascending order, then the delta" (fun () ->
        let store = Store.create () in
        Store.load store [| Fact.make 5 1 2; Fact.make 1 1 1; Fact.make 3 2 1; Fact.make 1 1 1 |];
        ignore (Store.add store (Fact.make 0 0 0));
        ignore (Store.remove store (Fact.make 3 2 1));
        Alcotest.(check (list (triple int int int))) "order"
          [ (1, 1, 1); (5, 1, 2); (0, 0, 0) ]
          (List.map (fun (f : Fact.t) -> (f.s, f.r, f.t)) (Store.to_list store)));
    test "demand-mode selectivity hints equal enumerated counts on a loaded store"
      (fun () ->
        let db = Database.create () in
        let name i = Printf.sprintf "N%d" i in
        let fact i j k = Fact.of_names (Database.symtab db) (name i) (name j) (name k) in
        Database.load db
          (Array.init 400 (fun i -> fact (i mod 31) (40 + (i mod 4)) (i mod 37)));
        Database.set_closure_mode db Database.Demand;
        ignore (Database.count_hint db (Store.pattern ()));
        for i = 0 to 59 do
          ignore (Database.insert db (fact (i mod 13) (40 + (i mod 5)) (50 + i)));
          ignore (Database.remove db (fact (i mod 31) (40 + (i mod 4)) (i mod 37)))
        done;
        let store = Database.store db in
        let enumerated pat = List.length (Store.match_list store pat) in
        Store.iter
          (fun f ->
            Alcotest.(check int) "out-degree" (enumerated (Store.pattern ~s:f.s ()))
              (Database.out_degree_hint db f.s);
            Alcotest.(check int) "in-degree" (enumerated (Store.pattern ~t:f.t ()))
              (Database.in_degree_hint db f.t);
            List.iter
              (fun pat ->
                Alcotest.(check int) "count hint" (enumerated pat) (Database.count_hint db pat))
              (shapes f))
          store;
        match Database.demand_stats db with
        | Some stats -> Alcotest.(check int) "no cone was derived" 0 stats.goals
        | None -> Alcotest.fail "demand state expected");
  ]
