(* Frozen/delta posting segments: the two-tier index's content
   neutrality. Freezing, tombstoning and resurrection must never change
   what the index contains — only how it is laid out — and the packed
   tiers' O(1) counts and galloping intersection must agree with naive
   scans. Every test restores the process-global freeze policy: the
   suites share one process. *)

open Testutil
module Index = Lsdb_datalog.Index
module Triple = Lsdb_datalog.Triple

let t3 (s, r, t) = Triple.make s r t

let contents idx =
  let acc = ref [] in
  Index.iter (fun tr -> acc := tr :: !acc) idx;
  List.sort Triple.compare !acc

let index_of triples =
  let idx = Index.create () in
  List.iter (fun tr -> ignore (Index.add idx (t3 tr))) triples;
  idx

(* A deterministic pseudo-random graph: no Random state shared with the
   other suites. *)
let lcg = ref 42

let rand n =
  lcg := (!lcg * 1103515245) + 12345;
  (!lcg lsr 7) mod n

let random_triples ~entities ~rels n =
  List.init n (fun _ -> (rand entities, rand rels, rand entities))

let tests =
  [
    test "freeze is content-neutral" (fun () ->
        with_policy Index.Never @@ fun () ->
        let triples = random_triples ~entities:30 ~rels:4 300 in
        let idx = index_of triples in
        let before = contents idx in
        Index.freeze idx;
        Alcotest.(check bool) "same content" true (before = contents idx);
        Alcotest.(check int) "cardinal" (List.length before)
          (Index.cardinal idx);
        let stats = Index.tier_stats idx in
        Alcotest.(check int) "all frozen" (List.length before)
          stats.Index.frozen_live;
        Alcotest.(check int) "no delta" 0
          (stats.Index.delta_live + stats.Index.delta_dead));
    test "remove then re-add across the freeze boundary" (fun () ->
        with_policy Index.Never @@ fun () ->
        let idx = index_of [ (1, 2, 3); (1, 2, 4); (5, 2, 3) ] in
        Index.freeze idx;
        (* Tombstone a frozen triple, resurrect it in place. *)
        Alcotest.(check bool) "removed" true (Index.remove idx (t3 (1, 2, 3)));
        Alcotest.(check bool) "gone" false (Index.mem idx (t3 (1, 2, 3)));
        Alcotest.(check int) "count_s down" 1 (Index.count_s idx 1);
        Alcotest.(check bool) "re-added" true (Index.add idx (t3 (1, 2, 3)));
        Alcotest.(check bool) "back" true (Index.mem idx (t3 (1, 2, 3)));
        Alcotest.(check int) "count_s restored" 2 (Index.count_s idx 1);
        Alcotest.(check bool) "no duplicate" true
          (contents idx = List.map t3 [ (1, 2, 3); (1, 2, 4); (5, 2, 3) ]);
        (* Same dance when the fact is delta-resident at removal time. *)
        ignore (Index.add idx (t3 (7, 2, 3)));
        Alcotest.(check bool) "delta removed" true
          (Index.remove idx (t3 (7, 2, 3)));
        Alcotest.(check bool) "delta re-added" true
          (Index.add idx (t3 (7, 2, 3)));
        Index.freeze idx;
        Alcotest.(check bool) "post-freeze content" true
          (contents idx
          = List.map t3 [ (1, 2, 3); (1, 2, 4); (5, 2, 3); (7, 2, 3) ]));
    test "freeze with a 100%-dead delta" (fun () ->
        with_policy Index.Never @@ fun () ->
        let idx = index_of [ (1, 1, 1); (2, 2, 2) ] in
        Index.freeze idx;
        (* Fill the delta, then kill all of it. *)
        let doomed = [ (3, 3, 3); (4, 4, 4); (5, 5, 5) ] in
        List.iter (fun tr -> ignore (Index.add idx (t3 tr))) doomed;
        List.iter (fun tr -> ignore (Index.remove idx (t3 tr))) doomed;
        Index.freeze idx;
        Alcotest.(check bool) "only survivors" true
          (contents idx = List.map t3 [ (1, 1, 1); (2, 2, 2) ]);
        let stats = Index.tier_stats idx in
        Alcotest.(check int) "tombstones dropped" 0 stats.Index.frozen_dead;
        Alcotest.(check int) "delta empty" 0
          (stats.Index.delta_live + stats.Index.delta_dead);
        (* Degenerate case: everything ever added is dead. *)
        let idx = index_of [ (9, 9, 9) ] in
        ignore (Index.remove idx (t3 (9, 9, 9)));
        Index.freeze idx;
        Alcotest.(check int) "empty index" 0 (Index.cardinal idx);
        Alcotest.(check bool) "empty iteration" true (contents idx = []));
    test "counts are exact on every tier mix" (fun () ->
        with_policy Index.Never @@ fun () ->
        let triples = random_triples ~entities:12 ~rels:3 400 in
        let idx = index_of triples in
        Index.freeze idx;
        (* Tombstone some frozen facts, add fresh delta, kill part of it. *)
        let live = contents idx in
        List.iteri
          (fun i tr -> if i mod 5 = 0 then ignore (Index.remove idx tr))
          live;
        List.iter
          (fun tr -> ignore (Index.add idx (t3 tr)))
          (random_triples ~entities:14 ~rels:3 120);
        List.iteri
          (fun i tr -> if i mod 7 = 0 then ignore (Index.remove idx tr))
          (contents idx);
        let naive ~s ~r ~tgt =
          let n = ref 0 in
          Index.iter
            (fun (tr : Triple.t) ->
              if
                (match s with None -> true | Some v -> v = tr.Triple.s)
                && (match r with None -> true | Some v -> v = tr.Triple.r)
                && match tgt with None -> true | Some v -> v = tr.Triple.t
              then incr n)
            idx;
          !n
        in
        let check_pat s r tgt =
          Alcotest.(check int)
            (Printf.sprintf "count (%s,%s,%s)"
               (match s with Some v -> string_of_int v | None -> "_")
               (match r with Some v -> string_of_int v | None -> "_")
               (match tgt with Some v -> string_of_int v | None -> "_"))
            (naive ~s ~r ~tgt)
            (Index.count idx ~s ~r ~tgt)
        in
        for e = 0 to 13 do
          check_pat (Some e) None None;
          check_pat None None (Some e);
          Alcotest.(check int) "count_s" (naive ~s:(Some e) ~r:None ~tgt:None)
            (Index.count_s idx e);
          Alcotest.(check int) "count_t" (naive ~s:None ~r:None ~tgt:(Some e))
            (Index.count_t idx e);
          for r = 0 to 2 do
            check_pat (Some e) (Some r) None;
            check_pat None (Some r) (Some e)
          done
        done;
        check_pat None None None);
    test "intersect agrees with the naive oracle" (fun () ->
        with_policy Index.Never @@ fun () ->
        let entities = 16 and rels = 3 in
        for round = 1 to 12 do
          lcg := round * 7919;
          let idx = index_of (random_triples ~entities ~rels 250) in
          (* Exercise every tier mix: fully delta, fully frozen, frozen
             with tombstones + live delta on top. *)
          if round mod 3 > 0 then Index.freeze idx;
          if round mod 3 = 2 then begin
            List.iteri
              (fun i tr -> if i mod 4 = 0 then ignore (Index.remove idx tr))
              (contents idx);
            List.iter
              (fun tr -> ignore (Index.add idx (t3 tr)))
              (random_triples ~entities ~rels 80)
          end;
          let naive h1 h2 =
            List.filter
              (fun v ->
                Index.mem idx (Index.hinge_triple h1 v)
                && Index.mem idx (Index.hinge_triple h2 v))
              (List.init entities Fun.id)
          in
          let galloped h1 h2 =
            let acc = ref [] in
            Index.intersect idx h1 h2 (fun v -> acc := v :: !acc);
            List.sort_uniq Int.compare !acc
          in
          let hinges =
            List.concat_map
              (fun e ->
                List.concat_map
                  (fun r ->
                    [ Index.Out { s = e; r }; Index.In { r; t = e } ])
                  (List.init rels Fun.id)
                @ [ Index.Via { s = e; t = (e + 5) mod entities } ])
              (List.init entities Fun.id)
          in
          List.iter
            (fun h1 ->
              List.iter
                (fun h2 ->
                  let got = galloped h1 h2 in
                  Alcotest.(check bool) "intersection matches oracle" true
                    (got = naive h1 h2);
                  (* Exactly once each: sort_uniq must be a no-op. *)
                  let raw = ref 0 in
                  Index.intersect idx h1 h2 (fun _ -> incr raw);
                  Alcotest.(check int) "no duplicate emissions"
                    (List.length got) !raw)
                (List.filteri (fun i _ -> i mod 17 = round mod 17) hinges))
            (List.filteri (fun i _ -> i mod 13 = round mod 13) hinges)
        done);
    test "watermark quiesce freezes and stays content-neutral" (fun () ->
        with_policy Index.Watermark @@ fun () ->
        let idx = Index.create () in
        (* Enough distinct triples to pass the 8,192-triple watermark. *)
        let triples = random_triples ~entities:200 ~rels:4 12_000 in
        List.iter
          (fun tr ->
            ignore (Index.add idx (t3 tr));
            Index.quiesce idx)
          triples;
        let expected =
          List.sort_uniq Triple.compare (List.map t3 triples)
        in
        Alcotest.(check bool) "past the watermark" true (List.length expected > 8_192);
        Alcotest.(check bool) "content intact" true (contents idx = expected);
        Alcotest.(check bool) "watermark fired" true
          ((Index.tier_stats idx).Index.freezes > 0));
    test "bulk_add fast path matches the add loop" (fun () ->
        let triples =
          Array.of_list (random_triples ~entities:25 ~rels:3 600)
        in
        let arr () = Array.map t3 triples in
        let slow, slow_fresh =
          with_policy Index.Never @@ fun () ->
          let idx = Index.create () in
          let fresh = Index.bulk_add idx (arr ()) in
          (contents idx, fresh)
        in
        let fast, fast_fresh =
          with_policy Index.Always @@ fun () ->
          let idx = Index.create () in
          let fresh = Index.bulk_add idx (arr ()) in
          (contents idx, fresh)
        in
        Alcotest.(check bool) "same content" true (slow = fast);
        Alcotest.(check bool) "same fresh list, same order" true
          (slow_fresh = fast_fresh));
    test "bulk_add: ascending, duplicated and unsorted input equal the add loop"
      (fun () ->
        let unsorted = Array.of_list (List.map t3 (random_triples ~entities:40 ~rels:4 900)) in
        let ascending = Array.of_list (List.sort_uniq Triple.compare (Array.to_list unsorted)) in
        let with_dups =
          Array.of_list
            (List.sort Triple.compare (Array.to_list unsorted @ Array.to_list ascending))
        in
        List.iter
          (fun (what, input) ->
            let loop = Index.create () in
            let loop_fresh =
              List.filter (fun x -> Index.add loop x) (Array.to_list input)
            in
            let bulk = Index.create () in
            let bulk_fresh =
              with_policy Index.Always @@ fun () -> Index.bulk_add bulk (Array.copy input)
            in
            Alcotest.(check bool) (what ^ ": same content") true
              (contents loop = contents bulk);
            Alcotest.(check bool) (what ^ ": same fresh list, same order") true
              (loop_fresh = bulk_fresh);
            Alcotest.(check int) (what ^ ": one frozen segment") (Index.cardinal loop)
              (Index.tier_stats bulk).Index.frozen_live)
          [ ("ascending", ascending); ("ascending with duplicates", with_dups);
            ("unsorted", unsorted) ]);
    test "load folds every tier and the input into one segment" (fun () ->
        with_policy Index.Never @@ fun () ->
        let base = random_triples ~entities:30 ~rels:3 400 in
        let idx = index_of base in
        Index.freeze idx;
        let gone = List.filteri (fun i _ -> i mod 5 = 0) base in
        List.iter (fun tr -> ignore (Index.remove idx (t3 tr))) gone;
        let extra = random_triples ~entities:35 ~rels:3 200 in
        List.iter (fun tr -> ignore (Index.add idx (t3 tr))) (List.filteri (fun i _ -> i mod 2 = 0) extra);
        let input = Array.of_list (List.map t3 (extra @ gone)) in
        let expected =
          List.sort_uniq Triple.compare (contents idx @ Array.to_list input)
        in
        Index.load idx input;
        Alcotest.(check bool) "union of the index and the input" true
          (contents idx = expected);
        let stats = Index.tier_stats idx in
        Alcotest.(check int) "all live and frozen" (List.length expected) stats.Index.frozen_live;
        Alcotest.(check int) "no tombstones, no delta" 0
          (stats.Index.frozen_dead + stats.Index.delta_live + stats.Index.delta_dead);
        (* Frozen enumeration ascends. *)
        let listed = ref [] in
        Index.iter (fun x -> listed := x :: !listed) idx;
        Alcotest.(check bool) "ascending enumeration" true (List.rev !listed = expected));
    test "occurrences count every live position once per key" (fun () ->
        with_policy Index.Never @@ fun () ->
        let idx = index_of (random_triples ~entities:20 ~rels:3 300) in
        Index.freeze idx;
        List.iter (fun tr -> ignore (Index.remove idx (t3 tr))) (random_triples ~entities:20 ~rels:3 60);
        List.iter (fun tr -> ignore (Index.add idx (t3 tr))) (random_triples ~entities:25 ~rels:3 80);
        let from_index = Hashtbl.create 64 and naive = Hashtbl.create 64 in
        let bump tbl e n = Hashtbl.replace tbl e (n + Option.value ~default:0 (Hashtbl.find_opt tbl e)) in
        Index.occurrences idx (fun e n ->
            Alcotest.(check bool) "positive" true (n > 0);
            bump from_index e n);
        Index.iter (fun x -> bump naive x.Triple.s 1; bump naive x.Triple.r 1; bump naive x.Triple.t 1) idx;
        let sorted tbl = List.sort compare (Hashtbl.fold (fun e n acc -> (e, n) :: acc) tbl []) in
        Alcotest.(check (list (pair int int))) "per-entity totals" (sorted naive) (sorted from_index));
  ]
