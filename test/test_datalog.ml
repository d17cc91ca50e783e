open Lsdb_datalog
open Testutil

let v i = Term.Var i
let c x = Term.Const x
let atom a b d = Atom.make a b d
let triple = Triple.make

let closure rules base = fst (stratum rules base)

(* Derivations against a plain map model: fact ↦ premises. *)
let derivations_agree ops =
  let d = Derivations.create () in
  let model = Hashtbl.create 16 in
  let fact i = triple i 0 0 in
  let built = ref false in
  let brute_cone roots =
    let cone = Hashtbl.create 16 in
    List.iter (fun r -> Hashtbl.replace cone r ()) roots;
    let grew = ref true in
    while !grew do
      grew := false;
      Hashtbl.iter
        (fun f premises ->
          if (not (Hashtbl.mem cone f)) && List.exists (Hashtbl.mem cone) premises
          then begin
            Hashtbl.replace cone f ();
            grew := true
          end)
        model
    done;
    List.sort Triple.compare (Hashtbl.fold (fun f () acc -> f :: acc) cone [])
  in
  let edges () =
    Hashtbl.fold
      (fun _ premises n -> n + List.length (List.sort_uniq Triple.compare premises))
      model 0
  in
  let ok = ref true in
  List.iter
    (fun (kind, i, ps) ->
      let f = fact i and premises = List.map fact ps in
      if kind <= 5 then begin
        Derivations.record d f { Engine.rule = "r"; premises };
        Hashtbl.replace model f premises
      end
      else if kind <= 7 then begin
        Derivations.forget d f;
        Hashtbl.remove model f
      end
      else begin
        built := true;
        if Derivations.cone d [ f ] <> brute_cone [ f ] then ok := false
      end;
      if !built && Derivations.support_size d <> edges () then ok := false)
    ops;
  !ok
  && Derivations.length d = Hashtbl.length model
  && Hashtbl.fold
       (fun f premises acc ->
         acc
         && Derivations.mem d f
         && Option.map (fun (p : Engine.provenance) -> p.premises) (Derivations.find d f)
            = Some premises)
       model true
  && List.for_all
       (fun roots -> Derivations.cone d roots = brute_cone roots)
       [ []; [ fact 0 ]; [ fact 1; fact 2 ]; List.init 12 fact ]
  && Derivations.support_size d = edges ()

let tests =
  [
    test "rule safety: head variable must occur in body" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Rule.make ~name:"bad"
                  ~body:[ atom (v 0) (c 1) (v 1) ]
                  ~heads:[ atom (v 0) (c 1) (v 2) ]
                  ());
             false
           with Rule.Unsafe _ -> true));
    test "rule safety: empty body/head rejected" (fun () ->
        Alcotest.(check bool) "empty head" true
          (try
             ignore (Rule.make ~name:"nohead" ~body:[ atom (v 0) (c 1) (v 1) ] ~heads:[] ());
             false
           with Rule.Unsafe _ -> true));
    test "transitive closure via one rule" (fun () ->
        (* edge(x,y) ∧ edge(y,z) ⇒ edge(x,z), over a 5-chain *)
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:[ atom (v 0) (c edge) (v 1); atom (v 1) (c edge) (v 2) ]
            ~heads:[ atom (v 0) (c edge) (v 2) ]
            ()
        in
        let base = List.init 4 (fun i -> triple (100 + i) edge (101 + i)) in
        let result = closure [ rule ] base in
        (* 5 nodes in a chain: all ordered pairs = 4+3+2+1 = 10 edges *)
        Alcotest.(check int) "closure size" 10 (Stratum.cardinal result);
        Alcotest.(check bool) "end-to-end edge" true
          (Stratum.mem result (triple 100 edge 104)));
    test "guards restrict derivations" (fun () ->
        let rel = 7 and blessed = 8 in
        let rule =
          Rule.make ~name:"guarded"
            ~body:[ atom (v 0) (v 1) (v 2) ]
            ~guards:[ Guard.Holds ("blessed", (fun r -> r = blessed), v 1) ]
            ~heads:[ atom (v 2) (v 1) (v 0) ]
            ()
        in
        let result = closure [ rule ] [ triple 1 rel 2; triple 1 blessed 2 ] in
        Alcotest.(check bool) "blessed flipped" true (Stratum.mem result (triple 2 blessed 1));
        Alcotest.(check bool) "unblessed not flipped" false
          (Stratum.mem result (triple 2 rel 1)));
    test "distinct guard" (fun () ->
        let rel = 7 in
        let rule =
          Rule.make ~name:"nonrefl"
            ~body:[ atom (v 0) (c rel) (v 1) ]
            ~guards:[ Guard.Distinct (v 0, v 1) ]
            ~heads:[ atom (v 1) (c rel) (v 0) ]
            ()
        in
        let result = closure [ rule ] [ triple 1 rel 1; triple 1 rel 2 ] in
        Alcotest.(check bool) "symmetric pair" true (Stratum.mem result (triple 2 rel 1));
        Alcotest.(check int) "reflexive not duplicated" 3 (Stratum.cardinal result));
    test "provenance records rule and premises" (fun () ->
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:[ atom (v 0) (c edge) (v 1); atom (v 1) (c edge) (v 2) ]
            ~heads:[ atom (v 0) (c edge) (v 2) ]
            ()
        in
        let result = closure [ rule ] [ triple 1 edge 2; triple 2 edge 3 ] in
        match Stratum.provenance result (triple 1 edge 3) with
        | None -> Alcotest.fail "no provenance"
        | Some { Engine.rule = name; premises } ->
            Alcotest.(check string) "rule name" "trans" name;
            Alcotest.(check int) "two premises" 2 (List.length premises);
            Alcotest.(check bool) "premises are the base facts" true
              (List.sort Triple.compare premises
              = [ triple 1 edge 2; triple 2 edge 3 ]));
    test "multi-head rules derive all heads" (fun () ->
        let rel = 7 and left = 8 and right = 9 in
        let rule =
          Rule.make ~name:"both"
            ~body:[ atom (v 0) (c rel) (v 1) ]
            ~heads:[ atom (v 0) (c left) (v 1); atom (v 1) (c right) (v 0) ]
            ()
        in
        let result = closure [ rule ] [ triple 1 rel 2 ] in
        Alcotest.(check bool) "left" true (Stratum.mem result (triple 1 left 2));
        Alcotest.(check bool) "right" true (Stratum.mem result (triple 2 right 1)));
    test "diverging rule set trips max_facts" (fun () ->
        (* succ(x,y) ⇒ succ(y, y) is bounded, so use a pairing explosion:
           p(x,y) ∧ p(y,z) ⇒ p(x,z) over a dense graph stays bounded too;
           instead make fresh facts via two relations ping/pong alternating
           on an unbounded counter — impossible in pure Datalog (finite
           Herbrand base), so divergence must come from max_facts being
           smaller than the genuine closure. *)
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:[ atom (v 0) (c edge) (v 1); atom (v 1) (c edge) (v 2) ]
            ~heads:[ atom (v 0) (c edge) (v 2) ]
            ()
        in
        let base = List.init 50 (fun i -> triple i edge (i + 1)) in
        Alcotest.(check bool) "raises Diverged" true
          (try
             ignore (stratum ~max_facts:100 [ rule ] base);
             false
           with Stratum.Diverged _ -> true));
    test "rounds reach fixpoint logarithmically for transitive chains" (fun () ->
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:[ atom (v 0) (c edge) (v 1); atom (v 1) (c edge) (v 2) ]
            ~heads:[ atom (v 0) (c edge) (v 2) ]
            ()
        in
        let base = List.init 16 (fun i -> triple i edge (i + 1)) in
        let result = closure [ rule ] base in
        Alcotest.(check int) "full closure" (17 * 16 / 2) (Stratum.cardinal result);
        Alcotest.(check bool) "few rounds" true (Stratum.rounds result <= 8));
    test "duplicate base facts are collapsed" (fun () ->
        let result, derived = stratum [] [ triple 1 2 3; triple 1 2 3 ] in
        Alcotest.(check int) "one fact" 1 (Stratum.cardinal result);
        Alcotest.(check int) "no derived" 0 (List.length derived));
    test "step derives one round without fixpoint" (fun () ->
        let edge = 7 in
        let rule =
          Rule.make ~name:"trans"
            ~body:[ atom (v 0) (c edge) (v 1); atom (v 1) (c edge) (v 2) ]
            ~heads:[ atom (v 0) (c edge) (v 2) ]
            ()
        in
        let index = Index.create () in
        List.iter (fun t -> ignore (Index.add index t))
          [ triple 1 edge 2; triple 2 edge 3; triple 3 edge 4 ];
        let derived =
          Engine.round_view [| rule |] ~full:(Engine.view_of_index index)
            (Array.of_seq (Index.to_seq index))
          |> Array.to_list |> List.concat |> List.map fst
        in
        (* One round: (1,3) and (2,4), but not (1,4). *)
        Alcotest.(check int) "two new" 2
          (List.length (List.sort_uniq Triple.compare derived));
        Alcotest.(check bool) "(1,4) needs two rounds" false
          (List.mem (triple 1 edge 4) derived));
    test "index candidate patterns" (fun () ->
        let index = Index.create () in
        List.iter (fun t -> ignore (Index.add index t))
          [ triple 1 2 3; triple 1 2 4; triple 5 2 3 ];
        let count ~s ~r ~tgt =
          let n = ref 0 in
          Index.candidates index ~s ~r ~tgt (fun _ -> incr n);
          !n
        in
        Alcotest.(check int) "sr" 2 (count ~s:(Some 1) ~r:(Some 2) ~tgt:None);
        Alcotest.(check int) "rt" 2 (count ~s:None ~r:(Some 2) ~tgt:(Some 3));
        Alcotest.(check int) "st" 1 (count ~s:(Some 1) ~r:None ~tgt:(Some 3));
        Alcotest.(check int) "point" 1 (count ~s:(Some 1) ~r:(Some 2) ~tgt:(Some 3));
        Alcotest.(check int) "all" 3 (count ~s:None ~r:None ~tgt:None));
    test "a governor trip mid-load keeps a sound prefix of the input" (fun () ->
        (* Regression: the load loop counted a fact before the checkpoint
           that tripped on it but never stored it, so the array it
           bulk-loaded kept a placeholder (0,0,0) slot as an input fact. *)
        let edge = 7 in
        let base = List.init 3000 (fun i -> triple (i + 1) edge (i + 2)) in
        let gov = Lsdb_exec.Governor.create () in
        Lsdb_exec.Governor.cancel gov;
        let result, derived = stratum ~gov [] base in
        Alcotest.(check bool) "tripped" true (Lsdb_exec.Governor.is_tripped (Some gov));
        Alcotest.(check int) "nothing derived" 0 (List.length derived);
        Alcotest.(check bool) "a strict prefix was loaded" true
          (Stratum.cardinal result < List.length base);
        Alcotest.(check bool) "no placeholder fact" false
          (Stratum.mem result (triple 0 0 0)));
    qcheck "derivations: cone and support size agree with a map model"
      QCheck.(
        small_list (triple (int_bound 9) (int_bound 11) (small_list (int_bound 11))))
      derivations_agree;
    test "derivations: support size after record, replacing record and forget"
      (fun () ->
        let d = Derivations.create () in
        let f i = triple i 0 0 in
        let record fact premises =
          Derivations.record d fact { Engine.rule = "r"; premises }
        in
        record (f 1) [ f 10; f 11 ];
        Alcotest.(check int) "not built before the first cone" 0
          (Derivations.support_size d);
        Alcotest.(check (list (of_pp Triple.pp))) "cone of a premise"
          [ f 1; f 10 ] (Derivations.cone d [ f 10 ]);
        Alcotest.(check int) "built" 2 (Derivations.support_size d);
        record (f 2) [ f 10 ];
        Alcotest.(check int) "record" 3 (Derivations.support_size d);
        record (f 1) [ f 12; f 12 ];
        Alcotest.(check int) "replacing record, repeated premise" 2
          (Derivations.support_size d);
        Alcotest.(check (list (of_pp Triple.pp))) "old premise no longer reaches it"
          [ f 2; f 10 ] (Derivations.cone d [ f 10 ]);
        Derivations.forget d (f 2);
        Alcotest.(check int) "forget" 1 (Derivations.support_size d);
        Derivations.forget d (f 3);
        Alcotest.(check int) "forgetting an unrecorded fact" 1
          (Derivations.support_size d);
        Derivations.forget d (f 1);
        Alcotest.(check int) "empty" 0 (Derivations.support_size d));
  ]
