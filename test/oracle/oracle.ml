(* The reference closure the test suites compare the engine against: a
   from-scratch semi-naive fixpoint over one index, with no pool, governor,
   sharding or incremental maintenance. It shares only the rule kernel
   ({!Lsdb_datalog.Engine.round_view}) with the engine, and mirrors the
   engine's stratum round for round, so over a one-shard store the two
   agree byte for byte: derivation order, provenance, rounds. *)

open Lsdb_datalog

type result = {
  index : Index.t;  (* the full closure, base facts included *)
  derived : Triple.t list;  (* derived facts, in derivation order *)
  provenance : Engine.provenance Triple.Tbl.t;
  rounds : int;
}

exception Diverged of int

let closure ?(max_facts = 10_000_000) rules base =
  let index = Index.create () in
  let provenance = Triple.Tbl.create 256 in
  let rules = Array.of_list rules in
  let full = Engine.view_of_index index in
  let derived_rev = ref [] and rounds = ref 0 in
  let delta = ref (Array.of_list (Index.bulk_add index (Array.of_seq base))) in
  while Array.length !delta > 0 do
    incr rounds;
    let emissions = Engine.round_view rules ~full !delta in
    let next_rev = ref [] in
    Array.iteri
      (fun ri (rule : Rule.t) ->
        List.iter
          (fun (triple, premises) ->
            if Index.add index triple then begin
              if Index.cardinal index > max_facts then
                raise (Diverged (Index.cardinal index));
              next_rev := triple :: !next_rev;
              derived_rev := triple :: !derived_rev;
              Triple.Tbl.replace provenance triple
                { Engine.rule = rule.name; premises }
            end)
          emissions.(ri))
      rules;
    delta := Array.of_list (List.rev !next_rev);
    (* The engine quiesces at every round barrier; the freeze point
       decides the next round's probe order, so the reference does too. *)
    Index.quiesce index
  done;
  { index; derived = List.rev !derived_rev; provenance; rounds = !rounds }

(* A database's closure as §3.4's stratification defines it: inversion
   over the stored facts, then the other enabled rules over that. *)
let of_database db =
  let open Lsdb in
  let staged, main =
    List.partition
      (fun (rule : Rule.t) -> String.equal rule.name "inversion")
      (Database.enabled_rules db)
  in
  let compile =
    List.map (Rule.compile ~is_class:(Database.is_class_relationship db))
  in
  let stored = Store.to_seq (Database.store db) in
  match staged with
  | [] -> closure (compile main) stored
  | _ ->
      let stage = closure (compile staged) stored in
      let r = closure (compile main) (Index.to_seq stage.index) in
      Triple.Tbl.iter (Triple.Tbl.replace r.provenance) stage.provenance;
      { r with derived = stage.derived @ r.derived; rounds = stage.rounds + r.rounds }

let facts r = List.of_seq (Index.to_seq r.index)
