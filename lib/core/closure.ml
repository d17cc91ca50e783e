module D = Lsdb_datalog

exception Diverged = D.Stratum.Diverged

(* Two strata over the store: the inversion stage, then the main rules,
   whose input is everything the stage holds — so stage consequences are
   input facts to the main rules, with their provenance kept in the stage.
   Each stratum owns a packed copy of its input ({!D.Stratum}). *)
type t = {
  store : Store.t;
  stage : D.Stratum.t option;
      (* [None] when computed without staged rules, or when a governor
         trip inside the stage made it the (partial) closure itself *)
  main : D.Stratum.t;
  view : D.Engine.view;  (* the main stratum's index, i.e. the whole closure *)
  mutable staged_rules : D.Rule.t list;
  mutable rules : D.Rule.t list;
  mutable actives : (int, unit) Hashtbl.t option;
  (* Derived facts in derivation order, newest segment first: extensions
     push a segment instead of concatenating (which would be O(closure)
     per insert). Deletion paths leave stale entries behind rather than
     rewriting every segment — readers filter against the provenance
     tables, and the segments are compacted once stale entries outnumber
     live ones. [derived_listed] counts listed entries, stale included. *)
  mutable derived_segments : D.Triple.t list list;
  mutable derived_listed : int;
}

let strata t = match t.stage with Some stage -> [ stage; t.main ] | None -> [ t.main ]
let sum f t = List.fold_left (fun n s -> n + f s) 0 (strata t)
let is_derived t fact =
  D.Stratum.is_derived t.main fact
  || match t.stage with Some stage -> D.Stratum.is_derived stage fact | None -> false

let compute ?(max_facts = 2_000_000) ?pool ?gov ?(staged_rules = []) ~rules
    store =
  let stratum rules base =
    let s = D.Stratum.create ~max_facts base in
    (s, D.Stratum.closure ?pool ?gov rules s)
  in
  let stage, main, derived =
    match staged_rules with
    | [] ->
        let main, derived = stratum rules (Store.view store) in
        (None, main, derived)
    | _ ->
        let stage, stage_derived = stratum staged_rules (Store.view store) in
        if Lsdb_exec.Governor.is_tripped gov then
          (* The budget tripped inside the inversion stratum. Running the
             main stratum now would only trip at its first checkpoint —
             after loading a whole index copy, so a wall deadline would
             lose twice the budget to loads alone. Adopt
             the stage as the partial result instead: it sees every base
             fact plus whatever inversions landed, the cache is flagged
             partial and discarded at the next governor transition, and
             retraction on it stays sound because delete/rederive follows
             recorded provenance, not the rule list. *)
          (None, stage, stage_derived)
        else
          let main, main_derived = stratum rules (D.Stratum.view stage) in
          (Some stage, main, stage_derived @ main_derived)
  in
  {
    store;
    stage;
    main;
    view = D.Stratum.view main;
    staged_rules;
    rules;
    actives = None;
    derived_segments = [ derived ];
    derived_listed = List.length derived;
  }

(* Rebuild the derivation-order record from the provenance tables,
   dropping stale entries. O(listed entries), so it must not run on every
   deletion — see [compact_derived]. *)
let refilter_derived t =
  t.derived_segments <-
    List.filter_map
      (fun seg ->
        match List.filter (is_derived t) seg with [] -> None | seg -> Some seg)
      t.derived_segments;
  t.derived_listed <-
    List.fold_left (fun n seg -> n + List.length seg) 0 t.derived_segments

(* Amortization: only rewrite the segments once stale entries dominate,
   so a retraction's bookkeeping cost is proportional to what it deleted,
   not to the closure's total derived count. *)
let compact_derived t =
  if t.derived_listed > (2 * sum D.Stratum.derived_count t) + 1024 then
    refilter_derived t

let push_derived t facts =
  if facts <> [] then begin
    t.derived_segments <- facts :: t.derived_segments;
    t.derived_listed <- t.derived_listed + List.length facts
  end

let note_active table (triple : D.Triple.t) =
  Hashtbl.replace table triple.s ();
  Hashtbl.replace table triple.r ();
  Hashtbl.replace table triple.t ()

let extend ?pool ?gov t facts =
  let staged =
    match t.stage with
    | Some stage -> D.Stratum.extend ?pool ?gov t.staged_rules stage facts
    | None -> facts
  in
  (* [added] lists what the main stratum did not see before: stage
     consequences new to it and its own derivations, in order. A fact the
     main stratum had derived and the stage now derives changes owner; it
     is not in [added] and its older listing stays live through the
     stage's provenance. *)
  let added = D.Stratum.extend ?pool ?gov t.rules t.main staged in
  push_derived t (List.filter (is_derived t) added);
  compact_derived t;
  (* Extension only adds facts, so the active-entity table grows by the
     entities of [added] instead of being rebuilt over the closure. *)
  Option.iter (fun table -> List.iter (note_active table) added) t.actives;
  added

(* Stage-first delete/rederive: facts the stage loses for good become the
   deletions of the main stratum. The main stratum keeps no provenance
   for stage facts, so its cone never reaches one the stage kept. *)
let retract ?pool ?gov t facts =
  let gone =
    match t.stage with
    | Some stage -> D.Stratum.retract ?pool ?gov t.staged_rules stage facts
    | None -> facts
  in
  ignore (D.Stratum.retract ?pool ?gov t.rules t.main gone : D.Triple.t list);
  t.actives <- None;
  compact_derived t;
  (* Retracted base facts that survived rederivation are derived now and
     were never in the derivation-order record while base. *)
  push_derived t (List.filter (is_derived t) facts);
  t

let support_size t = sum D.Stratum.support_size t

(* Rule-set swap for the cheap rule-toggle paths: the caller has
   established (via {!rule_counts} / {!closed_under}) that the closure's
   content is already exactly what a recompute under the new rule set
   would produce; only future extensions/retractions need the new set. *)
let set_rules t ~staged_rules ~rules =
  t.staged_rules <- staged_rules;
  t.rules <- rules

let closed_under t rules = D.Stratum.closed_under rules t.main
let mem t fact = t.view.v_mem fact
let cardinal t = D.Stratum.cardinal t.main

(* Read from the store, not a shadow counter: an [extend] handed a
   duplicate or a [retract] handed a non-member would drift a counter
   adjusted by [List.length facts]. [Store.cardinal] is O(1). *)
let base_cardinal t = Store.cardinal t.store

let derived t =
  List.concat_map (List.filter (is_derived t)) (List.rev t.derived_segments)

let derived_count t = sum D.Stratum.derived_count t

let provenance t fact =
  List.find_map
    (fun s ->
      Option.map
        (fun { D.Engine.rule; premises } -> (rule, premises))
        (D.Stratum.provenance s fact))
    (List.rev (strata t))

let rounds t = sum D.Stratum.rounds t

let rule_counts t =
  let counts = Hashtbl.create 16 in
  let tally _ ({ rule; _ } : D.Engine.provenance) =
    Hashtbl.replace counts rule
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts rule))
  in
  List.iter (D.Stratum.iter_provenance tally) (strata t);
  Hashtbl.fold (fun rule n acc -> (rule, n) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let iter f t = t.view.v_iter ~s:None ~r:None ~tgt:None f
let to_seq t = t.view.v_seq ()

let match_pattern t (pat : Store.pattern) f =
  t.view.v_iter ~s:pat.s ~r:pat.r ~tgt:pat.t f

let match_list t pat =
  let acc = ref [] in
  match_pattern t pat (fun fact -> acc := fact :: !acc);
  !acc

let count_matches t pat =
  let n = ref 0 in
  match_pattern t pat (fun _ -> incr n);
  !n

(* Exact O(1) selectivity probes: index ranges/postings net of
   tombstones. These back conjunct ordering in Eval.cost and frontier
   selection in Composition. *)
let count_pattern t (pat : Store.pattern) =
  t.view.v_count ~s:pat.s ~r:pat.r ~tgt:pat.t

let out_degree t e = t.view.v_count ~s:(Some e) ~r:None ~tgt:None
let in_degree t e = t.view.v_count ~s:None ~r:None ~tgt:(Some e)

(* Entities of the closure's facts. The main stratum's index holds the
   whole closure, so the table alone answers (and enumerates in index
   order). The cache mutates under read; concurrent readers (parallel
   retraction waves) must force it from a single domain first — see
   [prepare_readers]. *)
let force_actives t =
  match t.actives with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 256 in
      t.view.v_iter ~s:None ~r:None ~tgt:None (note_active table);
      t.actives <- Some table;
      table

let prepare_readers t = ignore (force_actives t)

let entity_active t e =
  Hashtbl.mem (force_actives t) e || Store.entity_active t.store e

let active_entities t = Hashtbl.to_seq_keys (force_actives t)

let tier_stats t =
  List.fold_left
    (fun acc s -> D.Index.sum_stats acc (D.Stratum.tier_stats s))
    D.Index.zero_stats (strata t)

let intersect t h1 h2 emit = D.Stratum.intersect t.main h1 h2 emit
