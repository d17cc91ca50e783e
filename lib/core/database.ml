module Magic = Lsdb_datalog.Magic
module Governor = Lsdb_exec.Governor

(* Mutations not yet folded into the cached closure, in arrival order.
   Inserts extend, retracts delete/rederive; both are incremental. *)
type op = Insert of Fact.t | Retract of Fact.t

(* How the closure is served to the match/eval/probing layers. [Eager]
   materializes the whole closure ({!Closure.compute}); [Demand] derives
   only the cone each goal touches ({!Lsdb_datalog.Magic}), with the
   eager path retained as the correctness oracle. *)
type closure_mode = Eager | Demand

type t = {
  uid : int;  (* unique per database; hash key for external caches *)
  symtab : Symtab.t;
  store : Store.t;
  relclass : Relclass.t;
  mutable rules : (Rule.t * bool) list;  (* registration order, enabled flag *)
  mutable composition_limit : int;
  max_facts : int;
  mutable closure_cache : Closure.t option;
  mutable pending : op list;  (* reversed: newest first *)
  (* What the cached closure gained since the last clean integrity check,
     one list per extension, newest first, with their total length; [None]
     while no clean check is on record for the cache. *)
  mutable unchecked : (Fact.t list list * int) option;
  mutable closure_mode : closure_mode;
  mutable demand_cache : Magic.t option;  (* demand state; generation-free, kept
                                             in sync via [demand_pending] *)
  mutable demand_pending : op list;  (* reversed: newest first *)
  mutable demand_domain : (int * Entity.t list) option;  (* generation-keyed *)
  mutable computations : int;
  mutable extensions : int;
  mutable retractions : int;
  mutable generation : int;  (* bumped whenever facts/rules/classes change *)
  mutable pool : Lsdb_exec.Pool.t option;  (* domains for closure rounds & probing *)
  mutable governor : Governor.t option;  (* per-query budgets/cancellation *)
  (* The cached closure is a (sound) subset of the true closure: a
     governor tripped while computing or maintaining it. Served as-is for
     the rest of the governed query; discarded at the next governor
     change ({!set_governor}), which also bumps the generation so
     external answer caches filled from it miss. *)
  mutable closure_partial : bool;
}

exception Diverged of int

let axiom_facts =
  [
    Fact.make Entity.inv Entity.inv Entity.inv;  (* ↔ is its own inverse (§3.4) *)
    Fact.make Entity.contra Entity.inv Entity.contra;  (* ⊥ is its own inverse (§3.5) *)
  ]

let next_uid = Atomic.make 0

let create ?(max_facts = 2_000_000) ?(shards = 1) () =
  let t =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      symtab = Symtab.create ();
      store = Store.create ~shards ();
      relclass = Relclass.create ();
      rules = List.map (fun rule -> (rule, true)) Builtin_rules.all;
      composition_limit = 1;
      max_facts;
      closure_cache = None;
      pending = [];
      unchecked = None;
      closure_mode = Eager;
      demand_cache = None;
      demand_pending = [];
      demand_domain = None;
      computations = 0;
      extensions = 0;
      retractions = 0;
      generation = 0;
      pool = None;
      governor = None;
      closure_partial = false;
    }
  in
  List.iter (fun fact -> ignore (Store.add t.store fact)) axiom_facts;
  t

let symtab t = t.symtab
let store t = t.store
let relclass t = t.relclass

let drop_demand t =
  t.demand_cache <- None;
  t.demand_pending <- [];
  t.demand_domain <- None

let drop_cache t =
  t.closure_cache <- None;
  t.pending <- [];
  t.unchecked <- None;
  t.closure_partial <- false

let invalidate t =
  drop_cache t;
  drop_demand t;
  t.generation <- t.generation + 1

let uid t = t.uid
let generation t = t.generation
let shards t = Store.shards t.store

(* Re-partition the heap in place. No cache depends on the shard count:
   the closure's strata own their copies, and the demand evaluator reads
   [Store.view], which follows the new partition. *)
let set_shards t n = Store.reshard t.store (max 1 n)
let set_pool t pool = t.pool <- pool
let pool t = t.pool

let entity t name = Symtab.intern t.symtab name
let find_entity t name = Symtab.find t.symtab name
let entity_name t e = Symtab.name t.symtab e
let entity_count t = Symtab.cardinal t.symtab

let is_class_relationship t e = Relclass.is_class t.relclass e

let insert t fact =
  let added = Store.add t.store fact in
  (* Insertions and removals both maintain the cached closure
     incrementally on next access (semi-naive extension, delete/rederive
     retraction); only rule/class changes that provably alter the
     closure's content invalidate it. *)
  if added then begin
    t.generation <- t.generation + 1;
    if t.closure_cache <> None then t.pending <- Insert fact :: t.pending;
    if t.demand_cache <> None then t.demand_pending <- Insert fact :: t.demand_pending
  end;
  added

let insert_names t s r tgt = insert t (Fact.of_names t.symtab s r tgt)
let insert_all t facts = List.iter (fun fact -> ignore (insert t fact)) facts

(* A bulk load rebuilds the heap's segments, so it is a wholesale change:
   the caches go and the generation moves once. *)
let load t facts =
  Store.load t.store facts;
  invalidate t

let remove t fact =
  let removed = Store.remove t.store fact in
  if removed then begin
    t.generation <- t.generation + 1;
    if t.closure_cache <> None then t.pending <- Retract fact :: t.pending;
    if t.demand_cache <> None then t.demand_pending <- Retract fact :: t.demand_pending
  end;
  removed

let remove_names t s r tgt =
  match (find_entity t s, find_entity t r, find_entity t tgt) with
  | Some s, Some r, Some tgt -> remove t (Fact.make s r tgt)
  | _ -> false

let mem_base t fact = Store.mem t.store fact
let base_cardinal t = Store.cardinal t.store

let rule_enabled t name =
  List.exists (fun ((rule : Rule.t), enabled) -> enabled && String.equal rule.name name) t.rules

let rules t = t.rules
let enabled_rules t = List.filter_map (fun (rule, enabled) -> if enabled then Some rule else None) t.rules

let set_limit t n =
  if n < 1 then invalid_arg "Database.set_limit: limit must be >= 1";
  if n <> t.composition_limit then begin
    t.composition_limit <- n;
    (* The limit changes query-visible composition results, so external
       generation-keyed caches (the answer cache) must miss. *)
    t.generation <- t.generation + 1
  end

let limit t = t.composition_limit

(* Compile the enabled rules against the current relationship
   classification. Inversion is stratified: it applies to stored facts
   only (see Closure.compute). *)
let compiled_rules t =
  let is_class = Relclass.is_class t.relclass in
  let staged, main =
    List.partition
      (fun (rule : Rule.t) -> String.equal rule.name "inversion")
      (enabled_rules t)
  in
  let compile = List.map (Rule.compile ~is_class) in
  (compile staged, compile main)

(* Fold the pending mutations into the cached closure, batching runs of
   same-kind ops: consecutive inserts become one extension, consecutive
   retracts one delete/rederive pass. Order across kinds is preserved —
   an insert after a retract of the same fact must win, and vice versa. *)
let flush_pending t closure =
  let flush kind batch =
    let facts = List.rev batch in
    match kind with
    | `Insert -> (
        t.extensions <- t.extensions + 1;
        let added = Closure.extend ?pool:t.pool ?gov:t.governor closure facts in
        match t.unchecked with
        | Some (batches, n) ->
            let n = n + List.length added in
            (* Past the closure's size a full scan is cheaper. *)
            t.unchecked <-
              (if n > Closure.cardinal closure then None else Some (added :: batches, n))
        | None -> ())
    | `Retract ->
        t.retractions <- t.retractions + 1;
        ignore
          (Closure.retract ?pool:t.pool ?gov:t.governor closure facts)
  in
  let rec go kind batch = function
    | [] -> if batch <> [] then flush kind batch
    | Insert fact :: rest ->
        if kind = `Insert then go `Insert (fact :: batch) rest
        else begin
          if batch <> [] then flush kind batch;
          go `Insert [ fact ] rest
        end
    | Retract fact :: rest ->
        if kind = `Retract then go `Retract (fact :: batch) rest
        else begin
          if batch <> [] then flush kind batch;
          go `Retract [ fact ] rest
        end
  in
  let ops = List.rev t.pending in
  t.pending <- [];
  go `Insert [] ops

(* A governed computation that tripped leaves a sound subset: remember
   that the cache is partial so the next governor change discards it
   (recomputing on every access within the same over-budget query would
   make each one O(closure)). *)
let note_partial t =
  if Governor.is_tripped t.governor then begin
    t.closure_partial <- true;
    t.unchecked <- None
  end

let closure t =
  match t.closure_cache with
  | Some closure when t.pending = [] -> closure
  | Some closure ->
      (try
         flush_pending t closure;
         note_partial t
       with Closure.Diverged n ->
         (* The cache is part-way through the batch; discard it. *)
         drop_cache t;
         raise (Diverged n));
      closure
  | None ->
      let staged_rules, rules = compiled_rules t in
      let closure =
        try
          Closure.compute ~max_facts:t.max_facts ?pool:t.pool ?gov:t.governor
            ~staged_rules ~rules t.store
        with Closure.Diverged n -> raise (Diverged n)
      in
      t.closure_cache <- Some closure;
      t.computations <- t.computations + 1;
      note_partial t;
      closure

(* Every contradiction involves a fact the closure gained since it was
   last found clean: the rules are negation-free, so removals only ever
   take violations away. *)
let unchecked_facts t =
  ignore (closure t : Closure.t);
  Option.map (fun (batches, _) -> List.concat batches) t.unchecked

let note_check t ~clean =
  t.unchecked <-
    (if clean && t.closure_cache <> None && not t.closure_partial then Some ([], 0)
     else None)

(* --- demand-driven closure ------------------------------------------- *)

let set_closure_mode t mode =
  if mode <> t.closure_mode then begin
    t.closure_mode <- mode;
    (* Answer enumeration order can differ between modes (demand answers
       are sorted); external generation-keyed caches must miss. *)
    t.generation <- t.generation + 1
  end

let closure_mode t = t.closure_mode

(* The demand state mirrors the closure cache's lifecycle: built lazily,
   maintained incrementally through the pending ops (applied one at a
   time — Magic.insert extends the demanded cones semi-naively,
   Magic.retract is delete/rederive), dropped on rule/class changes. *)
let demand_state t =
  let m =
    match t.demand_cache with
    | Some m -> m
    | None ->
        let staged_rules, rules = compiled_rules t in
        let m =
          (* The store already indexes every bound-position combination;
             evaluate demand over it directly rather than copying the
             base — cold opens then cost only the demanded cone. *)
          Magic.create_shared ~max_facts:t.max_facts ~staged_rules ~rules
            (Store.view t.store)
        in
        t.demand_cache <- Some m;
        m
  in
  Magic.set_governor m t.governor;
  (match t.demand_pending with
  | [] -> ()
  | pending ->
      t.demand_pending <- [];
      List.iter
        (function Insert fact -> Magic.insert m fact | Retract fact -> Magic.retract m fact)
        (List.rev pending));
  m

let with_demand t f =
  try f (demand_state t)
  with Magic.Diverged n ->
    drop_demand t;
    raise (Diverged n)

let pat_parts (pat : Store.pattern) = (pat.s, pat.r, pat.t)

(* Mode-aware closure accessors: the hot paths (match layer, eval,
   probing, integrity, composition, broadness) go through these. Any
   remaining caller of [closure t] in demand mode transparently forces
   the eager closure — correct everywhere, just not goal-directed. *)

let closure_match t pat f =
  match t.closure_mode with
  | Eager -> Closure.match_pattern (closure t) pat f
  | Demand ->
      let s, r, tgt = pat_parts pat in
      with_demand t (fun m -> Magic.demand m ~s ~r ~tgt f)

let closure_mem t fact =
  match t.closure_mode with
  | Eager -> Closure.mem (closure t) fact
  | Demand -> with_demand t (fun m -> Magic.mem m fact)

(* Selectivity estimate for join planning: eager asks the materialized
   closure; demand counts base + already-derived cone postings without
   deriving anything. A heuristic either way — plans may differ across
   modes, answer sets cannot. *)
let count_hint t pat =
  match t.closure_mode with
  | Eager -> Closure.count_pattern (closure t) pat
  | Demand ->
      let s, r, tgt = pat_parts pat in
      with_demand t (fun m -> Magic.count_hint m ~s ~r ~tgt)

let out_degree_hint t e =
  match t.closure_mode with
  | Eager -> Closure.out_degree (closure t) e
  | Demand -> with_demand t (fun m -> Magic.degree_out m e)

let in_degree_hint t e =
  match t.closure_mode with
  | Eager -> Closure.in_degree (closure t) e
  | Demand -> with_demand t (fun m -> Magic.degree_in m e)

let entity_in_closure t e =
  match t.closure_mode with
  | Eager -> Closure.entity_active (closure t) e
  | Demand ->
      with_demand t (fun m ->
          Store.entity_active t.store e || Magic.entity_occurs m e)

(* --- two-pattern intersection ---------------------------------------- *)

module Index = Lsdb_datalog.Index

let hinge_pattern (h : Index.hinge) =
  match h with
  | Index.Out { s; r } -> Store.pattern ~s ~r ()
  | Index.In { r; t } -> Store.pattern ~r ~t ()
  | Index.Via { s; t } -> Store.pattern ~s ~t ()

let hinge_free (h : Index.hinge) (fact : Fact.t) =
  match h with
  | Index.Out _ -> fact.Lsdb_datalog.Triple.t
  | Index.In _ -> fact.Lsdb_datalog.Triple.s
  | Index.Via _ -> fact.Lsdb_datalog.Triple.r

(* [intersect_join t h1 h2 emit]: every entity filling both hinges'
   free position, once each. An eager closure gallops its index's packed
   postings directly. Demand mode has no packed index: it runs a hash
   semi-join over [closure_match] — enumerate the smaller hinge (by
   {!count_hint}) into a set, probe with the larger — and so issues
   exactly two pattern demands. *)
let intersect_join t h1 h2 emit =
  match t.closure_mode with
  | Eager -> Closure.intersect (closure t) h1 h2 emit
  | Demand ->
      let p1 = hinge_pattern h1 and p2 = hinge_pattern h2 in
      let small_h, small_p, big_h, big_p =
        if count_hint t p1 <= count_hint t p2 then (h1, p1, h2, p2)
        else (h2, p2, h1, p1)
      in
      let seen = Hashtbl.create 64 in
      closure_match t small_p (fun fact ->
          Hashtbl.replace seen (hinge_free small_h fact) ());
      closure_match t big_p (fun fact ->
          let v = hinge_free big_h fact in
          if Hashtbl.mem seen v then begin
            (* Remove before emitting: each entity exactly once. *)
            Hashtbl.remove seen v;
            emit v
          end)

exception Intersect_hit

let intersect_exists t h1 h2 =
  try
    intersect_join t h1 h2 (fun _ -> raise Intersect_hit);
    false
  with Intersect_hit -> true

(* --- tier introspection (shell [.stats]) ------------------------------ *)

(* Non-forcing: report whatever caches exist rather than computing a
   closure just to measure it. *)
let tier_stats t =
  let acc =
    match t.closure_cache with
    | Some c -> Closure.tier_stats c
    | None -> Index.zero_stats
  in
  match t.demand_cache with
  | Some m -> Index.sum_stats acc (Magic.tier_stats m)
  | None -> acc

(* The active domain in demand mode, without forcing the closure: every
   entity of a derived fact is propagated from some base fact or is a
   rule-head constant, so the exact domain is the store's active entities
   plus each enabled head constant that {!entity_in_closure} confirms.
   Memoized per generation — the virtual-facts layer re-forces the
   domain thunk repeatedly. *)
let demand_domain t m =
  match t.demand_domain with
  | Some (g, entities) when g = t.generation -> entities
  | _ ->
      let seen = Hashtbl.create 256 in
      Seq.iter (fun e -> Hashtbl.replace seen e ()) (Store.active_entities t.store);
      let staged_rules, rules = compiled_rules t in
      let add_head_consts (rule : Lsdb_datalog.Rule.t) =
        List.iter
          (fun (atom : Lsdb_datalog.Atom.t) ->
            List.iter
              (function
                | Lsdb_datalog.Term.Const c ->
                    if (not (Hashtbl.mem seen c)) && Magic.entity_occurs m c then
                      Hashtbl.replace seen c ()
                | Lsdb_datalog.Term.Var _ -> ())
              [ atom.s; atom.r; atom.t ])
          rule.heads
      in
      List.iter add_head_consts staged_rules;
      List.iter add_head_consts rules;
      let entities =
        List.sort Entity.compare (Hashtbl.fold (fun e () acc -> e :: acc) seen [])
      in
      t.demand_domain <- Some (t.generation, entities);
      entities

let active_domain t =
  match t.closure_mode with
  | Eager -> Closure.active_entities (closure t)
  | Demand -> with_demand t (fun m -> List.to_seq (demand_domain t m))

let demand_stats t =
  match (t.closure_mode, t.demand_cache) with
  | Demand, _ -> Some (with_demand t Magic.stats)
  | Eager, Some m -> Some (Magic.stats m)
  | Eager, None -> None

(* --- rule and classification changes -------------------------------- *)

(* Rule toggles fall back to a full recompute only when the touched rule
   provably matters to the closure's content; otherwise the cache is kept
   and its compiled rule set swapped for future incremental maintenance.
   Either way the generation is bumped: external caches key query results
   on it, and composition/virtual layers can see the rule list. *)

(* Install (or clear) the per-query governor. Partial state left behind
   by a tripped predecessor is discarded here — this transition is the
   only path out of a sticky trip — and the generation is bumped with it,
   so generation-keyed external caches (match-layer answers)
   filled from the partial closure miss from now on. Untripped
   transitions cost two field writes. *)
let set_governor t gov =
  if t.closure_partial then begin
    drop_cache t;
    t.generation <- t.generation + 1
  end;
  (match t.demand_cache with
  | Some m when Magic.poisoned m ->
      drop_demand t;
      t.generation <- t.generation + 1
  | _ -> ());
  t.governor <- gov;
  match t.demand_cache with
  | Some m -> Magic.set_governor m gov
  | None -> ()

let governor t = t.governor

let governor_tripped t =
  match t.governor with None -> None | Some gov -> Governor.tripped gov

let closure_partial t = t.closure_partial

(* After disabling/removing the enabled rule [name]: the closure content
   is unchanged iff no fact's recorded derivation uses [name] (each such
   fact is then derivable without it, and recorded derivations are
   well-founded). The flush inside [closure t] runs first, so the check
   covers pending mutations too. *)
let after_rule_disabled t name =
  t.generation <- t.generation + 1;
  t.unchecked <- None;
  (* Demand state is cheap to rebuild (nothing is derived until the next
     goal), so any rule toggle just drops it. *)
  drop_demand t;
  match t.closure_cache with
  | None -> ()
  | Some _ -> (
      match (try Some (closure t) with Diverged _ -> None) with
      | Some c when not (List.mem_assoc name (Closure.rule_counts c)) ->
          let staged_rules, rules = compiled_rules t in
          Closure.set_rules c ~staged_rules ~rules
      | _ -> drop_cache t)

(* After enabling [rule]: the closure content is unchanged iff one
   application round of the rule over it yields nothing new. Enabling
   inversion always recomputes — it runs in its own stratum, and a cache
   computed without a stage cannot grow one. *)
let after_rule_enabled t (rule : Rule.t) =
  t.generation <- t.generation + 1;
  t.unchecked <- None;
  drop_demand t;
  match t.closure_cache with
  | None -> ()
  | Some _ ->
      if String.equal rule.name "inversion" then drop_cache t
      else (
        match (try Some (closure t) with Diverged _ -> None) with
        | Some c
          when Closure.closed_under c
                 [ Rule.compile ~is_class:(Relclass.is_class t.relclass) rule ] ->
            let staged_rules, rules = compiled_rules t in
            Closure.set_rules c ~staged_rules ~rules
        | _ -> drop_cache t)

let add_rule t rule =
  let replaced =
    List.exists (fun (existing, _) -> Rule.equal_name existing rule) t.rules
  in
  t.rules <-
    List.filter (fun (existing, _) -> not (Rule.equal_name existing rule)) t.rules
    @ [ (rule, true) ];
  if replaced then invalidate t else after_rule_enabled t rule

let set_enabled t name enabled =
  let found = ref false in
  let toggled = ref None in
  t.rules <-
    List.map
      (fun ((rule : Rule.t), current) ->
        if String.equal rule.name name then begin
          found := true;
          if current <> enabled then toggled := Some rule;
          (rule, enabled)
        end
        else (rule, current))
      t.rules;
  (match !toggled with
  | Some rule -> if enabled then after_rule_enabled t rule else after_rule_disabled t name
  | None -> ());
  !found

let exclude t name = set_enabled t name false
let include_rule t name = set_enabled t name true

let remove_rule t name =
  let was_enabled = rule_enabled t name in
  let before = List.length t.rules in
  t.rules <-
    List.filter (fun ((rule : Rule.t), _) -> not (String.equal rule.name name)) t.rules;
  let removed = List.length t.rules < before in
  (* Removing a disabled rule leaves the enabled set — hence every query
     result — unchanged. *)
  if removed && was_enabled then after_rule_disabled t name;
  removed

(* Reclassifying a relationship entity recompiles nothing (compiled
   guards read the classification live) but can change which derivations
   fire — though only for facts that mention the entity. If the entity is
   inactive in the (flushed) closure, the closure's content cannot
   change; declarations that restate the current classification change
   nothing at all. *)
let reclassify t e ~is_class_now ~declare =
  if Relclass.is_class t.relclass e <> is_class_now then begin
    t.unchecked <- None;
    (* Compiled guards read the classification live, so the demand
       state's past derivations may no longer be justified: rebuild. *)
    drop_demand t;
    (match t.closure_cache with
    | None -> ()
    | Some _ -> (
        match (try Some (closure t) with Diverged _ -> None) with
        | Some c when not (Closure.entity_active c e) -> ()
        | _ -> drop_cache t));
    declare ();
    t.generation <- t.generation + 1
  end

let declare_class_relationship t e =
  reclassify t e ~is_class_now:true ~declare:(fun () ->
      Relclass.declare_class t.relclass e)

let declare_individual_relationship t e =
  reclassify t e ~is_class_now:false ~declare:(fun () ->
      Relclass.declare_individual t.relclass e)

(* Force the closure (folding any pending inserts) and its lazy caches so
   that subsequent evaluation is mutation-free and can fan out across
   domains. *)
let prepare_readers t = Closure.prepare_readers (closure t)

let mem t fact = closure_mem t fact
let closure_computations t = t.computations
let closure_extensions t = t.extensions
let closure_retractions t = t.retractions

let support_size t =
  match t.closure_cache with Some c -> Closure.support_size c | None -> 0

let facts t = Store.to_list t.store

let copy t =
  let fresh =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      symtab = Symtab.create ();
      store = Store.copy t.store;
      relclass = Relclass.copy t.relclass;
      rules = t.rules;
      composition_limit = t.composition_limit;
      max_facts = t.max_facts;
      closure_cache = None;
      pending = [];
      unchecked = None;
      closure_mode = t.closure_mode;
      demand_cache = None;
      demand_pending = [];
      demand_domain = None;
      computations = 0;
      extensions = 0;
      retractions = 0;
      generation = 0;
      pool = t.pool;
      governor = None;
      closure_partial = false;
    }
  in
  (* Re-intern names so the copy owns its symbol table; ids are preserved
     because interning replays in id order. *)
  Symtab.iter (fun id -> ignore (Symtab.intern fresh.symtab (Symtab.name t.symtab id))) t.symtab;
  fresh

