type conflict = Contradictory of Fact.t | Math

type violation = { fact : Fact.t; conflict : conflict }

(* A closure fact (r,⊥,r') makes facts related by r and also by r' clash.
   ⊥ is symmetric (axiom (⊥,↔,⊥) + inversion), so each unordered pair is
   reported once, from its r ≤ r' side. The clash may be virtual. *)
let contra_pair (c : Fact.t) = c.s <= c.t && not (Entity.equal c.s Entity.contra)

let clash db ~r' (fact : Fact.t) emit =
  let clash = Fact.make fact.s r' fact.t in
  if
    Database.closure_mem db clash
    || Virtual_facts.holds (Database.symtab db) fact.s r' fact.t = Some true
  then emit { fact; conflict = Contradictory clash }

(* Every clash under the contradiction fact [c]: a scan of r's extent. *)
let extent_clashes db (c : Fact.t) emit =
  if contra_pair c then
    Database.closure_match db (Store.pattern ~r:c.s ()) (fun fact ->
        clash db ~r':c.t fact emit)

(* Oracle refutations: stored or derived facts the mathematics denies. *)
let refuted db (fact : Fact.t) emit =
  if Virtual_facts.holds (Database.symtab db) fact.s fact.r fact.t = Some false then
    emit { fact; conflict = Math }

(* Every contradiction, over the whole closure. The mode-aware
   accessors keep this goal-directed under demand: only the ⊥ extent, the
   extents of relationships actually declared contradictory, and the
   candidate clash memberships are derived. *)
let full_scan db emit =
  Database.closure_match db (Store.pattern ~r:Entity.contra ()) (fun c ->
      extent_clashes db c emit);
  match Database.closure_mode db with
  | Database.Eager -> Closure.iter (fun fact -> refuted db fact emit) (Database.closure db)
  | Database.Demand ->
      (* [Virtual_facts.holds] refutes only comparator relationships (the
         ⊑/Δ/∇ branch answers [Some true] or [None]), so demanding the six
         comparator extents covers every possible Math violation without
         materializing the closure. *)
      List.iter
        (fun cmp ->
          Database.closure_match db (Store.pattern ~r:cmp ()) (fun fact ->
              refuted db fact emit))
        [ Entity.lt; Entity.gt; Entity.eq; Entity.neq; Entity.le; Entity.ge ]

(* The contradictions that involve one of [added] — every one the closure
   can have gained since it was last clean ({!Database.unchecked_facts}).
   An added fact is refuted, or a new ⊥ fact whose extents clash, or one
   side of a clash under some (r,⊥,r'): as the r side, or as the r' side
   against a closure fact on the r side. *)
let added_scan db added emit =
  List.iter
    (fun (fact : Fact.t) ->
      if Database.closure_mem db fact then begin
        refuted db fact emit;
        if Entity.equal fact.r Entity.contra then extent_clashes db fact emit;
        Database.closure_match db (Store.pattern ~s:fact.r ~r:Entity.contra ()) (fun c ->
            if contra_pair c then clash db ~r':c.t fact emit);
        Database.closure_match db (Store.pattern ~r:Entity.contra ~t:fact.r ()) (fun c ->
            let other = Fact.make fact.s c.s fact.t in
            if contra_pair c && Database.closure_mem db other then
              emit { fact = other; conflict = Contradictory fact })
      end)
    added

let violations db =
  let out = ref [] in
  let emit v = out := v :: !out in
  (match Database.closure_mode db with
  | Database.Demand -> full_scan db emit
  | Database.Eager -> (
      match Database.unchecked_facts db with
      | Some added -> added_scan db added emit
      | None -> full_scan db emit));
  (* One canonical order for every path: by fact, then conflict. *)
  let vs = List.sort_uniq compare !out in
  if Database.closure_mode db = Database.Eager then Database.note_check db ~clean:(vs = []);
  vs

let is_valid db = violations db = []

let insert_checked db fact =
  if Database.mem_base db fact then Ok false
  else begin
    ignore (Database.insert db fact);
    match violations db with
    | [] -> Ok true
    | vs ->
        ignore (Database.remove db fact);
        Error vs
  end

let add_rule_checked db rule =
  let shadowed =
    List.find_opt (fun (existing, _) -> Rule.equal_name existing rule) (Database.rules db)
  in
  Database.add_rule db rule;
  match violations db with
  | [] -> Ok ()
  | vs ->
      ignore (Database.remove_rule db rule.Rule.name);
      (match shadowed with
      | Some (old_rule, enabled) ->
          Database.add_rule db old_rule;
          if not enabled then ignore (Database.exclude db old_rule.Rule.name)
      | None -> ());
      Error vs

let describe db violation =
  let symtab = Database.symtab db in
  match violation.conflict with
  | Contradictory clash ->
      Printf.sprintf "%s contradicts %s"
        (Fact.to_string symtab violation.fact)
        (Fact.to_string symtab clash)
  | Math ->
      Printf.sprintf "%s is refuted by the mathematical facts"
        (Fact.to_string symtab violation.fact)
