module Metrics = Lsdb_obs.Metrics
module Trace = Lsdb_obs.Trace
module Governor = Lsdb_exec.Governor

(* Observability handles, registered once at module initialization. *)
let m_goals =
  Metrics.counter ~help:"Demand goals (external pattern/membership demands)"
    "lsdb_demand_goals_total"

let m_cone =
  Metrics.counter ~help:"Cone facts derived by demand evaluation"
    "lsdb_demand_cone_facts_total"

let m_hits =
  Metrics.counter ~help:"Demand goals answered from a memoized cone"
    "lsdb_demand_memo_hits_total"

let m_misses =
  Metrics.counter ~help:"Demand goals that ran a derivation"
    "lsdb_demand_memo_misses_total"

let m_magic =
  Metrics.counter ~help:"Magic predicates (demanded patterns) generated"
    "lsdb_demand_magic_predicates_total"

let m_cone_size =
  Metrics.histogram ~help:"Cone facts derived per demand goal"
    ~buckets:[| 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. |]
    "lsdb_demand_cone_size"

(* The two strata of Lsdb.Closure: staged rules (inversion) close over
   base facts only; main rules over base ∪ stage. *)
type level = Stage | Full

(* A demanded pattern — the magic predicate seeded from a goal's bound
   arguments. Packed into a Triple (with -1 for wildcards; entity ids are
   non-negative) to key the demanded tables. *)
type pat = { ps : int option; pr : int option; pt : int option }

let pack { ps; pr; pt } =
  let d = function Some e -> e | None -> -1 in
  Triple.make (d ps) (d pr) (d pt)

(* [covered tbl p] — is [p] or any generalization of it (a bound position
   relaxed to a wildcard) already demanded? A more general demanded
   pattern's cone contains everything [p]'s would derive. *)
let covered tbl p =
  let opts = function None -> [ None ] | Some _ as x -> [ x; None ] in
  List.exists
    (fun ps ->
      List.exists
        (fun pr ->
          List.exists
            (fun pt -> Triple.Tbl.mem tbl (pack { ps; pr; pt }))
            (opts p.pt))
        (opts p.pr))
    (opts p.ps)

let matches_demanded tbl (triple : Triple.t) =
  covered tbl { ps = Some triple.s; pr = Some triple.r; pt = Some triple.t }

(* A rule specialised by the {e shape} of a demanded pattern: which head
   variables the demand binds. All demands of one shape share the body,
   the sideways-information-passing order (most-bound-first, greedily —
   boundness only depends on the shape) and the delta-index entries; the
   concrete bound values live in [magic], the magic relation proper, as
   one tuple per seed demand. Keeping the seeds as data rather than as
   per-seed activations is what lets a delta join once per rule shape
   (semi-joining [magic]) instead of once per demanded constant. *)
type activation = {
  level : level;
  rule : Rule.t;
  body : Atom.t array;
  magic_vars : int array;  (* variables a seed demand binds, ascending *)
  order : int list;  (* body indices, SIP order *)
  rest_of : int list array;  (* [order] minus position [k], for delta joins *)
  first : int;  (* head of [order]: the atom every seed demands in full *)
  magic : (int array, unit) Hashtbl.t;  (* seed tuples, values at [magic_vars] *)
  (* Postings over [magic]: (tuple position, value) -> seed tuples with
     that value there. A delta that already binds a magic variable scans
     one posting instead of the whole relation — without this the
     magic-side expansion is quadratic in the cone. *)
  magic_idx : (int * int, int array list ref) Hashtbl.t;
}

type stats = {
  goals : int;
  memo_hits : int;
  memo_misses : int;
  magic_patterns : int;
  activations : int;
  base_facts : int;
  stage_cone_facts : int;
  full_cone_facts : int;
  deltas : int;
}

type t = {
  staged_rules : Rule.t array;
  rules : Rule.t array;
  max_facts : int;
  (* The base facts, read through the owner's own index (the store
     already indexes every bound-position combination): creating a
     demand state is O(1), and a cold start pays only for the cone it
     derives. *)
  base : Engine.view;
  stage_cone : Index.t;  (* derived by staged rules; disjoint from base *)
  full_cone : Index.t;  (* derived by main rules; disjoint from the others *)
  stage_demanded : unit Triple.Tbl.t;
  full_demanded : unit Triple.Tbl.t;
  (* Activation classes, keyed by (level, rule index, bound-var shape). *)
  classes : (int * int * int list, activation) Hashtbl.t;
  mutable acts_stage : activation list;
  mutable acts_full : activation list;
  (* Delta dispatch: activation body positions keyed by the atom's
     constants-only pattern (packed, -1 wildcards). A delta triple
     reaches only the positions one of its 8 generalizations keys —
     without this, every delta would be tried against every activation,
     which is quadratic in the cone. *)
  delta_idx_stage : (activation * int) list ref Triple.Tbl.t;
  delta_idx_full : (activation * int) list ref Triple.Tbl.t;
  pending_demands : (level * pat) Queue.t;
  pending_acts : (activation * int array) Queue.t;
  pending_deltas : (level * Triple.t) Queue.t;
  (* Emissions buffered during a join and merged afterwards, so no index
     is ever mutated while one of its postings is being iterated. *)
  mutable out : (level * Triple.t * Engine.provenance) list;
  derivations : Derivations.t;  (* of every cone fact, for delete/rederive *)
  mutable goals : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable magic_patterns : int;
  mutable activations : int;
  mutable deltas : int;
  (* Cooperative governor for the work loop. A trip mid-drain leaves
     demanded patterns marked whose cones are incomplete — [poisoned]
     records that the memo tables can no longer be trusted for
     ungoverned answers; the owner must rebuild the state (the trip is
     sticky, so a governor change is the only path out). *)
  mutable gov : Governor.t option;
  mutable poisoned : bool;
}

exception Diverged of int

let create_shared ?(max_facts = 10_000_000) ~staged_rules ~rules base =
  let st =
    {
      staged_rules = Array.of_list staged_rules;
      rules = Array.of_list rules;
      max_facts;
      base;
      stage_cone = Index.create ();
      full_cone = Index.create ();
      stage_demanded = Triple.Tbl.create 64;
      full_demanded = Triple.Tbl.create 64;
      classes = Hashtbl.create 64;
      acts_stage = [];
      acts_full = [];
      delta_idx_stage = Triple.Tbl.create 256;
      delta_idx_full = Triple.Tbl.create 256;
      pending_demands = Queue.create ();
      pending_acts = Queue.create ();
      pending_deltas = Queue.create ();
      out = [];
      derivations = Derivations.create ();
      goals = 0;
      memo_hits = 0;
      memo_misses = 0;
      magic_patterns = 0;
      activations = 0;
      deltas = 0;
      gov = None;
      poisoned = false;
    }
  in
  st

let table st = function Stage -> st.stage_demanded | Full -> st.full_demanded

let set_governor st gov = st.gov <- gov
let poisoned st = st.poisoned

let cone_cardinal st = Index.cardinal st.stage_cone + Index.cardinal st.full_cone
let total st = st.base.v_cardinal () + cone_cardinal st

(* --- views ----------------------------------------------------------- *)

let view_iter st level ~s ~r ~tgt f =
  st.base.v_iter ~s ~r ~tgt f;
  Index.candidates st.stage_cone ~s ~r ~tgt f;
  if level = Full then Index.candidates st.full_cone ~s ~r ~tgt f

let view_mem st level triple =
  st.base.v_mem triple || Index.mem st.stage_cone triple
  || (level = Full && Index.mem st.full_cone triple)

exception Found

let view_exists st ~s ~r ~tgt =
  try
    view_iter st Full ~s ~r ~tgt (fun _ -> raise Found);
    false
  with Found -> true

(* --- activation creation --------------------------------------------- *)

(* Same fail-fast discipline as Engine: check every decidable guard, defer
   the rest (rules are safe, so all are decidable once the body is bound). *)
let guards_ok binding guards =
  List.for_all
    (fun g -> match Guard.check binding g with Some false -> false | Some true | None -> true)
    guards

let unify_head binding (atom : Atom.t) p =
  let bind term v =
    match v with
    | None -> true
    | Some c -> (
        match term with
        | Term.Const c' -> c' = c
        | Term.Var x ->
            if binding.(x) < 0 then begin
              binding.(x) <- c;
              true
            end
            else binding.(x) = c)
  in
  bind atom.s p.ps && bind atom.r p.pr && bind atom.t p.pt

(* Greedy most-bound-first body order: repeatedly pick the atom with the
   most bound positions under the variables bound so far, then mark its
   variables bound. Ties go to the atom with a bound {e source}, then a
   bound {e relationship}: in this schema a bound source selects an
   entity's out-edges (small — an entity's own facts), while a bound
   target can select in-edges of a class, which membership rules make as
   large as the member population. (E.g. for [syn-intro]'s body
   [(s,gen,t); (t,gen,s)] with [t] demanded, starting at [(t,gen,s)]
   enumerates [t]'s few superclasses; starting at [(s,gen,t)] would
   demand every subclass — and every lifted member — of [t].) *)
let sip_order (rule : Rule.t) binding0 =
  let bound = Array.map (fun v -> v >= 0) binding0 in
  let body = Array.of_list rule.body in
  let term_bound = function
    | Term.Const _ -> 1
    | Term.Var v -> if bound.(v) then 1 else 0
  in
  let var_bound = function Term.Const _ -> 0 | Term.Var v -> if bound.(v) then 1 else 0 in
  let score (atom : Atom.t) =
    let s = term_bound atom.s and r = term_bound atom.r and t = term_bound atom.t in
    (* lexicographic: connected to a bound variable (an atom bound only
       through its rule constants scans that relation's whole extent),
       then total bound, then source, then relationship *)
    let connected =
      min 1 (var_bound atom.s + var_bound atom.r + var_bound atom.t)
    in
    ((((connected * 4) + s + r + t) * 2) + s) * 2 + r
  in
  let remaining = ref (List.init (Array.length body) Fun.id) in
  let order = ref [] in
  while !remaining <> [] do
    let best =
      List.fold_left
        (fun acc i ->
          match acc with
          | None -> Some i
          | Some j -> if score body.(i) > score body.(j) then Some i else acc)
        None !remaining
    in
    let i = Option.get best in
    remaining := List.filter (( <> ) i) !remaining;
    order := i :: !order;
    List.iter (fun v -> bound.(v) <- true) (Atom.vars body.(i))
  done;
  List.rev !order

let enqueue_demand st level p =
  if not (covered (table st level) p) then Queue.add (level, p) st.pending_demands

let level_int = function Stage -> 0 | Full -> 1

let delta_idx st = function
  | Stage -> st.delta_idx_stage
  | Full -> st.delta_idx_full

(* The packed pattern an atom presents to deltas: rule constants stay
   concrete, every variable — seed-bound or not — is a wildcard. *)
let atom_key (atom : Atom.t) =
  let d = function Term.Const c -> c | Term.Var _ -> -1 in
  Triple.make (d atom.s) (d atom.r) (d atom.t)

let index_activation st act =
  let idx = delta_idx st act.level in
  Array.iteri
    (fun k atom ->
      let key = atom_key atom in
      match Triple.Tbl.find_opt idx key with
      | Some cell -> cell := (act, k) :: !cell
      | None -> Triple.Tbl.replace idx key (ref [ (act, k) ]))
    act.body

let class_for st level ri (rule : Rule.t) binding =
  let shape = ref [] in
  for v = Array.length binding - 1 downto 0 do
    if binding.(v) >= 0 then shape := v :: !shape
  done;
  let key = (level_int level, ri, !shape) in
  match Hashtbl.find_opt st.classes key with
  | Some act -> act
  | None ->
      let body = Array.of_list rule.body in
      let order = sip_order rule binding in
      let rest_of = Array.init (Array.length body) (fun k -> List.filter (( <> ) k) order) in
      let act =
        {
          level;
          rule;
          body;
          magic_vars = Array.of_list !shape;
          order;
          rest_of;
          first = List.hd order;
          magic = Hashtbl.create 16;
          magic_idx = Hashtbl.create 16;
        }
      in
      Hashtbl.add st.classes key act;
      (match level with
      | Stage -> st.acts_stage <- act :: st.acts_stage
      | Full -> st.acts_full <- act :: st.acts_full);
      index_activation st act;
      act

let try_activate st level ri (rule : Rule.t) head p =
  let binding = Array.make (max rule.nvars 1) (-1) in
  if unify_head binding head p && guards_ok binding rule.guards then begin
    let act = class_for st level ri rule binding in
    let tuple = Array.map (fun v -> binding.(v)) act.magic_vars in
    if not (Hashtbl.mem act.magic tuple) then begin
      Hashtbl.add act.magic tuple ();
      Array.iteri
        (fun j c ->
          match Hashtbl.find_opt act.magic_idx (j, c) with
          | Some cell -> cell := tuple :: !cell
          | None -> Hashtbl.replace act.magic_idx (j, c) (ref [ tuple ]))
        tuple;
      st.activations <- st.activations + 1;
      Queue.add (act, tuple) st.pending_acts
    end
  end

let process_demand st (level, p) =
  let tbl = table st level in
  if not (covered tbl p) then begin
    Triple.Tbl.replace tbl (pack p) ();
    st.magic_patterns <- st.magic_patterns + 1;
    Metrics.incr m_magic;
    (* A main-level demand implies the same demand at the stage level:
       full joins read the stage cone, so it must be complete for the
       pattern too. *)
    if level = Full then enqueue_demand st Stage p;
    let rules = match level with Stage -> st.staged_rules | Full -> st.rules in
    Array.iteri
      (fun ri (rule : Rule.t) ->
        List.iter (fun head -> try_activate st level ri rule head p) rule.heads)
      rules
  end

(* --- joins ----------------------------------------------------------- *)

let emit st act binding premises =
  Governor.tick st.gov 1;
  List.iter
    (fun head ->
      match Atom.instantiate binding head with
      | None -> ()
      | Some triple ->
          st.out <-
            (act.level, triple, { Engine.rule = act.rule.name; premises = Array.to_list premises })
            :: st.out)
    act.rule.heads

(* Join the body atoms in [todo] over the level's current views. Each
   atom's instantiated pattern is demanded first: base facts matching it
   are already visible, and derived facts its cone produces re-enter the
   join later as deltas — together that makes the join complete without
   evaluating sub-demands recursively mid-iteration. *)
let rec join st act binding premises todo =
  match todo with
  | [] -> if guards_ok binding act.rule.guards then emit st act binding premises
  | i :: rest ->
      let atom = act.body.(i) in
      let s = Term.subst binding atom.s
      and r = Term.subst binding atom.r
      and tgt = Term.subst binding atom.t in
      enqueue_demand st act.level { ps = s; pr = r; pt = tgt };
      view_iter st act.level ~s ~r ~tgt (fun triple ->
          match Atom.match_against binding atom triple with
          | None -> ()
          | Some newly ->
              premises.(i) <- triple;
              if guards_ok binding act.rule.guards then join st act binding premises rest;
              List.iter (fun v -> binding.(v) <- -1) newly)

let dummy = Triple.make (-1) (-1) (-1)

let run_act st (act, tuple) =
  let binding = Array.make (max act.rule.nvars 1) (-1) in
  Array.iteri (fun j v -> binding.(v) <- tuple.(j)) act.magic_vars;
  let premises = Array.make (Array.length act.body) dummy in
  join st act binding premises act.order

let magic_unbound binding act =
  Array.exists (fun v -> binding.(v) < 0) act.magic_vars

(* Does a (possibly partial) binding agree with a seed tuple? *)
let tuple_consistent binding act tuple =
  let n = Array.length act.magic_vars in
  let rec go j =
    j >= n
    ||
    let b = binding.(act.magic_vars.(j)) in
    (b < 0 || b = tuple.(j)) && go (j + 1)
  in
  go 0

(* Delta join with the magic relation as a semi-join partner. As soon as
   every magic variable is bound, one hash probe of [act.magic] settles
   whether any seed demanded this branch, and the rest is the ordinary
   join (issuing the same per-binding sub-demands the seed's own
   evaluation would). While magic variables remain unbound there are two
   ways forward, chosen per atom:

   - {e enumerate the view} and let the later magic probe prune. Sound
     only when the cone is already complete for the atom under every
     seed: true for the SIP-first atom (each seed's evaluation demanded
     it in full, with only the seed's constants bound) and for any atom
     whose instantiated pattern is covered by a demanded pattern.

   - {e expand the consistent seed tuples}, which reduces to the
     per-seed evaluation (demands and all) for exactly the seeds that
     can still match — the fallback that keeps completeness for atoms
     whose facts only seed-specific sub-demands would derive. *)
let rec djoin st act binding premises todo =
  if not (magic_unbound binding act) then begin
    if Hashtbl.mem act.magic (Array.map (fun v -> binding.(v)) act.magic_vars) then
      join st act binding premises todo
  end
  else
    match todo with
    | [] -> ()  (* unreachable: rules are safe, so an empty todo binds all vars *)
    | i :: rest ->
        let atom = act.body.(i) in
        let s = Term.subst binding atom.s
        and r = Term.subst binding atom.r
        and tgt = Term.subst binding atom.t in
        if i = act.first || covered (table st act.level) { ps = s; pr = r; pt = tgt }
        then
          view_iter st act.level ~s ~r ~tgt (fun triple ->
              match Atom.match_against binding atom triple with
              | None -> ()
              | Some newly ->
                  premises.(i) <- triple;
                  if guards_ok binding act.rule.guards then djoin st act binding premises rest;
                  List.iter (fun v -> binding.(v) <- -1) newly)
        else begin
          let expand tuple =
            if tuple_consistent binding act tuple then begin
              let newly = ref [] in
              Array.iteri
                (fun j v ->
                  if binding.(v) < 0 then begin
                    binding.(v) <- tuple.(j);
                    newly := v :: !newly
                  end)
                act.magic_vars;
              if guards_ok binding act.rule.guards then join st act binding premises todo;
              List.iter (fun v -> binding.(v) <- -1) !newly
            end
          in
          (* Probe a posting for some already-bound magic variable; only
             the fully-unbound case has to scan the whole relation. *)
          let bound = ref (-1) in
          Array.iteri
            (fun j v -> if !bound < 0 && binding.(v) >= 0 then bound := j)
            act.magic_vars;
          if !bound < 0 then Hashtbl.iter (fun tuple () -> expand tuple) act.magic
          else
            match
              Hashtbl.find_opt act.magic_idx (!bound, binding.(act.magic_vars.(!bound)))
            with
            | None -> ()
            | Some cell -> List.iter expand !cell
        end

let delta_join_at st act k dtriple =
  let binding = Array.make (max act.rule.nvars 1) (-1) in
  match Atom.match_against binding act.body.(k) dtriple with
  | None -> ()
  | Some _ ->
      let premises = Array.make (Array.length act.body) dummy in
      premises.(k) <- dtriple;
      if guards_ok binding act.rule.guards then
        djoin st act binding premises act.rest_of.(k)

(* A delta can only match body position k if the position's key agrees
   with the delta everywhere the key is concrete — i.e. the key is one of
   the delta's 8 generalizations. Probing those keys replaces the scan
   over every activation of the level. *)
let process_delta st (level, dtriple) =
  st.deltas <- st.deltas + 1;
  let idx = delta_idx st level in
  let probe s r t =
    match Triple.Tbl.find_opt idx (Triple.make s r t) with
    | None -> ()
    | Some cell -> List.iter (fun (act, k) -> delta_join_at st act k dtriple) !cell
  in
  let { Triple.s; r; t } = dtriple in
  probe s r t;
  probe s r (-1);
  probe s (-1) t;
  probe s (-1) (-1);
  probe (-1) r t;
  probe (-1) r (-1);
  probe (-1) (-1) t;
  probe (-1) (-1) (-1)

(* --- merge barrier --------------------------------------------------- *)

let push_delta st level triple = Queue.add (level, triple) st.pending_deltas

let check_diverged st = if total st > st.max_facts then raise (Diverged (total st))

(* Fold one buffered emission into the cones. The demanded-pattern filter
   is what keeps the evaluation goal-directed: a head that matches no
   demanded pattern is dropped — if a later demand covers it, that
   demand's own activations re-derive it from premises still in the
   views. *)
let merge_one st (level, triple, prov) =
  match level with
  | Stage ->
      if
        (not (st.base.v_mem triple))
        && (not (Index.mem st.stage_cone triple))
        && matches_demanded st.stage_demanded triple
      then
        if Index.mem st.full_cone triple then begin
          (* The main stratum derived it first, but it belongs to the
             stage stratum (its derivation used stage-level premises
             only) — move it, making it visible to stage joins. *)
          ignore (Index.remove st.full_cone triple);
          ignore (Index.add st.stage_cone triple);
          Derivations.record st.derivations triple prov;
          push_delta st Stage triple
        end
        else begin
          ignore (Index.add st.stage_cone triple);
          Derivations.record st.derivations triple prov;
          Metrics.incr m_cone;
          check_diverged st;
          Governor.count_facts st.gov 1;
          push_delta st Stage triple;
          push_delta st Full triple
        end
  | Full ->
      if
        (not (st.base.v_mem triple))
        && (not (Index.mem st.stage_cone triple))
        && (not (Index.mem st.full_cone triple))
        && matches_demanded st.full_demanded triple
      then begin
        ignore (Index.add st.full_cone triple);
        Derivations.record st.derivations triple prov;
        Metrics.incr m_cone;
        check_diverged st;
        Governor.count_facts st.gov 1;
        push_delta st Full triple
      end

let merge st =
  let emissions = List.rev st.out in
  st.out <- [];
  List.iter (merge_one st) emissions

(* Work loop: demands create activations; a fresh activation runs its
   full join; a delta triple re-joins against every activation of its
   level. Joins never mutate the indexes (emissions buffer until the
   join's merge), and every queue drains to empty — facts, demanded
   patterns and activations all grow monotonically and are bounded. *)
let drain st =
  let continue = ref true in
  while !continue do
    Governor.tick st.gov 1;
    if not (Queue.is_empty st.pending_demands) then
      process_demand st (Queue.pop st.pending_demands)
    else if not (Queue.is_empty st.pending_acts) then begin
      run_act st (Queue.pop st.pending_acts);
      merge st
    end
    else if not (Queue.is_empty st.pending_deltas) then begin
      process_delta st (Queue.pop st.pending_deltas);
      merge st
    end
    else continue := false
  done

(* Drain under the governor: a trip abandons the remaining queued work
   and poisons the memo tables. The structural phase of the operation
   (base add/remove, over-deletion) has already completed when this runs,
   so the cones are always a subset of the true fixpoint — sound for the
   partial answers the caller surfaces. *)
let drain_governed st =
  (try drain st
   with Governor.Trip _ ->
     st.poisoned <- true;
     Queue.clear st.pending_demands;
     Queue.clear st.pending_acts;
     Queue.clear st.pending_deltas;
     st.out <- []);
  (* The drain loop is single-threaded and buffers emissions between
     joins, so a completed (or abandoned) drain is a quiesce point for
     the cones. *)
  Index.quiesce st.stage_cone;
  Index.quiesce st.full_cone

(* --- the external goal API ------------------------------------------- *)

let pat_string p =
  let part = function Some e -> string_of_int e | None -> "*" in
  Printf.sprintf "(%s,%s,%s)" (part p.ps) (part p.pr) (part p.pt)

(* Make sure the pattern's cone is derived, with goal/memo accounting. *)
let ensure st p =
  st.goals <- st.goals + 1;
  Metrics.incr m_goals;
  if covered st.full_demanded p then begin
    st.memo_hits <- st.memo_hits + 1;
    Metrics.incr m_hits
  end
  else begin
    st.memo_misses <- st.memo_misses + 1;
    Metrics.incr m_misses;
    let before = cone_cardinal st in
    (Trace.span "demand.eval" ~meta:[ ("pattern", pat_string p) ] @@ fun () ->
     enqueue_demand st Full p;
     drain_governed st);
    Metrics.observe m_cone_size (float_of_int (cone_cardinal st - before))
  end

let demand st ~s ~r ~tgt f =
  ensure st { ps = s; pr = r; pt = tgt };
  let acc = ref [] in
  view_iter st Full ~s ~r ~tgt (fun triple -> acc := triple :: !acc);
  List.iter f (List.sort Triple.compare !acc)

let mem st triple =
  ensure st { ps = Some triple.Triple.s; pr = Some triple.r; pt = Some triple.t };
  view_mem st Full triple

let count_hint st ~s ~r ~tgt =
  st.base.v_count ~s ~r ~tgt
  + Index.count st.stage_cone ~s ~r ~tgt
  + Index.count st.full_cone ~s ~r ~tgt

let degree_out st e =
  st.base.v_count ~s:(Some e) ~r:None ~tgt:None
  + Index.count_s st.stage_cone e + Index.count_s st.full_cone e

let degree_in st e =
  st.base.v_count ~s:None ~r:None ~tgt:(Some e)
  + Index.count_t st.stage_cone e + Index.count_t st.full_cone e

let entity_occurs st e =
  ensure st { ps = Some e; pr = None; pt = None };
  ensure st { ps = None; pr = Some e; pt = None };
  ensure st { ps = None; pr = None; pt = Some e };
  view_exists st ~s:(Some e) ~r:None ~tgt:None
  || view_exists st ~s:None ~r:(Some e) ~tgt:None
  || view_exists st ~s:None ~r:None ~tgt:(Some e)

(* --- incremental maintenance ----------------------------------------- *)

let insert st triple =
  (* The caller has already added the fact to the base (and only calls on
     a genuinely new fact), so the pre-insert views are reconstructed from
     the cones alone. *)
  let in_stage_view = Index.mem st.stage_cone triple in
  let in_full_view = in_stage_view || Index.mem st.full_cone triple in
  (* A cone fact asserted as base is demoted: same fact set, but it no
     longer depends on its premises. *)
  if Index.remove st.stage_cone triple then Derivations.forget st.derivations triple;
  if Index.remove st.full_cone triple then Derivations.forget st.derivations triple;
  check_diverged st;
  if not in_stage_view then push_delta st Stage triple;
  if not in_full_view then push_delta st Full triple;
  drain_governed st

let retract st triple =
  (* The caller has already removed the fact from the base (and only
     calls when the removal really happened). *)
  (* Over-delete the cone: every fact whose recorded derivation
     transitively rests on [triple]. Recorded derivations are
     well-founded, so everything outside the cone stays derivable. The
     cone includes [triple] itself, which is in neither cone index and
     has no recorded derivation (base facts never do). *)
  List.iter
    (fun d ->
      ignore (Index.remove st.stage_cone d);
      ignore (Index.remove st.full_cone d);
      Derivations.forget st.derivations d)
    (Derivations.cone st.derivations [ triple ]);
  (* Rederive: re-run every seeded activation so over-deleted survivors
     — and the retracted fact itself, when still derivable — are
     restored. *)
  let requeue act =
    Hashtbl.iter (fun tuple () -> Queue.add (act, tuple) st.pending_acts) act.magic
  in
  List.iter requeue st.acts_stage;
  List.iter requeue st.acts_full;
  drain_governed st

let stats st =
  {
    goals = st.goals;
    memo_hits = st.memo_hits;
    memo_misses = st.memo_misses;
    magic_patterns = st.magic_patterns;
    activations = st.activations;
    base_facts = st.base.v_cardinal ();
    stage_cone_facts = Index.cardinal st.stage_cone;
    full_cone_facts = Index.cardinal st.full_cone;
    deltas = st.deltas;
  }

let tier_stats st =
  Index.sum_stats (Index.tier_stats st.stage_cone) (Index.tier_stats st.full_cone)
