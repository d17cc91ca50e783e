module Metrics = Lsdb_obs.Metrics
module Pool = Lsdb_exec.Pool
module Governor = Lsdb_exec.Governor

let separator = "\xc2\xb7" (* "·" *)

let contains_separator name =
  let sep0 = separator.[0] and sep1 = separator.[1] in
  let n = String.length name in
  let rec scan i = i + 1 < n && ((name.[i] = sep0 && name.[i + 1] = sep1) || scan (i + 1)) in
  scan 0

let compose_name symtab rels =
  match rels with
  | [] | [ _ ] -> invalid_arg "Composition.compose_name: need at least two relationships"
  | _ ->
      let name = String.concat separator (List.map (Symtab.name symtab) rels) in
      Symtab.intern symtab name

(* Decomposition verdicts are memoized in the symbol table
   (generation-safely: failures are retried once new names intern). *)
let decompose symtab e = Symtab.decompose symtab ~sep:separator e

let is_composed symtab e = contains_separator (Symtab.name symtab e)

type path = { source : Entity.t; chain : Entity.t list; target : Entity.t }

(* Only ordinary relationships compose: specials (⊑, ∈, comparators, …)
   and already-composed entities are excluded from chains. *)
let composable symtab r = (not (Entity.is_special r)) && not (is_composed symtab r)

exception Enough

(* Per-fact governor ticks batch through a plain local counter, flushed
   every 256 units: two atomic RMWs per enumerated fact cost more than
   the visit itself on hot DFS walks (B19 gates the governed overhead
   under 5%). [flush] must be called inside the same handler that
   catches the per-fact [Trip]s — it can raise one. *)
let ticker gov =
  let pending = ref 0 in
  let bump n =
    pending := !pending + n;
    if !pending >= 256 then begin
      let n = !pending in
      pending := 0;
      Governor.tick gov n
    end
  and flush () =
    if !pending > 0 then begin
      let n = !pending in
      pending := 0;
      Governor.tick gov n
    end
  in
  (bump, flush)

(* The original unidirectional DFS, retained verbatim as the oracle the
   bidirectional search must reproduce byte-for-byte (same paths, same
   order, same truncation point). Also the fallback when the chain bound
   exceeds the distance-bitmask width. *)
let dfs_paths ?(max_paths = 10_000) db ~src ~tgt =
  let limit = Database.limit db in
  if limit < 2 || Entity.equal src tgt then ([], false)
  else begin
    let symtab = Database.symtab db in
    let gov = Database.governor db in
    let bump, flush_ticks = ticker gov in
    let found = ref [] in
    let count = ref 0 in
    let rec dfs node chain_rev depth =
      if depth < limit then
        Database.closure_match db (Store.pattern ~s:node ()) (fun fact ->
            bump 1;
            if composable symtab fact.r then begin
              let chain_rev' = fact.r :: chain_rev in
              if Entity.equal fact.t tgt && depth + 1 >= 2 then begin
                found := { source = src; chain = List.rev chain_rev'; target = tgt } :: !found;
                incr count;
                if !count >= max_paths then raise Enough
              end;
              dfs fact.t chain_rev' (depth + 1)
            end)
    in
    (* A governor trip reads as truncation: the paths found so far are
       each genuine chains, the search just stopped early. *)
    let truncated =
      try
        dfs src [] 0;
        flush_ticks ();
        false
      with Enough | Governor.Trip _ -> true
    in
    (List.rev !found, truncated)
  end

let paths_dfs ?max_paths db ~src ~tgt = fst (dfs_paths ?max_paths db ~src ~tgt)

(* ------------------------------------------------------------------ *)
(* Bidirectional meet-in-the-middle search                            *)
(* ------------------------------------------------------------------ *)

type search = {
  paths : path list;
  truncated : bool;
  meet_nodes : int;
  forward_expansions : int;
  backward_expansions : int;
}

let m_searches =
  Metrics.counter ~help:"Two-endpoint composition path searches"
    "lsdb_composition_searches_total"

let m_truncated =
  Metrics.counter ~help:"Path searches cut short by the max_paths cap"
    "lsdb_composition_truncated_total"

let m_paths_total =
  Metrics.counter ~help:"Composition paths enumerated" "lsdb_composition_paths_total"

let m_meet_nodes =
  Metrics.counter ~help:"Nodes where the forward and backward frontiers met"
    "lsdb_composition_meet_nodes_total"

let m_empty_meets =
  Metrics.counter ~help:"Searches answered empty at the frontier join"
    "lsdb_composition_empty_meets_total"

let expansion_counter direction =
  Metrics.counter ~help:"Frontier expansions by direction"
    ~labels:[ ("direction", direction) ]
    "lsdb_composition_expansions_total"

let m_expand_forward = expansion_counter "forward"
let m_expand_backward = expansion_counter "backward"

(* Per-depth frontier population; the depth label is capped so the metric
   cardinality stays bounded for large limits. *)
let frontier_nodes_counter direction depth =
  Metrics.counter ~help:"Frontier nodes expanded, by direction and depth"
    ~labels:
      [
        ("direction", direction);
        ("depth", (if depth > 8 then "8+" else string_of_int depth));
      ]
    "lsdb_composition_frontier_nodes_total"

(* Buckets are node counts, not seconds: frontier population per expansion. *)
let frontier_size_histogram direction =
  Metrics.histogram ~help:"Frontier size per expansion (nodes)"
    ~labels:[ ("direction", direction) ]
    ~buckets:[| 1.; 4.; 16.; 64.; 256.; 1024.; 4096.; 16384. |]
    "lsdb_composition_frontier_size"

let m_frontier_forward = frontier_size_histogram "forward"
let m_frontier_backward = frontier_size_histogram "backward"

let m_search_seconds =
  Metrics.histogram ~help:"Two-endpoint path search latency"
    "lsdb_composition_search_seconds"

(* Exact distances are kept as bitmasks (bit i ⇔ some path of length
   exactly i), so the bound must fit an int. Beyond it, fall back to the
   oracle — such limits are far past the paper's interactive range. *)
let bitmask_limit = 60

(* Frontier state for one direction: the nodes at exact distance [depth],
   and for every node ever reached, the set of exact distances at which
   it was reached (no visited-pruning: the DFS follows non-simple paths,
   so a node legitimately has several exact distances). *)
type frontier = {
  mutable level : Entity.t list;
  mutable depth : int;
  mutable exhausted : bool;  (* an expansion returned no nodes: masks complete *)
  masks : (Entity.t, int) Hashtbl.t;  (* node ↦ bitmask of exact distances *)
}

let add_distance masks node depth =
  let prev = Option.value ~default:0 (Hashtbl.find_opt masks node) in
  Hashtbl.replace masks node (prev lor (1 lsl depth))

(* Any bit of [m] set within [lo..hi]? ([lo] is clamped at 0.) *)
let has_bits m ~lo ~hi =
  let lo = max lo 0 in
  hi >= lo && m land (((1 lsl (hi - lo + 1)) - 1) lsl lo) <> 0

(* ∃ i ∈ fm, j ∈ bm with 2 ≤ i + j ≤ limit? *)
let masks_compatible ~limit fm bm =
  let rec go j =
    j <= limit
    && ((bm land (1 lsl j) <> 0 && has_bits fm ~lo:(2 - j) ~hi:(limit - j)) || go (j + 1))
  in
  go 0

let neighbors db symtab ~forward node =
  let pat =
    if forward then Store.pattern ~s:node () else Store.pattern ~t:node ()
  in
  let acc = ref [] in
  Database.closure_match db pat (fun fact ->
      if composable symtab fact.r then
        acc := (if forward then fact.t else fact.s) :: !acc);
  List.rev !acc

(* Below this frontier population the domain fan-out costs more than the
   expansion itself. *)
let parallel_threshold = 64

(* [f] over [nodes], a read-only fan-out: sharded across the domain pool
   when the list is long enough, results in input order either way
   (Pool.map is deterministic). *)
let map_nodes db f nodes =
  match Database.pool db with
  | Some pool
    when List.length nodes >= parallel_threshold
         && Database.closure_mode db = Database.Eager ->
      (* Demand mode stays sequential: goal evaluation mutates the
         demand state, which is single-threaded by design. *)
      Database.prepare_readers db;
      Pool.map pool f nodes
  | _ -> List.map f nodes

(* One BFS level: the deduplicated successors (forward) or predecessors
   (backward) of [nodes]. The sequential dedup keeps first-seen order, so
   the next level is byte-identical at any pool size. *)
let expand_level db symtab ~forward nodes =
  let per_node = map_nodes db (neighbors db symtab ~forward) nodes in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (List.iter (fun v ->
         if not (Hashtbl.mem seen v) then begin
           Hashtbl.add seen v ();
           out := v :: !out
         end))
    per_node;
  List.rev !out

exception Linked

(* A backward step taken from the forward side: the [candidates] with a
   composable edge into [level], in candidate order — the same set as
   [candidates] ∩ [expand_level ~forward:false level], read from the
   candidates' out-postings instead of the level's in-postings. *)
let probe_level db symtab level candidates =
  let targets = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace targets u ()) level;
  let linked v =
    try
      Database.closure_match db (Store.pattern ~s:v ()) (fun fact ->
          if Hashtbl.mem targets fact.t && composable symtab fact.r then raise Linked);
      None
    with Linked -> Some v
  in
  List.filter_map Fun.id (map_nodes db linked candidates)

(* O(1) per node: the posting-list length the next expansion would walk. *)
let frontier_cost db ~forward nodes =
  List.fold_left
    (fun acc v ->
      acc
      + (if forward then Database.out_degree_hint db v else Database.in_degree_hint db v))
    0 nodes

let empty_search =
  {
    paths = [];
    truncated = false;
    meet_nodes = 0;
    forward_expansions = 0;
    backward_expansions = 0;
  }

(* The bidirectional two-endpoint search. Three phases:

   1. Grow exact-distance BFS levels from both endpoints — forward over
      by_s postings, backward over by_t postings — always expanding the
      side whose next level is cheaper (O(1) degree sums), until the
      radii cover the chain bound or a side exhausts.
   2. Join: a path of length L ≤ limit exists iff some node carries a
      forward distance i and a backward distance j with 2 ≤ i+j ≤ limit.
      No meet ⇒ answer [] without ever enumerating a chain.
   3. Reconstruct with the original DFS, pruned by the backward masks:
      recurse into a child only if it still has a completion to [tgt]
      within the remaining budget. Pruned subtrees emit nothing, so the
      emission sequence — and hence the max_paths truncation point — is
      byte-identical to the oracle.

   Before phase 3 the backward masks are completed to depth limit-1,
   keeping only nodes with a compatible forward distance; the forward
   masks are complete over the range that pruning consults (depths
   < limit - b whenever the main loop stopped at f + b = limit, and all
   depths when a side exhausted), so no reachable completion is lost.
   Each completion step reads whichever side is cheaper by O(1) degree
   sums: the in-postings of the backward level, or the out-postings of
   the forward nodes at a compatible distance (a target's whole
   in-neighbourhood is often far larger than what the forward side
   reached). Both give the same kept set, hence the same masks. *)
let search ?(max_paths = 10_000) db ~src ~tgt =
  Metrics.incr m_searches;
  let limit = Database.limit db in
  if limit < 2 || Entity.equal src tgt then empty_search
  else if limit > bitmask_limit then begin
    let paths, truncated = dfs_paths ~max_paths db ~src ~tgt in
    if truncated then Metrics.incr m_truncated;
    Metrics.add m_paths_total (List.length paths);
    { empty_search with paths; truncated }
  end
  else
    Lsdb_obs.Trace.span "composition.search" @@ fun () ->
    Metrics.time m_search_seconds @@ fun () ->
    let symtab = Database.symtab db in
    let gov = Database.governor db in
    let fresh node =
      let masks = Hashtbl.create 256 in
      add_distance masks node 0;
      { level = [ node ]; depth = 0; exhausted = false; masks }
    in
    let fwd = fresh src and bwd = fresh tgt in
    let forward_expansions = ref 0 and backward_expansions = ref 0 in
    let expand fr ~forward =
      let n = List.length fr.level in
      Metrics.incr (if forward then m_expand_forward else m_expand_backward);
      Metrics.add
        (frontier_nodes_counter (if forward then "forward" else "backward") fr.depth)
        n;
      Metrics.observe (if forward then m_frontier_forward else m_frontier_backward)
        (float_of_int n);
      incr (if forward then forward_expansions else backward_expansions);
      Governor.tick gov n;
      let next = expand_level db symtab ~forward fr.level in
      fr.depth <- fr.depth + 1;
      match next with
      | [] ->
          fr.exhausted <- true;
          fr.level <- []
      | _ ->
          List.iter (fun v -> add_distance fr.masks v fr.depth) next;
          fr.level <- next
    in
    (* Phase 1: interleaved radius growth, cheaper side first. A governor
       trip abandons the growth: the masks gathered so far still describe
       real paths, so the phases below can only under-report (sound). *)
    (try
       while fwd.depth + bwd.depth < limit && (not fwd.exhausted) && not bwd.exhausted do
         if
           frontier_cost db ~forward:true fwd.level
           <= frontier_cost db ~forward:false bwd.level
         then expand fwd ~forward:true
         else expand bwd ~forward:false
       done
     with Governor.Trip _ ->
       fwd.exhausted <- true;
       bwd.exhausted <- true);
    (* Phase 2: the meet check, iterating the smaller mask table. *)
    let small, big, small_is_fwd =
      if Hashtbl.length fwd.masks <= Hashtbl.length bwd.masks then
        (fwd.masks, bwd.masks, true)
      else (bwd.masks, fwd.masks, false)
    in
    let meet_nodes = ref 0 in
    Hashtbl.iter
      (fun v m1 ->
        match Hashtbl.find_opt big v with
        | None -> ()
        | Some m2 ->
            let fm, bm = if small_is_fwd then (m1, m2) else (m2, m1) in
            if masks_compatible ~limit fm bm then incr meet_nodes)
      small;
    Metrics.add m_meet_nodes !meet_nodes;
    let stats () =
      {
        empty_search with
        truncated = Governor.is_tripped gov;
        meet_nodes = !meet_nodes;
        forward_expansions = !forward_expansions;
        backward_expansions = !backward_expansions;
      }
    in
    if !meet_nodes = 0 then begin
      Metrics.incr m_empty_meets;
      stats ()
    end
    else begin
      (* Complete the backward masks to depth limit-1, pruning nodes with
         no compatible forward distance (the forward masks are complete
         over the consulted range; see the phase comment above). *)
      (try
        while (not bwd.exhausted) && bwd.depth < limit - 1 do
        let depth' = bwd.depth + 1 in
        Metrics.incr m_expand_backward;
        Metrics.add (frontier_nodes_counter "backward" bwd.depth)
          (List.length bwd.level);
        Metrics.observe m_frontier_backward (float_of_int (List.length bwd.level));
        incr backward_expansions;
        let compatible fm = has_bits fm ~lo:(2 - depth') ~hi:(limit - depth') in
        let candidates =
          Hashtbl.fold (fun v fm acc -> if compatible fm then v :: acc else acc) fwd.masks []
        in
        let kept =
          if
            frontier_cost db ~forward:true candidates
            < frontier_cost db ~forward:false bwd.level
          then probe_level db symtab bwd.level candidates
          else
            List.filter
              (fun v ->
                match Hashtbl.find_opt fwd.masks v with
                | None -> false
                | Some fm -> compatible fm)
              (expand_level db symtab ~forward:false bwd.level)
        in
        bwd.depth <- depth';
        match kept with
        | [] ->
            bwd.exhausted <- true;
            bwd.level <- []
        | _ ->
            List.iter (fun v -> add_distance bwd.masks v depth') kept;
            bwd.level <- kept
        done
       with Governor.Trip _ ->
         bwd.exhausted <- true;
         bwd.level <- []);
      (* Phase 3: target-pruned DFS reconstruction. *)
      let back_masks = bwd.masks in
      let found = ref [] in
      let count = ref 0 in
      let bump, flush_ticks = ticker gov in
      let rec dfs node chain_rev depth =
        if depth < limit then
          Database.closure_match db (Store.pattern ~s:node ()) (fun fact ->
              bump 1;
              if composable symtab fact.r then begin
                let chain_rev' = fact.r :: chain_rev in
                let depth' = depth + 1 in
                if Entity.equal fact.t tgt && depth' >= 2 then begin
                  found :=
                    { source = src; chain = List.rev chain_rev'; target = tgt }
                    :: !found;
                  incr count;
                  if !count >= max_paths then raise Enough
                end;
                if depth' < limit then
                  match Hashtbl.find_opt back_masks fact.t with
                  | Some bm when has_bits bm ~lo:1 ~hi:(limit - depth') ->
                      dfs fact.t chain_rev' depth'
                  | _ -> ()
              end)
      in
      let truncated =
        try
          dfs src [] 0;
          flush_ticks ();
          Governor.is_tripped gov
        with Enough | Governor.Trip _ -> true
      in
      if truncated then Metrics.incr m_truncated;
      let paths = List.rev !found in
      Metrics.add m_paths_total (List.length paths);
      { (stats ()) with paths; truncated }
    end

let paths ?max_paths db ~src ~tgt = (search ?max_paths db ~src ~tgt).paths

let walk db ~chain ~src =
  let step frontier r =
    let next = Hashtbl.create 16 in
    List.iter
      (fun node ->
        Database.closure_match db (Store.pattern ~s:node ~r ()) (fun fact ->
            Hashtbl.replace next fact.t ()))
      frontier;
    Hashtbl.fold (fun e () acc -> e :: acc) next []
  in
  List.fold_left step [ src ] chain

let walk_backward db ~chain ~tgt =
  let step r frontier =
    let prev = Hashtbl.create 16 in
    List.iter
      (fun node ->
        Database.closure_match db (Store.pattern ~r ~t:node ()) (fun fact ->
            Hashtbl.replace prev fact.s ()))
      frontier;
    Hashtbl.fold (fun e () acc -> e :: acc) prev []
  in
  List.fold_right step chain [ tgt ]

let candidates ?max_paths db (pat : Store.pattern) emit =
  let limit = Database.limit db in
  if limit >= 2 then
    let symtab = Database.symtab db in
    match pat.r with
    | None -> (
        match (pat.s, pat.t) with
        | Some src, Some tgt ->
            let result = search ?max_paths db ~src ~tgt in
            List.iter
              (fun path ->
                emit (Fact.make path.source (compose_name symtab path.chain) path.target))
              result.paths
        | _ -> ())
    | Some r -> (
        match decompose symtab r with
        | None -> ()
        | Some chain when List.length chain > limit -> ()
        | Some chain -> (
            match (pat.s, pat.t) with
            | Some src, Some tgt ->
                (* A 2-chain with both endpoints bound is one hinge
                   intersection — does any middle entity link them? —
                   instead of materializing the whole first frontier. *)
                let linked =
                  match chain with
                  | [ r1; r2 ] ->
                      Database.intersect_exists db
                        (Lsdb_datalog.Index.Out { s = src; r = r1 })
                        (Lsdb_datalog.Index.In { r = r2; t = tgt })
                  | _ -> List.exists (Entity.equal tgt) (walk db ~chain ~src)
                in
                if (not (Entity.equal src tgt)) && linked then
                  emit (Fact.make src r tgt)
            | Some src, None ->
                List.iter
                  (fun tgt -> if not (Entity.equal src tgt) then emit (Fact.make src r tgt))
                  (walk db ~chain ~src)
            | None, Some tgt ->
                List.iter
                  (fun src -> if not (Entity.equal src tgt) then emit (Fact.make src r tgt))
                  (walk_backward db ~chain ~tgt)
            | None, None ->
                (* Enumerate from every entity that sources the chain head. *)
                let first = List.hd chain in
                let seen = Hashtbl.create 64 in
                Database.closure_match db (Store.pattern ~r:first ()) (fun fact ->
                    if not (Hashtbl.mem seen fact.s) then begin
                      Hashtbl.add seen fact.s ();
                      List.iter
                        (fun tgt ->
                          if not (Entity.equal fact.s tgt) then emit (Fact.make fact.s r tgt))
                        (walk db ~chain ~src:fact.s)
                    end)))

let count_compositions ?(max_paths = 1_000_000) db =
  let limit = Database.limit db in
  if limit < 2 then 0
  else begin
    let symtab = Database.symtab db in
    let gov = Database.governor db in
    let bump, flush_ticks = ticker gov in
    let seen = Hashtbl.create 1024 in
    let count = ref 0 in
    let rec dfs origin node chain_rev depth =
      if depth < limit then
        Database.closure_match db (Store.pattern ~s:node ()) (fun fact ->
            bump 1;
            if composable symtab fact.r then begin
              let chain_rev' = fact.r :: chain_rev in
              if depth + 1 >= 2 && not (Entity.equal origin fact.t) then begin
                let key = (origin, chain_rev', fact.t) in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  incr count;
                  if !count >= max_paths then raise Enough
                end
              end;
              dfs origin fact.t chain_rev' (depth + 1)
            end)
    in
    (try
       Seq.iter
         (fun e -> if not (Entity.is_special e) then dfs e e [] 0)
         (Database.active_domain db);
       flush_ticks ()
     with Enough | Governor.Trip _ -> ());
    !count
  end
