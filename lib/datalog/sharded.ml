module Pool = Lsdb_exec.Pool
module Governor = Lsdb_exec.Governor
module Metrics = Lsdb_obs.Metrics
module Trace = Lsdb_obs.Trace

exception Diverged of int

(* Observability handles, registered once at module initialization. The
   closure counters keep their [lsdb_engine_*] names: this stratum is the
   one engine at every shard count. *)
let m_rounds =
  Metrics.counter ~help:"Semi-naive closure rounds executed"
    "lsdb_engine_closure_rounds_total"

let m_delta =
  Metrics.counter ~help:"Delta triples fed into closure rounds"
    "lsdb_engine_delta_triples_total"

let m_derived =
  Metrics.counter ~help:"Triples derived by closure rounds"
    "lsdb_engine_derived_triples_total"

let m_closures =
  Metrics.counter ~help:"Full closure computations" "lsdb_engine_closures_total"

let m_extends =
  Metrics.counter ~help:"Incremental extensions" "lsdb_engine_extends_total"

let m_retracts =
  Metrics.counter ~help:"Incremental retractions" "lsdb_engine_retracts_total"

let m_cone =
  Metrics.counter ~help:"Over-deleted cone facts across retractions"
    "lsdb_engine_retract_cone_facts_total"

let m_rederive_checks =
  Metrics.counter ~help:"Single-fact rederivation checks during retractions"
    "lsdb_engine_rederive_checks_total"

let m_restored =
  Metrics.counter ~help:"Cone facts restored by rederivation"
    "lsdb_engine_restored_facts_total"

let m_round_seconds =
  Metrics.histogram ~help:"Wall-clock seconds per closure round"
    "lsdb_engine_round_seconds"

let m_retract_seconds =
  Metrics.histogram ~help:"Wall-clock seconds per retraction (all phases)"
    "lsdb_engine_retract_seconds"

let m_exchanged =
  Metrics.counter
    ~help:"Derived triples routed to a shard other than the one that produced them"
    "lsdb_sharded_exchanged_total"

let m_exchange_batch =
  Metrics.histogram
    ~help:"Cross-shard triples exchanged at each round barrier"
    ~buckets:Metrics.size_buckets "lsdb_sharded_exchange_batch"

let m_imbalance =
  Metrics.gauge
    ~help:
      "Largest overlay over mean overlay cardinal, per-mille (1000 = balanced)"
    "lsdb_sharded_imbalance_permille"

let m_lane_rounds =
  Metrics.counter
    ~help:"Closure rounds fanned out to persistent per-shard lanes"
    "lsdb_sharded_lane_rounds_total"

let m_solo_rounds =
  Metrics.counter
    ~help:"Closure rounds evaluated inline on the caller lane"
    "lsdb_sharded_solo_rounds_total"

type t = {
  plan : Shard.plan;
  base : Engine.view;
  (* One index per shard. At one shard the stratum copies its input into
     [overlays.(0)] and derives into the same index; above one shard it
     reads its input through [base] and each overlay holds the derived
     facts routed to its shard by source owner. *)
  overlays : Index.t array;
  shard_derived : Metrics.counter array;
  lane_delta : Metrics.counter array;  (* delta triples evaluated per lane *)
  derivations : Derivations.t;
  mutable rounds : int;
  mutable exchanged : int;
  max_facts : int;
  (* Reshard-hint state: how many consecutive imbalance observations
     (one per fixpoint) pinned above the threshold, and the latest
     pinned reading as (hottest shard, permille, streak). *)
  mutable hot_streak : int;
  mutable hot_hint : (int * int * int) option;
}

let create ?(max_facts = 10_000_000) ~plan base =
  let nsh = Shard.shards plan in
  {
    plan;
    base;
    overlays = Array.init nsh (fun _ -> Index.create ());
    shard_derived =
      Array.init nsh (fun i ->
          Metrics.counter
            ~help:"Triples derived into each shard's overlay"
            ~labels:[ ("shard", string_of_int i) ]
            "lsdb_sharded_shard_derived_total");
    lane_delta =
      Array.init nsh (fun i ->
          Metrics.counter
            ~help:"Delta triples evaluated by each shard's lane"
            ~labels:[ ("shard", string_of_int i) ]
            "lsdb_sharded_lane_delta_total");
    derivations = Derivations.create ();
    rounds = 0;
    exchanged = 0;
    max_facts;
    hot_streak = 0;
    hot_hint = None;
  }

let plan t = t.plan
let owner t (triple : Triple.t) = Shard.of_entity t.plan triple.s

(* The layout follows the plan: one shard owns a copy of its input, so
   every probe hits one packed index (what joins, galloping intersection
   and per-insert scans want); more shards read through the base, which
   spares a million-fact heap the copy. *)
let owns_input t = Array.length t.overlays = 1

let cardinal t =
  let held = Array.fold_left (fun n o -> n + Index.cardinal o) 0 t.overlays in
  if owns_input t then held else t.base.v_cardinal () + held

(* The union view. Above one shard the overlays are disjoint from the
   base by construction ([admit] refuses anything already visible), so
   cardinals and counts are sums and iteration never yields a fact
   twice. *)
let view t : Engine.view =
  if owns_input t then Engine.view_of_index t.overlays.(0)
  else
    let nsh = Array.length t.overlays in
    {
      v_mem =
        (fun triple ->
          t.base.v_mem triple
          || Index.mem t.overlays.(Shard.of_entity t.plan triple.s) triple);
      v_iter =
        (fun ~s ~r ~tgt f ->
          t.base.v_iter ~s ~r ~tgt f;
          match s with
          | Some s -> Index.candidates t.overlays.(Shard.of_entity t.plan s) ~s:(Some s) ~r ~tgt f
          | None ->
              for i = 0 to nsh - 1 do
                Index.candidates t.overlays.(i) ~s ~r ~tgt f
              done);
      v_count =
        (fun ~s ~r ~tgt ->
          let base = t.base.v_count ~s ~r ~tgt in
          match s with
          | Some e -> base + Index.count t.overlays.(Shard.of_entity t.plan e) ~s ~r ~tgt
          | None ->
              let n = ref base in
              for i = 0 to nsh - 1 do
                n := !n + Index.count t.overlays.(i) ~s ~r ~tgt
              done;
              !n);
      v_cardinal = (fun () -> cardinal t);
      v_seq =
        (fun () ->
          Seq.append (t.base.v_seq ())
            (Seq.concat_map Index.to_seq (Array.to_seq t.overlays)));
    }

let mem t triple =
  Index.mem t.overlays.(owner t triple) triple
  || ((not (owns_input t)) && t.base.v_mem triple)

let derived_count t = Derivations.length t.derivations
let is_derived t triple = Derivations.mem t.derivations triple
let provenance t triple = Derivations.find t.derivations triple
let iter_provenance f t = Derivations.iter f t.derivations
let iter_overlays f t = Array.iter (Index.iter f) t.overlays

let rounds t = t.rounds
let exchanged t = t.exchanged

let overlay_cardinals t =
  if owns_input t then [| derived_count t |]
  else Array.map Index.cardinal t.overlays

let support_size t = Derivations.support_size t.derivations

(* --- index mutation ---------------------------------------------------- *)

(* Admit a derived fact unless it is already visible. Above one shard the
   check runs against the whole union, keeping the overlays disjoint from
   the base and from each other. *)
let admit t ~view:(v : Engine.view) triple =
  (owns_input t || not (v.v_mem triple))
  && Index.add t.overlays.(owner t triple) triple

(* Take a fact the caller just added to the stratum's input: copied in at
   one shard, already visible through the base above. [true] iff the
   stratum did not hold it as input before. *)
let take_input t triple =
  if owns_input t then Index.add t.overlays.(0) triple else t.base.v_mem triple

(* Drop a fact from the index holding it, with its recorded derivation. *)
let drop t triple =
  ignore (Index.remove t.overlays.(owner t triple) triple : bool);
  Derivations.forget t.derivations triple

(* Imbalance above this (hottest overlay ≥ 1.5× the even share) counts
   as pinned; pinned for this many consecutive fixpoints raises the
   reshard hint. The cheap, 1-core-honest nub of adaptive resharding:
   we only *suggest* the split — acting on it stays with the caller. *)
let hint_permille = 1500
let hint_streak = 3

let note_imbalance t =
  let cards = overlay_cardinals t in
  let nsh = Array.length cards in
  let total = Array.fold_left ( + ) 0 cards in
  if nsh > 1 && total > 0 then begin
    let biggest = ref 0 and hottest = ref 0 in
    Array.iteri
      (fun i c ->
        if c > !biggest then begin
          biggest := c;
          hottest := i
        end)
      cards;
    let permille = !biggest * nsh * 1000 / total in
    Metrics.set m_imbalance permille;
    if permille >= hint_permille then begin
      t.hot_streak <- t.hot_streak + 1;
      if t.hot_streak >= hint_streak then
        t.hot_hint <- Some (!hottest, permille, t.hot_streak)
    end
    else begin
      t.hot_streak <- 0;
      t.hot_hint <- None
    end
  end

let reshard_hint t = t.hot_hint

(* --- the semi-naive fixpoint --------------------------------------------- *)

(* Split [arr] into [n] contiguous chunks, preserving order on
   concatenation. *)
let chunks_of n arr =
  let len = Array.length arr in
  let per = (len + n - 1) / n in
  Array.init n (fun i ->
      let lo = i * per in
      let hi = min len (lo + per) in
      Array.sub arr lo (max 0 (hi - lo)))

(* Partition an ordered delta by owning shard; within a shard the slice
   keeps the delta's order, so the partition is deterministic and
   independent of any pool. *)
let partition t triples =
  let nsh = Array.length t.overlays in
  if nsh = 1 then [| Array.of_list triples |]
  else begin
    let bufs = Array.make nsh [] in
    List.iter
      (fun triple ->
        let o = owner t triple in
        bufs.(o) <- triple :: bufs.(o))
      triples;
    Array.map (fun l -> Array.of_list (List.rev l)) bufs
  end

(* One barrier-separated round per iteration. Every rule application in a
   round reads the union view as of the round start ({!Engine.round_view}
   is read-only), so the round's slices can be evaluated anywhere:
   - at one shard, with a pool, the delta fans out in contiguous chunks
     of at least 32 facts (below that the join work cannot amortize the
     fan-out);
   - above one shard, each shard's slice evaluates on a persistent
     per-shard worker lane when more than one slice is non-empty and the
     delta is wide enough to amortize the wake-up (a skewed delta
     concentrated in one slice — Zipf heads do this constantly — stays on
     the caller). Lane [i] is pinned to shard [i] for the whole fixpoint;
     lanes beyond the pool size multiplex deterministically
     ({!Pool.lanes}).
   The barrier then merges the emissions rule-major then slice-major — the
   stream a single evaluator would emit — and admits each head into its
   owner's index, recording its provenance. The barrier is the only
   synchronization point, so for a fixed shard count the result (fact
   set, derivation order, provenance, rounds) is identical at every pool
   size. A [Governor.Trip] raised from any lane surfaces on the caller
   after the barrier, and the catch leaves the indexes and provenance as
   of the last completed barrier action: a consistent, sound subset. *)
let fixpoint ?pool ?gov t rules seeds =
  let rules_arr = Array.of_list rules in
  let fullv = view t in
  let nsh = Array.length t.overlays in
  let derived_rev = ref [] in
  let rounds = ref 0 in
  let delta = ref (partition t seeds) in
  let total_delta deltas = Array.fold_left (fun n a -> n + Array.length a) 0 deltas in
  let nonempty_slices deltas =
    Array.fold_left (fun n a -> if Array.length a > 0 then n + 1 else n) 0 deltas
  in
  let round = Engine.round_view ?gov rules_arr ~full:fullv in
  (* Lanes are created on the first round wide enough to fan out and
     reused for every later round of this fixpoint: one wake-up
     negotiation per round instead of a queue round-trip per shard. *)
  let lanes = ref None in
  let lanes_for pool =
    match !lanes with
    | Some lg -> lg
    | None ->
        let lg = Pool.lanes pool ~n:nsh in
        lanes := Some lg;
        lg
  in
  Fun.protect ~finally:(fun () -> Option.iter Pool.lanes_close !lanes)
  @@ fun () ->
  (try
     while total_delta !delta > 0 do
       let width = total_delta !delta in
       incr rounds;
       Governor.check gov;
       Metrics.incr m_rounds;
       Metrics.add m_delta width;
       Trace.span "closure.round"
         ~meta:[ ("round", string_of_int !rounds); ("delta", string_of_int width) ]
       @@ fun () ->
       Metrics.time m_round_seconds @@ fun () ->
       let slice_results =
         match pool with
         | Some pool when nsh = 1 && Pool.size pool > 1 && width > 1 ->
             let nchunks = min (Pool.size pool) (max 1 ((width + 31) / 32)) in
             if nchunks = 1 then [| round !delta.(0) |]
             else Pool.map_array pool round (chunks_of nchunks !delta.(0))
         | Some pool
           when Pool.size pool > 1 && nonempty_slices !delta > 1 && width > 32 ->
             let lg = lanes_for pool in
             let out = Array.make nsh [||] in
             Metrics.incr m_lane_rounds;
             Pool.lanes_run lg (fun i ->
                 let slice = !delta.(i) in
                 if Array.length slice > 0 then
                   Metrics.add t.lane_delta.(i) (Array.length slice);
                 out.(i) <- round slice);
             out
         | _ ->
             Metrics.incr m_solo_rounds;
             Array.map round !delta
       in
       let next = Array.make nsh [] in
       let crossed = ref 0 in
       let accepted = ref 0 in
       Array.iteri
         (fun ri (rule : Rule.t) ->
           Array.iteri
             (fun si buffers ->
               List.iter
                 (fun (triple, premises) ->
                   if admit t ~view:fullv triple then begin
                     let o = owner t triple in
                     if nsh > 1 && o <> si then begin
                       t.exchanged <- t.exchanged + 1;
                       incr crossed
                     end;
                     incr accepted;
                     Metrics.incr t.shard_derived.(o);
                     if cardinal t > t.max_facts then raise (Diverged (cardinal t));
                     derived_rev := triple :: !derived_rev;
                     next.(o) <- triple :: next.(o);
                     Derivations.record t.derivations triple
                       { Engine.rule = rule.name; premises };
                     (* After the record: the fact that trips the budget
                        is fully accounted for, so the partial state stays
                        consistent. *)
                     Governor.count_facts gov 1
                   end)
                 buffers.(ri))
             slice_results)
         rules_arr;
       Metrics.add m_derived !accepted;
       Trace.annotate "derived" (string_of_int !accepted);
       if nsh > 1 then begin
         Metrics.add m_exchanged !crossed;
         Metrics.observe m_exchange_batch (float_of_int !crossed)
       end;
       delta := Array.map (fun l -> Array.of_list (List.rev l)) next;
       (* Round barrier: lanes are parked, nothing reads the indexes —
          the natural quiesce point for folding delta tiers into packed
          segments. *)
       Array.iter Index.quiesce t.overlays
     done
   with Governor.Trip _ -> ());
  t.rounds <- t.rounds + !rounds;
  note_imbalance t;
  List.rev !derived_rev

let closure ?pool ?gov rules t =
  Metrics.incr m_closures;
  Trace.span "engine.closure" @@ fun () ->
  (* The input is materialized under the governor's checkpoints: on large
     heaps the enumeration (and, at one shard, the index build) can dwarf
     a wall deadline, and a prefix of the input is still a subset of the
     true closure. A trip here also makes the first round trip at once,
     so nothing is derived from the partial input. *)
  let buf = ref [] and n = ref 0 in
  (try
     Seq.iter
       (fun triple ->
         buf := triple :: !buf;
         incr n;
         if !n land 1023 = 0 then Governor.check gov)
       (t.base.v_seq ())
   with Governor.Trip _ -> ());
  let arr = Array.make !n (Triple.make 0 0 0) in
  List.iteri (fun i triple -> arr.(!n - 1 - i) <- triple) !buf;
  buf := [];
  (* At one shard the input is bulk-loaded: on the virgin index
     [Index.bulk_add] sorts once and builds the packed segment directly,
     returning the distinct facts in input order. Above one shard the
     input is already visible through the base; it only seeds. *)
  let seeds =
    if owns_input t then Index.bulk_add t.overlays.(0) arr else Array.to_list arr
  in
  fixpoint ?pool ?gov t rules seeds

let extend ?pool ?gov rules t extras =
  Metrics.incr m_extends;
  Trace.span "engine.extend" @@ fun () ->
  (* A fact the stratum had derived and now takes as input stops being
     derived: a from-scratch recompute records no derivation for input
     facts, and retraction must never delete one just because its former
     premises went away. Its consequences are already derived, so it
     does not seed. *)
  let seeds =
    List.filter
      (fun triple ->
        let was_derived = is_derived t triple in
        if was_derived then drop t triple;
        take_input t triple && not was_derived)
      extras
  in
  let derived = fixpoint ?pool ?gov t rules seeds in
  Array.iter Index.quiesce t.overlays;
  seeds @ derived

(* Delete/rederive. Phase 1 walks the support index to collect the cone
   of facts whose recorded derivation transitively rests on a deleted
   fact (the over-deletion: a fact may have other derivations — recorded
   provenance keeps only one, so the cone is a superset of what must
   go). Phase 2 drops the cone. Phase 3 re-checks each cone fact against
   the surviving view for an alternative one-step derivation (chunked
   across the pool; read-only, so no barrier is needed until the seeds
   are merged in deterministic cone order). Phase 4 runs the ordinary
   fixpoint from those seeds, restoring everything reachable again. The
   rules are monotone and the view is a subset of the old closure
   throughout, so rederivation can only restore cone members — the final
   fact set equals a from-scratch recompute, at any pool size. *)
let retract ?pool ?gov rules t deleted =
  Metrics.incr m_retracts;
  Trace.span "engine.retract"
    ~meta:[ ("deleted", string_of_int (List.length deleted)) ]
  @@ fun () ->
  Metrics.time m_retract_seconds @@ fun () ->
  (* At one shard the deleted input facts are still in the stratum's own
     index, so only members enter; above one shard the caller already
     removed them from the base, so they enter unconditionally. *)
  let cone_list =
    Derivations.cone t.derivations
      (if owns_input t then List.filter (Index.mem t.overlays.(0)) deleted
       else deleted)
  in
  List.iter (drop t) cone_list;
  let cone_arr = Array.of_list cone_list in
  Metrics.add m_cone (Array.length cone_arr);
  Metrics.add m_rederive_checks (Array.length cone_arr);
  Trace.annotate "cone" (string_of_int (Array.length cone_arr));
  let fullv = view t in
  let check fact =
    Governor.tick gov 1;
    (* A cone member still visible through the base needs no restoring. *)
    if fullv.v_mem fact then None
    else
      match Engine.find_derivation_view rules ~full:fullv fact with
      | Some prov -> Some (fact, prov)
      | None -> None
  in
  (* A trip during the rederive checks degrades every unchecked cone fact
     to "not rederived": it stays removed, which keeps the closure a
     subset of the true fixpoint (sound; the caller drops the cache on a
     tripped maintenance pass anyway). Phases 1-2 above run ungoverned —
     interrupting them could leave a deleted fact visible, which would be
     unsound in the other direction. *)
  let checked =
    try
      match pool with
      | Some pool when Array.length cone_arr > 1 && Pool.size pool > 1 ->
          (* Each check is a full body join, so chunks can be smaller
             than a round's. *)
          let nchunks =
            min (Pool.size pool) (max 1 ((Array.length cone_arr + 15) / 16))
          in
          if nchunks = 1 then Array.map check cone_arr
          else
            Array.concat
              (Array.to_list
                 (Pool.map_array pool (Array.map check) (chunks_of nchunks cone_arr)))
      | _ -> Array.map check cone_arr
    with Governor.Trip _ -> Array.map (fun _ -> None) cone_arr
  in
  let seeds_rev = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some (fact, prov) ->
          if admit t ~view:fullv fact then begin
            Derivations.record t.derivations fact prov;
            seeds_rev := fact :: !seeds_rev
          end)
    checked;
  ignore (fixpoint ?pool ?gov t rules (List.rev !seeds_rev) : Triple.t list);
  (* The cone drop may have tombstoned frozen swaths the (possibly empty)
     rederive fixpoint never folded. *)
  Array.iter Index.quiesce t.overlays;
  let removed = List.filter (fun fact -> not (fullv.v_mem fact)) cone_list in
  Metrics.add m_restored (List.length cone_list - List.length removed);
  Trace.annotate "restored" (string_of_int (List.length cone_list - List.length removed));
  removed

let closed_under rules t =
  let v = view t in
  let all = ref [] in
  v.v_iter ~s:None ~r:None ~tgt:None (fun triple -> all := triple :: !all);
  let buffers =
    Engine.round_view (Array.of_list rules) ~full:v (Array.of_list !all)
  in
  Array.for_all (fun emissions -> emissions = []) buffers

let tier_stats t =
  Array.fold_left
    (fun acc overlay -> Index.sum_stats acc (Index.tier_stats overlay))
    Index.zero_stats t.overlays

let intersect t h1 h2 emit =
  owns_input t
  && begin
       Index.intersect t.overlays.(0) h1 h2 emit;
       true
     end
