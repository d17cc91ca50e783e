module Shard = Lsdb_datalog.Shard
module Index = Lsdb_datalog.Index
module Int_tbl = Index.Int_tbl

(* One two-tier index per shard over the facts it owns. Everything
   routable by source is answered from one shard; source-unbound probes
   fan out across all shards in index order. *)
type t = {
  mutable plan : Shard.plan;
  mutable subs : Index.t array;  (* length = Shard.shards plan *)
}

type pattern = { s : Entity.t option; r : Entity.t option; t : Entity.t option }

let pattern ?s ?r ?t () = { s; r; t }

let make_subs plan size_hint =
  Array.init (Shard.shards plan) (fun _ -> Index.create ~size_hint ())

let create ?(size_hint = 256) ?(shards = 1) () =
  let plan = Shard.plan shards in
  { plan; subs = make_subs plan size_hint }

let shards t = Shard.shards t.plan
let sub_of t s = t.subs.(Shard.of_entity t.plan s)
let add t (fact : Fact.t) = Index.add (sub_of t fact.s) fact
let remove t (fact : Fact.t) = Index.remove (sub_of t fact.s) fact
let mem t (fact : Fact.t) = Index.mem (sub_of t fact.s) fact
let cardinal t = Array.fold_left (fun n sub -> n + Index.cardinal sub) 0 t.subs
let shard_cardinals t = Array.map Index.cardinal t.subs
let clear t = t.subs <- make_subs t.plan 256

let iter f t = Array.iter (Index.iter f) t.subs

let fold f t init =
  let acc = ref init in
  iter (fun fact -> acc := f fact !acc) t;
  !acc

let to_seq t = Seq.concat_map Index.to_seq (Array.to_seq t.subs)
let to_list t = List.of_seq (to_seq t)

(* Fold [facts] into every shard's frozen segment. *)
let load t (facts : Fact.t array) =
  let n = Array.length t.subs in
  if n = 1 then Index.load t.subs.(0) facts
  else begin
    let owner = Array.map (fun (fact : Fact.t) -> Shard.of_entity t.plan fact.s) facts in
    let sizes = Array.make n 0 in
    Array.iter (fun i -> sizes.(i) <- sizes.(i) + 1) owner;
    let parts = Array.map (fun k -> Array.make k (Fact.make 0 0 0)) sizes in
    Array.fill sizes 0 n 0;
    Array.iteri
      (fun j i ->
        parts.(i).(sizes.(i)) <- facts.(j);
        sizes.(i) <- sizes.(i) + 1)
      owner;
    Array.iteri (fun i part -> Index.load t.subs.(i) part) parts
  end

(* Source-bound patterns touch exactly one shard; the rest fan out. *)
let match_pattern t { s; r; t = tgt } f =
  match s with
  | Some e -> Index.candidates (sub_of t e) ~s ~r ~tgt f
  | None -> Array.iter (fun sub -> Index.candidates sub ~s ~r ~tgt f) t.subs

let match_list t pat =
  let acc = ref [] in
  match_pattern t pat (fun fact -> acc := fact :: !acc);
  !acc

(* Exact O(1) counts (O(shards) for source-unbound patterns) from the
   indexes' live posting lengths — the cheap selectivity probe behind
   join ordering and the demand-mode degree hints. *)
let count_fast t { s; r; t = tgt } =
  match s with
  | Some e -> Index.count (sub_of t e) ~s ~r ~tgt
  | None -> Array.fold_left (fun n sub -> n + Index.count sub ~s ~r ~tgt) 0 t.subs

let matches_pattern { s; r; t = tgt } (fact : Fact.t) =
  (match s with Some s -> s = fact.s | None -> true)
  && (match r with Some r -> r = fact.r | None -> true)
  && match tgt with Some tg -> tg = fact.t | None -> true

let match_scan t pat f = iter (fun fact -> if matches_pattern pat fact then f fact) t

(* The store read as an engine view: what the closure's first stratum
   and the demand evaluator take as their input. It reads [t.subs] on
   every call, so it survives {!reshard} and {!clear}. *)
let view t : Lsdb_datalog.Engine.view =
  {
    v_iter = (fun ~s ~r ~tgt f -> match_pattern t { s; r; t = tgt } f);
    v_mem = mem t;
    v_count = (fun ~s ~r ~tgt -> count_fast t { s; r; t = tgt });
    v_cardinal = (fun () -> cardinal t);
    v_seq = (fun () -> to_seq t);
  }

(* The shard indexes count every position exactly, so activity needs no
   table of its own: a source is counted in its owner shard, a
   relationship or target in any shard. *)
let entity_active t e =
  Index.count_s (sub_of t e) e > 0
  || Array.exists
       (fun sub -> Index.count_t sub e > 0 || Index.count sub ~s:None ~r:(Some e) ~tgt:None > 0)
       t.subs

let active_entities t =
  let seen = Int_tbl.create 256 in
  Array.iter (fun sub -> Index.occurrences sub (fun e _ -> Int_tbl.replace seen e ())) t.subs;
  Int_tbl.to_seq_keys seen

(* Re-partition in place: the handle every reader captured stays valid,
   only the internal routing and the iteration order change. O(heap). *)
let reshard t n =
  let plan = Shard.plan n in
  if Shard.shards plan <> Shard.shards t.plan then begin
    let facts = Array.of_seq (to_seq t) in
    t.plan <- plan;
    t.subs <- make_subs plan 256;
    load t facts
  end

let copy t =
  let fresh = create ~shards:(shards t) () in
  load fresh (Array.of_seq (to_seq t));
  fresh
