module Shard = Lsdb_datalog.Shard
module Index = Lsdb_datalog.Index
module Int_tbl = Index.Int_tbl

(* One two-tier index per shard over the facts it owns. Everything
   routable by source is answered from one shard; source-unbound probes
   fan out across all shards in index order. *)
type t = {
  mutable plan : Shard.plan;
  mutable subs : Index.t array;  (* length = Shard.shards plan *)
  mutable refcount : int Int_tbl.t;  (* entity -> occurrences, across all shards *)
}

type pattern = { s : Entity.t option; r : Entity.t option; t : Entity.t option }

let pattern ?s ?r ?t () = { s; r; t }

let make_subs plan size_hint =
  Array.init (Shard.shards plan) (fun _ -> Index.create ~size_hint ())

let create ?(size_hint = 256) ?(shards = 1) () =
  let plan = Shard.plan shards in
  { plan; subs = make_subs plan size_hint; refcount = Int_tbl.create size_hint }

let shards t = Shard.shards t.plan
let shard_plan t = t.plan
let sub_of t s = t.subs.(Shard.of_entity t.plan s)

let ref_add t e n =
  Int_tbl.replace t.refcount e
    (n + match Int_tbl.find t.refcount e with m -> m | exception Not_found -> 0)

let ref_decr t e =
  match Int_tbl.find_opt t.refcount e with
  | None -> ()
  | Some 1 -> Int_tbl.remove t.refcount e
  | Some n -> Int_tbl.replace t.refcount e (n - 1)

let add t (fact : Fact.t) =
  Index.add (sub_of t fact.s) fact
  && begin
       ref_add t fact.s 1;
       ref_add t fact.r 1;
       ref_add t fact.t 1;
       true
     end

let remove t (fact : Fact.t) =
  Index.remove (sub_of t fact.s) fact
  && begin
       ref_decr t fact.s;
       ref_decr t fact.r;
       ref_decr t fact.t;
       true
     end

let mem t (fact : Fact.t) = Index.mem (sub_of t fact.s) fact
let cardinal t = Array.fold_left (fun n sub -> n + Index.cardinal sub) 0 t.subs
let shard_cardinals t = Array.map Index.cardinal t.subs
let is_empty t = cardinal t = 0

let clear t =
  t.subs <- make_subs t.plan 256;
  Int_tbl.reset t.refcount

let iter f t = Array.iter (Index.iter f) t.subs

let fold f t init =
  let acc = ref init in
  iter (fun fact -> acc := f fact !acc) t;
  !acc

let to_seq t = Seq.concat_map Index.to_seq (Array.to_seq t.subs)
let to_list t = List.of_seq (to_seq t)

(* Fold [facts] into every shard's frozen segment, then recount the
   entities once per distinct key. *)
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
  end;
  t.refcount <- Int_tbl.create (max 256 (Array.length facts / 2));
  Array.iter (fun sub -> Index.occurrences sub (ref_add t)) t.subs

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

exception Found

let exists_match t pat =
  try
    match_pattern t pat (fun _ -> raise Found);
    false
  with Found -> true

let matches_pattern { s; r; t = tgt } (fact : Fact.t) =
  (match s with Some s -> s = fact.s | None -> true)
  && (match r with Some r -> r = fact.r | None -> true)
  && match tgt with Some tg -> tg = fact.t | None -> true

let match_scan t pat f = iter (fun fact -> if matches_pattern pat fact then f fact) t

let active_entities t = Int_tbl.to_seq_keys t.refcount
let entity_active t e = Int_tbl.mem t.refcount e

(* Re-partition in place: the handle every reader captured stays valid,
   only the internal routing changes. O(heap); callers invalidate any
   structure that depends on iteration order. *)
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
