module Pair = struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 0x9e3779b1) lxor (b * 0x85ebca77) land max_int
end

module Pair_tbl = Hashtbl.Make (Pair)

(* Int-keyed tables are on the fixpoint's dedup path; [Int.hash] is the
   generic byte-mixing hash and costs a C call per probe. Two integer
   ops suffice — the shift-xor folds the high half down because packed
   pair keys carry one coordinate in the high bits and [Hashtbl] masks
   the low bits for the bucket index. *)
module Ikey = struct
  type t = int

  let equal (a : int) b = a = b

  let hash v =
    let h = v * 0x9e3779b1 in
    (h lxor (h lsr 31)) land max_int
end

module Int_tbl = Hashtbl.Make (Ikey)

(* Frozen-tier tables key coordinate pairs as one packed int: entity ids
   are symtab-interned and bounded by fact count, far below 2^31, so the
   packing is injective. Packed keys are immediate values — probing a
   frozen access path allocates nothing, unlike a boxed (int * int) key.
   The delta tier keeps tuple keys: it is the pre-segment layout. *)
let key2 a b = (a lsl 31) lor b

(* ------------------------------------------------------------------ *)
(* Delta tier: the mutable tail. Recent inserts keep the list-cell
   representation; cells track their length and their tombstone count so
   selectivity probes stay O(1) and exact. *)

type cell = {
  mutable items : Triple.t list;
  mutable len : int;  (* including tombstoned entries *)
  mutable dead : int;  (* tombstoned entries still in [items] *)
}

(* ------------------------------------------------------------------ *)
(* Frozen tier: one immutable packed segment. The spine [tri] holds the
   segment's triples sorted by [Triple.compare] (s, then r, then t); a
   triple's id is its slot. [fs]/[fr]/[ft] mirror the three coordinates
   into flat int arrays so binary search and galloping touch cache-linear
   memory instead of chasing record pointers.

   Because the spine sort is (s,r,t)-lexicographic, the [by_s] and
   [by_sr] access paths are contiguous id ranges. The other four paths
   are runs of an id order: [o_r] holds every id sorted by (r, id),
   [o_t] by (t, id), [o_st] by (s, t, id), [o_rt] by (r, t, id). Ids
   ascend within a run, so each posting's free coordinate ascends too:
   within an (r,t) run the source ascends, within an (s,t) run the
   relationship ascends, and within an (s,r) range the target ascends —
   exactly the sorted-set shape galloping intersection needs.

   Key tables map a key to its run as a {!span}, one immediate int, so
   lookups allocate nothing and counts are O(1): [r_s] and [r_sr] into
   the spine, [p_r], [p_t], [p_st] and [p_rt] into the id orders.

   Removal tombstones ids in [dead_bits] (folded away by the next
   freeze); sparse per-key tombstone counters keep [count] exact between
   freezes without a full sweep. *)

(* A half-open run [lo, hi) packed in one int; segments stay below 2^31
   slots, like the entity ids [key2] packs. *)
let span lo hi = (lo lsl 31) lor hi
let span_lo v = v lsr 31
let span_hi v = v land 0x7FFF_FFFF

type seg = {
  tri : Triple.t array;
  fs : int array;
  fr : int array;
  ft : int array;
  dead_bits : Bytes.t;
  mutable ndead : int;
  r_s : int Int_tbl.t;  (* s -> spine span *)
  r_sr : int Int_tbl.t;  (* key2 s r -> spine span *)
  o_r : int array;
  o_t : int array;
  o_st : int array;
  o_rt : int array;
  p_r : int Int_tbl.t;  (* r -> span of [o_r] *)
  p_t : int Int_tbl.t;  (* t -> span of [o_t] *)
  p_st : int Int_tbl.t;  (* key2 s t -> span of [o_st] *)
  p_rt : int Int_tbl.t;  (* key2 r t -> span of [o_rt] *)
  d_s : int Int_tbl.t;  (* per-key tombstone counts, sparse *)
  d_r : int Int_tbl.t;
  d_t : int Int_tbl.t;
  d_sr : int Int_tbl.t;
  d_st : int Int_tbl.t;
  d_rt : int Int_tbl.t;
}

(* Safe to share: a segment is only ever mutated at ids it contains, and
   the empty segment contains none. *)
let empty_seg =
  {
    tri = [||];
    fs = [||];
    fr = [||];
    ft = [||];
    dead_bits = Bytes.empty;
    ndead = 0;
    r_s = Int_tbl.create 1;
    r_sr = Int_tbl.create 1;
    o_r = [||];
    o_t = [||];
    o_st = [||];
    o_rt = [||];
    p_r = Int_tbl.create 1;
    p_t = Int_tbl.create 1;
    p_st = Int_tbl.create 1;
    p_rt = Int_tbl.create 1;
    d_s = Int_tbl.create 1;
    d_r = Int_tbl.create 1;
    d_t = Int_tbl.create 1;
    d_sr = Int_tbl.create 1;
    d_st = Int_tbl.create 1;
    d_rt = Int_tbl.create 1;
  }

type t = {
  mutable fz : seg;
  dmem : unit Triple.Tbl.t;  (* live delta triples *)
  ddead : unit Triple.Tbl.t;  (* tombstoned delta triples (postings in place) *)
  by_sr : cell Pair_tbl.t;
  by_st : cell Pair_tbl.t;
  by_rt : cell Pair_tbl.t;
  by_s : cell Int_tbl.t;
  by_r : cell Int_tbl.t;
  by_t : cell Int_tbl.t;
  mutable freezes : int;
}

let create ?(size_hint = 1024) () =
  {
    fz = empty_seg;
    dmem = Triple.Tbl.create size_hint;
    ddead = Triple.Tbl.create 16;
    by_sr = Pair_tbl.create size_hint;
    by_st = Pair_tbl.create size_hint;
    by_rt = Pair_tbl.create size_hint;
    by_s = Int_tbl.create size_hint;
    by_r = Int_tbl.create size_hint;
    by_t = Int_tbl.create size_hint;
    freezes = 0;
  }

(* --- frozen-tier primitives ----------------------------------------- *)

let seg_len fz = Array.length fz.tri
let seg_live fz = seg_len fz - fz.ndead

let is_dead fz id =
  Char.code (Bytes.unsafe_get fz.dead_bits (id lsr 3)) land (1 lsl (id land 7))
  <> 0

let set_dead fz id =
  let b = id lsr 3 in
  Bytes.unsafe_set fz.dead_bits b
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get fz.dead_bits b) lor (1 lsl (id land 7))));
  fz.ndead <- fz.ndead + 1

let clear_dead fz id =
  let b = id lsr 3 in
  Bytes.unsafe_set fz.dead_bits b
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get fz.dead_bits b)
       land lnot (1 lsl (id land 7))
       land 0xff));
  fz.ndead <- fz.ndead - 1

(* A key's span, or the empty span 0. [find]-with-exception rather than
   [find_opt]: this runs once per dedup probe of the fixpoint, and the
   [Some] box would be a minor allocation per probe. *)
let find_span tbl key = match Int_tbl.find tbl key with sp -> sp | exception Not_found -> 0

(* The id of [x] in the segment (dead or alive), or -1: the (s,r) run,
   then binary search on the target coordinate within it. *)
let seg_find fz (x : Triple.t) =
  let sp = find_span fz.r_sr (key2 x.Triple.s x.Triple.r) in
  let tv = x.Triple.t in
  let lo = ref (span_lo sp) and hi = ref (span_hi sp) and res = ref (-1) in
  while !res < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get fz.ft mid in
    if v = tv then res := mid else if v < tv then lo := mid + 1 else hi := mid
  done;
  !res

let frozen_mem fz x =
  let id = seg_find fz x in
  id >= 0 && not (is_dead fz id)

let bump_int tbl k by =
  match Int_tbl.find_opt tbl k with
  | Some n ->
      let n = n + by in
      if n = 0 then Int_tbl.remove tbl k else Int_tbl.replace tbl k n
  | None -> if by <> 0 then Int_tbl.add tbl k by

let bump_frozen_dead fz (x : Triple.t) by =
  bump_int fz.d_s x.Triple.s by;
  bump_int fz.d_r x.Triple.r by;
  bump_int fz.d_t x.Triple.t by;
  bump_int fz.d_sr (key2 x.Triple.s x.Triple.r) by;
  bump_int fz.d_st (key2 x.Triple.s x.Triple.t) by;
  bump_int fz.d_rt (key2 x.Triple.r x.Triple.t) by

let dead_i tbl k = match Int_tbl.find tbl k with n -> n | exception Not_found -> 0

(* --- membership / size ---------------------------------------------- *)

(* Probe the bigger tier first: during a closure the frozen segment
   holds the base facts and re-derivations mostly land there, so one
   lookup settles the common hit. Tier disjointness makes either order
   correct; empty tiers are skipped without hashing the triple. *)
let mem idx x =
  let dn = Triple.Tbl.length idx.dmem in
  if seg_live idx.fz >= dn then
    frozen_mem idx.fz x || (dn > 0 && Triple.Tbl.mem idx.dmem x)
  else Triple.Tbl.mem idx.dmem x || frozen_mem idx.fz x
let cardinal idx = Triple.Tbl.length idx.dmem + seg_live idx.fz

(* --- delta-tier mutation -------------------------------------------- *)

let push_pair tbl key triple =
  match Pair_tbl.find_opt tbl key with
  | Some cell ->
      cell.items <- triple :: cell.items;
      cell.len <- cell.len + 1
  | None -> Pair_tbl.add tbl key { items = [ triple ]; len = 1; dead = 0 }

let push_int tbl key triple =
  match Int_tbl.find_opt tbl key with
  | Some cell ->
      cell.items <- triple :: cell.items;
      cell.len <- cell.len + 1
  | None -> Int_tbl.add tbl key { items = [ triple ]; len = 1; dead = 0 }

(* Adjust the six posting cells' tombstone counts for a delta triple
   whose liveness just flipped. The cells are guaranteed to exist: a
   delta triple's postings stay in place until [compact], which also
   empties [ddead]. *)
let cell_dead_delta idx (x : Triple.t) by =
  let on_pair tbl key =
    match Pair_tbl.find_opt tbl key with
    | Some cell -> cell.dead <- cell.dead + by
    | None -> ()
  and on_int tbl key =
    match Int_tbl.find_opt tbl key with
    | Some cell -> cell.dead <- cell.dead + by
    | None -> ()
  in
  on_pair idx.by_sr (x.Triple.s, x.Triple.r);
  on_pair idx.by_st (x.Triple.s, x.Triple.t);
  on_pair idx.by_rt (x.Triple.r, x.Triple.t);
  on_int idx.by_s x.Triple.s;
  on_int idx.by_r x.Triple.r;
  on_int idx.by_t x.Triple.t

let add idx (x : Triple.t) =
  if Triple.Tbl.length idx.dmem > 0 && Triple.Tbl.mem idx.dmem x then false
  else if Triple.Tbl.length idx.ddead > 0 && Triple.Tbl.mem idx.ddead x
  then begin
    (* Delta resurrection: the postings never went away. *)
    Triple.Tbl.remove idx.ddead x;
    Triple.Tbl.add idx.dmem x ();
    cell_dead_delta idx x (-1);
    true
  end
  else
    let id = seg_find idx.fz x in
    if id >= 0 then
      if is_dead idx.fz id then begin
        (* Frozen resurrection: clear the tombstone in place. *)
        clear_dead idx.fz id;
        bump_frozen_dead idx.fz x (-1);
        true
      end
      else false
    else begin
      Triple.Tbl.add idx.dmem x ();
      push_pair idx.by_sr (x.Triple.s, x.Triple.r) x;
      push_pair idx.by_st (x.Triple.s, x.Triple.t) x;
      push_pair idx.by_rt (x.Triple.r, x.Triple.t) x;
      push_int idx.by_s x.Triple.s x;
      push_int idx.by_r x.Triple.r x;
      push_int idx.by_t x.Triple.t x;
      true
    end

(* Delta-tier sweep: rebuild each posting cell without its tombstoned
   entries, counting during the filter fold (one pass per cell; cells
   with no tombstones are skipped outright). The frozen tier is not
   touched — its tombstones fold away at the next freeze. *)
let compact idx =
  let gone = idx.ddead in
  let sweep_cell cell =
    if cell.dead > 0 then begin
      let kept, n =
        List.fold_left
          (fun (acc, n) x ->
            if Triple.Tbl.mem gone x then (acc, n) else (x :: acc, n + 1))
          ([], 0) cell.items
      in
      cell.items <- List.rev kept;
      cell.len <- n;
      cell.dead <- 0
    end;
    cell.len = 0
  in
  let doomed_pairs tbl =
    Pair_tbl.fold
      (fun key cell acc -> if sweep_cell cell then key :: acc else acc)
      tbl []
    |> List.iter (Pair_tbl.remove tbl)
  and doomed_ints tbl =
    Int_tbl.fold
      (fun key cell acc -> if sweep_cell cell then key :: acc else acc)
      tbl []
    |> List.iter (Int_tbl.remove tbl)
  in
  doomed_pairs idx.by_sr;
  doomed_pairs idx.by_st;
  doomed_pairs idx.by_rt;
  doomed_ints idx.by_s;
  doomed_ints idx.by_r;
  doomed_ints idx.by_t;
  Triple.Tbl.reset idx.ddead

let remove idx (x : Triple.t) =
  if Triple.Tbl.mem idx.dmem x then begin
    Triple.Tbl.remove idx.dmem x;
    Triple.Tbl.add idx.ddead x ();
    cell_dead_delta idx x 1;
    let dd = Triple.Tbl.length idx.ddead in
    if dd > 64 && dd * 8 > Triple.Tbl.length idx.dmem then compact idx;
    true
  end
  else
    let id = seg_find idx.fz x in
    if id >= 0 && not (is_dead idx.fz id) then begin
      (* O(1): tombstone only; the next freeze folds it away. *)
      set_dead idx.fz id;
      bump_frozen_dead idx.fz x 1;
      true
    end
    else false

(* --- iteration ------------------------------------------------------ *)

let iter f idx =
  let fz = idx.fz in
  let n = seg_len fz in
  if fz.ndead = 0 then
    for id = 0 to n - 1 do
      f (Array.unsafe_get fz.tri id)
    done
  else
    for id = 0 to n - 1 do
      if not (is_dead fz id) then f (Array.unsafe_get fz.tri id)
    done;
  Triple.Tbl.iter (fun x () -> f x) idx.dmem

let to_seq idx =
  let fz = idx.fz in
  let n = seg_len fz in
  let rec frozen id () =
    if id >= n then Triple.Tbl.to_seq_keys idx.dmem ()
    else if is_dead fz id then frozen (id + 1) ()
    else Seq.Cons (fz.tri.(id), frozen (id + 1))
  in
  frozen 0

let iter_cell idx cell f =
  if cell.dead = 0 then List.iter f cell.items
  else
    List.iter
      (fun x -> if not (Triple.Tbl.mem idx.ddead x) then f x)
      cell.items

let iter_pair idx tbl key f =
  match Pair_tbl.find_opt tbl key with
  | Some cell -> iter_cell idx cell f
  | None -> ()

let iter_int idx tbl key f =
  match Int_tbl.find_opt tbl key with
  | Some cell -> iter_cell idx cell f
  | None -> ()

let iter_range fz lo hi f =
  if fz.ndead = 0 then
    for id = lo to hi - 1 do
      f (Array.unsafe_get fz.tri id)
    done
  else
    for id = lo to hi - 1 do
      if not (is_dead fz id) then f (Array.unsafe_get fz.tri id)
    done

let iter_ids fz ids lo hi f =
  if fz.ndead = 0 then
    for i = lo to hi - 1 do
      f (Array.unsafe_get fz.tri (Array.unsafe_get ids i))
    done
  else
    for i = lo to hi - 1 do
      let id = Array.unsafe_get ids i in
      if not (is_dead fz id) then f (Array.unsafe_get fz.tri id)
    done

let frozen_range sp f fz = iter_range fz (span_lo sp) (span_hi sp) f
let frozen_posting ids sp f fz = iter_ids fz ids (span_lo sp) (span_hi sp) f

let candidates idx ~s ~r ~tgt f =
  let fz = idx.fz in
  match (s, r, tgt) with
  | Some s, Some r, Some t ->
      let x = Triple.make s r t in
      if mem idx x then f x
  | Some s, Some r, None ->
      frozen_range (find_span fz.r_sr (key2 s r)) f fz;
      iter_pair idx idx.by_sr (s, r) f
  | Some s, None, Some t ->
      frozen_posting fz.o_st (find_span fz.p_st (key2 s t)) f fz;
      iter_pair idx idx.by_st (s, t) f
  | None, Some r, Some t ->
      frozen_posting fz.o_rt (find_span fz.p_rt (key2 r t)) f fz;
      iter_pair idx idx.by_rt (r, t) f
  | Some s, None, None ->
      frozen_range (find_span fz.r_s s) f fz;
      iter_int idx idx.by_s s f
  | None, Some r, None ->
      frozen_posting fz.o_r (find_span fz.p_r r) f fz;
      iter_int idx idx.by_r r f
  | None, None, Some t ->
      frozen_posting fz.o_t (find_span fz.p_t t) f fz;
      iter_int idx idx.by_t t f
  | None, None, None -> iter f idx

(* --- exact O(1) counts ---------------------------------------------- *)

let cell_live_pair tbl key =
  match Pair_tbl.find_opt tbl key with
  | Some cell -> cell.len - cell.dead
  | None -> 0

let cell_live_int tbl key =
  match Int_tbl.find_opt tbl key with
  | Some cell -> cell.len - cell.dead
  | None -> 0

(* Ranges and postings are both spans, so one count serves every path. *)
let frozen_live sp dead key =
  if sp = 0 then 0 else span_hi sp - span_lo sp - dead_i dead key

let count idx ~s ~r ~tgt =
  let fz = idx.fz in
  match (s, r, tgt) with
  | Some s, Some r, Some t -> if mem idx (Triple.make s r t) then 1 else 0
  | Some s, Some r, None ->
      frozen_live (find_span fz.r_sr (key2 s r)) fz.d_sr (key2 s r)
      + cell_live_pair idx.by_sr (s, r)
  | Some s, None, Some t ->
      frozen_live (find_span fz.p_st (key2 s t)) fz.d_st (key2 s t)
      + cell_live_pair idx.by_st (s, t)
  | None, Some r, Some t ->
      frozen_live (find_span fz.p_rt (key2 r t)) fz.d_rt (key2 r t)
      + cell_live_pair idx.by_rt (r, t)
  | Some s, None, None ->
      frozen_live (find_span fz.r_s s) fz.d_s s + cell_live_int idx.by_s s
  | None, Some r, None ->
      frozen_live (find_span fz.p_r r) fz.d_r r + cell_live_int idx.by_r r
  | None, None, Some t ->
      frozen_live (find_span fz.p_t t) fz.d_t t + cell_live_int idx.by_t t
  | None, None, None -> cardinal idx

let count_s idx s =
  frozen_live (find_span idx.fz.r_s s) idx.fz.d_s s + cell_live_int idx.by_s s

let count_t idx t =
  frozen_live (find_span idx.fz.p_t t) idx.fz.d_t t + cell_live_int idx.by_t t

(* --- freezing ------------------------------------------------------- *)

let dummy_triple = Triple.make 0 0 0

(* [ids] stably sorted by [key.(id)] (keys are non-negative): an LSD
   radix sort, 11 bits a pass, so dense entity ids take two counting
   passes and no comparison. [ids] itself is left untouched. *)
let radix_bits = 11
let radix_mask = (1 lsl radix_bits) - 1

let sort_ids_by (key : int array) (ids : int array) =
  let n = Array.length ids in
  let top = ref 0 in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get key (Array.unsafe_get ids i) in
    if k > !top then top := k
  done;
  let counts = Array.make (radix_mask + 2) 0 in
  let src = ref ids and spare = ref [||] and shift = ref 0 in
  while !shift = 0 || !top lsr !shift > 0 do
    let sh = !shift and from = !src in
    let into = if Array.length !spare = n then !spare else Array.make n 0 in
    Array.fill counts 0 (radix_mask + 2) 0;
    for i = 0 to n - 1 do
      let b = 1 + ((Array.unsafe_get key (Array.unsafe_get from i) lsr sh) land radix_mask) in
      Array.unsafe_set counts b (Array.unsafe_get counts b + 1)
    done;
    for b = 1 to radix_mask + 1 do
      Array.unsafe_set counts b (Array.unsafe_get counts b + Array.unsafe_get counts (b - 1))
    done;
    for i = 0 to n - 1 do
      let id = Array.unsafe_get from i in
      let b = (Array.unsafe_get key id lsr sh) land radix_mask in
      let at = Array.unsafe_get counts b in
      Array.unsafe_set into at id;
      Array.unsafe_set counts b (at + 1)
    done;
    if from != ids then spare := from;
    src := into;
    shift := sh + radix_bits
  done;
  !src

(* One table entry per run of equal [key i] over positions [0, n): the
   run's span. Sized to the exact run count, so it never rehashes. *)
let runs n key =
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || key i <> key (i - 1) then incr distinct
  done;
  let tbl = Int_tbl.create (max 1 !distinct) in
  let lo = ref 0 in
  for i = 1 to n do
    if i = n || key i <> key !lo then begin
      Int_tbl.add tbl (key !lo) (span !lo i);
      lo := i
    end
  done;
  tbl

(* Build a segment over [tris], which must be sorted by [Triple.compare]
   and duplicate-free; the segment keeps the array as its spine. Ids are
   grouped by radix-sorting on each coordinate and every key table is
   filled once per distinct key — no hashtable operation per fact. *)
let build_seg (tris : Triple.t array) : seg =
  let n = Array.length tris in
  let fs = Array.make n 0 and fr = Array.make n 0 and ft = Array.make n 0 in
  for id = 0 to n - 1 do
    let x = Array.unsafe_get tris id in
    Array.unsafe_set fs id x.Triple.s;
    Array.unsafe_set fr id x.Triple.r;
    Array.unsafe_set ft id x.Triple.t
  done;
  let o_t = sort_ids_by ft (Array.init n Fun.id) in
  let o_r = sort_ids_by fr (Array.init n Fun.id) in
  let o_rt = sort_ids_by fr o_t in
  let o_st = sort_ids_by fs o_t in
  {
    tri = tris;
    fs;
    fr;
    ft;
    dead_bits = Bytes.make ((n + 7) / 8) '\000';
    ndead = 0;
    r_s = runs n (fun i -> fs.(i));
    r_sr = runs n (fun i -> key2 fs.(i) fr.(i));
    o_r;
    o_t;
    o_st;
    o_rt;
    p_r = runs n (fun i -> fr.(o_r.(i)));
    p_t = runs n (fun i -> ft.(o_t.(i)));
    p_st = runs n (fun i -> let id = o_st.(i) in key2 fs.(id) ft.(id));
    p_rt = runs n (fun i -> let id = o_rt.(i) in key2 fr.(id) ft.(id));
    d_s = Int_tbl.create 16;
    d_r = Int_tbl.create 16;
    d_t = Int_tbl.create 16;
    d_sr = Int_tbl.create 16;
    d_st = Int_tbl.create 16;
    d_rt = Int_tbl.create 16;
  }

let clear_delta idx =
  Triple.Tbl.reset idx.dmem;
  Triple.Tbl.reset idx.ddead;
  Pair_tbl.reset idx.by_sr;
  Pair_tbl.reset idx.by_st;
  Pair_tbl.reset idx.by_rt;
  Int_tbl.reset idx.by_s;
  Int_tbl.reset idx.by_r;
  Int_tbl.reset idx.by_t

let strictly_ascending (arr : Triple.t array) =
  let ok = ref true and i = ref 1 in
  while !ok && !i < Array.length arr do
    ok := Triple.compare arr.(!i - 1) arr.(!i) < 0;
    incr i
  done;
  !ok

(* The union of two sorted, duplicate-free arrays, sorted and
   duplicate-free. *)
let union (a : Triple.t array) (b : Triple.t array) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) dummy_triple in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < na || !j < nb do
      let c =
        if !i = na then 1 else if !j = nb then -1 else Triple.compare a.(!i) b.(!j)
      in
      out.(!w) <- (if c <= 0 then a.(!i) else b.(!j));
      incr w;
      if c <= 0 then incr i;
      if c >= 0 then incr j
    done;
    if !w = na + nb then out else Array.sub out 0 !w
  end

(* The live content in spine order: the frozen live run merged with the
   sorted delta. *)
let live_sorted idx =
  let fz = idx.fz in
  let frozen =
    if fz.ndead = 0 then fz.tri
    else begin
      let out = Array.make (seg_live fz) dummy_triple and w = ref 0 in
      Array.iteri
        (fun id x ->
          if not (is_dead fz id) then begin
            out.(!w) <- x;
            incr w
          end)
        fz.tri;
      out
    end
  in
  let delta = Array.make (Triple.Tbl.length idx.dmem) dummy_triple and w = ref 0 in
  Triple.Tbl.iter
    (fun x () ->
      delta.(!w) <- x;
      incr w)
    idx.dmem;
  Array.sort Triple.compare delta;
  (* The tiers are disjoint — [add] resurrects rather than re-inserting. *)
  union frozen delta

(* Fold the delta, every tombstone and the sorted, duplicate-free [extra]
   into one fresh segment. *)
let rebuild idx extra =
  idx.fz <- build_seg (union (live_sorted idx) extra);
  clear_delta idx;
  idx.freezes <- idx.freezes + 1

let freeze idx =
  if Triple.Tbl.length idx.dmem = 0 && idx.fz.ndead = 0 then begin
    (* Nothing to fold into the spine: just drop the (entirely dead, if
       anything) delta postings. Covers the 100%-dead-delta case without
       a rebuild. *)
    clear_delta idx;
    idx.freezes <- idx.freezes + 1
  end
  else rebuild idx [||]

(* [arr] sorted and without duplicates; [arr] itself when it already
   ascends strictly. *)
let sorted_distinct (arr : Triple.t array) =
  if strictly_ascending arr then arr
  else begin
    let a = Array.copy arr in
    Array.sort Triple.compare a;
    let w = ref 0 in
    Array.iteri
      (fun i x ->
        if i = 0 || Triple.compare a.(!w - 1) x <> 0 then begin
          a.(!w) <- x;
          incr w
        end)
      a;
    if !w = Array.length a then a else Array.sub a 0 !w
  end

let load idx arr = rebuild idx (sorted_distinct arr)

(* --- freeze policy -------------------------------------------------- *)

type policy = Always | Never | Watermark

(* The smallest delta [Watermark] folds: below it, list cells are cheap
   enough that a rebuild would not pay for itself. *)
let min_delta = 8192

let freeze_policy = ref Watermark
let set_policy p = freeze_policy := p
let policy () = !freeze_policy

let wants_freeze idx =
  let fz = idx.fz in
  let dn = Triple.Tbl.length idx.dmem + Triple.Tbl.length idx.ddead in
  let fn = seg_len fz in
  (dn >= min_delta && dn * 4 >= fn)
  || (fz.ndead > 64 && fz.ndead * 8 > fn)

let quiesce idx =
  match !freeze_policy with
  | Never -> ()
  | Always -> freeze idx
  | Watermark -> if wants_freeze idx then freeze idx

(* --- bulk load ------------------------------------------------------ *)

let bulk_add idx (arr : Triple.t array) =
  let n = Array.length arr in
  let virgin =
    seg_len idx.fz = 0
    && Triple.Tbl.length idx.dmem = 0
    && Triple.Tbl.length idx.ddead = 0
  in
  let fast =
    virgin
    &&
    match !freeze_policy with
    | Never -> false
    | Always -> true
    | Watermark -> n >= min_delta
  in
  if not fast then begin
    let fresh = ref [] in
    Array.iter (fun x -> if add idx x then fresh := x :: !fresh) arr;
    List.rev !fresh
  end
  else if strictly_ascending arr then begin
    (* Already in spine order: every triple is fresh, in input order. *)
    rebuild idx arr;
    Array.to_list arr
  end
  else begin
    (* Sort a permutation by (triple, first occurrence): run heads are
       the distinct triples in spine order AND carry the earliest input
       position, which recovers the fresh-triple order an add loop would
       have reported. *)
    let perm = Array.init n (fun i -> i) in
    Array.sort
      (fun i j ->
        let c = Triple.compare arr.(i) arr.(j) in
        if c <> 0 then c else Int.compare i j)
      perm;
    let heads = ref [] in
    for k = n - 1 downto 0 do
      if k = 0 || Triple.compare arr.(perm.(k)) arr.(perm.(k - 1)) <> 0 then
        heads := perm.(k) :: !heads
    done;
    let firsts = Array.of_list !heads in
    rebuild idx (Array.map (fun p -> arr.(p)) firsts);
    Array.sort Int.compare firsts;
    Array.fold_right (fun p acc -> arr.(p) :: acc) firsts []
  end

(* --- entity occurrences --------------------------------------------- *)

let occurrences idx f =
  let fz = idx.fz in
  let emit e n = if n > 0 then f e n in
  let frozen tbl dead =
    Int_tbl.iter (fun e sp -> emit e (span_hi sp - span_lo sp - dead_i dead e)) tbl
  in
  let delta tbl = Int_tbl.iter (fun e cell -> emit e (cell.len - cell.dead)) tbl in
  frozen fz.r_s fz.d_s;
  frozen fz.p_r fz.d_r;
  frozen fz.p_t fz.d_t;
  delta idx.by_s;
  delta idx.by_r;
  delta idx.by_t

(* --- tier statistics ------------------------------------------------ *)

type tier_stats = {
  frozen_live : int;
  frozen_dead : int;
  delta_live : int;
  delta_dead : int;
  freezes : int;
}

let tier_stats idx =
  {
    frozen_live = seg_live idx.fz;
    frozen_dead = idx.fz.ndead;
    delta_live = Triple.Tbl.length idx.dmem;
    delta_dead = Triple.Tbl.length idx.ddead;
    freezes = idx.freezes;
  }

let zero_stats =
  { frozen_live = 0; frozen_dead = 0; delta_live = 0; delta_dead = 0; freezes = 0 }

let sum_stats a b =
  {
    frozen_live = a.frozen_live + b.frozen_live;
    frozen_dead = a.frozen_dead + b.frozen_dead;
    delta_live = a.delta_live + b.delta_live;
    delta_dead = a.delta_dead + b.delta_dead;
    freezes = a.freezes + b.freezes;
  }

(* --- galloping intersection ----------------------------------------- *)

type hinge = Out of { s : int; r : int } | In of { r : int; t : int } | Via of { s : int; t : int }

let hinge_triple h v =
  match h with
  | Out { s; r } -> Triple.make s r v
  | In { r; t } -> Triple.make v r t
  | Via { s; t } -> Triple.make s v t

(* A hinge's frozen posting: [f_len] ids whose free coordinate
   ([f_proj].(id)) ascends, from position [f_lo] on. [f_ids == no_ids]
   marks a contiguous spine range (ids are positions); otherwise ids come
   from the id order [f_ids]. An id order is empty only in an empty
   segment, where [f_len] is 0, so the physical equality is
   unambiguous. *)
let no_ids : int array = [||]

type fspan = { f_ids : int array; f_lo : int; f_len : int; f_proj : int array }

let fspan_of idx h =
  let fz = idx.fz in
  let of_span sp ids proj =
    { f_ids = ids; f_lo = span_lo sp; f_len = span_hi sp - span_lo sp; f_proj = proj }
  in
  match h with
  | Out { s; r } -> of_span (find_span fz.r_sr (key2 s r)) no_ids fz.ft
  | In { r; t } -> of_span (find_span fz.p_rt (key2 r t)) fz.o_rt fz.fs
  | Via { s; t } -> of_span (find_span fz.p_st (key2 s t)) fz.o_st fz.fr

let sp_id sp i =
  if sp.f_ids == no_ids then sp.f_lo + i else Array.unsafe_get sp.f_ids (sp.f_lo + i)

let sp_val sp i = Array.unsafe_get sp.f_proj (sp_id sp i)

(* Least index in [lo, f_len) whose value is >= v: exponential probe from
   [lo], then binary search inside the bracket. *)
let gallop_ge sp v lo =
  let len = sp.f_len in
  if lo >= len || sp_val sp lo >= v then lo
  else begin
    let step = ref 1 and prev = ref lo and cur = ref (lo + 1) in
    while !cur < len && sp_val sp !cur < v do
      prev := !cur;
      step := !step lsl 1;
      cur := !cur + !step
    done;
    let lo = ref (!prev + 1) and hi = ref (min !cur len) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if sp_val sp mid < v then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* Symmetric gallop: each miss skips the other side forward past the
   gap, so runtime is O(min log max) instead of O(min + max). Tombstoned
   ids participate in the search but are filtered at emission — a value
   is emitted only when both sides' ids are live. *)
let intersect_frozen fz a b emit =
  if a.f_len > 0 && b.f_len > 0 then begin
    let a, b = if a.f_len <= b.f_len then (a, b) else (b, a) in
    let i = ref 0 and j = ref 0 in
    while !i < a.f_len && !j < b.f_len do
      let v = sp_val a !i in
      j := gallop_ge b v !j;
      if !j < b.f_len then begin
        let w = sp_val b !j in
        if w = v then begin
          if
            (not (is_dead fz (sp_id a !i))) && not (is_dead fz (sp_id b !j))
          then emit v;
          incr i;
          incr j
        end
        else i := gallop_ge a w !i
      end
    done
  end

(* Live delta triples matching the hinge, projected to the free
   coordinate. *)
let delta_hinge_iter idx h f =
  match h with
  | Out { s; r } -> iter_pair idx idx.by_sr (s, r) (fun x -> f x.Triple.t)
  | In { r; t } -> iter_pair idx idx.by_rt (r, t) (fun x -> f x.Triple.s)
  | Via { s; t } -> iter_pair idx idx.by_st (s, t) (fun x -> f x.Triple.r)

(* [intersect idx h1 h2 emit]: every entity that fills both hinges' free
   position, each exactly once, in a deterministic order for a fixed
   index state. Frozen×frozen matches gallop (ascending entity order);
   the delta tiers are reconciled by probing the opposite side — the
   three parts are disjoint because a hinge's frozen and delta value
   sets are. *)
let intersect idx h1 h2 emit =
  intersect_frozen idx.fz (fspan_of idx h1) (fspan_of idx h2) emit;
  delta_hinge_iter idx h1 (fun v -> if mem idx (hinge_triple h2 v) then emit v);
  delta_hinge_iter idx h2 (fun v ->
      if frozen_mem idx.fz (hinge_triple h1 v) then emit v)
