(* A view, not a copy: every read goes to the closure's own ⊑ postings
   through the mode-aware accessors, so nothing is rebuilt after a write,
   and in demand mode each read is a per-entity goal — a probe derives
   only the ancestors and descendants of its own constants. *)
type t = Database.t

let of_db db = db

let strict_ends db pat pick =
  let acc = ref [] in
  Database.closure_match db pat (fun (fact : Fact.t) ->
      if not (Entity.equal fact.s fact.t) then acc := pick fact :: !acc);
  List.sort_uniq Entity.compare !acc

let generalizations db e =
  strict_ends db (Store.pattern ~s:e ~r:Entity.gen ()) (fun fact -> fact.t)

let specializations db e =
  strict_ends db (Store.pattern ~r:Entity.gen ~t:e ()) (fun fact -> fact.s)

let in_ups db e e' =
  (not (Entity.equal e e')) && Database.closure_mem db (Fact.make e Entity.gen e')

let is_generalization db ~of_ e' = Entity.equal e' Entity.top || in_ups db of_ e'

(* Is some x strictly between [below] ⊏ [above]: above the one, below the
   other, and a synonym of neither? The candidates are ups(below) ∩
   downs(above); walk whichever side the O(1) posting counts say is
   shorter, so each member of a class hub costs a walk of its own few
   generalizations rather than of the hub's thousands of members. *)
let has_between db ~below ~above =
  let neither x = (not (in_ups db x below)) && not (in_ups db above x) in
  let count pat = Database.count_hint db pat in
  if
    count (Store.pattern ~s:below ~r:Entity.gen ())
    <= count (Store.pattern ~r:Entity.gen ~t:above ())
  then List.exists (fun x -> in_ups db x above && neither x) (generalizations db below)
  else List.exists (fun x -> in_ups db below x && neither x) (specializations db above)

(* b is a cover of a iff a ⊏ b with no x strictly between: the paper's
   minimal generalization. Synonym pairs (mutual ⊑) cover each other. *)
let covers_up db a =
  List.filter (fun b -> not (has_between db ~below:a ~above:b)) (generalizations db a)

let covers_down db a =
  List.filter (fun b -> not (has_between db ~below:b ~above:a)) (specializations db a)

let minimal_generalizations db e =
  if Entity.equal e Entity.top then []
  else match covers_up db e with [] -> [ Entity.top ] | covers -> covers

let minimal_specializations db e =
  if Entity.equal e Entity.bottom then []
  else match covers_down db e with [] -> [ Entity.bottom ] | covers -> covers

let height db e =
  (* Longest strict chain upward; the hierarchy may contain synonym
     cycles, so visited entities are never re-entered. *)
  let rec go visited e =
    let nexts =
      List.filter (fun e' -> not (List.exists (Entity.equal e') visited)) (covers_up db e)
    in
    match nexts with
    | [] -> 0
    | _ -> 1 + List.fold_left (fun acc e' -> max acc (go (e :: visited) e')) 0 nexts
  in
  go [] e
