(* The table-based broadness structure, kept as the oracle for the view
   in lib/core/broadness.ml: one pass over the closure's ⊑ extent copies
   it into up/down adjacency tables, and covers are found by scanning
   every pair of an entity's generalizations (quadratic on class hubs). *)

open Lsdb
module Int_tbl = Hashtbl.Make (Int)

type t = {
  ups : Entity.t list Int_tbl.t;  (* strict generalizations *)
  downs : Entity.t list Int_tbl.t;  (* strict specializations *)
  up_sets : unit Int_tbl.t Int_tbl.t;  (* membership view of ups *)
}

let compute db =
  let ups = Int_tbl.create 64 in
  let downs = Int_tbl.create 64 in
  let up_sets = Int_tbl.create 64 in
  let push tbl key v =
    Int_tbl.replace tbl key (v :: Option.value ~default:[] (Int_tbl.find_opt tbl key))
  in
  Closure.match_pattern (Database.closure db) (Store.pattern ~r:Entity.gen ()) (fun fact ->
      if not (Entity.equal fact.s fact.t) then begin
        push ups fact.s fact.t;
        push downs fact.t fact.s;
        let set =
          match Int_tbl.find_opt up_sets fact.s with
          | Some set -> set
          | None ->
              let set = Int_tbl.create 8 in
              Int_tbl.add up_sets fact.s set;
              set
        in
        Int_tbl.replace set fact.t ()
      end);
  { ups; downs; up_sets }

let generalizations t e = Option.value ~default:[] (Int_tbl.find_opt t.ups e)
let specializations t e = Option.value ~default:[] (Int_tbl.find_opt t.downs e)

let in_ups t e e' =
  match Int_tbl.find_opt t.up_sets e with Some set -> Int_tbl.mem set e' | None -> false

let covers_up t a =
  let ups = generalizations t a in
  List.filter
    (fun b ->
      not
        (List.exists
           (fun x ->
             (not (Entity.equal x b))
             && (not (in_ups t x a))
             && in_ups t x b
             && not (in_ups t b x))
           ups))
    ups

let covers_down t a =
  let downs = specializations t a in
  List.filter
    (fun b ->
      not
        (List.exists
           (fun x ->
             (not (Entity.equal x b))
             && (not (in_ups t a x))
             && in_ups t b x
             && not (in_ups t x b))
           downs))
    downs

let minimal_generalizations t e =
  if Entity.equal e Entity.top then []
  else match covers_up t e with [] -> [ Entity.top ] | covers -> covers

let minimal_specializations t e =
  if Entity.equal e Entity.bottom then []
  else match covers_down t e with [] -> [ Entity.bottom ] | covers -> covers
