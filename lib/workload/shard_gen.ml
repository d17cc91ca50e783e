type params = {
  facts : int;
  entities : int;
  relationships : int;
  classes : int;
  memberships : int;
  skew : float;
}

let default_params =
  {
    facts = 100_000;
    entities = 20_000;
    relationships = 16;
    classes = 40;
    memberships = 400;
    skew = 0.8;
  }

type t = { params : params; facts : (string * string * string) list }

let entity_name i = Printf.sprintf "E%d" i
let class_name i = Printf.sprintf "CAT%d" i
let rel_name i = Printf.sprintf "REL%d" i

let generate ?(params = default_params) rng =
  if params.entities < 1 || params.relationships < 1 || params.classes < 2 then
    invalid_arg "Shard_gen.generate: need entities, relationships and classes";
  let out = ref [] in
  let add s r t = out := (s, r, t) :: !out in
  (* A small two-level taxonomy: the first quarter of the classes are
     roots under TOP, the rest subclasses of a root. Membership facts
     then generalize through it — a couple of semi-naive rounds, a few
     percent derived. The heavy lifting of the workload is the flat
     individual-relationship graph below, which derives {e nothing}:
     closure cost is dominated by how the evaluation reads the base
     facts, which is exactly what B20 is measuring. *)
  let roots = max 1 (params.classes / 4) in
  for i = 0 to roots - 1 do
    add (class_name i) "⊑" "TOP"
  done;
  for i = roots to params.classes - 1 do
    add (class_name i) "⊑" (class_name (i mod roots))
  done;
  (* The shard keys: source entities drawn from a Zipf over the entity
     ranks. With skew 0 every entity is equally likely and the hash
     partition balances; at skew ≈ 1 a handful of hot sources own a
     large slice of the facts, and whole hot keys land on single shards
     (hash partitioning splits keys, never a key's postings) — the
     imbalance the partitioner tests and the store's shard cardinals
     exercise. *)
  let source_zipf = Zipf.create ~n:params.entities ~s:params.skew in
  let rel_names = Array.init params.relationships rel_name in
  for _ = 1 to params.facts do
    let s = entity_name (Zipf.sample source_zipf rng) in
    let t = entity_name (Rng.int rng params.entities) in
    add s rel_names.(Rng.int rng params.relationships) t
  done;
  let members = min params.memberships params.entities in
  for i = 0 to members - 1 do
    add (entity_name i) "∈" (class_name (roots + (i mod (params.classes - roots))))
  done;
  { params; facts = List.rev !out }

let fact_count t = List.length t.facts

let to_database ?(max_facts = 2_000_000) ?shards t =
  let db = Lsdb.Database.create ~max_facts ?shards () in
  List.iter
    (fun (s, r, tgt) -> ignore (Lsdb.Database.insert_names db s r tgt))
    t.facts;
  db
