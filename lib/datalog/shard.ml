type plan = int

let plan n = max 1 n
let shards plan = plan

(* Multiplicative hashing with an avalanche finisher: interned entity
   ids are small consecutive integers, so without the finisher shard 0
   would own every hub entity allocated early (the axioms, the
   generators' class entities). Constants are the usual 32-bit
   Murmur3-style mix. *)
let mix e =
  let h = e * 0x9e3779b1 in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b in
  let h = h lxor (h lsr 13) in
  h land max_int

let of_entity plan e = if plan = 1 then 0 else mix e mod plan
let of_triple plan (triple : Triple.t) = of_entity plan triple.s
