module Governor = Lsdb_exec.Governor

type provenance = { rule : string; premises : Triple.t list }

(* A read-only set of triples: one {!Index.t} for a stratum
   ({!Stratum}), the caller's store for the demand evaluator. The join
   loops below only ever need the three probes, so evaluating over a view
   costs one closure indirection per probe. *)
type view = {
  v_iter : s:int option -> r:int option -> tgt:int option -> (Triple.t -> unit) -> unit;
  v_mem : Triple.t -> bool;
  v_count : s:int option -> r:int option -> tgt:int option -> int;
  v_cardinal : unit -> int;
  v_seq : unit -> Triple.t Seq.t;
}

let view_of_index idx =
  {
    v_iter = (fun ~s ~r ~tgt f -> Index.candidates idx ~s ~r ~tgt f);
    v_mem = (fun triple -> Index.mem idx triple);
    v_count = (fun ~s ~r ~tgt -> Index.count idx ~s ~r ~tgt);
    v_cardinal = (fun () -> Index.cardinal idx);
    v_seq = (fun () -> Index.to_seq idx);
  }

(* Check every guard that is fully bound; fail fast on the first violated
   one. Guards whose variables are still unbound are deferred to a later
   atom (and are guaranteed checkable at the end because rules are safe). *)
let guards_ok binding guards =
  List.for_all
    (fun g -> match Guard.check binding g with Some false -> false | Some true | None -> true)
    guards

let atom_pattern binding (atom : Atom.t) =
  ( Term.subst binding atom.s,
    Term.subst binding atom.r,
    Term.subst binding atom.t )

(* Semi-naive body evaluation: every produced binding uses at least one
   premise from [delta]; the remaining atoms are matched against [full].
   [delta] is an {e ordered array} and is iterated outermost, each triple
   tried at every body position — so the emission order depends only on
   the delta order and on [full], never on how the delta happens to be
   split across domains (the parallel rounds rely on exactly this).
   Leading with the delta triple also binds variables that make the
   remaining full-index probes selective. [emit binding premises] is
   called for each complete match, premises in body order. *)
let eval_rule (rule : Rule.t) ~(full : view) ~delta ~emit =
  let binding = Array.make (max rule.nvars 1) (-1) in
  let body = Array.of_list rule.body in
  let n = Array.length body in
  let premises = Array.make n (Triple.make (-1) (-1) (-1)) in
  let rest_of = Array.init n (fun k -> List.filter (fun i -> i <> k) (List.init n Fun.id)) in
  let rec go = function
    | [] ->
        if guards_ok binding rule.guards then emit binding (Array.to_list premises)
    | i :: rest ->
        let atom = body.(i) in
        let s, r, tgt = atom_pattern binding atom in
        full.v_iter ~s ~r ~tgt (fun triple ->
            match Atom.match_against binding atom triple with
            | None -> ()
            | Some newly ->
                premises.(i) <- triple;
                if guards_ok binding rule.guards then go rest;
                List.iter (fun v -> binding.(v) <- -1) newly)
  in
  Array.iter
    (fun dtriple ->
      for k = 0 to n - 1 do
        match Atom.match_against binding body.(k) dtriple with
        | None -> ()
        | Some newly ->
            premises.(k) <- dtriple;
            if guards_ok binding rule.guards then go rest_of.(k);
            List.iter (fun v -> binding.(v) <- -1) newly
      done)
    delta

(* One semi-naive round over a frozen [full]: evaluate every rule against
   one delta chunk, buffering (head, premises) emissions per rule. The
   index is not mutated here, so chunks can run on separate domains; a
   local seen-table bounds the buffers (keeping the first emission in the
   chunk's rule-major stream, which is also the one the deterministic
   barrier merge would keep). *)
let round_view ?gov rules ~(full : view) chunk =
  let seen = Triple.Tbl.create 64 in
  let buffers = Array.make (Array.length rules) [] in
  (* Work units accumulate in a lane-local ticker and reach the governor
     in batches: two atomic RMWs per emission (and per rule on small
     deltas) cost more than the joins they were metering on the
     incremental kernels B19 gates (see {!Governor.ticker}). *)
  let tk = Governor.ticker gov in
  Array.iteri
    (fun ri (rule : Rule.t) ->
      Governor.bump tk (Array.length chunk);
      eval_rule rule ~full ~delta:chunk ~emit:(fun binding premises ->
          Governor.bump tk 1;
          List.iter
            (fun head ->
              match Atom.instantiate binding head with
              | None -> ()
              | Some triple ->
                  if (not (full.v_mem triple)) && not (Triple.Tbl.mem seen triple)
                  then begin
                    Triple.Tbl.add seen triple ();
                    buffers.(ri) <- (triple, premises) :: buffers.(ri)
                  end)
            rule.heads))
    rules;
  Governor.flush_ticks tk;
  Array.map List.rev buffers

exception Derivation of provenance

(* Goal-directed single-fact check: is [fact] derivable in one rule
   application from the facts currently in [full]? Unify each rule head
   with [fact], then join the body over the index exactly as [eval_rule]
   does. Read-only, so chunks of these checks can run on separate
   domains. Any derivation found is well-founded: [fact] itself is not in
   [full] when this runs ({!Stratum.retract} dropped it first), so it
   cannot support itself.

   Body atoms are joined most-selective-first ([Index.count] under the
   bindings accumulated so far), not in written order: with the head
   fully bound, a rule usually has one body atom pinned to the deleted
   fact's entities (a handful of candidates) and another anchored only on
   a hub key (thousands) — leading with the hub atom made each check cost
   a bucket scan per cone fact. *)
let find_derivation_view rules ~(full : view) fact =
  let check (rule : Rule.t) =
    let binding = Array.make (max rule.nvars 1) (-1) in
    let body = Array.of_list rule.body in
    let n = Array.length body in
    let premises = Array.make n (Triple.make (-1) (-1) (-1)) in
    let rec go remaining =
      match remaining with
      | [] ->
          if guards_ok binding rule.guards then
            raise
              (Derivation { rule = rule.name; premises = Array.to_list premises })
      | _ ->
          let best = ref (-1) and best_n = ref max_int in
          List.iter
            (fun i ->
              let s, r, tgt = atom_pattern binding body.(i) in
              let c = full.v_count ~s ~r ~tgt in
              if c < !best_n then begin
                best := i;
                best_n := c
              end)
            remaining;
          let i = !best in
          let rest = List.filter (fun j -> j <> i) remaining in
          let atom = body.(i) in
          let s, r, tgt = atom_pattern binding atom in
          full.v_iter ~s ~r ~tgt (fun triple ->
              match Atom.match_against binding atom triple with
              | None -> ()
              | Some newly ->
                  premises.(i) <- triple;
                  if guards_ok binding rule.guards then go rest;
                  List.iter (fun v -> binding.(v) <- -1) newly)
    in
    List.iter
      (fun head ->
        Array.fill binding 0 (Array.length binding) (-1);
        match Atom.match_against binding head fact with
        | None -> ()
        | Some _ -> if guards_ok binding rule.guards then go (List.init n Fun.id))
      rule.heads
  in
  match List.iter check rules with
  | () -> None
  | exception Derivation prov -> Some prov

