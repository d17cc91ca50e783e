(* The support index inverts the provenance table: premise ↦ the facts
   whose recorded derivation uses it. *)
type support = {
  deps : unit Triple.Tbl.t Triple.Tbl.t;
  mutable edges : int;
}

type t = {
  provenance : Engine.provenance Triple.Tbl.t;
  mutable support : support option;  (* built by the first [cone] *)
}

let create () = { provenance = Triple.Tbl.create 256; support = None }

let support_add support fact ({ premises; _ } : Engine.provenance) =
  List.iter
    (fun premise ->
      let cell =
        match Triple.Tbl.find_opt support.deps premise with
        | Some cell -> cell
        | None ->
            let cell = Triple.Tbl.create 4 in
            Triple.Tbl.add support.deps premise cell;
            cell
      in
      if not (Triple.Tbl.mem cell fact) then begin
        Triple.Tbl.add cell fact ();
        support.edges <- support.edges + 1
      end)
    premises

let support_drop support fact ({ premises; _ } : Engine.provenance) =
  List.iter
    (fun premise ->
      match Triple.Tbl.find_opt support.deps premise with
      | None -> ()
      | Some cell ->
          if Triple.Tbl.mem cell fact then begin
            Triple.Tbl.remove cell fact;
            support.edges <- support.edges - 1;
            if Triple.Tbl.length cell = 0 then Triple.Tbl.remove support.deps premise
          end)
    premises

(* [record] and [forget] are the only writes to the provenance table:
   they keep the support index (once built) in step with it. *)
let record t fact prov =
  (match t.support with
  | Some support -> (
      (match Triple.Tbl.find_opt t.provenance fact with
      | Some old -> support_drop support fact old
      | None -> ());
      support_add support fact prov)
  | None -> ());
  Triple.Tbl.replace t.provenance fact prov

let forget t fact =
  match Triple.Tbl.find_opt t.provenance fact with
  | None -> ()
  | Some old ->
      Option.iter (fun support -> support_drop support fact old) t.support;
      Triple.Tbl.remove t.provenance fact

let find t fact = Triple.Tbl.find_opt t.provenance fact
let mem t fact = Triple.Tbl.mem t.provenance fact
let length t = Triple.Tbl.length t.provenance
let iter f t = Triple.Tbl.iter f t.provenance

let force_support t =
  match t.support with
  | Some support -> support
  | None ->
      let support = { deps = Triple.Tbl.create 256; edges = 0 } in
      Triple.Tbl.iter (support_add support) t.provenance;
      t.support <- Some support;
      support

let cone t roots =
  let support = force_support t in
  let seen = Triple.Tbl.create 64 in
  let stack = Stack.create () in
  let enter fact =
    if not (Triple.Tbl.mem seen fact) then begin
      Triple.Tbl.add seen fact ();
      Stack.push fact stack
    end
  in
  List.iter enter roots;
  while not (Stack.is_empty stack) do
    match Triple.Tbl.find_opt support.deps (Stack.pop stack) with
    | None -> ()
    | Some cell -> Triple.Tbl.iter (fun dep () -> enter dep) cell
  done;
  List.sort Triple.compare (Triple.Tbl.fold (fun fact () acc -> fact :: acc) seen [])

let support_size t = match t.support with Some { edges; _ } -> edges | None -> 0
