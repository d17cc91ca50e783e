let magic = "LSDB\x02"

exception Corrupt of string

let encode ?(epoch = 0) db =
  let open Lsdb in
  let symtab = Database.symtab db in
  let w = Codec.writer ~size_hint:4096 () in
  Codec.write_raw w magic;
  Codec.write_varint w epoch;
  let axioms = Fact.Set.of_list Database.axiom_facts in
  let facts =
    Array.of_list
      (List.filter (fun fact -> not (Fact.Set.mem fact axioms)) (Database.facts db))
  in
  Array.sort Fact.compare facts;
  let declarations = Relclass.declarations (Database.relclass db) in
  (* Dictionary: every user entity used below gets a dense index, in
     ascending id order. The specials are implicit (they exist in every
     database) and keep their ids, so the renaming is monotone and the
     sorted facts stay sorted under it: a reopen interns the names in
     this order and gets the facts back in segment order. *)
  let index = Array.make (Symtab.cardinal symtab) (-1) in
  let mark e = if not (Entity.is_special e) then index.(e) <- 0 in
  Array.iter (fun (fact : Fact.t) -> mark fact.s; mark fact.r; mark fact.t) facts;
  List.iter (fun (e, _) -> mark e) declarations;
  let names = ref [] and count = ref 0 in
  Array.iteri
    (fun e i ->
      if i = 0 then begin
        index.(e) <- Entity.special_count + !count;
        incr count;
        names := Symtab.name symtab e :: !names
      end)
    index;
  let index_of e = if Entity.is_special e then e else index.(e) in
  let disabled =
    List.filter_map
      (fun ((rule : Rule.t), enabled) -> if enabled then None else Some rule.name)
      (Database.rules db)
  in
  Codec.write_varint w !count;
  List.iter (Codec.write_string w) (List.rev !names);
  Codec.write_varint w (Database.limit db);
  Codec.write_varint w (List.length declarations);
  List.iter
    (fun (e, is_class) ->
      Codec.write_varint w (index_of e);
      Codec.write_byte w (if is_class then 1 else 0))
    declarations;
  Codec.write_varint w (List.length disabled);
  List.iter (Codec.write_string w) disabled;
  Codec.write_varint w (Array.length facts);
  Array.iter
    (fun (fact : Fact.t) ->
      Codec.write_varint w (index_of fact.s);
      Codec.write_varint w (index_of fact.r);
      Codec.write_varint w (index_of fact.t))
    facts;
  let body = Codec.contents w in
  let framed = Codec.writer ~size_hint:(String.length body + 8) () in
  Codec.write_raw framed body;
  Codec.write_raw framed (Printf.sprintf "%08lx" (Codec.crc32 body));
  Codec.contents framed

type parsed = { epoch : int; db : Lsdb.Database.t; facts : Lsdb.Fact.t array }

let parse data =
  let open Lsdb in
  if String.length data < String.length magic + 8 then raise (Corrupt "truncated snapshot");
  let body_len = String.length data - 8 in
  let body = String.sub data 0 body_len in
  let stored = String.sub data body_len 8 in
  if not (String.equal stored (Printf.sprintf "%08lx" (Codec.crc32 body))) then
    raise (Corrupt "snapshot checksum mismatch");
  if not (String.equal (String.sub body 0 (String.length magic)) magic) then
    raise (Corrupt "bad snapshot magic");
  let r = Codec.reader ~pos:(String.length magic) body in
  (* A count larger than the bytes left could hold is corrupt: refuse it
     before allocating for it. *)
  let read_count ~min_bytes =
    let n = Codec.read_varint r in
    if n < 0 || n > (body_len - Codec.pos r) / min_bytes then
      raise (Corrupt "count exceeds snapshot size");
    n
  in
  let wrap f = try f () with Codec.Corrupt msg -> raise (Corrupt msg) in
  wrap (fun () ->
      let epoch = Codec.read_varint r in
      let db = Database.create () in
      let name_count = read_count ~min_bytes:1 in
      let names = Array.init name_count (fun _ -> Codec.read_string r) in
      let ids = Symtab.intern_all (Database.symtab db) names in
      let entity_of i =
        if i < Entity.special_count then i
        else begin
          let idx = i - Entity.special_count in
          if idx >= name_count then raise (Corrupt "entity index out of range");
          ids.(idx)
        end
      in
      let limit = Codec.read_varint r in
      if limit >= 1 then Database.set_limit db limit;
      let decl_count = Codec.read_varint r in
      for _ = 1 to decl_count do
        let e = entity_of (Codec.read_varint r) in
        if Codec.read_byte r = 1 then Database.declare_class_relationship db e
        else Database.declare_individual_relationship db e
      done;
      let disabled_count = Codec.read_varint r in
      for _ = 1 to disabled_count do
        ignore (Database.exclude db (Codec.read_string r))
      done;
      let fact_count = read_count ~min_bytes:3 in
      let facts =
        Array.init fact_count (fun _ ->
            let s = entity_of (Codec.read_varint r) in
            let rel = entity_of (Codec.read_varint r) in
            let t = entity_of (Codec.read_varint r) in
            Fact.make s rel t)
      in
      if not (Codec.at_end r) then raise (Corrupt "trailing bytes in snapshot");
      { epoch; db; facts })

(* The facts go in with one bulk load, which sorts only input that does
   not already ascend: a snapshot written in id order needs no sort, and
   one written in any other order (older writers numbered entities by
   first appearance) still opens to the same base. *)
let decode_full data =
  let p = parse data in
  Lsdb.Database.load p.db p.facts;
  (p.epoch, p.db)

let decode data = snd (decode_full data)

(* [save] is a plain durable write (write ∥ fsync). It is NOT atomic
   against a crash mid-write — callers that overwrite a live snapshot
   must write to a sibling file and rename; see Persistent.compact. *)
let save ?(vfs = Vfs.real) ?epoch db path =
  let file = Vfs.open_trunc vfs path in
  Fun.protect
    ~finally:(fun () -> Vfs.close file)
    (fun () ->
      Vfs.write ~site:"snapshot.write" file (encode ?epoch db);
      Vfs.fsync ~site:"snapshot.fsync" file)

let load ?(vfs = Vfs.real) path =
  match Vfs.read_file vfs path with
  | None -> raise (Corrupt (Printf.sprintf "snapshot %s does not exist" path))
  | Some data -> decode data
