(* The symbol table is read from several domains at once during parallel
   query evaluation, and composition may intern new composed names
   mid-evaluation (Composition.compose_name). Lookups and interning are
   serialized by [lock]; the id->name/numeric arrays are published through
   [Atomic.t] so that readers acquiring the array also see the blitted
   contents after a grow, and [next] is the release point for freshly
   added ids. *)

(* Composed relationship names (Composition's [r1·r2·…·rk]) are
   decomposed on hot match paths; re-splitting the name and re-resolving
   every part under the lock on each call is wasted work, so verdicts are
   memoized per entity. Generation safety: canonical names are immutable,
   so a successful decomposition ([Chain]) and the "no separator"
   verdict ([Atom]) are final; a failure ([Unresolved]) — some part not
   yet interned — can flip once new names arrive, so it carries the
   table's cardinal at computation time and is recomputed only after
   interning has advanced past that stamp. *)
type decomposition = Chain of int list | Atom | Unresolved of int

type t = {
  names : string array Atomic.t;  (* id -> canonical name *)
  numeric : float array Atomic.t;  (* id -> value, nan when not numeric *)
  table : (string, int) Hashtbl.t;  (* guarded by [lock] *)
  next : int Atomic.t;
  lock : Mutex.t;
  decomp : (int, decomposition) Hashtbl.t;  (* guarded by [lock] *)
}

(* Runs once per interned name, so a name with a non-numeric byte is
   rejected at that byte, before anything is allocated. *)
let parse_numeric s =
  let n = String.length s in
  let start = if n > 0 && s.[0] = '$' then 1 else 0 in
  let i = ref start and commas = ref false in
  while
    !i < n
    &&
    match s.[!i] with
    | ',' ->
        commas := true;
        true
    | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
    | _ -> false
  do
    incr i
  done;
  if start >= n || !i < n then None
  else
    let body = String.sub s start (n - start) in
    float_of_string_opt
      (if !commas then String.concat "" (String.split_on_char ',' body) else body)

(* Callers hold [lock]. *)
let grow t id =
  let names = Atomic.get t.names in
  let cap = Array.length names in
  if id >= cap then begin
    let cap' = ref (max 16 (cap * 2)) in
    while id >= !cap' do
      cap' := !cap' * 2
    done;
    let cap' = !cap' in
    let names' = Array.make cap' "" in
    Array.blit names 0 names' 0 cap;
    let numeric' = Array.make cap' nan in
    Array.blit (Atomic.get t.numeric) 0 numeric' 0 cap;
    (* Publish fully initialized arrays; readers never see a partial blit. *)
    Atomic.set t.names names';
    Atomic.set t.numeric numeric'
  end

(* Callers hold [lock]. *)
let raw_add t name =
  let id = Atomic.get t.next in
  grow t id;
  (Atomic.get t.names).(id) <- name;
  (Atomic.get t.numeric).(id) <-
    (match parse_numeric name with Some v -> v | None -> nan);
  Hashtbl.replace t.table name id;
  (* The release store making the new id visible to other domains. *)
  Atomic.set t.next (id + 1);
  id

let create () =
  let t =
    {
      names = Atomic.make (Array.make 64 "");
      numeric = Atomic.make (Array.make 64 nan);
      table = Hashtbl.create 64;
      next = Atomic.make 0;
      lock = Mutex.create ();
      decomp = Hashtbl.create 64;
    }
  in
  Array.iteri
    (fun expected (canonical, aliases) ->
      let id = raw_add t canonical in
      assert (id = expected);
      (* Specials are relationship names, never numbers. *)
      (Atomic.get t.numeric).(id) <- nan;
      List.iter (fun a -> Hashtbl.replace t.table a id) aliases)
    Entity.special_names;
  t

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let find t name = with_lock t (fun () -> Hashtbl.find_opt t.table name)
let mem t name = with_lock t (fun () -> Hashtbl.mem t.table name)

let intern t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some id -> id
      | None -> raw_add t name)

let intern_all t names =
  with_lock t (fun () ->
      grow t (Atomic.get t.next + Array.length names - 1);
      Array.map
        (fun name ->
          match Hashtbl.find_opt t.table name with Some id -> id | None -> raw_add t name)
        names)

let name t id =
  if id < 0 || id >= Atomic.get t.next then
    invalid_arg (Printf.sprintf "Symtab.name: unknown entity id %d" id)
  else (Atomic.get t.names).(id)

let alias t alias_name id =
  with_lock t (fun () ->
      if id < 0 || id >= Atomic.get t.next then
        invalid_arg (Printf.sprintf "Symtab.alias: unknown entity id %d" id);
      match Hashtbl.find_opt t.table alias_name with
      | Some existing when existing <> id ->
          invalid_arg
            (Printf.sprintf "Symtab.alias: %S already names entity %d" alias_name
               existing)
      | Some _ -> ()
      | None -> Hashtbl.add t.table alias_name id)

let cardinal t = Atomic.get t.next

(* Split [name] on every occurrence of the (non-empty) byte string
   [sep]; no separator yields a single part. *)
let split_on_sep ~sep name =
  let ns = String.length sep and n = String.length name in
  let matches_at i =
    i + ns <= n
    &&
    let rec eq j = j = ns || (name.[i + j] = sep.[j] && eq (j + 1)) in
    eq 0
  in
  let parts = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i + ns <= n do
    if matches_at !i then begin
      parts := String.sub name !start (!i - !start) :: !parts;
      start := !i + ns;
      i := !i + ns
    end
    else incr i
  done;
  parts := String.sub name !start (n - !start) :: !parts;
  List.rev !parts

let decompose t ~sep e =
  let entity_name = name t e in
  (* validates [e] *)
  with_lock t (fun () ->
      let compute () =
        match split_on_sep ~sep entity_name with
        | [] | [ _ ] -> Atom
        | parts -> (
            let rec resolve acc = function
              | [] -> Chain (List.rev acc)
              | part :: rest -> (
                  match Hashtbl.find_opt t.table part with
                  | Some id -> resolve (id :: acc) rest
                  | None -> Unresolved (Atomic.get t.next))
            in
            resolve [] parts)
      in
      let verdict =
        match Hashtbl.find_opt t.decomp e with
        | Some (Chain _ | Atom) as cached -> Option.get cached
        | Some (Unresolved stamp) when stamp = Atomic.get t.next ->
            Unresolved stamp
        | Some (Unresolved _) | None ->
            let v = compute () in
            Hashtbl.replace t.decomp e v;
            v
      in
      match verdict with
      | Chain chain -> Some chain
      | Atom | Unresolved _ -> None)

let numeric_value t id =
  let v = (Atomic.get t.numeric).(id) in
  if Float.is_nan v then None else Some v

let is_numeric t id = not (Float.is_nan (Atomic.get t.numeric).(id))

let iter f t =
  for id = 0 to Atomic.get t.next - 1 do
    f id
  done

let iter_user f t =
  for id = Entity.special_count to Atomic.get t.next - 1 do
    f id
  done

let iter_numeric f t =
  let numeric = Atomic.get t.numeric in
  for id = 0 to Atomic.get t.next - 1 do
    if not (Float.is_nan numeric.(id)) then f id
  done
