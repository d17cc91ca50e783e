(* The two workloads: a fixed organization plus a seeded log tail and a
   seeded list of shell command lines per workload. Everything here is a
   pure function of the seed and the scale, so two runs with one seed
   replay identical work. *)

module Org_gen = Lsdb_workload.Org_gen
module Rng = Lsdb_workload.Rng

type kind = Maintain | Cold_open

let kinds = [ ("maintain", Maintain); ("cold-open", Cold_open) ]
let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

(* The command types latencies are reported by. A median is never taken
   across types: their latencies differ by orders of magnitude. *)
type op = Nav | Query | Probe | Assoc | Write

let ops = [ Nav; Query; Probe; Assoc; Write ]

let op_of_line line =
  match String.index_opt line ' ' with
  | None -> invalid_arg ("op_of_line: " ^ line)
  | Some i -> (
      match String.sub line 0 i with
      | "nav" -> Nav
      | "q" -> Query
      | "probe" -> Probe
      | "assoc" -> Assoc
      | "insert" | "remove" -> Write
      | w -> invalid_arg ("op_of_line: " ^ w))

(* Session settings, the same at both ends of any comparison. *)
let composition_limit = 3

let closure_mode = function
  | Maintain -> Lsdb.Database.Eager
  | Cold_open -> Lsdb.Database.Demand

(* Per-query work budget ([.budget work N]). Each is more than 10x the
   most work any completing command of its workload needs at 8,000
   employees (the traced run reports that maximum as
   governor.max_completed_work). Cold-open's demand-mode probe runaways
   trip it instead of exhausting memory. *)
let work_budget = function Maintain -> 2_000_000 | Cold_open -> 250_000

type scale = { employees : int; units : int }
(** [units] is the number of timed commands, or of open/close cycles on
    cold-open. *)

let department_count = Org_gen.default_params.departments

(* Timed units per second of [--seconds], measured on a 2-core host.
   The count is fixed from the seed and the seconds, never from the
   clock, so both sides of a comparison run identical work. Cold-open
   runs whole rounds of the departments (see [cold_open]). *)
let full_scale kind ~seconds =
  let s = float_of_int seconds in
  let units =
    match kind with
    | Maintain -> int_of_float (400. *. s)
    | Cold_open ->
        department_count
        * Float.to_int (Float.round (1.4 *. s /. float_of_int department_count))
  in
  { employees = 8000; units = max 1 units }

(* Queries and assocs per cold-open cycle, and commands per cycle (see
   [cold_open]). *)
let cycle_pairs = 4
let cycle_length = 2 + (2 * cycle_pairs)

type org = {
  data : Org_gen.t;
  employees : string array;
  departments : string array;
  dept_of : (string, string) Hashtbl.t;  (** current WORKS-FOR target *)
}

(* The organization is the same for every seed: the seed chooses the
   session (its log tail and commands), so runs with different seeds
   browse and maintain one database. *)
let data_seed = 1

let org ~employees =
  let data =
    Org_gen.generate
      ~params:{ Org_gen.default_params with employees }
      (Rng.create data_seed)
  in
  let dept_of = Hashtbl.create employees in
  List.iter
    (fun (s, r, t) -> if r = "WORKS-FOR" && s <> "EMPLOYEE" then Hashtbl.replace dept_of s t)
    data.facts;
  {
    data;
    employees = data.employee_names;
    departments = data.department_names;
    dept_of;
  }

let dept_of org e = Hashtbl.find org.dept_of e

let other_dept rng org e =
  let d = dept_of org e in
  let rec pick () =
    let d' = Rng.choose_array rng org.departments in
    if d' = d then pick () else d'
  in
  pick ()

let take n l = List.filteri (fun i _ -> i < n) l
let nav x = "nav " ^ x
let chain_query e = Printf.sprintf "q (%s, WORKS-FOR, ?d) & (?d, HEADED-BY, ?h)" e
let assoc e d = Printf.sprintf "assoc %s %s" e d

(* Hires and transfers: [write] receives each base mutation in order
   with the entity it touched and that entity's department once the
   episode is done. Inserts outnumber removes 2:1 (a hire is two inserts,
   a transfer one remove and one insert, and transfers are twice as
   frequent as hires). The second write of an episode is always the
   WORKS-FOR insert. *)
let mutations rng org ~hired ~write =
  if Rng.int rng 3 = 0 then begin
    incr hired;
    let e = Printf.sprintf "NEW-%05d" !hired in
    let d = Rng.choose_array rng org.departments in
    Hashtbl.replace org.dept_of e d;
    write (Printf.sprintf "insert (%s, in, EMPLOYEE)" e) e d ~second:false;
    write (Printf.sprintf "insert (%s, WORKS-FOR, %s)" e d) e d ~second:true
  end
  else begin
    let e = Rng.choose_array rng org.employees in
    let d = dept_of org e and d' = other_dept rng org e in
    Hashtbl.replace org.dept_of e d';
    write (Printf.sprintf "remove (%s, WORKS-FOR, %s)" e d) e d' ~second:false;
    write (Printf.sprintf "insert (%s, WORKS-FOR, %s)" e d') e d' ~second:true
  end

(* The store's log tail: mutations applied after the snapshot. *)
let tail_writes = 96

let tail rng org =
  let hired = ref 0 and out = ref [] in
  while List.length !out < tail_writes do
    mutations rng org ~hired ~write:(fun line _ _ ~second:_ -> out := line :: !out)
  done;
  (List.rev !out, !hired)

(* Each write is followed by a nav of the entity it touched and one more
   read: a query after an episode's first write; after its second (the
   entity now works for [d]) an assoc with [d] or an overqualified probe
   that fails and so rebuilds the broadness hierarchy, alternately. Every
   read type thus meets one kind of preceding write. *)
let maintain rng org ~hired n =
  let out = ref [] and count = ref 0 and turn = ref 0 in
  let emit line =
    out := line :: !out;
    incr count
  in
  while !count < n do
    mutations rng org ~hired ~write:(fun line e d ~second ->
        emit line;
        emit (nav e);
        if not second then emit (chain_query e)
        else begin
          incr turn;
          if !turn mod 2 = 0 then emit (assoc e d)
          else emit (Printf.sprintf "probe (%s, IS-PAID-BY, %s)" e (other_dept rng org e))
        end)
  done;
  Array.of_list (take n (List.rev !out))

let departments_by_size org =
  let size d = Hashtbl.fold (fun _ d' n -> if d' = d then n + 1 else n) org.dept_of 0 in
  List.stable_sort (fun a b -> compare (size b) (size a)) (Array.to_list org.departments)

(* One cycle per open: the first answer is always a nav, then four
   rounds of query and assoc, then one overqualified probe (the
   demand-mode runaway shape). The probe goes last because a budget trip
   discards the demand state the cycle had built. A demand query's or
   assoc's cost follows the employee's department over a tenfold range,
   so each command type draws its employees from the departments in
   turn, every type in its own seeded order, and a run holds whole
   rounds of the departments: every seed samples each department equally
   often in every type. Each cycle asks four queries and four assocs, so
   their medians rest on four times as many samples as the nav's and the
   probe's. *)
let cold_open rng org cycles =
  let staff = Hashtbl.create 32 in
  Array.iter
    (fun e ->
      let d = dept_of org e in
      Hashtbl.replace staff d (e :: Option.value ~default:[] (Hashtbl.find_opt staff d)))
    org.employees;
  let pools =
    List.filter_map
      (fun d -> Option.map (fun l -> Array.of_list (List.rev l)) (Hashtbl.find_opt staff d))
      (Array.to_list org.departments)
  in
  let rotation () =
    let order = Array.of_list (Rng.shuffle rng pools) and next = ref 0 in
    fun () ->
      let pool = order.(!next mod Array.length order) in
      incr next;
      Rng.choose_array rng pool
  in
  let nav_emp = rotation () and query_emp = rotation () and assoc_emp = rotation () in
  (* Assoc targets the median-sized department: a search's cost grows
     with the target's in-degree, and department sizes span 10x. *)
  let median_dept = List.nth (departments_by_size org) (Array.length org.departments / 2) in
  Array.concat
    (List.init cycles (fun _ ->
         let e = Rng.choose_array rng org.employees in
         let first = nav (nav_emp ()) in
         let pairs =
           List.concat
             (List.init cycle_pairs (fun _ ->
                  let q = chain_query (query_emp ()) in
                  [ q; assoc (assoc_emp ()) median_dept ]))
         in
         Array.of_list
           ((first :: pairs) @ [ Printf.sprintf "probe (%s, WORKS-FOR, %s)" e (other_dept rng org e) ])))

type plan = {
  kind : kind;
  scale : scale;
  org : org;
  tail : string list;  (** log-tail writes *)
  commands : string array;  (** timed commands, in order *)
}

let plan kind (scale : scale) ~seed =
  let org = org ~employees:scale.employees in
  let rng = Rng.create ((seed * 1_000_003) + 7) in
  let tail, hired = tail rng org in
  let commands =
    match kind with
    | Maintain -> maintain rng org ~hired:(ref hired) scale.units
    | Cold_open -> cold_open rng org scale.units
  in
  { kind; scale; org; tail; commands }
