(* One benchmark run: set up several times, time a closed-loop session
   on the second set-up, replay the same commands on the third when
   traced, and check every answer. One client, one process, no pool
   domains. *)

open Lsdb
module Shell = Lsdb_shell.Shell
module Persistent = Lsdb_storage.Persistent
module Log = Lsdb_storage.Log
module Metrics = Lsdb_obs.Metrics
open Workload

(* ------------------------------------------------------------------ *)
(* Scratch directories for the stores, inside the working directory (the
   checkout root when run through run.py).                              *)

let work_root = "_perfbench"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir tag =
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  remove_tree dir;
  dir

let cleanup () =
  if Sys.file_exists work_root then begin
    let prefix = Printf.sprintf "-%d" (Unix.getpid ()) in
    Array.iter
      (fun f ->
        if Filename.check_suffix f prefix then remove_tree (Filename.concat work_root f))
      (Sys.readdir work_root);
    if Sys.readdir work_root = [||] then Sys.rmdir work_root
  end

(* ------------------------------------------------------------------ *)
(* Durable stores                                                        *)

let parse_write line = Scanf.sscanf line "%s (%s@, %s@, %s@)" (fun v s r t -> (v, s, r, t))

(* The base facts and the composition limit go into the snapshot; the
   workload's tail writes stay in the log. *)
let write_store dir (data : Org_gen.t) tail =
  let p = Persistent.open_dir dir in
  List.iter (fun (s, r, t) -> ignore (Persistent.insert_names p s r t)) data.facts;
  Persistent.set_limit p composition_limit;
  Persistent.compact p;
  List.iter
    (fun line ->
      let verb, s, r, t = parse_write line in
      let fact = Fact.of_names (Database.symtab (Persistent.database p)) s r t in
      ignore (if verb = "insert" then Persistent.insert p fact else Persistent.remove p fact))
    tail;
  Persistent.close p

(* What lsdb-browse --dir journals for each shell mutation. *)
let log_op p = function
  | Shell.Inserted f ->
      let s, r, t = Fact.names (Database.symtab (Persistent.database p)) f in
      Log.Insert (s, r, t)
  | Shell.Removed f ->
      let s, r, t = Fact.names (Database.symtab (Persistent.database p)) f in
      Log.Remove (s, r, t)
  | Shell.Rule_included name -> Log.Include_rule name
  | Shell.Rule_excluded name -> Log.Exclude_rule name
  | Shell.Limit_set n -> Log.Set_limit n

(* ------------------------------------------------------------------ *)
(* Set-up                                                                *)

let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.minor_words +. s.major_words -. s.promoted_words) *. float_of_int (Sys.word_size / 8)

type fixpoint = { fixpoint_ms : float; alloc_bytes : float; closure_facts : int }

type session = {
  db : Database.t;
  store : Persistent.t option;
  dir : string;
  setup_s : float;
  first_answer_ms : float;  (** nan on cold-open, whose cycles measure it *)
  fixpoint : fixpoint option;
  open_ms : float;
  replayed : int;
}

let budget_command kind = Printf.sprintf ".budget work %d" (work_budget kind)

(* The eager fixpoint, timed with its allocation. *)
let force_fixpoint db =
  let a0 = allocated_bytes () and t0 = Clock.now () in
  let closure = Database.closure db in
  let fixpoint_ms = Clock.ms_since t0 in
  { fixpoint_ms; alloc_bytes = allocated_bytes () -. a0; closure_facts = Closure.cardinal closure }

(* A base fact whose retraction cone is small: the first employee's
   salary. Removing and restoring it builds the DRed support index. *)
let warm_retraction db (data : Org_gen.t) =
  let e = data.employee_names.(0) in
  let _, _, salary = List.find (fun (s, r, _) -> s = e && r = "EARNS") data.facts in
  let fact = Fact.of_names (Database.symtab db) e "EARNS" salary in
  ignore (Database.remove db fact);
  ignore (Database.closure db);
  ignore (Database.insert db fact);
  ignore (Database.closure db)

(* Lazy caches a user would have filled before the session's steady
   state: reader snapshots and the broadness hierarchy. *)
let warm_readers db =
  Database.prepare_readers db;
  ignore (Broadness.of_db db)

(* Generate the data, write the store, open it, force the closure and
   warm up; ends with a full major GC. The first answer is a nav of the
   first employee, timed from the start of the open. *)
let setup plan =
  let t0 = Clock.now () in
  let org = Workload.org ~employees:plan.scale.employees in
  let first_nav = nav org.employees.(0) in
  let session =
    match plan.kind with
    | Maintain ->
        let dir = fresh_dir "maintain" in
        write_store dir org.data plan.tail;
        let t_open = Clock.now () in
        let p = Persistent.open_dir dir in
        let open_ms = Clock.ms_since t_open in
        let db = Persistent.database p in
        Database.set_closure_mode db Database.Eager;
        let fixpoint = force_fixpoint db in
        ignore (Shell.execute (Shell.create db) first_nav);
        let first_answer_ms = Clock.ms_since t_open in
        warm_retraction db org.data;
        warm_readers db;
        {
          db;
          store = Some p;
          dir;
          setup_s = 0.;
          first_answer_ms;
          fixpoint = Some fixpoint;
          open_ms;
          replayed = Persistent.log_length p;
        }
    | Cold_open ->
        let dir = fresh_dir "cold" in
        write_store dir org.data plan.tail;
        {
          db = Database.create ();
          store = None;
          dir;
          setup_s = 0.;
          first_answer_ms = nan;
          fixpoint = None;
          open_ms = 0.;
          replayed = 0;
        }
  in
  Gc.full_major ();
  { session with setup_s = Clock.ms_since t0 /. 1e3 }

let dispose session =
  Option.iter Persistent.close session.store;
  remove_tree session.dir

(* ------------------------------------------------------------------ *)
(* The timed closed loop                                                 *)

(* How one replay executes a command: through the shell, or through the
   traced layer calls. *)
type executor = int -> string -> string

type cycle_stats = {
  mutable opens : float list;
  mutable syncs : float list;
  mutable replayed : int;
  mutable first_answers : float list;
}

type phase = {
  latencies : float array;  (** ms per command, failed ones included *)
  outcomes : Checks.outcome array;
  outputs : string array;  (** kept on cold-open only, for the eager check *)
  wall_ms : float;
  cycles : cycle_stats;
}

let new_cycle_stats () = { opens = []; syncs = []; replayed = 0; first_answers = [] }

(* Maintain: every command in order on one session. *)
let run_session (plan : plan) (exec : executor) =
  let n = Array.length plan.commands in
  let latencies = Array.make n 0. in
  let outcomes = Array.make n (Checks.outcome "") in
  let start = Clock.now () in
  Array.iteri
    (fun i line ->
      let t0 = Clock.now () in
      let output = exec i line in
      latencies.(i) <- Clock.ms_since t0;
      outcomes.(i) <- Checks.outcome output)
    plan.commands;
  let wall_ms = Clock.ms_since start in
  { latencies; outcomes; outputs = [||]; wall_ms; cycles = new_cycle_stats () }

(* Cold-open: each cycle opens the store in demand mode (the --dir
   default), runs its commands and closes. A full major GC precedes
   every cycle and is not timed. [open_session] returns the executor for
   one open store; [around] wraps the open and the close (the traced
   run records them as spans). *)
let run_cycles (plan : plan) ~dir ~(open_session : Persistent.t -> executor)
    ~(around : [ `Open | `Close ] -> (unit -> unit) -> unit) ~on_close =
  let n = Array.length plan.commands in
  let latencies = Array.make n 0. in
  let outcomes = Array.make n (Checks.outcome "") in
  let outputs = Array.make n "" in
  let cycles = new_cycle_stats () in
  let wall = ref 0 in
  for c = 0 to (n / cycle_length) - 1 do
    Gc.full_major ();
    let t0 = Clock.now () in
    let store = ref None in
    around `Open (fun () -> store := Some (Persistent.open_dir dir));
    let p = Option.get !store in
    cycles.opens <- Clock.ms_since t0 :: cycles.opens;
    cycles.replayed <- Persistent.log_length p;
    let db = Persistent.database p in
    Database.set_closure_mode db (closure_mode plan.kind);
    let exec = open_session p in
    for j = 0 to cycle_length - 1 do
      let i = (c * cycle_length) + j in
      let t = Clock.now () in
      let output = exec i plan.commands.(i) in
      latencies.(i) <- Clock.ms_since t;
      if j = 0 then cycles.first_answers <- Clock.ms_since t0 :: cycles.first_answers;
      outcomes.(i) <- Checks.outcome output;
      outputs.(i) <- output
    done;
    on_close db;
    let t_close = Clock.now () in
    around `Close (fun () -> Persistent.close p);
    cycles.syncs <- Clock.ms_since t_close :: cycles.syncs;
    wall := !wall + (Clock.now () - t0)
  done;
  { latencies; outcomes; outputs; wall_ms = float_of_int !wall /. 1e6; cycles }

let shell_session kind ?store db =
  let journal = Option.map (fun p m -> Persistent.journal p (log_op p m)) store in
  let shell = Shell.create ?journal db in
  ignore (Shell.execute shell (budget_command kind));
  fun _ line -> Shell.execute shell line

(* What the program's own API reports about the untraced session. *)
type program_stats = {
  match_stats : Match_layer.cache_stats;  (** summed over cold-open's cycles *)
  demand : Lsdb_datalog.Magic.stats option;  (** summed over cold-open's cycles *)
  tiers : Lsdb_datalog.Index.tier_stats;  (** at the end (of the last cycle) *)
}

let add_match (a : Match_layer.cache_stats) (b : Match_layer.cache_stats) =
  {
    Match_layer.hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    size = a.size + b.size;
  }

let sub_match (a : Match_layer.cache_stats) (b : Match_layer.cache_stats) =
  { a with hits = a.hits - b.hits; misses = a.misses - b.misses; evictions = a.evictions - b.evictions }

let add_demand (a : Lsdb_datalog.Magic.stats option) (b : Lsdb_datalog.Magic.stats option) =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b ->
      Some
        {
          a with
          Lsdb_datalog.Magic.goals = a.goals + b.goals;
          memo_hits = a.memo_hits + b.memo_hits;
          memo_misses = a.memo_misses + b.memo_misses;
          stage_cone_facts = a.stage_cone_facts + b.stage_cone_facts;
          full_cone_facts = a.full_cone_facts + b.full_cone_facts;
          deltas = a.deltas + b.deltas;
        }

let untraced (plan : plan) session =
  match plan.kind with
  | Cold_open ->
      let stats =
        ref
          {
            match_stats = { Match_layer.hits = 0; misses = 0; evictions = 0; size = 0 };
            demand = None;
            tiers = Lsdb_datalog.Index.zero_stats;
          }
      in
      let phase =
        run_cycles plan ~dir:session.dir
          ~open_session:(fun p -> shell_session plan.kind ~store:p (Persistent.database p))
          ~around:(fun _ f -> f ())
          ~on_close:(fun db ->
            stats :=
              {
                match_stats = add_match !stats.match_stats (Match_layer.cache_stats_for db);
                demand = add_demand !stats.demand (Database.demand_stats db);
                tiers = Database.tier_stats db;
              })
      in
      (phase, !stats)
  | Maintain ->
      let db = session.db in
      let m0 = Match_layer.cache_stats_for db in
      let phase = run_session plan (shell_session plan.kind ?store:session.store db) in
      ( phase,
        {
          match_stats = sub_match (Match_layer.cache_stats_for db) m0;
          demand = Database.demand_stats db;
          tiers = Database.tier_stats db;
        } )

(* ------------------------------------------------------------------ *)
(* Statistics                                                            *)

(* Linear interpolation between closest ranks. *)
let percentile p values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median values = percentile 0.5 values

let latencies_of (plan : plan) phase op =
  let out = ref [] in
  Array.iteri
    (fun i line -> if op_of_line line = op then out := phase.latencies.(i) :: !out)
    plan.commands;
  !out

let op_name = function
  | Nav -> "nav"
  | Query -> "q"
  | Probe -> "probe"
  | Assoc -> "assoc"
  | Write -> "insert/remove"

(* ------------------------------------------------------------------ *)
(* Always-on program counters, read as deltas                            *)

let counter ?labels name = Metrics.counter_value (Metrics.counter ?labels name)

let counters () =
  [
    ("eval.candidates", counter "lsdb_eval_candidates_total");
    ("eval.fused_intersections", counter "lsdb_eval_fused_intersections_total");
    ("probing.waves", counter "lsdb_probing_waves_total");
    ("probing.attempted", counter "lsdb_probing_broadenings_attempted_total");
    ("probing.succeeded", counter "lsdb_probing_broadenings_succeeded_total");
    ( "closure.rounds",
      counter "lsdb_engine_closure_rounds_total" + counter "lsdb_sharded_rounds_total" );
    ( "closure.derived",
      counter "lsdb_engine_derived_triples_total"
      + counter "lsdb_sharded_derived_triples_total" );
    ("closure.retract_cone_facts", counter "lsdb_engine_retract_cone_facts_total");
    ("closure.rederive_checks", counter "lsdb_engine_rederive_checks_total");
    ("storage.bytes_written", counter "lsdb_log_bytes_written_total");
    ( "governor.trips",
      counter ~labels:[ ("reason", "work-budget") ] "lsdb_governor_trips_total" );
  ]

let delta before after name = float_of_int (List.assoc name after - List.assoc name before)

(* ------------------------------------------------------------------ *)
(* The traced replay                                                     *)

type traced = { phase : phase; spans : Spans.t; counts : Traced.counts }

let traced_replay (plan : plan) session =
  let spans = Spans.create ~capacity:(10 * Array.length plan.commands) in
  let counts = Traced.counts () in
  let budget = work_budget plan.kind in
  let phase =
    match plan.kind with
    | Cold_open ->
        let around kind f =
          Spans.set_command spans (-1);
          Spans.span spans Spans.Command (fun () ->
              Spans.span spans
                (match kind with `Open -> Spans.Storage_open | `Close -> Spans.Storage_sync)
                f)
        in
        run_cycles plan ~dir:session.dir
          ~open_session:(fun p ->
            let s =
              Traced.session ~journal:(Persistent.journal p) ~spans ~counts ~budget
                (Persistent.database p)
            in
            fun i line -> Traced.execute s i line)
          ~around ~on_close:ignore
    | Maintain ->
        let s =
          Traced.session
            ?journal:(Option.map Persistent.journal session.store)
            ~spans ~counts ~budget session.db
        in
        let phase = run_session plan (Traced.execute s) in
        (* The durable session ends as lsdb-browse's does: one sync at
           close. *)
        Option.iter
          (fun p ->
            Spans.set_command spans (-1);
            Spans.span spans Spans.Command (fun () ->
                Spans.span spans Spans.Storage_sync (fun () -> Persistent.close p)))
          session.store;
        phase
  in
  { phase; spans; counts }

(* ------------------------------------------------------------------ *)
(* A whole run                                                           *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  problems : string list;  (** every failed output check, for stderr *)
  coverage : float option;  (** traced runs: share of command time in layer spans *)
  notes : string list;  (** human-readable lines printed before the result *)
  commands : string array;
}

let metric (r : result) name =
  match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
  | Some (_, _, v) -> v
  | None -> invalid_arg ("no metric " ^ name)

let ratio a b = if b = 0. then 0. else a /. b

(* The highest percentile, up to p99, with at least ten samples beyond
   it. *)
let tail_percentile (plan : plan) =
  Float.min 0.99 (1. -. (10. /. float_of_int (Array.length plan.commands)))

let end_to_end (plan : plan) ~setup_times ~first_answers phase ~heap_mb =
  let n = float_of_int (Array.length plan.commands) in
  let p50 op = median (latencies_of plan phase op) in
  [
    ("setup_s", "s", median setup_times);
    ("ops_per_s", "1/s", n /. (phase.wall_ms /. 1e3));
    ("op_tail_ms", "ms", percentile (tail_percentile plan) (Array.to_list phase.latencies));
    ("nav_p50_ms", "ms", p50 Nav);
    ("query_p50_ms", "ms", p50 Query);
    ("probe_p50_ms", "ms", p50 Probe);
    ("assoc_p50_ms", "ms", p50 Assoc);
    ("first_answer_ms", "ms", median first_answers);
    ("heap_mb", "MiB", heap_mb);
  ]

(* What the untraced run measured besides its latencies. *)
type untraced_run = {
  u : phase;
  stats : program_stats;
  setup_counters : (string * int) list;  (** before set-up 2 *)
  before : (string * int) list;  (** before the timed phase *)
  after : (string * int) list;  (** after it *)
  gc_alloc_mb : float;
  gc_major : float;
  fixpoint : fixpoint option;
  open_ms : float;  (** maintain's open in set-up *)
  replayed : int;  (** maintain's replayed log records *)
  sync_ms : float;  (** maintain's close after the session *)
}

(* Busy times come from the traced replay's spans; every count is the
   untraced run's, read from the program's counters and API, except those
   only the public calls' return values give (the replay makes the shell's
   calls, once each). *)
let per_layer (plan : plan) (r : untraced_run) (t : traced) =
  let summary = Spans.summarize t.spans in
  let busy layer = List.assoc layer summary.busy_ms in
  let d = delta r.before r.after in
  let c = t.counts in
  let f = float_of_int in
  let m = r.stats.match_stats in
  let demand field = match r.stats.demand with Some s -> f (field s) | None -> 0. in
  let fix g = match r.fixpoint with Some x -> g x | None -> 0. in
  let ops_per_s (p : phase) = f (Array.length plan.commands) /. (p.wall_ms /. 1e3) in
  let cycles = r.u.cycles in
  let ms = "ms" and count = "count" and ratio_ = "ratio" in
  ( summary,
    [
      ("render.busy_ms", ms, busy Spans.Render);
      ( "render.bytes",
        "B",
        f (Array.fold_left (fun acc (o : Checks.outcome) -> acc + o.bytes) 0 r.u.outcomes) );
      ("parse.busy_ms", ms, busy Spans.Parse);
      ("eval.busy_ms", ms, busy Spans.Eval);
      ("eval.candidates", count, d "eval.candidates");
      ("eval.rows", count, f c.eval_rows);
      ("eval.fused_intersections", count, d "eval.fused_intersections");
      ("match.hits", count, f m.hits);
      ("match.misses", count, f m.misses);
      ("match.evictions", count, f m.evictions);
      ("match.hit_ratio", ratio_, ratio (f m.hits) (f (m.hits + m.misses)));
      ("navigation.busy_ms", ms, busy Spans.Navigation);
      ("navigation.facts", count, f c.nav_facts);
      ("composition.busy_ms", ms, busy Spans.Composition);
      ("composition.expansions", count, f c.expansions);
      ("composition.meet_nodes", count, f c.meet_nodes);
      ("composition.paths", count, f c.paths);
      ("probing.busy_ms", ms, busy Spans.Probing);
      ("probing.waves", count, d "probing.waves");
      ("probing.attempted", count, d "probing.attempted");
      ("probing.success_ratio", ratio_, ratio (d "probing.succeeded") (d "probing.attempted"));
      ("broadness.busy_ms", ms, busy Spans.Broadness);
      ("broadness.rebuilds", count, f c.broadness_rebuilds);
      ("integrity.busy_ms", ms, busy Spans.Integrity);
      ("integrity.checks", count, f c.integrity_checks);
      ("closure.fixpoint_ms", ms, fix (fun x -> x.fixpoint_ms));
      ("closure.alloc_bytes_per_fact", "B", fix (fun x -> x.alloc_bytes /. f x.closure_facts));
      ("closure.maintain_ms", ms, busy Spans.Closure);
      ("closure.rounds", count, delta r.setup_counters r.after "closure.rounds");
      ("closure.derived", count, delta r.setup_counters r.after "closure.derived");
      ("closure.retract_cone_facts", count, d "closure.retract_cone_facts");
      ("closure.rederive_checks", count, d "closure.rederive_checks");
      ("index.frozen_live", count, f r.stats.tiers.frozen_live);
      ("index.delta_live", count, f r.stats.tiers.delta_live);
      ("index.dead", count, f (r.stats.tiers.frozen_dead + r.stats.tiers.delta_dead));
      ("index.freezes", count, f r.stats.tiers.freezes);
      ("demand.goals", count, demand (fun s -> s.goals));
      ( "demand.memo_hit_ratio",
        ratio_,
        ratio (demand (fun s -> s.memo_hits)) (demand (fun s -> s.goals)) );
      ("demand.cone_facts", count, demand (fun s -> s.stage_cone_facts + s.full_cone_facts));
      ("demand.deltas", count, demand (fun s -> s.deltas));
      ("storage.open_ms", ms, if cycles.opens = [] then r.open_ms else median cycles.opens);
      ( "storage.replayed_records",
        count,
        f (if cycles.opens = [] then r.replayed else cycles.replayed) );
      ("storage.append_ms", ms, busy Spans.Storage_append);
      ("storage.bytes_written", "B", d "storage.bytes_written");
      ("storage.sync_ms", ms, if cycles.syncs = [] then r.sync_ms else median cycles.syncs);
      ("governor.work", count, f c.gov_work);
      ("governor.max_completed_work", count, f c.gov_max_completed);
      ("governor.trips", count, d "governor.trips");
      ("gc.alloc_mb", "MiB", r.gc_alloc_mb);
      ("gc.major_collections", count, r.gc_major);
      ("trace.overhead_pct", "%", 100. *. (ops_per_s r.u -. ops_per_s t.phase) /. ops_per_s r.u);
      ("trace.coverage", ratio_, summary.covered);
    ] )

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* What a run was set up with, printed before the result so a number
   can be read against its set-up. *)
let host_fingerprint () =
  let g = Gc.get () in
  Printf.sprintf "host: %d cores, OCaml %s, %d-bit; GC minor heap %d words, space_overhead %d"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size g.minor_heap_size
    g.space_overhead

let setup_record (plan : plan) =
  Printf.sprintf
    "set-up: %s closure, composition limit %d, work budget %d, persistent store (snapshot + \
     %d-record log tail), flush On_demand; organization generated from seed %d"
    (match closure_mode plan.kind with Database.Eager -> "eager" | Database.Demand -> "demand")
    composition_limit (work_budget plan.kind) (List.length plan.tail) data_seed

(* Set-ups per untraced run: their median is setup_s, and on maintain
   first_answer_ms. *)
let setup_samples = 5

let run ?spans_file kind scale ~seed ~trace =
  let plan = Workload.plan kind scale ~seed in
  let problems = ref [] and notes = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let mismatched = Hashtbl.create 16 in
  let mismatch i what =
    Hashtbl.replace mismatched i ();
    problem "command %d (%s): %s" i plan.commands.(i) what
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (* Set-up 1 only warms the process; set-up 2 hosts the timed session;
     set-up 3 hosts the traced replay, or is one more sample like every
     later set-up. Only measurements outlive a set-up, so each starts from
     a collected heap and the peak heap is one session's. *)
  let sample () =
    let s = setup plan in
    dispose s;
    (s.setup_s, s.first_answer_ms)
  in
  let first = sample () in
  Gc.full_major ();
  let measured, timed, base_facts, heap =
    let setup_counters = counters () in
    let timed = setup plan in
    let before = counters () in
    let gc0 = Gc.quick_stat () in
    let u, stats = untraced plan timed in
    let gc1 = Gc.quick_stat () in
    let after = counters () in
    let heap = heap_mb () in
    let base_facts = ref (Database.base_cardinal timed.db) in
    let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
    let sync_ms = ref 0. in
    (* Checks on the timed session itself. *)
    (match kind with
    | Maintain ->
        if not (Checks.closure_matches_recompute timed.db) then
          problem "maintain: maintained closure differs from invalidate + recompute";
        List.iter (fun s -> problem "%s" s) (Checks.assoc_paths_match timed.db plan.commands);
        let session_base = Checks.base_names timed.db in
        (* The session ends as lsdb-browse's does: one sync at close. *)
        let t0 = Clock.now () in
        Persistent.close (Option.get timed.store);
        sync_ms := Clock.ms_since t0;
        let reopened = Persistent.open_dir timed.dir in
        if Checks.base_names (Persistent.database reopened) <> session_base then
          problem "maintain: reopened store's base facts differ from the session's";
        Persistent.close reopened;
        remove_tree timed.dir
    | Cold_open ->
        (* Every completed demand answer against eager, ungoverned, on an
           in-memory copy of the same store. *)
        let p = Persistent.open_dir timed.dir in
        let copy = Database.copy (Persistent.database p) in
        Persistent.close p;
        base_facts := Database.base_cardinal copy;
        Database.set_closure_mode copy Database.Eager;
        let oracle = Shell.create copy in
        Array.iteri
          (fun i line ->
            let eager = Shell.execute oracle line in
            if (not u.outcomes.(i).failed) && not (Checks.same_lines u.outputs.(i) eager) then
              mismatch i "demand answer differs from eager")
          plan.commands;
        List.iter (fun s -> problem "%s" s) (Checks.assoc_paths_match copy plan.commands);
        remove_tree timed.dir);
    ( {
        u;
        stats;
        setup_counters;
        before;
        after;
        gc_alloc_mb = (words gc1 -. words gc0) *. float_of_int (Sys.word_size / 8) /. 1048576.;
        gc_major = float_of_int (gc1.major_collections - gc0.major_collections);
        fixpoint = timed.fixpoint;
        open_ms = timed.open_ms;
        replayed = timed.replayed;
        sync_ms = !sync_ms;
      },
      (timed.setup_s, timed.first_answer_ms),
      !base_facts,
      heap )
  in
  let u = measured.u in
  Gc.full_major ();
  (* Set-up 3: the traced replay, whose outputs must match the untraced
     run's; otherwise more set-up samples. *)
  let samples, layer_metrics =
    if trace then begin
      let replay = setup plan in
      let t = traced_replay plan replay in
      (* The traced replay closed its store as its last step. *)
      remove_tree replay.dir;
      Array.iteri
        (fun i o ->
          if not (Checks.agree o t.phase.outcomes.(i)) then
            mismatch i "output differs from the traced replay's")
        u.outcomes;
      Option.iter (Spans.write t.spans) spans_file;
      let summary, metrics = per_layer plan measured t in
      note "traced: %.1f ms of command time, %.1f%% inside layer spans"
        summary.command_ms (100. *. summary.covered);
      if t.counts.gov_max_command >= 0 then
        note "most work of a completing command: %d units, command %d (%s); budget %d"
          t.counts.gov_max_completed t.counts.gov_max_command
          plan.commands.(t.counts.gov_max_command) (work_budget kind);
      ([ first; timed ], Some (metrics, summary.covered))
    end
    else
      ( first :: timed
        :: List.init (setup_samples - 2) (fun _ ->
               let s = sample () in
               Gc.full_major ();
               s),
        None )
  in
  let setup_times = List.map fst samples in
  let first_answers =
    match kind with Cold_open -> u.cycles.first_answers | Maintain -> List.map snd samples
  in
  (* Failed: tripped the budget, printed an error, or failed a check. *)
  let failed = ref 0 in
  Array.iteri
    (fun i o -> if o.Checks.failed || Hashtbl.mem mismatched i then incr failed)
    u.outcomes;
  note "%s" (host_fingerprint ());
  note "%s" (setup_record plan);
  note "workload %s, seed %d: %d employees, %d base facts%s, %d commands, %d failed, \
        timed phase %.0f ms"
    (Workload.name kind) seed scale.employees base_facts
    (match measured.fixpoint with
    | Some fx ->
        Printf.sprintf ", %d closure facts (eager fixpoint %.0f ms)" fx.closure_facts
          fx.fixpoint_ms
    | None -> "")
    (Array.length plan.commands) !failed u.wall_ms;
  note "answer cache (512 entries%s): %d hits, %d misses, %d evictions"
    (match kind with Cold_open -> " per cycle, summed" | Maintain -> "")
    measured.stats.match_stats.hits measured.stats.match_stats.misses
    measured.stats.match_stats.evictions;
  note "op_tail_ms is the p%.1f of %d commands" (100. *. tail_percentile plan)
    (Array.length plan.commands);
  List.iter
    (fun op ->
      match latencies_of plan u op with
      | [] -> ()
      | l ->
          note "  %-13s n=%-6d p50 %.4f ms  p90 %.4f ms  p99 %.4f ms" (op_name op)
            (List.length l) (median l) (percentile 0.9 l) (percentile 0.99 l))
    ops;
  {
    correct = !problems = [];
    attempted = Array.length plan.commands;
    failed = !failed;
    metrics =
      (match layer_metrics with
      | Some (m, _) -> m
      | None -> end_to_end plan ~setup_times ~first_answers u ~heap_mb:heap);
    problems = List.rev !problems;
    coverage = Option.map snd layer_metrics;
    notes = List.rev !notes;
    commands = plan.commands;
  }
