open Lsdb
module Metrics = Lsdb_obs.Metrics
module Trace = Lsdb_obs.Trace
module Governor = Lsdb_exec.Governor

type mutation =
  | Inserted of Fact.t
  | Removed of Fact.t
  | Rule_included of string
  | Rule_excluded of string
  | Limit_set of int

type t = {
  db : Database.t;
  session : Navigation.session;
  defs : Definitions.t;
  journal : mutation -> unit;
  (* Session budgets, applied to every query command via a fresh
     per-query governor (see [governed]). *)
  mutable deadline_ms : float option;
  mutable max_facts : int option;
  mutable max_work : int option;
  mutable max_waves : int option;
  (* The governor of the query currently executing, if any — the handle a
     SIGINT handler cancels through. *)
  mutable active_gov : Governor.t option;
}

let create ?(journal = fun _ -> ()) db =
  {
    db;
    session = Navigation.start db;
    defs = Definitions.create ();
    journal;
    deadline_ms = None;
    max_facts = None;
    max_work = None;
    max_waves = None;
    active_gov = None;
  }

let database t = t.db
let active_governor t = t.active_gov
let set_deadline_ms t ms = t.deadline_ms <- ms

let demos =
  [
    ("music", Paper_examples.music);
    ("organization", Paper_examples.organization);
    ("campus", Paper_examples.campus);
    ("library", Paper_examples.library);
    ("payroll", Paper_examples.payroll);
  ]

let help =
  {|commands:
  try NAME                      all facts including the entity (§6.1)
  find TEXT                     entities whose name contains TEXT
  nav NAME                      neighborhood table, visits the entity (§4.1)
  back                          step back in the navigation history
  history                       the browsing trail
  assoc NAME NAME               all associations between two entities
  t TEMPLATE                    render a navigation template as a table
  q QUERY                       evaluate a standard query (§2.7)
  probe QUERY                   query with automatic retraction (§5.2)
  explain (S, R, T)             why is this fact in the database?
  relation CLASS [REL CLASS]…   the §6.1 relation operator
  define NAME(?p) := QUERY      define a retrieval operator (§6)
  call NAME [ARG]…              invoke a defined operator
  ops | undefine NAME           list / remove defined operators
  insert (S, R, T)              add a fact (with integrity check)
  remove (S, R, T)              remove a base fact
  rules                         list rules with enabled markers
  include NAME | exclude NAME   toggle a rule (§6.1)
  limit N                       set the composition chain bound (§6.1)
  check                         report contradictions in the closure
  stats                         database statistics
  .closure [eager|demand]       show / set the closure mode (demand derives on demand)
  .shards [N]                   show / set the fact-heap shard count (re-partitions)
  .deadline [MS|off]            per-query wall deadline; a trip returns partial answers
  .budget [facts N|work N|waves N|off]  per-query derivation/work/wave budgets
  .stats                        observability counters (engine, probing, pool, storage)
  .profile [on|off]             show the last query profile / toggle tracing
  .slowlog [MS]                 show slow queries / set the slow threshold
  .metrics                      Prometheus-format metrics dump
  save FILE | load FILE         text fact-file I/O
  script FILE                   run a file of commands
  help | quit

query syntax: (JOHN, *, *)   (?x, in, BOOK) & (?x, CITES, ?x)
              exists y . (?x, AUTHOR, ?y) & (?y, neq, ALICE)|}

let split_words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

let answer_text db answer =
  match answer.Eval.vars with
  | [] -> if answer.Eval.rows <> [] then "true" else "false"
  | vars ->
      if answer.Eval.rows = [] then "(no answers)"
      else Pretty.grid ~headers:vars (Eval.rows_named (Database.symtab db) answer)

let stats_text db =
  (* In demand mode, statistics must not force the eager closure — that
     would defeat the whole point of the mode. Report the derived-cone
     sizes instead. *)
  let closure_line =
    match Database.closure_mode db with
    | Database.Eager ->
        let closure = Database.closure db in
        Printf.sprintf "closure: %d (%d derived, %d rounds)" (Closure.cardinal closure)
          (Closure.derived_count closure) (Closure.rounds closure)
    | Database.Demand -> (
        match Database.demand_stats db with
        | Some s ->
            Printf.sprintf
              "closure (demand): %d cone facts derived (%d stage, %d full) over %d \
               base facts"
              (s.Lsdb_datalog.Magic.stage_cone_facts + s.Lsdb_datalog.Magic.full_cone_facts)
              s.Lsdb_datalog.Magic.stage_cone_facts s.Lsdb_datalog.Magic.full_cone_facts
              s.Lsdb_datalog.Magic.base_facts
        | None -> "closure (demand): no goals demanded yet")
  in
  String.concat "\n"
    [
      Printf.sprintf "entities: %d" (Database.entity_count db);
      Printf.sprintf "base facts: %d" (Database.base_cardinal db);
      (let n = Database.shards db in
       if n = 1 then "shards: 1"
       else
         let cards = Store.shard_cardinals (Database.store db) in
         let total = Array.fold_left ( + ) 0 cards in
         let biggest = Array.fold_left max 0 cards in
         Printf.sprintf "shards: %d (largest %d of %d base facts)" n biggest
           total);
      closure_line;
      Printf.sprintf "closure mode: %s"
        (match Database.closure_mode db with
        | Database.Eager -> "eager"
        | Database.Demand -> "demand");
      Printf.sprintf "composition limit: %d" (Database.limit db);
      Printf.sprintf "rules: %d enabled / %d"
        (List.length (Database.enabled_rules db))
        (List.length (Database.rules db));
      Printf.sprintf "closure maintenance: %d computed, %d extensions, %d retractions"
        (Database.closure_computations db)
        (Database.closure_extensions db)
        (Database.closure_retractions db);
      Printf.sprintf "support index: %d edges" (Database.support_size db);
      (let { Match_layer.hits; misses; evictions; size } =
         Match_layer.cache_stats_for db
       in
       Printf.sprintf "answer cache: %d hits / %d misses, %d entries, %d evicted"
         hits misses size evictions);
    ]

(* Reading the observability counters back out goes through the same
   find-or-create registration the instrumented modules use: asking for a
   name + label set returns the existing handle. *)
let obs_stats_text db =
  let c ?labels name = Metrics.counter_value (Metrics.counter ?labels name) in
  let outcome o = c ~labels:[ ("outcome", o) ] "lsdb_probing_outcomes_total" in
  let lane l = c ~labels:[ ("lane", l) ] "lsdb_pool_items_total" in
  let { Match_layer.hits; misses; evictions; size } =
    Match_layer.cache_stats_for db
  in
  String.concat "\n"
    [
      Printf.sprintf
        "probing: %d probes (%d answered, %d retracted, %d exhausted), %d \
         waves, %d broadenings tried / %d succeeded"
        (c "lsdb_probing_probes_total")
        (outcome "answered") (outcome "retracted") (outcome "exhausted")
        (c "lsdb_probing_waves_total")
        (c "lsdb_probing_broadenings_attempted_total")
        (c "lsdb_probing_broadenings_succeeded_total");
      Printf.sprintf
        "engine: %d closures, %d extensions, %d retractions; %d rounds, %d \
         delta in / %d derived"
        (c "lsdb_engine_closures_total")
        (c "lsdb_engine_extends_total")
        (c "lsdb_engine_retracts_total")
        (c "lsdb_engine_closure_rounds_total")
        (c "lsdb_engine_delta_triples_total")
        (c "lsdb_engine_derived_triples_total");
      Printf.sprintf "retraction cones: %d facts over-deleted, %d restored"
        (c "lsdb_engine_retract_cone_facts_total")
        (c "lsdb_engine_restored_facts_total");
      Printf.sprintf
        "demand: %d goals (%d memo hits / %d misses), %d magic patterns, %d \
         cone facts derived"
        (c "lsdb_demand_goals_total")
        (c "lsdb_demand_memo_hits_total")
        (c "lsdb_demand_memo_misses_total")
        (c "lsdb_demand_magic_predicates_total")
        (c "lsdb_demand_cone_facts_total");
      (let direction d =
         c ~labels:[ ("direction", d) ] "lsdb_composition_expansions_total"
       in
       Printf.sprintf
         "composition: %d searches (%d truncated, %d empty at the join), %d \
          paths, %d meet nodes; expansions %d forward / %d backward"
         (c "lsdb_composition_searches_total")
         (c "lsdb_composition_truncated_total")
         (c "lsdb_composition_empty_meets_total")
         (c "lsdb_composition_paths_total")
         (c "lsdb_composition_meet_nodes_total")
         (direction "forward") (direction "backward"));
      Printf.sprintf
        "pool: %d fan-outs, %d worker jobs; items %d caller / %d worker"
        (c "lsdb_pool_maps_total") (c "lsdb_pool_jobs_total") (lane "caller")
        (lane "worker");
      Printf.sprintf "storage: %d log appends, %d syncs, %d compactions"
        (c "lsdb_log_appends_total") (c "lsdb_log_syncs_total")
        (c "lsdb_store_compactions_total");
      (let trip r = c ~labels:[ ("reason", r) ] "lsdb_governor_trips_total" in
       Printf.sprintf
         "governor: %d checkpoints; trips %d deadline / %d facts / %d work / \
          %d waves / %d cancelled"
         (c "lsdb_governor_checkpoints_total")
         (trip "deadline") (trip "fact-budget") (trip "work-budget")
         (trip "wave-budget") (trip "cancelled"));
      Printf.sprintf
        "degradation: %d storage retries (%d gave up), %d federation members \
         skipped"
        (c "lsdb_storage_retries_total")
        (c "lsdb_storage_retry_giveups_total")
        (c "lsdb_federation_skipped_members_total");
      (let { Lsdb_datalog.Index.frozen_live; frozen_dead; delta_live;
             delta_dead; freezes } =
         Database.tier_stats db
       in
       Printf.sprintf
         "index tiers (this db): frozen %d live / %d dead, delta %d live / \
          %d dead, %d freezes"
         frozen_live frozen_dead delta_live delta_dead freezes);
      Printf.sprintf
        "answer cache (this db): %d hits / %d misses, %d entries, %d evicted"
        hits misses size evictions;
      Printf.sprintf "timed instrumentation: %s; tracing: %s"
        (if Metrics.enabled () then "on" else "off")
        (if Trace.enabled () then "on" else "off");
    ]

let rec chunk_pairs out = function
  | [] -> []
  | [ last ] ->
      Buffer.add_string out (Printf.sprintf "(ignoring dangling column spec %S)\n" last);
      []
  | rel :: cls :: rest -> (rel, cls) :: chunk_pairs out rest

let parse_fact out db text =
  match Query_parser.parse_template db text with
  | tpl -> (
      match Template.to_fact tpl with
      | Some fact -> Some fact
      | None ->
          Buffer.add_string out "facts may not contain variables\n";
          None)
  | exception Query_parser.Parse_error msg ->
      Buffer.add_string out (Printf.sprintf "parse error: %s\n" msg);
      None

(* Commands that evaluate over the closure and can therefore run long.
   Each gets a fresh governor carrying the session budgets — even with no
   budgets set, the token is what a Ctrl-C handler cancels through. *)
let query_commands =
  [ "try"; "nav"; "assoc"; "t"; "q"; "probe"; "explain"; "relation"; "call"; "check" ]

let governed t out f =
  let gov =
    Governor.create ?deadline_ms:t.deadline_ms ?max_facts:t.max_facts
      ?max_work:t.max_work ?max_waves:t.max_waves ()
  in
  t.active_gov <- Some gov;
  Database.set_governor t.db (Some gov);
  Fun.protect
    ~finally:(fun () ->
      t.active_gov <- None;
      (* This transition discards any partial closure / poisoned demand
         state the tripped query left behind. *)
      Database.set_governor t.db None)
    f;
  match Governor.tripped gov with
  | None -> ()
  | Some reason ->
      let ms = Governor.elapsed_s gov *. 1e3 in
      Buffer.add_string out
        (match reason with
        | Governor.Cancelled ->
            Printf.sprintf "(cancelled after %.1f ms — answers may be incomplete)\n"
              ms
        | _ ->
            Printf.sprintf
              "warning: %s tripped after %.1f ms (%d work units, %d derived \
               facts) — answers are a sound subset\n"
              (Governor.reason_string reason)
              ms (Governor.work_done gov) (Governor.facts_done gov))

let rec execute t line =
  let out = Buffer.create 256 in
  (* [Sys.Break] must escape: it is the REPL's "second Ctrl-C, exit now"
     signal, and swallowing it here would trap the user in the loop. *)
  (try run t out (split_words line) with
  | Sys.Break as e -> raise e
  | e -> Buffer.add_string out ("error: " ^ Printexc.to_string e ^ "\n"));
  Buffer.contents out

and run t out words =
  match words with
  | cmd :: _ when List.mem (String.lowercase_ascii cmd) query_commands ->
      governed t out (fun () -> dispatch t out words)
  | _ -> dispatch t out words

and dispatch t out words =
  let say fmt = Printf.ksprintf (fun s -> Buffer.add_string out (s ^ "\n")) fmt in
  let db = t.db in
  match words with
  | [] -> ()
  | cmd :: rest -> (
      let rest_text () = String.concat " " rest in
      match (String.lowercase_ascii cmd, rest) with
      | "help", _ -> say "%s" help
      | "try", [ name ] -> say "%s" (Operators.try_render db name)
      | "find", [ needle ] -> (
          match Search.substring db needle with
          | [] -> say "no entity name contains %S" needle
          | hits ->
              List.iter (fun e -> say "  %s" (Database.entity_name db e)) hits)
      | "nav", [ name ] -> (
          match Database.find_entity db name with
          | Some e ->
              ignore (Navigation.visit t.session e);
              say "%s" (Navigation.render_source_table db e)
          | None -> say "no such entity: %s" name)
      | "back", _ -> (
          match Navigation.back t.session with
          | Some e -> say "%s" (Navigation.render_source_table db e)
          | None -> say "(at the start of history)")
      | "history", _ ->
          say "%s"
            (String.concat " → "
               (List.rev_map (Database.entity_name db) (Navigation.history t.session)))
      | "assoc", [ a; b ] -> (
          match (Database.find_entity db a, Database.find_entity db b) with
          | Some src, Some tgt ->
              say "%s"
                (Trace.with_query
                   (Printf.sprintf "assoc %s %s" a b)
                   (fun () -> Navigation.render_associations db ~src ~tgt))
          | _ -> say "unknown entity")
      | "t", _ :: _ -> (
          match Query_parser.parse_template db (rest_text ()) with
          | tpl -> say "%s" (Navigation.render_template db tpl)
          | exception Query_parser.Parse_error msg -> say "parse error: %s" msg)
      | "q", _ :: _ -> (
          match Query_parser.parse db (rest_text ()) with
          | query ->
              let answer =
                Trace.with_query ("q " ^ rest_text ()) (fun () -> Eval.eval db query)
              in
              say "%s" (answer_text db answer)
          | exception Query_parser.Parse_error msg -> say "parse error: %s" msg)
      | "probe", _ :: _ -> (
          match Query_parser.parse_with_unknowns db (rest_text ()) with
          | query, unknowns ->
              if unknowns <> [] then say "(new names: %s)" (String.concat ", " unknowns);
              let outcome =
                Trace.with_query
                  ("probe " ^ rest_text ())
                  (fun () -> Probing.probe db query)
              in
              Buffer.add_string out (Probing.render_menu db query outcome);
              (match outcome with
              | Probing.Retracted { successes; _ } ->
                  List.iteri
                    (fun i success ->
                      say "--- %d: %s" (i + 1)
                        (Query.to_string (Database.symtab db) success.Probing.query);
                      say "%s" (answer_text db success.Probing.answer))
                    successes
              | Probing.Answered answer -> say "%s" (answer_text db answer)
              | Probing.Exhausted _ -> ())
          | exception Query_parser.Parse_error msg -> say "parse error: %s" msg)
      | "explain", _ :: _ -> (
          match parse_fact out db (rest_text ()) with
          | Some fact -> Buffer.add_string out (Explain.render db (Explain.explain db fact))
          | None -> ())
      | "relation", cls :: columns ->
          let view = Operators.relation db cls (chunk_pairs out columns) in
          say "%s" (View.render db view)
      | "define", _ :: _ -> (
          match Definitions.define_text db t.defs (rest_text ()) with
          | () -> say "defined"
          | exception Definitions.Error msg -> say "%s" msg)
      | "call", name :: args -> (
          match Definitions.invoke_names db t.defs name args with
          | answer -> say "%s" (answer_text db answer)
          | exception Definitions.Error msg -> say "%s" msg)
      | "ops", _ ->
          let listing = Definitions.show (Database.symtab db) t.defs in
          say "%s" (if listing = "" then "(no operators defined)" else listing)
      | "undefine", [ name ] ->
          say "%s" (if Definitions.remove t.defs name then "removed" else "no such operator")
      | "insert", _ :: _ -> (
          match parse_fact out db (rest_text ()) with
          | Some fact -> (
              match Integrity.insert_checked db fact with
              | Ok true ->
                  t.journal (Inserted fact);
                  say "inserted"
              | Ok false -> say "already present"
              | Error violations ->
                  say "rejected:";
                  List.iter (fun v -> say "  %s" (Integrity.describe db v)) violations)
          | None -> ())
      | "remove", _ :: _ -> (
          match parse_fact out db (rest_text ()) with
          | Some fact ->
              if Database.remove db fact then begin
                t.journal (Removed fact);
                say "removed"
              end
              else say "not a base fact"
          | None -> ())
      | "rules", _ -> say "%s" (Operators.show_rules db)
      | "include", [ name ] ->
          if Operators.include_rule db name then begin
            t.journal (Rule_included name);
            say "enabled"
          end
          else say "no such rule"
      | "exclude", [ name ] ->
          if Operators.exclude db name then begin
            t.journal (Rule_excluded name);
            say "disabled"
          end
          else say "no such rule"
      | "limit", [ n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 1 ->
              Operators.limit db n;
              t.journal (Limit_set n);
              say "composition limit = %d" n
          | _ -> say "limit needs a positive integer")
      | "check", _ -> (
          match Integrity.violations db with
          | [] -> say "no contradictions"
          | violations -> List.iter (fun v -> say "%s" (Integrity.describe db v)) violations)
      | "stats", _ -> say "%s" (stats_text db)
      | ".closure", [] ->
          say "closure mode: %s"
            (match Database.closure_mode db with
            | Database.Eager -> "eager"
            | Database.Demand -> "demand")
      | ".closure", [ "eager" ] ->
          Database.set_closure_mode db Database.Eager;
          say "closure mode: eager"
      | ".closure", [ "demand" ] ->
          Database.set_closure_mode db Database.Demand;
          say "closure mode: demand"
      | ".closure", _ -> say ".closure takes 'eager' or 'demand'"
      | ".shards", [] ->
          let n = Database.shards db in
          say "shards: %d" n;
          if n > 1 then
            say "balance: [%s]"
              (String.concat "; "
                 (Array.to_list
                    (Array.map string_of_int
                       (Store.shard_cardinals (Database.store db)))))
      | ".shards", [ n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 1 ->
              Database.set_shards db n;
              say "shards = %d (heap re-partitioned)" n
          | _ -> say ".shards needs a positive shard count")
      | ".shards", _ -> say ".shards takes one argument: N"
      | ".deadline", [] -> (
          match t.deadline_ms with
          | Some ms -> say "deadline: %g ms" ms
          | None -> say "deadline: off")
      | ".deadline", [ "off" ] ->
          t.deadline_ms <- None;
          say "deadline off"
      | ".deadline", [ ms ] -> (
          match float_of_string_opt ms with
          | Some ms when ms > 0. ->
              t.deadline_ms <- Some ms;
              say "deadline = %g ms" ms
          | _ -> say ".deadline needs a positive duration in milliseconds, or 'off'")
      | ".deadline", _ -> say ".deadline takes one argument: MS or 'off'"
      | ".budget", [] ->
          let show name v =
            match v with
            | Some n -> say "%s budget: %d" name n
            | None -> say "%s budget: off" name
          in
          show "fact" t.max_facts;
          show "work" t.max_work;
          show "wave" t.max_waves
      | ".budget", [ "off" ] ->
          t.max_facts <- None;
          t.max_work <- None;
          t.max_waves <- None;
          say "budgets off"
      | ".budget", [ kind; n ] -> (
          match (kind, int_of_string_opt n) with
          | "facts", Some n when n > 0 ->
              t.max_facts <- Some n;
              say "fact budget = %d" n
          | "work", Some n when n > 0 ->
              t.max_work <- Some n;
              say "work budget = %d" n
          | "waves", Some n when n > 0 ->
              t.max_waves <- Some n;
              say "wave budget = %d" n
          | _ -> say ".budget needs 'facts N', 'work N', 'waves N' (N positive) or 'off'")
      | ".budget", _ -> say ".budget needs 'facts N', 'work N', 'waves N' or 'off'"
      | ".stats", _ -> say "%s" (obs_stats_text db)
      | ".metrics", _ -> Buffer.add_string out (Metrics.expose ())
      | ".profile", [] -> (
          match Trace.last () with
          | Some p -> Buffer.add_string out (Trace.render p)
          | None ->
              if Trace.enabled () then say "(no profiles recorded yet)"
              else say "(tracing is off — '.profile on' to enable)")
      | ".profile", [ "on" ] ->
          Metrics.set_enabled true;
          Trace.set_enabled true;
          say "profiling on"
      | ".profile", [ "off" ] ->
          Metrics.set_enabled false;
          Trace.set_enabled false;
          say "profiling off"
      | ".slowlog", [] -> (
          match Trace.slowlog () with
          | [] ->
              if Trace.slow_threshold () = infinity then
                say "(slowlog is off — '.slowlog MS' to set a threshold)"
              else say "(no queries above %.1f ms)" (Trace.slow_threshold () *. 1e3)
          | profiles ->
              List.iter (fun p -> Buffer.add_string out (Trace.render p)) profiles)
      | ".slowlog", [ ms ] -> (
          match float_of_string_opt ms with
          | Some ms when ms >= 0. ->
              Trace.set_slow_threshold (ms /. 1e3);
              Metrics.set_enabled true;
              Trace.set_enabled true;
              say "slowlog threshold = %s ms (tracing on)"
                (if Float.is_integer ms then Printf.sprintf "%.0f" ms
                 else Printf.sprintf "%g" ms)
          | _ -> say ".slowlog needs a non-negative threshold in milliseconds")
      | "save", [ path ] ->
          Fact_file.save_file db path;
          say "saved to %s" path
      | "load", [ path ] -> (
          match Fact_file.load_file db path with
          | n -> say "loaded %d facts" n
          | exception Fact_file.Syntax_error { line; message } ->
              say "%s:%d: %s" path line message
          | exception Sys_error msg -> say "%s" msg)
      | "script", [ path ] -> (
          match
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with
          | text -> Buffer.add_string out (run_script t text)
          | exception Sys_error msg -> say "%s" msg)
      | _ -> say "unknown command %S — type 'help'" cmd)

and run_script t text =
  let out = Buffer.create 1024 in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then begin
        Buffer.add_string out (Printf.sprintf "lsdb> %s\n" line);
        Buffer.add_string out (execute t line)
      end)
    (String.split_on_char '\n' text);
  Buffer.contents out
