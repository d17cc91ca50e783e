(* lsdb-browse: an interactive browser for loosely structured databases.

   All command logic lives in the Lsdb_shell library (so it is testable);
   this binary handles argument parsing, database selection and the REPL
   loop.

     dune exec bin/lsdb_browse.exe -- --demo music
     dune exec bin/lsdb_browse.exe -- facts.lsdb
     dune exec bin/lsdb_browse.exe -- --dir /path/to/durable-db *)

open Lsdb

let repl shell =
  print_endline "lsdb browser — type 'help' for commands, 'quit' to exit";
  print_string (Lsdb_shell.Shell.execute shell "stats");
  let rec loop () =
    print_string "lsdb> ";
    match read_line () with
    | exception End_of_file -> ()
    | exception Sys.Break ->
        (* Second Ctrl-C (or a Ctrl-C with no query in flight): leave the
           loop so every Fun.protect finalizer on the way out runs. *)
        print_newline ()
    | "quit" | "exit" -> ()
    | line -> (
        match Lsdb_shell.Shell.execute shell line with
        | output ->
            print_string output;
            loop ()
        | exception Sys.Break -> print_newline ())
  in
  loop ()

(* First Ctrl-C cancels the in-flight query cooperatively through its
   governor token (the query returns with a "cancelled after …" notice);
   a second one — or one with nothing running — raises [Sys.Break]. *)
let install_sigint shell =
  try
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           match Lsdb_shell.Shell.active_governor shell with
           | Some gov when not (Lsdb_exec.Governor.cancelled gov) ->
               Lsdb_exec.Governor.cancel gov
           | _ -> raise Sys.Break))
  with Invalid_argument _ | Sys_error _ -> ()

let drive ?limit ?shards ?domains ?journal ?deadline_ms ~closure_mode db command =
  (* Re-partition before anything queries: at this point no closure has
     been computed, so the reshard is pure heap work. Session-only, like
     --limit: never journaled. *)
  Option.iter (fun n -> Database.set_shards db n) shards;
  (* A session-only override of the composition chain bound: applied
     after any journal replay, never journaled itself. *)
  Option.iter (fun n -> Database.set_limit db n) limit;
  Database.set_closure_mode db closure_mode;
  let pool =
    match domains with
    | Some n when n > 1 ->
        let pool = Lsdb_exec.Pool.create ~domains:n in
        Database.set_pool db (Some pool);
        Some pool
    | _ -> None
  in
  (* The pool's worker domains must be joined on every exit path — a
     session killed by an exception (or a raising command) would
     otherwise leave them blocked on the queue forever. *)
  Fun.protect
    ~finally:(fun () ->
      Database.set_pool db None;
      Option.iter Lsdb_exec.Pool.shutdown pool)
    (fun () ->
      let shell = Lsdb_shell.Shell.create ?journal db in
      Lsdb_shell.Shell.set_deadline_ms shell deadline_ms;
      install_sigint shell;
      match command with
      | Some cmd -> print_string (Lsdb_shell.Shell.execute shell cmd)
      | None -> repl shell)

open Cmdliner

let file =
  let doc = "Fact file (text format, see Lsdb.Fact_file) to load." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let demo =
  let doc =
    Printf.sprintf "Start from a built-in example database: %s."
      (String.concat ", " (List.map fst Lsdb_shell.Shell.demos))
  in
  Arg.(value & opt (some string) None & info [ "demo" ] ~docv:"NAME" ~doc)

let persistent_dir =
  let doc = "Open a durable database directory (snapshot + operation log)." in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let command_line =
  let doc = "Execute one command instead of starting the REPL." in
  Arg.(value & opt (some string) None & info [ "c"; "command" ] ~docv:"CMD" ~doc)

let limit_flag =
  let doc =
    "Override the composition chain bound limit($(docv)) for this session \
     (not journaled; see the shell's 'limit' command)."
  in
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)

let domains =
  let doc =
    "Evaluate closure rounds and retraction waves across $(docv) domains \
     (1 = sequential). Results are identical either way."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let shards_flag =
  let doc =
    "Hash-partition the fact heap by source entity into $(docv) shards; a \
     source-bound read then touches one shard. The closure keeps one index \
     per stratum at every shard count, and query results are identical at \
     every shard count. Session-only; flip at runtime with the shell's \
     '.shards' command."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)

let salvage =
  let doc =
    "Open the durable directory in salvage mode: truncate a torn log tail, \
     skip corrupt records, keep everything that still parses, and print a \
     recovery report. Without this flag corruption is a fatal error."
  in
  Arg.(value & flag & info [ "salvage" ] ~doc)

let metrics_file =
  let doc =
    "Enable timed instrumentation and, on exit (normal or not), write the \
     metrics registry in Prometheus text format to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let slow_ms =
  let doc =
    "Enable query tracing and keep a slowlog of queries at least $(docv) \
     milliseconds long; the slowlog is printed to stderr on exit."
  in
  Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)

let deadline_ms_flag =
  let doc =
    "Per-query wall deadline in milliseconds: a query exceeding it stops \
     early with a warning and sound partial answers (see the shell's \
     '.deadline' and '.budget' commands)."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let closure_flag =
  let mode =
    Arg.enum [ ("eager", Database.Eager); ("demand", Database.Demand) ]
  in
  let doc =
    "Closure mode. $(b,eager) materializes the full inference closure up \
     front (amortized over many queries); $(b,demand) derives only the cone \
     of facts each query can touch (magic sets), which makes cold starts on \
     large heaps fast. Answers are identical in both modes. Defaults to \
     $(b,demand) when opening a durable directory with $(b,--dir) (cold \
     opens), $(b,eager) otherwise; flip at runtime with the shell's \
     '.closure' command."
  in
  Arg.(value & opt (some mode) None & info [ "closure" ] ~docv:"MODE" ~doc)

let rec main file demo dir command domains shards salvage metrics_file slow_ms
    limit closure deadline_ms =
  (match metrics_file with
  | Some _ -> Lsdb_obs.Metrics.set_enabled true
  | None -> ());
  (match slow_ms with
  | Some ms ->
      Lsdb_obs.Metrics.set_enabled true;
      Lsdb_obs.Trace.set_enabled true;
      Lsdb_obs.Trace.set_slow_threshold (Float.max 0. ms /. 1e3)
  | None -> ());
  Fun.protect ~finally:(fun () ->
      (match metrics_file with
      | Some path ->
          let oc = open_out path in
          output_string oc (Lsdb_obs.Metrics.expose ());
          close_out oc
      | None -> ());
      match slow_ms with
      | None -> ()
      | Some _ ->
          List.iter
            (fun p -> prerr_string (Lsdb_obs.Trace.render p))
            (List.rev (Lsdb_obs.Trace.slowlog ())))
  @@ fun () ->
  run file demo dir command domains shards salvage limit closure deadline_ms

and run file demo dir command domains shards salvage limit closure deadline_ms =
  (* Demand is the default for --dir cold opens (the heap may be far
     larger than anything this session will query); in-memory sessions
     default to eager, the long-standing behavior. *)
  let closure_mode ~default = Option.value closure ~default in
  match (demo, dir) with
  | Some name, _ -> (
      match List.assoc_opt name Lsdb_shell.Shell.demos with
      | Some build ->
          drive ?limit ?shards ~domains ?deadline_ms
            ~closure_mode:(closure_mode ~default:Database.Eager)
            (build ()) command;
          0
      | None ->
          Printf.eprintf "unknown demo %S (known: %s)\n" name
            (String.concat ", " (List.map fst Lsdb_shell.Shell.demos));
          1)
  | None, Some dir -> (
      let recovery = if salvage then `Salvage else `Strict in
      match Lsdb_storage.Persistent.open_dir ~recovery dir with
      | exception Failure msg ->
          Printf.eprintf "%s\n" msg;
          1
      | p ->
          let report = Lsdb_storage.Persistent.recovery_report p in
          if not (Lsdb_storage.Recovery_report.is_clean report) then
            print_endline (Lsdb_storage.Recovery_report.to_string report);
          let db = Lsdb_storage.Persistent.database p in
          (* Shell commands mutate [db] directly; journal each successful
             mutation so it survives in the operation log. *)
          let journal mutation =
            let open Lsdb_storage in
            let names f = Fact.names (Database.symtab db) f in
            Persistent.journal p
              (match mutation with
              | Lsdb_shell.Shell.Inserted f ->
                  let s, r, t = names f in
                  Log.Insert (s, r, t)
              | Lsdb_shell.Shell.Removed f ->
                  let s, r, t = names f in
                  Log.Remove (s, r, t)
              | Lsdb_shell.Shell.Rule_included name -> Log.Include_rule name
              | Lsdb_shell.Shell.Rule_excluded name -> Log.Exclude_rule name
              | Lsdb_shell.Shell.Limit_set n -> Log.Set_limit n)
          in
          (* [close] both releases the store and syncs any buffered log
             tail — it must run even when the session dies mid-command. *)
          Fun.protect
            ~finally:(fun () -> Lsdb_storage.Persistent.close p)
            (fun () ->
              drive ?limit ?shards ~domains ~journal ?deadline_ms
                ~closure_mode:(closure_mode ~default:Database.Demand)
                db command);
          0)
  | None, None -> (
      let db = Database.create () in
      match
        match file with
        | Some path -> ( try Ok (Fact_file.load_file db path) with e -> Error e)
        | None -> Ok 0
      with
      | Ok n ->
          if n > 0 then Printf.printf "loaded %d facts from %s\n" n (Option.get file);
          drive ?limit ?shards ~domains ?deadline_ms
            ~closure_mode:(closure_mode ~default:Database.Eager)
            db command;
          0
      | Error (Fact_file.Syntax_error { line; message }) ->
          Printf.eprintf "%s:%d: %s\n" (Option.get file) line message;
          1
      | Error e ->
          Printf.eprintf "%s\n" (Printexc.to_string e);
          1)

let cmd =
  let doc = "browse a loosely structured database (Motro, SIGMOD 1984)" in
  let info = Cmd.info "lsdb-browse" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const main $ file $ demo $ persistent_dir $ command_line $ domains
      $ shards_flag $ salvage $ metrics_file $ slow_ms $ limit_flag
      $ closure_flag $ deadline_ms_flag)

let () = exit (Cmd.eval' cmd)
