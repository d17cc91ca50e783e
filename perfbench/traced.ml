(* The traced replay. Each command runs as the public layer calls the
   shell makes for it, each call made once and inside a span, so
   per-layer self time can be summed afterwards. Outputs are built exactly as
   [Lsdb_shell.Shell.execute] builds them; the harness checks that they
   match the untraced run's byte for byte. *)

open Lsdb
module Governor = Lsdb_exec.Governor

(* Counts only the replay can take, from what the public calls return.
   The program's own counters are read around the untraced run instead. *)
type counts = {
  mutable eval_rows : int;
  mutable nav_facts : int;
  mutable expansions : int;
  mutable meet_nodes : int;
  mutable paths : int;
  mutable broadness_rebuilds : int;
  mutable integrity_checks : int;
  mutable gov_work : int;
  mutable gov_max_completed : int;  (** most work any untripped command used *)
  mutable gov_max_command : int;  (** the id of that command *)
}

let counts () =
  {
    eval_rows = 0;
    nav_facts = 0;
    expansions = 0;
    meet_nodes = 0;
    paths = 0;
    broadness_rebuilds = 0;
    integrity_checks = 0;
    gov_work = 0;
    gov_max_completed = 0;
    gov_max_command = -1;
  }

type session = {
  db : Database.t;
  nav : Navigation.session;
  spans : Spans.t;
  counts : counts;
  budget : int;
  journal : Lsdb_storage.Log.op -> unit;
  mutable broadness_generation : int;  (** generation of the last [Broadness.of_db] *)
}

(* Set-up builds the broadness hierarchy of eager sessions, so it is
   current at the generation they start from; a demand session starts
   without one. *)
let session ?(journal = fun _ -> ()) ~spans ~counts ~budget db =
  {
    db;
    nav = Navigation.start db;
    spans;
    counts;
    budget;
    journal;
    broadness_generation =
      (if Database.closure_mode db = Database.Eager then Database.generation db else -1);
  }

let span s layer f = Spans.span s.spans layer f

(* The shell's rendering of an answer. *)
let answer_text db answer =
  match answer.Eval.vars with
  | [] -> if answer.Eval.rows <> [] then "true" else "false"
  | vars ->
      if answer.Eval.rows = [] then "(no answers)"
      else Pretty.grid ~headers:vars (Eval.rows_named (Database.symtab db) answer)

(* Eager sessions force their closure explicitly before every read, so
   work a write deferred (extension, delete/rederive) is charged to the
   closure layer rather than to whichever read happens to force it.
   Demand sessions must not: [Database.closure] would force the eager
   fixpoint there. *)
let force_closure s =
  if Database.closure_mode s.db = Database.Eager then
    span s Spans.Closure (fun () -> ignore (Database.closure s.db))

(* Mirrors the shell's per-query governor: a fresh one with the session
   work budget around every read command. *)
let governed s out f =
  (* Installing and clearing the governor is closure-layer work: clearing
     a tripped one discards the partial closure or demand state it left
     behind. *)
  let gov =
    span s Spans.Closure (fun () ->
        let gov = Governor.create ~max_work:s.budget () in
        Database.set_governor s.db (Some gov);
        gov)
  in
  Fun.protect
    ~finally:(fun () -> span s Spans.Closure (fun () -> Database.set_governor s.db None))
    f;
  s.counts.gov_work <- s.counts.gov_work + Governor.work_done gov;
  match Governor.tripped gov with
  | None ->
      if Governor.work_done gov > s.counts.gov_max_completed then begin
        s.counts.gov_max_completed <- Governor.work_done gov;
        s.counts.gov_max_command <- Spans.command s.spans
      end
  | Some reason ->
      Buffer.add_string out
        (Printf.sprintf
           "warning: %s tripped after %.1f ms (%d work units, %d derived facts) — \
            answers are a sound subset\n"
           (Governor.reason_string reason)
           (Governor.elapsed_s gov *. 1e3)
           (Governor.work_done gov) (Governor.facts_done gov))

let neighborhood_facts (n : Navigation.neighborhood) =
  let groups l = List.fold_left (fun acc (_, xs) -> acc + List.length xs) 0 l in
  groups n.as_source + groups n.as_target + List.length n.as_relationship

let rest_of line =
  match String.index_opt line ' ' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let nav s say name =
  force_closure s;
  match
    span s Spans.Navigation (fun () ->
        match Database.find_entity s.db name with
        | Some e ->
            s.counts.nav_facts <-
              s.counts.nav_facts + neighborhood_facts (Navigation.visit s.nav e);
            Some e
        | None -> None)
  with
  | Some e -> span s Spans.Render (fun () -> say (Navigation.render_source_table s.db e))
  | None -> say ("no such entity: " ^ name)

let query s say text =
  force_closure s;
  match span s Spans.Parse (fun () -> Query_parser.parse s.db text) with
  | q ->
      let answer = span s Spans.Eval (fun () -> Eval.eval s.db q) in
      s.counts.eval_rows <- s.counts.eval_rows + List.length answer.Eval.rows;
      span s Spans.Render (fun () -> say (answer_text s.db answer))
  | exception Query_parser.Parse_error msg -> say ("parse error: " ^ msg)

(* [Probing.probe] evaluates the query and, only when it fails, builds
   the broadness hierarchy ([Broadness.of_db], memoised per database
   generation) before its retraction waves. The replay calls it once, as
   the shell does, so its evaluation is charged to probing. In an eager
   session whose generation moved since the last build, the replay builds
   the hierarchy first, in its own span, and the probe then finds it
   memoised: the only probes that follow a write are maintain's
   overqualified ones, which fail, so the shell builds it for them too.
   A demand session gets no such split: building the hierarchy there
   forces the eager fixpoint, which the shell starts only after the
   query's own demand evaluation, so that rebuild stays in probing. *)
let probe s say out text =
  force_closure s;
  match span s Spans.Parse (fun () -> Query_parser.parse_with_unknowns s.db text) with
  | q, unknowns ->
      if unknowns <> [] then say ("(new names: " ^ String.concat ", " unknowns ^ ")");
      let g = Database.generation s.db in
      let stale = g <> s.broadness_generation in
      let eager = Database.closure_mode s.db = Database.Eager in
      if eager && stale then span s Spans.Broadness (fun () -> ignore (Broadness.of_db s.db));
      let outcome = span s Spans.Probing (fun () -> Probing.probe s.db q) in
      (match outcome with
      | Probing.Answered _ when not eager -> ()
      | _ ->
          if stale then begin
            s.counts.broadness_rebuilds <- s.counts.broadness_rebuilds + 1;
            s.broadness_generation <- g
          end);
      span s Spans.Render (fun () ->
          Buffer.add_string out (Probing.render_menu s.db q outcome);
          match outcome with
          | Probing.Retracted { successes; _ } ->
              List.iteri
                (fun i (success : Probing.success) ->
                  say
                    (Printf.sprintf "--- %d: %s" (i + 1)
                       (Query.to_string (Database.symtab s.db) success.query));
                  say (answer_text s.db success.answer))
                successes
          | Probing.Answered answer -> say (answer_text s.db answer)
          | Probing.Exhausted _ -> ())
  | exception Query_parser.Parse_error msg -> say ("parse error: " ^ msg)

(* [Navigation.render_associations], split at its layer boundaries:
   direct relationships through the match layer, composed ones from
   [Composition.search], then the one-column table. *)
let assoc s say a b =
  force_closure s;
  match
    span s Spans.Navigation (fun () -> (Database.find_entity s.db a, Database.find_entity s.db b))
  with
  | Some src, Some tgt ->
      let direct, _ =
        span s Spans.Navigation (fun () ->
            Navigation.associations_detailed
              ~opts:{ Match_layer.nav_opts with Match_layer.composition = false }
              s.db ~src ~tgt)
      in
      let result = span s Spans.Composition (fun () -> Composition.search s.db ~src ~tgt) in
      let c = s.counts in
      c.expansions <-
        c.expansions + result.Composition.forward_expansions
        + result.Composition.backward_expansions;
      c.meet_nodes <- c.meet_nodes + result.Composition.meet_nodes;
      c.paths <- c.paths + List.length result.Composition.paths;
      span s Spans.Render (fun () ->
          let symtab = Database.symtab s.db in
          let seen = Hashtbl.create 16 in
          let rels =
            List.filter
              (fun r ->
                if Hashtbl.mem seen r then false
                else begin
                  Hashtbl.add seen r ();
                  true
                end)
              (direct
              @ List.map
                  (fun (p : Composition.path) -> Composition.compose_name symtab p.chain)
                  result.Composition.paths)
          in
          let name = Symtab.name symtab in
          let table =
            Pretty.column
              ~title:(Printf.sprintf "%s, *, %s" (name src) (name tgt))
              (List.map name rels)
          in
          say
            (if result.Composition.truncated then table ^ Navigation.truncation_warning
             else table))
  | _ -> say "unknown entity"

let parse_fact s say text =
  span s Spans.Parse (fun () ->
      match Query_parser.parse_template s.db text with
      | tpl -> (
          match Template.to_fact tpl with
          | Some fact -> Some fact
          | None ->
              say "facts may not contain variables";
              None)
      | exception Query_parser.Parse_error msg ->
          say ("parse error: " ^ msg);
          None)

let log_op s kind fact =
  let src, rel, tgt = Fact.names (Database.symtab s.db) fact in
  span s Spans.Storage_append (fun () ->
      s.journal
        (match kind with
        | `Insert -> Lsdb_storage.Log.Insert (src, rel, tgt)
        | `Remove -> Lsdb_storage.Log.Remove (src, rel, tgt)))

(* [Integrity.insert_checked], split at its layer boundaries: the
   closure extension the check forces, then the contradiction scan. *)
let insert s say text =
  match parse_fact s say text with
  | None -> ()
  | Some fact ->
      if span s Spans.Closure (fun () -> Database.mem_base s.db fact) then say "already present"
      else begin
        span s Spans.Closure (fun () ->
            ignore (Database.insert s.db fact);
            force_closure s);
        s.counts.integrity_checks <- s.counts.integrity_checks + 1;
        match span s Spans.Integrity (fun () -> Integrity.violations s.db) with
        | [] ->
            log_op s `Insert fact;
            say "inserted"
        | violations ->
            span s Spans.Closure (fun () -> ignore (Database.remove s.db fact));
            say "rejected:";
            List.iter (fun v -> say ("  " ^ Integrity.describe s.db v)) violations
      end

let remove s say text =
  match parse_fact s say text with
  | None -> ()
  | Some fact ->
      if span s Spans.Closure (fun () -> Database.remove s.db fact) then begin
        log_op s `Remove fact;
        say "removed"
      end
      else say "not a base fact"

let words line = String.split_on_char ' ' line |> List.filter (( <> ) "")

(* One command, as [Shell.execute] would run it; returns its output. *)
let execute s id line =
  Spans.set_command s.spans id;
  let out = Buffer.create 256 in
  let say text =
    Buffer.add_string out text;
    Buffer.add_char out '\n'
  in
  Spans.span s.spans Spans.Command (fun () ->
      try
        match span s Spans.Parse (fun () -> words line) with
        | [ "nav"; name ] -> governed s out (fun () -> nav s say name)
        | [ "assoc"; a; b ] -> governed s out (fun () -> assoc s say a b)
        | "q" :: _ :: _ -> governed s out (fun () -> query s say (rest_of line))
        | "probe" :: _ :: _ -> governed s out (fun () -> probe s say out (rest_of line))
        | "insert" :: _ :: _ -> insert s say (rest_of line)
        | "remove" :: _ :: _ -> remove s say (rest_of line)
        | _ -> invalid_arg ("traced replay cannot run: " ^ line)
      with e -> Buffer.add_string out ("error: " ^ Printexc.to_string e ^ "\n"));
  Buffer.contents out
