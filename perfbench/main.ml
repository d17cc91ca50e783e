(* The browsing benchmark's command line. Prints human-readable detail,
   then the result as one JSON object on the last line; exits 1 when any
   output check fails. *)

(* Values keep every digit the double carries. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json ~correct ~attempted ~failed metrics =
  let metric (name, unit, value) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME maintain | cold-open");
      ("--seed", Arg.Set_int seed, "N seed for the log tail and the command list");
      ("--seconds", Arg.Set_int seconds, "S size the timed phase to about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans as TSV");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "main --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match List.assoc_opt !workload Perfbench.Workload.kinds with
    | Some k -> k
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let r =
    Perfbench.Harness.run
      ?spans_file:(if !spans = "" then None else Some !spans)
      kind
      (Perfbench.Workload.full_scale kind ~seconds:(max 1 !seconds))
      ~seed:!seed ~trace:(!trace = 1)
  in
  (* The per-layer busy times must account for 90% of traced command
     time, or the layer split does not explain the end-to-end numbers. *)
  let problems =
    match r.coverage with
    | Some c when c < 0.9 ->
        r.problems @ [ Printf.sprintf "trace coverage %.1f%% is below the 90%% gate" (100. *. c) ]
    | _ -> r.problems
  in
  List.iter print_endline r.notes;
  List.iter (fun p -> prerr_endline ("CHECK FAILED: " ^ p)) problems;
  let correct = problems = [] in
  print_endline (json ~correct ~attempted:r.attempted ~failed:r.failed r.metrics);
  if not correct then exit 1
