type kind = Counter | Gauge | Histogram

(* Histogram cell layout: [0 .. nb-1] per-bucket (non-cumulative) counts
   for the finite upper bounds, [nb] the +Inf overflow, [nb+1] the total
   count, [nb+2] the sum in integer nanoseconds. Counters and gauges use
   a single cell. *)
type metric = {
  name : string;
  labels : (string * string) list;  (* sorted by label name *)
  help : string;
  kind : kind;
  buckets : float array;  (* finite upper bounds, seconds; [||] unless histogram *)
  cells : int Atomic.t array;
}

type counter = metric
type gauge = metric
type histogram = metric

type t = {
  lock : Mutex.t;
  tbl : (string * (string * string) list, metric) Hashtbl.t;
}

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }
let default = create ()

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag
let now () = Unix.gettimeofday ()

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let register registry ~help ~labels ~kind ~buckets name =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let key = (name, labels) in
  Mutex.lock registry.lock;
  let metric =
    match Hashtbl.find_opt registry.tbl key with
    | Some existing ->
        if existing.kind <> kind then begin
          Mutex.unlock registry.lock;
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name existing.kind))
        end;
        existing
    | None ->
        let ncells =
          match kind with Histogram -> Array.length buckets + 3 | _ -> 1
        in
        let metric =
          { name; labels; help; kind; buckets;
            cells = Array.init ncells (fun _ -> Atomic.make 0) }
        in
        Hashtbl.add registry.tbl key metric;
        metric
  in
  Mutex.unlock registry.lock;
  metric

let counter ?(registry = default) ?(help = "") ?(labels = []) name =
  register registry ~help ~labels ~kind:Counter ~buckets:[||] name

let gauge ?(registry = default) ?(help = "") ?(labels = []) name =
  register registry ~help ~labels ~kind:Gauge ~buckets:[||] name

let histogram ?(registry = default) ?(help = "") ?(labels = [])
    ?(buckets = default_buckets) name =
  let ok = ref (Array.length buckets > 0) in
  Array.iteri
    (fun i b -> if i > 0 && buckets.(i - 1) >= b then ok := false)
    buckets;
  if not !ok then
    invalid_arg "Metrics.histogram: buckets must be non-empty and strictly increasing";
  register registry ~help ~labels ~kind:Histogram ~buckets name

let incr (m : counter) = Atomic.incr m.cells.(0)

let add (m : counter) n =
  if n < 0 then invalid_arg "Metrics.add: counters only go up";
  ignore (Atomic.fetch_and_add m.cells.(0) n)

let set (m : gauge) v = Atomic.set m.cells.(0) v
let gauge_add (m : gauge) n = ignore (Atomic.fetch_and_add m.cells.(0) n)

let observe (m : histogram) seconds =
  let nb = Array.length m.buckets in
  let rec slot i = if i >= nb || seconds <= m.buckets.(i) then i else slot (i + 1) in
  Atomic.incr m.cells.(slot 0);
  Atomic.incr m.cells.(nb + 1);
  let ns = int_of_float (seconds *. 1e9) in
  ignore (Atomic.fetch_and_add m.cells.(nb + 2) (max 0 ns))

let time (m : histogram) f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now () in
    match f () with
    | result ->
        observe m (now () -. t0);
        result
    | exception e ->
        observe m (now () -. t0);
        raise e
  end

let counter_value (m : counter) = Atomic.get m.cells.(0)
let gauge_value (m : gauge) = Atomic.get m.cells.(0)

let histogram_count (m : histogram) =
  Atomic.get m.cells.(Array.length m.buckets + 1)

let histogram_sum (m : histogram) =
  float_of_int (Atomic.get m.cells.(Array.length m.buckets + 2)) /. 1e9

let bucket_counts (m : histogram) =
  let nb = Array.length m.buckets in
  let cumulative = ref 0 in
  let finite =
    List.init nb (fun i ->
        cumulative := !cumulative + Atomic.get m.cells.(i);
        (m.buckets.(i), !cumulative))
  in
  finite @ [ (infinity, !cumulative + Atomic.get m.cells.(nb)) ]

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)

let sorted_metrics registry =
  Mutex.lock registry.lock;
  let all = Hashtbl.fold (fun _ m acc -> m :: acc) registry.tbl [] in
  Mutex.unlock registry.lock;
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    all

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      Printf.sprintf "{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
              labels))

(* "0.001" rather than "1e-03": Prometheus accepts both, humans prefer
   the former; trailing zeros are trimmed for stability. *)
let render_float f =
  if f = infinity then "+Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else begin
    let s = Printf.sprintf "%.9f" f in
    let len = ref (String.length s) in
    while !len > 1 && s.[!len - 1] = '0' do decr len done;
    if !len > 1 && s.[!len - 1] = '.' then decr len;
    String.sub s 0 !len
  end

(* GC gauges, refreshed at every scrape and at bench-record time so
   perf gates can compare allocation rate, not just wall clock.
   [minor_words] is monotone (a counter in gauge clothing);
   [heap_words] is the current major heap size. *)
let sample_gc ?registry () =
  let st = Gc.quick_stat () in
  set
    (gauge ?registry
       ~help:"Minor-heap bytes allocated since program start"
       "lsdb_gc_minor_allocated_bytes_total")
    (int_of_float (st.Gc.minor_words *. 8.0));
  set
    (gauge ?registry ~help:"Major heap size in bytes"
       "lsdb_gc_major_heap_bytes")
    (st.Gc.heap_words * 8);
  set
    (gauge ?registry ~help:"Major GC collections since program start"
       "lsdb_gc_major_collections_total")
    st.Gc.major_collections

let expose ?(registry = default) () =
  sample_gc ~registry ();
  let buf = Buffer.create 4096 in
  let last_family = ref "" in
  List.iter
    (fun m ->
      if m.name <> !last_family then begin
        last_family := m.name;
        if m.help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m.name m.help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" m.name (kind_name m.kind))
      end;
      match m.kind with
      | Counter | Gauge ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" m.name (render_labels m.labels)
               (Atomic.get m.cells.(0)))
      | Histogram ->
          List.iter
            (fun (le, count) ->
              let labels = m.labels @ [ ("le", render_float le) ] in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" m.name (render_labels labels)
                   count))
            (bucket_counts m);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" m.name (render_labels m.labels)
               (render_float (histogram_sum m)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" m.name (render_labels m.labels)
               (histogram_count m)))
    (sorted_metrics registry);
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dump_json ?(registry = default) () =
  sample_gc ~registry ();
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"metrics\": [";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string buf ", ";
      let labels =
        String.concat ", "
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
             m.labels)
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"name\": \"%s\", \"kind\": \"%s\", \"labels\": {%s}, "
           (json_escape m.name) (kind_name m.kind) labels);
      (match m.kind with
      | Counter | Gauge ->
          Buffer.add_string buf
            (Printf.sprintf "\"value\": %d}" (Atomic.get m.cells.(0)))
      | Histogram ->
          Buffer.add_string buf
            (Printf.sprintf "\"count\": %d, \"sum\": %.9f, \"buckets\": [%s]}"
               (histogram_count m) (histogram_sum m)
               (String.concat ", "
                  (List.map
                     (fun (le, count) ->
                       Printf.sprintf "{\"le\": %s, \"count\": %d}"
                         (if le = infinity then "\"+Inf\""
                          else Printf.sprintf "%.9g" le)
                         count)
                     (bucket_counts m))))))
    (sorted_metrics registry);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let reset ?(registry = default) () =
  Mutex.lock registry.lock;
  Hashtbl.iter
    (fun _ m -> Array.iter (fun cell -> Atomic.set cell 0) m.cells)
    registry.tbl;
  Mutex.unlock registry.lock
