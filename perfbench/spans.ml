(* In-memory span recorder for the traced run. Each span records its
   layer, start, end, parent span and the command it belongs to; nothing
   is aggregated or written until the run ends. *)

type layer =
  | Command  (** the root span of one command (or one open/close) *)
  | Render
  | Parse
  | Eval
  | Navigation
  | Composition
  | Probing
  | Broadness
  | Integrity
  | Closure
  | Storage_open
  | Storage_append
  | Storage_sync

let layers =
  [
    Render;
    Parse;
    Eval;
    Navigation;
    Composition;
    Probing;
    Broadness;
    Integrity;
    Closure;
    Storage_open;
    Storage_append;
    Storage_sync;
  ]

let layer_name = function
  | Command -> "command"
  | Render -> "render"
  | Parse -> "parse"
  | Eval -> "eval"
  | Navigation -> "navigation"
  | Composition -> "composition"
  | Probing -> "probing"
  | Broadness -> "broadness"
  | Integrity -> "integrity"
  | Closure -> "closure"
  | Storage_open -> "storage.open"
  | Storage_append -> "storage.append"
  | Storage_sync -> "storage.sync"

let layer_count = 1 + List.length layers

let layer_index = function
  | Command -> 0
  | Render -> 1
  | Parse -> 2
  | Eval -> 3
  | Navigation -> 4
  | Composition -> 5
  | Probing -> 6
  | Broadness -> 7
  | Integrity -> 8
  | Closure -> 9
  | Storage_open -> 10
  | Storage_append -> 11
  | Storage_sync -> 12

type t = {
  mutable n : int;
  mutable layer : layer array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable command : int array;
  mutable open_ : int;  (** innermost open span, -1 at top level *)
  mutable current : int;  (** id of the command being traced *)
}

(* [capacity] should cover the whole run: growing copies every array,
   and the copy lands inside whichever span triggered it. *)
let create ~capacity =
  let cap = max 1024 capacity in
  {
    n = 0;
    layer = Array.make cap Command;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    command = Array.make cap 0;
    open_ = -1;
    current = 0;
  }

let grow t =
  let extend a = Array.append a (Array.make (Array.length a) 0) in
  t.layer <- Array.append t.layer (Array.make (Array.length t.layer) Command);
  t.start <- extend t.start;
  t.stop <- extend t.stop;
  t.parent <- extend t.parent;
  t.command <- extend t.command

let set_command t id = t.current <- id
let command t = t.current

let span t layer f =
  if t.n = Array.length t.layer then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.layer.(i) <- layer;
  t.parent.(i) <- t.open_;
  t.command.(i) <- t.current;
  t.open_ <- i;
  t.start.(i) <- Clock.now ();
  match f () with
  | v ->
      t.stop.(i) <- Clock.now ();
      t.open_ <- t.parent.(i);
      v
  | exception e ->
      t.stop.(i) <- Clock.now ();
      t.open_ <- t.parent.(i);
      raise e

type summary = {
  busy_ms : (layer * float) list;  (** summed self time per layer *)
  command_ms : float;  (** summed duration of the root spans *)
  covered : float;  (** share of [command_ms] inside some layer span *)
}

(* A span's self time is its duration minus the part its children
   cover; children never outlive their parent, so that part is the sum
   of the children's durations. *)
let summarize t =
  let self = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  let busy = Array.make layer_count 0 in
  let roots = ref 0 in
  for i = 0 to t.n - 1 do
    let l = layer_index t.layer.(i) in
    busy.(l) <- busy.(l) + self.(i);
    if t.parent.(i) < 0 then roots := !roots + (t.stop.(i) - t.start.(i))
  done;
  let ms ns = float_of_int ns /. 1e6 in
  let command_ms = ms !roots in
  let uncovered = ms busy.(layer_index Command) in
  {
    busy_ms = List.map (fun l -> (l, ms busy.(layer_index l))) layers;
    command_ms;
    covered = (if command_ms > 0. then (command_ms -. uncovered) /. command_ms else 0.);
  }

(* One tab-separated line per span: id, parent, command, layer, start
   and end in nanoseconds of the monotonic clock. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\tcommand\tlayer\tstart_ns\tend_ns\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" i t.parent.(i) t.command.(i)
          (layer_name t.layer.(i))
          t.start.(i) t.stop.(i)
      done)
