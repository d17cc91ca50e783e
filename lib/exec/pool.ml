module Metrics = Lsdb_obs.Metrics

type t = {
  size : int;
  mutex : Mutex.t;  (* guards [jobs] and [stopped] *)
  nonempty : Condition.t;
  jobs : (float * (unit -> unit)) Queue.t;
      (* enqueue timestamp (0. when timing is disabled) and the job *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  escaped : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* first exception a queued job let escape; re-raised on the caller
         path at the next pool operation instead of vanishing *)
}

let default_domains () = Domain.recommended_domain_count ()

(* Observability: one handle per fact of pool life, registered once at
   module initialization. Counters are aggregated per lane (one atomic
   add per lane per fan-out), never per item. *)
let m_lanes =
  Metrics.gauge ~help:"Lanes (including the caller) of the most recently created pool"
    "lsdb_pool_lanes"

let m_maps =
  Metrics.counter ~help:"Parallel fan-outs executed" "lsdb_pool_maps_total"

let m_jobs =
  Metrics.counter ~help:"Queued lane jobs picked up by worker domains"
    "lsdb_pool_jobs_total"

let m_job_exceptions =
  Metrics.counter
    ~help:"Exceptions that escaped a queued job (invariant violations)"
    "lsdb_pool_job_exceptions_total"

let m_items_caller =
  Metrics.counter ~help:"Work items claimed by the calling domain's lane"
    ~labels:[ ("lane", "caller") ]
    "lsdb_pool_items_total"

let m_items_worker =
  Metrics.counter ~help:"Work items claimed by worker-domain lanes"
    ~labels:[ ("lane", "worker") ]
    "lsdb_pool_items_total"

let m_queue_wait =
  Metrics.histogram ~help:"Seconds a lane job waited in the queue before pickup"
    "lsdb_pool_queue_wait_seconds"

(* Record the first exception a job lets escape; the next caller-path
   entry point ([map_array]) re-raises it. The map wrapper catches its
   own items' exceptions, so anything landing here is a wrapper
   invariant violation (or a raw [submit] job) — exactly the class of
   failure that must not vanish silently: a [Diverged] or
   [Governor.Trip] that escaped its lane would otherwise turn a divergent
   closure into a silently incomplete one. *)
let note_escape t e =
  Metrics.incr m_job_exceptions;
  ignore
    (Atomic.compare_and_set t.escaped None
       (Some (e, Printexc.get_raw_backtrace ()))
      : bool)

let reraise_escaped t =
  match Atomic.exchange t.escaped None with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let worker_loop t () =
  let rec run () =
    Mutex.lock t.mutex;
    let rec next () =
      if t.stopped then None
      else if Queue.is_empty t.jobs then begin
        Condition.wait t.nonempty t.mutex;
        next ()
      end
      else Some (Queue.pop t.jobs)
    in
    let job = next () in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some (enqueued_at, job) ->
        Metrics.incr m_jobs;
        if enqueued_at > 0. then
          Metrics.observe m_queue_wait (Metrics.now () -. enqueued_at);
        (* The guard keeps a misbehaving job from killing the worker, but
           the exception is counted and parked for the caller path — never
           dropped on the floor. *)
        (try job () with e -> note_escape t e);
        run ()
  in
  run ()

let create ~domains =
  let size = max 1 domains in
  let t =
    {
      size;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      stopped = false;
      workers = [];
      escaped = Atomic.make None;
    }
  in
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker_loop t));
  Metrics.set m_lanes size;
  t

let size t = t.size

let submit t job =
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push (0., job) t.jobs;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.stopped <- true;
  t.workers <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let map_array t f input =
  if t.stopped then invalid_arg "Pool.map: pool is shut down";
  reraise_escaped t;
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let cursor = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let finished = Mutex.create () in
    let all_done = Condition.create () in
    Metrics.incr m_maps;
    (* Every lane (workers and the caller) claims indices from the shared
       cursor until the input is exhausted. Results and errors land at
       their input index, so scheduling cannot perturb the output. Item
       counts are accumulated locally and flushed once per lane. *)
    let lane items_counter () =
      let claimed = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          incr claimed;
          (match f input.(i) with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          if 1 + Atomic.fetch_and_add completed 1 = n then begin
            Mutex.lock finished;
            Condition.broadcast all_done;
            Mutex.unlock finished
          end;
          loop ()
        end
      in
      loop ();
      if !claimed > 0 then Metrics.add items_counter !claimed
    in
    let helpers = min (t.size - 1) (n - 1) in
    if helpers > 0 then begin
      let enqueued_at = if Metrics.enabled () then Metrics.now () else 0. in
      Mutex.lock t.mutex;
      for _ = 1 to helpers do
        Queue.push (enqueued_at, lane m_items_worker) t.jobs
      done;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex
    end;
    lane m_items_caller ();
    Mutex.lock finished;
    while Atomic.get completed < n do
      Condition.wait all_done finished
    done;
    Mutex.unlock finished;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* every index completed without error *))
      results
  end

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))

let fold t ~f ~combine ~init xs = List.fold_left combine init (map t f xs)
