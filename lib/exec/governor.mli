(** Per-query resource governor: wall deadline, derived-fact budget, work
    budget, probe-wave budget and a cooperative cancellation token.

    A governor is created per query (or per request, in a future server
    front end) and threaded through every long-running loop of the
    evaluation stack — semi-naive closure rounds, demand cone walks,
    probe waves, composition frontier expansions, join iteration. The
    loops call {!tick}/{!check} at cheap amortized checkpoints; when a
    budget is exceeded the governor {e trips} — once, stickily — and the
    checkpoint raises the internal {!Trip} exception. Entry points catch
    it and return whatever sound partial answers they had already
    derived; no exception ever crosses into user code. The caller reads
    the outcome with {!finish}: [Complete] when the governor never
    tripped, [Partial] (with the trip reason) otherwise.

    Soundness discipline: every structure a governed evaluation leaves
    behind is a {e subset} of the ungoverned result (facts derived before
    the trip are genuinely derivable; nothing bogus is ever added), so
    partial answer sets are always sound. Completeness-sensitive caches
    (the closure cache, demand memos, generation-keyed answer caches)
    must not survive a trip — [Database.set_governor] enforces that.

    An untripped governor must be behaviorally invisible: every
    intervention is raise-only, so results are byte-identical to an
    ungoverned run (bench B19 gates the overhead). *)

type t

type reason = Deadline | Fact_budget | Work_budget | Wave_budget | Cancelled

exception Trip of reason
(** Internal control flow between checkpoints and entry points. Library
    entry points catch it; it never propagates to user code. *)

(** The typed outcome a governed entry point surfaces to its caller. *)
type 'a outcome =
  | Complete of 'a
  | Partial of {
      value : 'a;  (** sound partial answers derived before the trip *)
      reason : reason;
      elapsed_s : float;  (** wall-clock since {!create} *)
      work : int;  (** work units ticked *)
      facts : int;  (** derived facts counted *)
    }

(** [create ()] with no budget is a pure cancellation token (near-zero
    overhead: no clock is ever read). [deadline_ms] is relative to now;
    [max_facts] bounds derived facts, [max_work] total work units
    (candidate facts walked, delta triples joined, frontier nodes
    expanded), [max_waves] probe broadening waves. *)
val create :
  ?deadline_ms:float -> ?max_facts:int -> ?max_work:int -> ?max_waves:int -> unit -> t

(** Request cooperative cancellation (safe from a signal handler or
    another domain); the next checkpoint trips with [Cancelled]. *)
val cancel : t -> unit

val cancelled : t -> bool

(** The sticky trip reason, if the governor has tripped. Once set it
    never clears: every later {!tick}/{!check} re-raises immediately, so
    post-trip governed work degrades to near-no-ops while the stack
    unwinds through its catch points. *)
val tripped : t -> reason option

val is_tripped : t option -> bool

val elapsed_s : t -> float
val work_done : t -> int
val facts_done : t -> int

(** Budgets as configured (for display). *)
val describe : t -> string

(** {1 Checkpoints — called from evaluation loops} *)

(** [tick gov n] records [n] units of work. Cheap: two atomic adds; the
    full checkpoint (cancellation flag, deadline clock read) runs only
    every {!checkpoint_interval} accumulated units. Raises {!Trip} when
    a budget is exceeded. [tick None n] is a no-op. *)
val tick : t option -> int -> unit

(** Forced full checkpoint — for loop heads executed rarely (round
    barriers, wave boundaries) where deadline latency matters more than
    amortization. Raises {!Trip}. *)
val check : t option -> unit

(** [count_facts gov n] — [n] facts were derived; trips with
    [Fact_budget] past the budget. *)
val count_facts : t option -> int -> unit

(** One probe broadening wave is starting; trips with [Wave_budget] past
    the budget. *)
val count_wave : t option -> unit

val checkpoint_interval : int

(** {1 Batched ticking — pool lanes}

    Two atomic RMWs per {!tick} cost more than the joins they meter on
    tight per-emission loops, and with several pool lanes ticking the
    same governor the contention multiplies. A [ticker] accumulates work
    units in a plain local counter and forwards them in batches: each
    lane owns one, so the governor sees one aggregated [tick] per
    [batch] units per lane. The un-forwarded slop is at most
    [batch - 1] per lane, well inside the checkpoint interval for the
    default batch of 256. *)

type ticker

(** [ticker gov] — a fresh local accumulator forwarding to [gov].
    [ticker None] never forwards (all operations are near-free). *)
val ticker : ?batch:int -> t option -> ticker

(** [bump tk n] records [n] local units; forwards (and may raise
    {!Trip}) once the batch fills. *)
val bump : ticker -> int -> unit

(** Forward whatever is pending. Call at the end of the lane's loop so
    no work goes unmetered. Raises {!Trip} like {!tick}. *)
val flush_ticks : ticker -> unit

(** {1 Outcomes} *)

(** Wrap a value in the typed outcome: [Complete] if [gov] is absent or
    never tripped, [Partial] otherwise. *)
val finish : t option -> 'a -> 'a outcome

val reason_string : reason -> string

(** {1 Bounded-exponential-backoff retry}

    For transient faults (storage writes hitting a momentary [EIO]-shaped
    error): retry with exponentially growing sleeps, bounded in both
    attempt count and per-sleep duration. Permanent failures (anything
    [retry_on] rejects) propagate immediately. *)
module Retry : sig
  type policy = {
    attempts : int;  (** total tries, including the first *)
    base_delay_s : float;  (** sleep before the first retry *)
    max_delay_s : float;  (** per-sleep cap *)
  }

  val default : policy
  (** 4 attempts, 2 ms base, 50 ms cap. *)

  val none : policy
  (** A single attempt — retries disabled. *)

  (** [run ~retry_on f] runs [f], retrying when it raises an exception
      [retry_on] accepts. [on_retry] is called before each sleep;
      [on_giveup] just before re-raising once attempts are exhausted. *)
  val run :
    ?policy:policy ->
    ?on_retry:(attempt:int -> exn -> unit) ->
    ?on_giveup:(exn -> unit) ->
    retry_on:(exn -> bool) ->
    (unit -> 'a) ->
    'a
end
