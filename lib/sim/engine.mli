(** Discrete-event simulation engine: a virtual clock and event loop.

    Everything in the reproduction — WAN message delivery, protocol
    timers, probing intervals, workload inter-arrival times — runs as
    callbacks scheduled on one of these engines, so an entire
    multi-datacenter experiment is a deterministic single-threaded
    computation reproducible from its RNG seed.

    The event queue is the hierarchical timing {!Wheel}, which pops in
    exact [(time, seq)] order: events at the same instant run in
    scheduling order (property-tested against the library's reference
    binary heap).

    Cancellation is opt-in: {!schedule} and {!schedule_at} are the hot
    path and allocate only the queue entry; the [_cancellable] variants
    return an {!event_id} for {!cancel}. *)

type t

type event_id
(** Token for cancelling a scheduled event. *)

val create : ?seed:int64 -> unit -> t
(** A fresh engine with its clock at {!Time_ns.zero}. [seed] (default
    [1L]) seeds the root RNG from which subsystems {!Rng.split} their
    own streams. *)

val now : t -> Time_ns.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root RNG. Subsystems should [Rng.split] it once at
    construction rather than sharing it. *)

val schedule : t -> delay:Time_ns.span -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay]. A negative
    [delay] is clamped to zero. Events scheduled for the same instant
    run in scheduling order. Fire-once and not cancellable — use
    {!schedule_cancellable} when a cancellation token is needed. *)

val schedule_at : t -> at:Time_ns.t -> (unit -> unit) -> unit
(** As {!schedule} with an absolute deadline; a deadline in the past is
    clamped to now. *)

val schedule_cancellable :
  t -> delay:Time_ns.span -> (unit -> unit) -> event_id
(** As {!schedule}, returning an id accepted by {!cancel}. *)

val schedule_at_cancellable :
  t -> at:Time_ns.t -> (unit -> unit) -> event_id
(** As {!schedule_at}, returning an id accepted by {!cancel}. *)

val every :
  t -> ?jitter:Time_ns.span -> interval:Time_ns.span -> (unit -> unit) ->
  event_id
(** [every t ~interval f] runs [f] now + interval, then repeatedly each
    [interval], until cancelled. With [~jitter:j], each period is
    lengthened by a uniform draw in [\[0, j)], desynchronising periodic
    processes. The returned id cancels the whole series. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event (idempotent; no effect after it ran). *)

val run : ?until:Time_ns.t -> t -> unit
(** Process events in time order. Stops when the queue is empty, or
    when virtual time would exceed [until] (the clock is then advanced
    to exactly [until]). *)

val step : t -> bool
(** Process a single event; [false] if the queue was empty. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val events_executed : t -> int
(** Events processed since creation — the observability layer's
    event-loop throughput figure (events / wall-second). *)

val set_event_hook : t -> (Time_ns.t -> unit) -> unit
(** Observability trace hook, called with the virtual instant before
    each event executes (replaces any previous hook). Costs one
    [option] match per event when unset. *)

val clear_event_hook : t -> unit

val set_timer_hook : t -> (Time_ns.t -> unit) -> unit
(** Flight-recorder hook, called with the virtual instant each time a
    {!every} period fires (replaces any previous hook). Deliberately
    not on the fire-once path: {!schedule}/{!schedule_at} events are
    the hot path and stay hook-free. Costs one [option] match per
    periodic fire when unset. *)

val clear_timer_hook : t -> unit
