type periodic = {
  interval : Time_ns.span;
  jitter : Time_ns.span;
  body : unit -> unit;
  mutable cancelled : bool;
}

type t = {
  mutable clock : Time_ns.t;
  queue : (unit -> unit) Wheel.t;
      (** Plain thunks: fire-once events are the caller's closure as-is,
          and a periodic timer is one self-rescheduling [tick] closure
          allocated once at {!every} — no per-event kind box to allocate
          or match on the hot path. *)
  root_rng : Rng.t;
  mutable events_run : int;
  mutable event_hook : (Time_ns.t -> unit) option;
  mutable timer_hook : (Time_ns.t -> unit) option;
}

(* Cancellation tokens point straight at the queue entry (or the
   periodic record), so the common fire-once path allocates nothing
   beyond the queue entry itself: no canceller table, no id
   indirection. *)
type event_id =
  | Ev_wheel of (unit -> unit) Wheel.handle
  | Ev_periodic of periodic

let create ?(seed = 1L) () =
  {
    clock = Time_ns.zero;
    queue = Wheel.create ~dummy:(fun () -> ());
    root_rng = Rng.create seed;
    events_run = 0;
    event_hook = None;
    timer_hook = None;
  }

let now t = t.clock

let events_executed t = t.events_run

let set_event_hook t f = t.event_hook <- Some f

let clear_event_hook t = t.event_hook <- None

let set_timer_hook t f = t.timer_hook <- Some f

let clear_timer_hook t = t.timer_hook <- None

let rng t = t.root_rng

(* Fire-once insertion without a cancellation token recycles wheel
   arena entries and allocates nothing in steady state. *)
let schedule_at t ~at f = Wheel.add t.queue ~time:(Time_ns.max at t.clock) f

let schedule t ~delay f =
  let delay = Stdlib.max 0 delay in
  schedule_at t ~at:(Time_ns.add t.clock delay) f

let schedule_at_cancellable t ~at f =
  let at = Time_ns.max at t.clock in
  Ev_wheel (Wheel.push t.queue ~time:at f)

let schedule_cancellable t ~delay f =
  let delay = Stdlib.max 0 delay in
  schedule_at_cancellable t ~at:(Time_ns.add t.clock delay) f

let every t ?(jitter = 0) ~interval body =
  if interval <= 0 then invalid_arg "Engine.every: interval must be positive";
  let p = { interval; jitter; body; cancelled = false } in
  let rec tick () =
    if not p.cancelled then begin
      (match t.timer_hook with None -> () | Some f -> f t.clock);
      p.body ();
      if not p.cancelled then begin
        let j = if p.jitter > 0 then Rng.int t.root_rng p.jitter else 0 in
        Wheel.add t.queue ~time:(Time_ns.add t.clock (p.interval + j)) tick
      end
    end
  in
  let first =
    let j = if jitter > 0 then Rng.int t.root_rng jitter else 0 in
    Time_ns.add t.clock (interval + j)
  in
  Wheel.add t.queue ~time:first tick;
  Ev_periodic p

let cancel t id =
  match id with
  | Ev_wheel handle -> Wheel.cancel t.queue handle
  | Ev_periodic p -> p.cancelled <- true

let exec t time f =
  t.clock <- Time_ns.max t.clock time;
  t.events_run <- t.events_run + 1;
  (match t.event_hook with None -> () | Some hook -> hook t.clock);
  f ()

let step t =
  match Wheel.pop t.queue with
  | None -> false
  | Some (time, f) ->
    exec t time f;
    true

let run ?until t =
  let continue = ref true in
  match until with
  | None ->
    while !continue do
      match Wheel.pop t.queue with
      | None -> continue := false
      | Some (time, f) -> exec t time f
    done
  | Some deadline ->
    while !continue do
      match Wheel.pop_due t.queue ~limit:deadline with
      | None -> continue := false
      | Some (time, f) -> exec t time f
    done;
    if t.clock < deadline then t.clock <- deadline

let pending t = Wheel.length t.queue
