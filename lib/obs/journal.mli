(** The flight recorder's event stream: a sim-time-stamped, bounded
    journal of everything observable about a run — message sends,
    deliveries and drops, periodic timer fires, protocol phase
    transitions, op lifecycle events, and sampled gauges.

    It is the run's one per-operation event source: per-op span trees
    ({!Trace}), provenance, the checker and timelines are all read off
    it. The journal lives below [lib/smr] in the dependency order, so
    nodes are plain [int]s and operations are [(client, seq)] pairs;
    the layers above translate.

    Recording is opt-in via the {!sink} indirection: every emission
    site guards with {!enabled} (or calls {!emit}, which is a no-op on
    {!null}), so a run without a journal pays one [option]/variant
    match per hook, nothing more.

    Determinism: a journal records events in simulation order, which
    is a pure function of the seed. Parallel sweeps give each run its
    own journal and {!append} them in task-index order, so the merged
    stream — and {!to_lines} — is byte-identical for any [--jobs]. *)

open Domino_sim

type opid = int * int
(** (client node, per-client sequence) — [Op.id] flattened. *)

type event =
  | Submit of { op : opid; node : int; key : int; at : Time_ns.t }
  | Commit of { op : opid; node : int; at : Time_ns.t }
  | Execute of { op : opid; replica : int; at : Time_ns.t }
  | Msg_sent of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      op : opid option;
      at : Time_ns.t;
    }
  | Msg_delivered of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      op : opid option;
      sent_at : Time_ns.t;
      at : Time_ns.t;
    }
  | Msg_dropped of {
      seq : int;  (** [-1] when dropped before a sequence number was assigned *)
      src : int;
      dst : int;
      cls : string;
      reason : string;
      at : Time_ns.t;
    }
  | Timer_fired of { at : Time_ns.t }
  | Phase of {
      node : int;
      op : opid option;
      name : string;
      dur : Time_ns.span;  (** [0] for instantaneous transitions *)
      at : Time_ns.t;
    }
  | Sample of { name : string; value : float; at : Time_ns.t }
  | Mark of { label : string; at : Time_ns.t }
  | Fault of { name : string; detail : string; at : Time_ns.t }
      (** An injected fault (or its heal), recorded by [Fault.Inject] so
          journals — and Perfetto traces — show exactly when the network
          or a node misbehaved. Rendered as [fault.<name> <detail>]. *)
  | Store_ev of { node : int; op : string; detail : string; at : Time_ns.t }
      (** A stable-storage operation at a node — [append], [sync],
          [truncate], [snapshot] — recorded by [Store] so journals show
          what reached disk and when. Rendered as
          [store.<op> node=<n> <detail>]. *)
  | Recovery of { node : int; stage : string; detail : string; at : Time_ns.t }
      (** A node-recovery lifecycle event — [wipe] (volatile state and
          unsynced log tail lost), [replay] (durable state reloaded),
          [up] (node back online) — its own event class so replay
          progress is visible in the flight recorder, distinct from the
          [fault.*] events that caused it. Rendered as
          [recovery.<stage> node=<n> <detail>]. *)
  | Migrate of {
      stage : string;
      slot : int;
      from_g : int;
      to_g : int;
      epoch : int;
      detail : string;
      at : Time_ns.t;
    }
      (** A slot-migration lifecycle event emitted by [Shard.Migrate] —
          [freeze] (source stops accepting the slot, new submits queue),
          [drain] (in-flight ops on the slot settled or deadline hit),
          [transfer] (key state snapshotted and installed at the
          destination), [epoch] (the router's versioned assignment
          bumped: from this event on the slot belongs to [to_g]),
          [done] / [abort] (queue flushed; migration over). Offline
          replay uses the [epoch] events to attribute each key to the
          correct group per epoch. NOT a [Mark]: a migration happens
          mid-run and must not split the checker/timeline segment.
          Rendered as
          [migrate.<stage> slot=<s> from=g<a> to=g<b> epoch=<e> <detail>]. *)
  | Reconfig of {
      stage : string;
      group : int;
      epoch : int;
      detail : string;
      at : Time_ns.t;
    }
      (** A membership-reconfiguration / rolling-patch lifecycle event.
          Membership change ([Smr.Reconfig]): [begin] (group frozen,
          drain started), [epoch] (new config persisted on every member
          and the membership epoch bumped — the externalization point),
          [done] (submits released under the new config), [abort].
          Leader transfer: [transfer] / [transfer_done]. Rolling patch
          ([Fault.Roll]): [roll] (roll started), [roll_node] (a node
          taken down for its wipe-upgrade), [roll_done]. Details lead
          with [node=<n>] where a node is affected so dip reports can
          attribute the event. Like [Migrate], NOT a [Mark] — a
          reconfiguration happens mid-run and must not split the
          checker/timeline segment. Rendered as
          [reconfig.<stage> group=<g> epoch=<e> <detail>]. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh journal holding at most [capacity] events (default 2^20).
    When full, the oldest events are overwritten (ring buffer) and
    {!dropped} counts them. *)

val capacity : t -> int

val record : t -> event -> unit

val length : t -> int
(** Events currently held (≤ capacity). *)

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Events lost to ring overwrite: [recorded - length]. *)

val iter : t -> (event -> unit) -> unit
(** Oldest to newest. *)

val to_array : t -> event array

val append : t -> t -> unit
(** [append dst src] records every event of [src] into [dst], in
    order. Used by the sweep runner to merge per-run journals
    deterministically. *)

val set_tap : t -> (event -> unit) option -> unit
(** Install (or clear) a tap invoked on every event recorded from now
    on — including events copied in by {!append}. Unlike the ring, a
    tap sees the complete stream even past overwrite, which is how
    online timeline aggregation stays exact on long runs. Costs one
    option match per recorded event; a journal-less run is
    unaffected. *)

val add_tap : t -> (event -> unit) -> unit
(** Install a tap beside the current one (if any), which keeps running
    first: how a {!Trace} rides along with an online timeline. *)

(** {2 Emission sink} *)

type sink = Null | Rec of t

val null : sink

val sink : t -> sink

val enabled : sink -> bool

val emit : sink -> event -> unit

(** {2 Serialization} *)

val pp_event : Buffer.t -> event -> unit
(** One line, no trailing newline. Deterministic: same events, same
    bytes. *)

val to_lines : t -> string
(** The whole journal, one event per line (each newline-terminated). *)

val parse_line : string -> (event, string) result
(** The exact inverse of {!pp_event}: parsing a rendered line yields
    the original event, and re-rendering a parsed line yields the
    original bytes (QCheck-pinned). This is what makes journal files on
    disk a real interchange format — the [analyze] subcommand replays
    them offline. *)

val of_lines : string -> (t, string) result
(** Parse a whole rendered journal (as produced by {!to_lines}); blank
    lines are skipped. Errors carry the 1-based line number. *)

(** {2 Segmentation} *)

val segment_label : event -> string option
(** [Some label] when the event is a segment boundary — a [Mark]. The
    shared rule by which both the chaos checker and timelines split a
    sweep-merged journal back into per-run segments. *)
