open Domino_sim
open Domino_net
open Domino_obs

(** The unified protocol API.

    Every replication protocol in the repo — the four comparison
    systems and Domino itself — implements {!S} and registers a
    first-class module under a stable name. Harnesses (the experiment
    runner, the shard fabric, the CLI, the conformance tests)
    construct environments and dispatch through the registry instead
    of pattern-matching on a protocol variant, so adding a protocol
    means adding one module and one [register] call, not editing every
    caller.

    The environment is split in two layers so one simulation can host
    many consensus groups:

    - {!Cluster.env} is shared by every group on an engine: the engine
      itself, the WAN topology, and the cluster-wide observability
      sinks (metrics registry, flight-recorder journal).
    - {!Group.env} is one group's slice: its replicas and roles, its
      stable stores, its typed {!params}, its harness observer, and a
      [prefix] that namespaces everything the group emits into the
      shared metrics registry ([g0.domino.msg.*], [g1.run.committed],
      ...). A single-group run uses the empty prefix, which keeps its
      output byte-identical to the historical flat layout. *)

type params = {
  additional_delay : Time_ns.span;
      (** Domino: extra delay added to DFP request timestamps *)
  percentile : float;
      (** Domino: percentile used for delay estimates *)
  every_replica_learns : bool;  (** Domino: learner broadcast mode *)
  adaptive : bool;  (** Domino: §5.4 feedback controller *)
  force_dfp : bool;  (** Domino: disable the DM fallback *)
  retry_timeout : Time_ns.span;
      (** in-protocol client retry patience; [0] disables retry *)
  retry_max_attempts : int;
  retry_failover_after : int;
      (** failed attempts before the client fails over away from its
          coordinator *)
}
(** Protocol knobs, decoded once by the harness with exhaustive
    defaults ({!default_params}) instead of stringly per-call-site
    lookups. Protocols read the fields they care about and ignore the
    rest. *)

val default_params : params

module Cluster : sig
  type env = {
    engine : Engine.t;
    topo : Topology.t;
    metrics : Metrics.t;
    journal : Journal.sink;
        (** the flight recorder's event stream; {!Journal.null} when
            recording is off *)
  }
end

module Group : sig
  type env = {
    cluster : Cluster.env;
    prefix : string;
        (** metric namespace of this group instance, [""] for a
            single-group run, ["g<k>."] within a shard fabric *)
    make_net : 'msg. unit -> 'msg Fifo_net.t;
        (** fresh network for the protocol's own message type, spanning
            this group's replicas and its clients *)
    replicas : Nodeid.t array;
    leader : Nodeid.t;
        (** Multi-Paxos leader; Fast Paxos / DFP coordinator *)
    coordinator_of : Nodeid.t -> Nodeid.t;
        (** per-client entry replica (Mencius, EPaxos) *)
    observer : Observer.t;
    stores : Domino_store.Store.t array;
        (** one stable store per replica, indexed like [replicas]:
            protocols persist safety-critical state here (fsync before
            externalizing) and rebuild from it after a wipe-restart *)
    params : params;
  }

  val metrics : env -> Metrics.t
  val journal : env -> Journal.sink

  val qualify : env -> string -> string
  (** [qualify g name] is [g.prefix ^ name] — the group-namespaced
      instrument name. *)
end

type env = Group.env
(** A protocol is created from its group's environment. *)

type control =
  | Transfer of { from_ : Nodeid.t; to_ : Nodeid.t }
      (** Graceful, non-crash handoff of coordination duties away from
          [from_] toward [to_]: the Multi-Paxos leader role drains and
          flips, the Mencius coordinator lease for clients fronted by
          [from_] is handed to [to_], Domino steers every client's DM
          routing around [from_]. *)
  | Restore of { node : Nodeid.t }
      (** Undo any steering installed against [node] once it is back
          in service (transferred leadership stays where it went). *)

(** A planned operation, driven by the reconfiguration / rolling-patch
    orchestrators. *)

module type S = sig
  type t

  val name : string
  (** Stable registry key (lowercase, no spaces). *)

  val create : Group.env -> t
  (** Build the protocol instance: make the net, install handlers and
      the observability instrumentation ({!instrument}). *)

  val submit : t -> Op.t -> unit
  (** Submit from [op.client]'s node. Must fire the observer's
      [on_submit]. *)

  val committed_count : t -> int
  (** Operations the protocol has reported committed. *)

  val fast_slow_counts : t -> (int * int) option
  (** [(fast, slow)] path commits, for protocols with a fast path
      (Fast Paxos, EPaxos, Domino); [None] otherwise. *)

  val extra_stats : t -> (string * int) list
  (** Protocol-specific counters (stable keys), e.g. Domino's
      [dfp_conflicts]. *)

  val gauges : t -> (string * (unit -> float)) list
  (** Named live gauges for the flight recorder's time-series sampler
      (stable keys, registration order preserved), e.g. Domino's
      estimator headroom over ground-truth OWD. [[]] for protocols
      with nothing to sample. *)

  val control : t -> control -> k:(unit -> unit) -> bool
  (** Ask the protocol to perform a planned operation. [false] if
      unsupported by this protocol (leaderless protocols refuse; the
      continuation is dropped); [true] if accepted, in which case [k]
      fires exactly once when the operation completes — possibly
      synchronously, or after a bounded drain for handoffs that wait
      out in-flight work. *)
end

type protocol = (module S)

val register : protocol -> protocol
(** Idempotent: re-registering a name replaces the entry. Returns the
    module it registered so call sites can bind the instance directly
    instead of re-resolving it through {!find}. *)

val find : string -> protocol option

val names : unit -> string list
(** Sorted. *)

val instrument :
  Group.env ->
  name:string ->
  classify:('msg -> Msg_class.t) ->
  op_of:('msg -> Op.t option) ->
  'msg Fifo_net.t ->
  unit
(** Install the observability hook on the protocol's network: counts
    every send, delivery and drop into
    [<prefix><name>.msg.<class>.{sent,delivered,dropped}] counters —
    the group's prefix keeps two groups running the same protocol from
    colliding on one instrument; when the flight recorder is on,
    journals every message event; and — when tracing is enabled —
    emits span events for messages whose operation [op_of] can
    identify. Messages that do not carry the operation (bare acks,
    probes) are counted but not attributed to a span. *)
