open Domino_sim
open Domino_net
open Domino_smr
open Domino_obs

(** The shard-serving fabric: one simulation engine hosting N consensus
    groups behind a slot router.

    Each group is an independent protocol instance — its own replicas,
    networks, stable stores, retry policy, and leader placement — but
    all groups share the engine, topology, metrics registry, journal
    ring, and flight recorder, with per-group instruments namespaced
    [g<k>.…]. Physical clients are shared too: every group numbers them
    identically (replica ids first, client ids after — which requires
    equal replica counts across groups), so one workload generator
    drives the whole fabric through the {!Router}.

    A single-group fabric is byte-identical (journal and metrics JSON)
    to the historical flat harness: the prefix is empty, no composition
    [Mark]s are emitted, and the hot-shard detector stays off. The
    [lib/exp] harness's [Exp_common.run] is exactly that degenerate
    case. *)

type group_spec = {
  replica_dcs : string array;
  leader : int;  (** index into [replica_dcs] *)
  protocol : Protocol_intf.protocol;
  params : Protocol_intf.params;
}

type config = {
  topo : Topology.t;
  client_dcs : string array;
  groups : group_spec array;
  slots : Slots.spec;
}

type group_result = {
  prefix : string;  (** ["g<k>."], or [""] for a single group *)
  protocol_name : string;
  recorder : Observer.Recorder.t;
  fast_commits : int;
  slow_commits : int;
  extra : (string * int) list;
  store_fingerprints : int list;
  wall_events : int;
  sync_writes : int;
  recovery_ms : float list;
  routed : int;  (** ops the router sent this group *)
}

type result = {
  metrics : Metrics.t;
  trace : string;
      (** the [trace_op] operation's span tree ({!Trace.span_tree});
          empty without [trace_op] or when the run submitted fewer
          operations *)
  groups : group_result array;
  provenance : Provenance.breakdown list;
  client_commit_ms : (string * Domino_stats.Summary.t) array;
      (** per physical client (dc name, commit latency merged across
          every group that client's keys routed to) — the bottleneck-
          node surface of the shards experiment *)
  hot_flags : int array;
  hot_checks : int;
  migrations : Migrate.outcome list;
      (** finished slot migrations (planned or auto-triggered), oldest
          first; empty unless migration was armed *)
}

val run :
  ?seed:int64 ->
  ?rate:float ->
  ?alpha:float ->
  ?duration:Time_ns.span ->
  ?measure_from:Time_ns.span ->
  ?measure_until:Time_ns.span ->
  ?metrics:Metrics.t ->
  ?trace_op:int ->
  ?journal:Journal.t ->
  ?timeline:Timeline.agg ->
  ?sample_every:Time_ns.span ->
  ?hot_every:Time_ns.span ->
  ?hot_factor:float ->
  ?faults:Domino_fault.Plan.t ->
  ?dedup:bool ->
  ?auto_rebalance:bool ->
  ?migrate_mutant:bool ->
  ?reconfig_mutant:bool ->
  ?store:Domino_store.Store.params ->
  config ->
  result
(** Build every group, wire the router over their (retry-wrapped)
    submit paths, drive one shared workload, run to [duration] plus a
    3 s drain, and collect per-group plus fabric-wide results.

    With [timeline], the run feeds the aggregator online (installing a
    throwaway journal if none was given) and hands it the live
    router's key->group map, so multi-group timelines attribute per
    group — including across mid-run slot migrations; call
    [Timeline.finish] on it after [run] returns.

    [trace_op] follows the N-th (0-based) submitted operation of the
    whole run, whichever group it routes to, by a {!Trace} tap on the
    journal. Without [journal] the tap gets a private capacity-1 ring
    and no recorder, so tracing leaves the run's metrics unchanged.

    Per-group retry/failover: under [?faults], a group whose params arm
    an in-protocol client retry ([retry_timeout > 0]) relies on it;
    every other group's submit is wrapped in the harness
    {!Domino_smr.Retry}. Without faults neither is armed.

    Live slot migration ({!Migrate}) is armed when the fault plan
    contains [migrate] events or [auto_rebalance] is set (the
    {!Hotspot} detector's flags then trigger moves of the hot group's
    most-routed slot to the least-routed group). The slots [Mark] of a
    migration-armed run carries [epoch=0 assign=...] so offline replay
    seeds the starting map before applying journaled [migrate.epoch]
    bumps; runs without migration keep the short mark, byte-identical
    to before. [migrate_mutant] arms the double-owner bug after each
    cutover — test-only, for proving the checker catches it.

    The control verbs ([transfer group=… to=…], [reconfig group=… add=/
    remove=/replace=…], [roll group=… dwell=…]) arm one
    {!Domino_smr.Reconfig} controller per group (stop-the-world epoch
    bumps over the router's group freeze, leader transfer through the
    protocol's [control] hook) and a {!Domino_fault.Roll} orchestrator
    driving rolling wipe-upgrades through it. They work on any fabric,
    including single-group; runs without control verbs build none of
    it and keep their exact event streams. [reconfig_mutant] is the
    stale-config build: removed replicas stay on the network and keep
    executing — test-only, for proving the checker's removed-node rule
    catches it.

    @raise Invalid_argument on an empty group list, unequal replica
    counts across groups, fewer slots than groups, a [migrate] plan
    event naming an out-of-range slot or group, migration armed on a
    single-group fabric, or a control verb naming an out-of-range
    group or replica. *)
