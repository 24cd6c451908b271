open Domino_sim
open Domino_net
open Domino_smr
open Domino_obs

type setting = {
  topo : Topology.t;
  replica_dcs : string array;
  client_dcs : string array;
  leader : int;
}

let na3 =
  {
    topo = Topology.na;
    replica_dcs = [| "WA"; "VA"; "QC" |];
    client_dcs =
      [| "VA"; "TX"; "CA"; "IA"; "WA"; "WY"; "IL"; "QC"; "TRT" |];
    leader = 0;
  }

let na5 =
  {
    topo = Topology.na;
    replica_dcs = [| "WA"; "VA"; "QC"; "CA"; "TX" |];
    client_dcs =
      [| "VA"; "TX"; "CA"; "IA"; "WA"; "WY"; "IL"; "QC"; "TRT" |];
    leader = 0;
  }

let globe3 =
  {
    topo = Topology.globe;
    replica_dcs = [| "WA"; "PR"; "NSW" |];
    client_dcs = [| "VA"; "WA"; "PR"; "NSW"; "SG"; "HK" |];
    leader = 0;
  }

let fig7_single =
  {
    topo = Topology.na;
    replica_dcs = [| "WA"; "VA"; "QC" |];
    client_dcs = [| "IA" |];
    leader = 0;
  }

let fig7_double =
  {
    topo = Topology.na;
    replica_dcs = [| "WA"; "VA"; "QC" |];
    client_dcs = [| "IA"; "WA" |];
    leader = 0;
  }

type protocol = Protocols.t =
  | Domino of {
      additional_delay : Time_ns.span;
      percentile : float;
      every_replica_learns : bool;
      adaptive : bool;
    }
  | Mencius
  | Epaxos
  | Multi_paxos
  | Fast_paxos

let domino_default = Protocols.domino_default
let domino_exec = Protocols.domino_exec
let domino_adaptive = Protocols.domino_adaptive
let protocol_name = Protocols.name

type result = {
  recorder : Observer.Recorder.t;
  metrics : Metrics.t;
  trace : string;
  fast_commits : int;
  slow_commits : int;
  extra : (string * int) list;
  store_fingerprints : int list;
  wall_events : int;
  provenance : Provenance.breakdown list;
  sync_writes : int;
      (** WAL records made durable by fsync barriers, summed over the
          replicas' stable stores *)
  recovery_ms : float list;
      (** modeled wipe-restart replay spans, oldest first *)
}

let closest_replica setting ~client_dc =
  Domino_shard.Placement.closest_replica setting.topo
    ~replica_dcs:setting.replica_dcs ~client_dc

(* [run] is the degenerate one-group case of the shard fabric: empty
   metric/journal prefix, no composition marks, no hot-shard detector —
   byte-identical (journal and metrics JSON) to the flat harness this
   module used to implement inline. *)
let run ?seed ?rate ?alpha ?duration ?measure_from ?measure_until ?metrics
    ?trace_op ?journal ?timeline ?sample_every ?faults ?dedup ?reconfig_mutant
    ?store setting proto =
  let params =
    let p = Protocols.params proto in
    (* Under faults, arm Domino's in-protocol client retry (same
       patience as the harness-side [Retry.default_policy]); the fabric
       gives every group whose params leave it unarmed the harness-side
       [Retry] wrapper instead. *)
    match (faults, proto) with
    | Some _, Domino _ ->
      {
        p with
        Protocol_intf.retry_timeout = Time_ns.ms 800;
        retry_max_attempts = 6;
        retry_failover_after = 1;
      }
    | _ -> p
  in
  let config =
    {
      Domino_shard.Fabric.topo = setting.topo;
      client_dcs = setting.client_dcs;
      groups =
        [|
          {
            Domino_shard.Fabric.replica_dcs = setting.replica_dcs;
            leader = setting.leader;
            protocol = Protocols.resolve proto;
            params;
          };
        |];
      slots = Domino_shard.Slots.Hash { slots = 1 };
    }
  in
  let r =
    Domino_shard.Fabric.run ?seed ?rate ?alpha ?duration ?measure_from
      ?measure_until ?metrics ?trace_op ?journal ?timeline ?sample_every
      ?faults ?dedup ?reconfig_mutant ?store config
  in
  let g = r.Domino_shard.Fabric.groups.(0) in
  {
    recorder = g.Domino_shard.Fabric.recorder;
    metrics = r.Domino_shard.Fabric.metrics;
    trace = r.Domino_shard.Fabric.trace;
    fast_commits = g.Domino_shard.Fabric.fast_commits;
    slow_commits = g.Domino_shard.Fabric.slow_commits;
    extra = g.Domino_shard.Fabric.extra;
    store_fingerprints = g.Domino_shard.Fabric.store_fingerprints;
    wall_events = g.Domino_shard.Fabric.wall_events;
    provenance = r.Domino_shard.Fabric.provenance;
    sync_writes = g.Domino_shard.Fabric.sync_writes;
    recovery_ms = g.Domino_shard.Fabric.recovery_ms;
  }

(* --- parallel sweep machinery ---

   Each run is fully isolated (its own engine, RNG, net, metrics), so
   independent (seed, setting, protocol) runs fan out across domains
   via Par.map; results come back in task-index order and merging
   happens sequentially in that fixed order, making output at any
   [jobs] byte-identical to [jobs = 1]. *)

let seed_for base i = Int64.add base (Int64.of_int (i * 1_000_003))

let run_latencies ~seed ?rate ?alpha ?duration ?journal ?timeline ?faults
    ?store setting proto =
  let r =
    run ~seed ?rate ?alpha ?duration ?journal ?timeline ?faults ?store setting
      proto
  in
  ( Observer.Recorder.commit_latency_ms r.recorder,
    Observer.Recorder.exec_latency_ms r.recorder )

let merge_pairs pairs =
  Array.fold_left
    (fun (c, e) (rc, re) ->
      (Domino_stats.Summary.merge c rc, Domino_stats.Summary.merge e re))
    (Domino_stats.Summary.create (), Domino_stats.Summary.create ())
    pairs

let run_many ?(runs = 3) ?(seed = 42L) ?rate ?alpha ?duration ?jobs setting
    proto =
  merge_pairs
    (Domino_par.Par.mapi ?jobs
       (fun i () ->
         run_latencies ~seed:(seed_for seed i) ?rate ?alpha ?duration setting
           proto)
       (Array.make runs ()))

let run_sweep ?(runs = 1) ?(seed = 42L) ?rate ?alpha ?duration ?jobs ?journal
    ?timeline ?faults ?store cells =
  let cells = Array.of_list cells in
  let n_cells = Array.length cells in
  let mark_label ci ri =
    Printf.sprintf "cell=%d run=%d seed=%Ld" ci ri (seed_for seed ri)
  in
  (* Flatten to (cell, run) tasks so cores stay busy even when one
     cell's protocol simulates slower than the others. *)
  let tasks = Array.init (n_cells * runs) (fun t -> (t / runs, t mod runs)) in
  let results =
    Domino_par.Par.map ?jobs
      (fun (ci, ri) ->
        let setting, proto = cells.(ci) in
        (* Each task journals into its own ring; merging happens below,
           sequentially and in task-index order, so the combined stream
           is byte-identical for every [jobs]. *)
        let j =
          Option.map
            (fun parent -> Journal.create ~capacity:(Journal.capacity parent) ())
            journal
        in
        (* Likewise each task aggregates its own timeline, which comes
           back as plain data ([finish]) and is absorbed into the
           caller's collector below, sequentially in task order — never
           one mutable aggregator shared across domains. Feeding the
           cell mark first gives the task's segment the same label
           offline replay of the merged journal would produce. *)
        let tl =
          Option.map
            (fun parent ->
              let agg =
                Timeline.create ~window:(Timeline.window parent)
                  ~group_resolver:Domino_shard.Slots.resolver_of_mark ()
              in
              Timeline.feed agg
                (Journal.Mark { label = mark_label ci ri; at = Time_ns.zero });
              agg)
            timeline
        in
        let pair =
          run_latencies ~seed:(seed_for seed ri) ?rate ?alpha ?duration
            ?journal:j ?timeline:tl ?faults ?store setting proto
        in
        (pair, j, Option.map Timeline.finish tl))
      tasks
  in
  (match journal with
  | None -> ()
  | Some parent ->
    Array.iteri
      (fun t (_, j, _) ->
        let ci = t / runs and ri = t mod runs in
        Journal.record parent
          (Journal.Mark { label = mark_label ci ri; at = Time_ns.zero });
        Option.iter (Journal.append parent) j)
      results);
  (match timeline with
  | None -> ()
  | Some parent ->
    Array.iter
      (fun (_, _, tl) ->
        Option.iter (fun tl -> Timeline.absorb parent ~label:"" tl) tl)
      results);
  List.init n_cells (fun ci ->
      merge_pairs
        (Array.map (fun (p, _, _) -> p) (Array.sub results (ci * runs) runs)))
