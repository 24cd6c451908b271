(* The benchmark runner: one workload per process, on one domain.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--sim-s X]

   from the root of the checkout.

   Workloads (see perfbench/NOTES.md for why each was chosen):
     globe3-record  Domino on the Fig. 8c globe3 layout, journaled, then
                    every post-run pass: checker, timeline, dip report,
                    Perfetto export and the journal text round trip;
     na3-protocols  all five protocols on the Fig. 8a na3 layout, bare;
     fabric-chaos   the 2-group NA fabric under a partition, a live slot
                    migration, a leader transfer and a rolling
                    wipe-upgrade, with the same post-run passes.

   With [--trace 0] the workload body runs once cold, then warm for as
   long as [--seconds] allows, and the last line of standard output is
   one JSON object with the end-to-end metrics: the median set-up time,
   the median warm body time, the top heap after the first body, and
   the simulated commit latencies. With [--trace 1] the body runs once
   to warm up, once untraced and once with spans around every call into
   a layer; a recorded workload follows with separately timed reference
   runs (its simulation bare, then journaled, then a provenance pass on
   that journal). The last line then carries the per-layer metrics,
   and the spans go to perfbench/out/trace-<workload>-<seed>.json.

   Every run checks its outputs: no journal events dropped, the journal
   text re-renders byte-identically after parsing, replicas end with
   equal store fingerprints, the online timeline equals offline replay,
   and every repetition of the body reproduces the first one's exact
   numbers. A failed check sets [correct] to false and counts in
   [failed]. *)

open Domino_sim
open Domino_obs
open Domino_exp
module Summary = Domino_stats.Summary
module Json = Domino_stats.Json
module Plan = Domino_fault.Plan
module Checker = Domino_fault.Checker
module Fabric = Domino_shard.Fabric
module Slots = Domino_shard.Slots
module Observer = Domino_smr.Observer

let now = Unix.gettimeofday
let mb bytes = bytes /. 1048576.
let word_bytes = float_of_int (Sys.word_size / 8)

(* {1 Spans}

   Recorded from here, around the calls into each layer: name, start,
   end, parent, and the bytes the call allocated. A disabled tracer
   just calls the function. *)

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
  alloc : float;
}

type tracer = {
  on : bool;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let tracer on = { on; next = 0; stack = []; spans = [] }

let span tr name f =
  if not tr.on then f ()
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let a1 = Gc.allocated_bytes () in
    tr.stack <- List.tl tr.stack;
    tr.spans <- { id; parent; name; t0; t1; alloc = a1 -. a0 } :: tr.spans;
    r
  end

let spans tr = List.sort (fun a b -> compare a.id b.id) tr.spans
let dur s = s.t1 -. s.t0

let self_time tr s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. dur c else acc)
    (dur s) tr.spans

(* Sum of durations and allocations of every span with this name. *)
let span_total tr name =
  List.fold_left
    (fun (t, a) s -> if s.name = name then (t +. dur s, a +. s.alloc) else (t, a))
    (0., 0.) tr.spans

(* {1 Workload outcomes} *)

type outcome = {
  exact : (string * float) list;
      (** counts and simulated-time results: bit-for-bit per seed *)
  checks : (string * bool) list;
  violations : string list;  (** the checker's, reported as measured *)
  submitted : int;
  committed : int;
  commit_ms : Summary.t;
}

let counters metrics =
  match Metrics.to_json metrics with
  | Json.Obj fields -> (
    match List.assoc_opt "counters" fields with
    | Some (Json.Obj cs) ->
      List.filter_map
        (function n, Json.Int v -> Some (n, v) | _ -> None)
        cs
    | _ -> [])
  | _ -> []

let sum_counters cs pred =
  List.fold_left (fun acc (n, v) -> if pred n then acc + v else acc) 0 cs

let contains s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let sim_events metrics =
  match Metrics.find_gauge metrics "sim.events" with
  | Some g -> Metrics.gauge_value g
  | None -> 0.

(* From a run's registry: messages sent, fsyncs, and distinct ops
   submitted (client retries count apart, in [run.retries]). The
   registry's [run.committed] counts commit notifications, not ops, so
   distinct commits come from the recorders instead. *)
let registry_numbers metrics =
  let cs = counters metrics in
  let suffix s n = String.ends_with ~suffix:s n in
  ( sum_counters cs (fun n -> contains n ".msg." && suffix ".sent" n),
    sum_counters cs (suffix "store.syncs"),
    sum_counters cs (suffix "run.submitted") )

let per_commit x ~committed = float_of_int x /. float_of_int (max 1 committed)

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (( = ) x) rest

let finite_max xs =
  List.fold_left (fun m x -> if Float.is_nan x then m else Float.max m x) 0. xs

(* A dip that never recovers has no time to recover ([nan]). It counts
   as lasting to the end of its timeline segment, a lower bound, so that
   never recovering reads as the worst time to recover, and it is
   counted apart in [dip.never]. *)
let ttr_ms offline (d : Dip.report) =
  if not (Float.is_nan d.ttr_ms) then d.ttr_ms
  else
    let (s : Timeline.segment) = List.nth offline d.seg in
    Timeline.window_start_ms ~window:s.window (Array.length s.cluster) -. d.at_ms

(* {1 The journaled post-run pipeline}

   Shared by the two recorded workloads: checker, offline timeline, dip
   report, Perfetto export, journal text out and back in, plus the
   checks on their outputs. *)

let timeline_text tl = Timeline.to_csv ~per_node:true tl ^ Timeline.gauges_to_csv tl

let post_run tr ~check ?group_resolver j ~online =
  let report = span tr "checker.check" (fun () -> check j) in
  let offline =
    span tr "timeline.of_journal" (fun () -> Timeline.of_journal ?group_resolver j)
  in
  let dips = span tr "dip.analyze" (fun () -> Dip.analyze offline) in
  let perfetto =
    span tr "perfetto.to_string" (fun () -> Perfetto.to_string ~timeline:offline j)
  in
  let text = span tr "journal.to_lines" (fun () -> Journal.to_lines j) in
  let back = span tr "journal.of_lines" (fun () -> Journal.of_lines text) in
  let rerenders =
    span tr "check.rerender" (fun () ->
        match back with
        | Ok j' -> String.equal (Journal.to_lines j') text
        | Error _ -> false)
  in
  let timeline_agrees =
    span tr "check.timeline" (fun () ->
        String.equal (timeline_text online) (timeline_text offline))
  in
  let exact =
    [
      ("journal.events", float_of_int (Journal.recorded j));
      ("journal.dropped", float_of_int (Journal.dropped j));
      ("perfetto.mb", mb (float_of_int (String.length perfetto)));
      ("journal.text_mb", mb (float_of_int (String.length text)));
      ("check_violations", float_of_int (List.length report.Checker.violations));
      ("checker.submitted", float_of_int report.Checker.submitted);
      ("checker.committed", float_of_int report.Checker.committed);
      ("checker.recoveries", float_of_int report.Checker.recoveries);
      ("checker.migrations", float_of_int report.Checker.migrations);
      ("dip.rows", float_of_int (List.length dips));
      ( "dip.never",
        float_of_int (List.length (List.filter (fun (d : Dip.report) -> Float.is_nan d.ttr_ms) dips)) );
      ("ttr_ms_max", finite_max (List.map (ttr_ms offline) dips));
      ("dip_pct_max", finite_max (List.map (fun (d : Dip.report) -> d.dip_pct) dips));
    ]
  in
  let checks =
    [
      ("journal.dropped=0", Journal.dropped j = 0);
      ("journal re-renders byte-identically", rerenders);
      ("online timeline = Timeline.of_journal", timeline_agrees);
    ]
  in
  (exact, checks, report.Checker.violations)

(* Summed over the registries of every simulation a body ran. *)
let sim_exact registries ~committed =
  let totals = List.map registry_numbers registries in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 totals in
  let events = List.fold_left (fun acc m -> acc +. sim_events m) 0. registries in
  ( [
      ("sim.events", events);
      ("net.msgs_per_commit", per_commit (sum (fun (s, _, _) -> s)) ~committed);
      ("store.syncs_per_commit", per_commit (sum (fun (_, y, _) -> y)) ~committed);
    ],
    sum (fun (_, _, s) -> s) )

(* {1 Workloads} *)

(* Set-up is measured cold, once per fresh process, as a run pays it:
   the first simulation in a process also builds the Zipf tables, which
   later ones find cached. [setup_s] is the median over this many
   processes. *)
let setup_processes = 11

let protocols =
  [
    ("domino", Exp_common.domino_default);
    ("mencius", Exp_common.Mencius);
    ("epaxos", Exp_common.Epaxos);
    ("multipaxos", Exp_common.Multi_paxos);
    ("fastpaxos", Exp_common.Fast_paxos);
  ]

type workload = {
  name : string;
  default_sim_s : float;
  probe : seed:int64 -> sim:Time_ns.span -> Journal.t -> unit;
      (** the body's first simulation on a given journal, without the
          online timeline: set-up probes cut it at its first simulated
          event; on a recorded workload the traced run journals a whole
          run with it for a separately timed provenance pass *)
  body : tracer -> seed:int64 -> sim:Time_ns.span -> outcome;
  reference : (seed:int64 -> sim:Time_ns.span -> Metrics.t) option;
      (** a recorded body's simulation without a journal, traced only;
          returns its registry. A bare body is its own reference. *)
}

(* Journaled, with the post-run passes. *)
let recorded w = Option.is_some w.reference

(* The measurement window skips the first 10% of the run (estimator
   warm-up) and ends with it; commits after it still drain. *)
let window sim = (sim / 10, sim)

let exp_run ?journal ?timeline ~seed ~sim setting proto =
  let measure_from, measure_until = window sim in
  Exp_common.run ~seed ~duration:sim ~measure_from ~measure_until ?journal
    ?timeline setting proto

let fingerprints_agree fps = ("replica store fingerprints equal", all_equal fps)

let globe3_record =
  let body tr ~seed ~sim =
    let j = Journal.create () in
    let online = Timeline.create () in
    let r =
      span tr "exp.run_journaled" (fun () ->
          exp_run ~journal:j ~timeline:online ~seed ~sim Exp_common.globe3
            Exp_common.domino_default)
    in
    let online = Timeline.finish online in
    let committed = Observer.Recorder.committed r.Exp_common.recorder in
    let sim_x, submitted = sim_exact [ r.Exp_common.metrics ] ~committed in
    let post_x, checks, violations =
      post_run tr ~check:(fun j -> Checker.check j) j ~online
    in
    {
      exact = sim_x @ post_x;
      checks = fingerprints_agree r.Exp_common.store_fingerprints :: checks;
      violations;
      submitted;
      committed;
      commit_ms = Observer.Recorder.commit_latency_ms r.Exp_common.recorder;
    }
  in
  {
    name = "globe3-record";
    default_sim_s = 2.;
    probe =
      (fun ~seed ~sim j ->
        ignore
          (exp_run ~journal:j ~seed ~sim Exp_common.globe3
             Exp_common.domino_default));
    body;
    reference =
      Some
        (fun ~seed ~sim ->
          (exp_run ~seed ~sim Exp_common.globe3 Exp_common.domino_default).metrics);
  }

let na3_protocols =
  let body tr ~seed ~sim =
    let runs =
      List.map
        (fun (n, p) ->
          (n, span tr ("sim.run." ^ n) (fun () -> exp_run ~seed ~sim Exp_common.na3 p)))
        protocols
    in
    let lat (r : Exp_common.result) = Observer.Recorder.commit_latency_ms r.recorder in
    let committed =
      List.fold_left
        (fun acc (_, (r : Exp_common.result)) -> acc + Observer.Recorder.committed r.recorder)
        0 runs
    in
    let sim_x, submitted =
      sim_exact (List.map (fun (_, (r : Exp_common.result)) -> r.metrics) runs) ~committed
    in
    {
      exact =
        sim_x
        @ List.concat_map
            (fun (n, (r : Exp_common.result)) ->
              [
                ("sim.events." ^ n, sim_events r.metrics);
                ("commit_p50_ms." ^ n, Summary.percentile (lat r) 50.);
                ("commit_p99_ms." ^ n, Summary.percentile (lat r) 99.);
              ])
            runs;
      checks =
        List.map
          (fun (n, (r : Exp_common.result)) ->
            let c, ok = fingerprints_agree r.store_fingerprints in
            (c ^ " (" ^ n ^ ")", ok))
          runs;
      violations = [];
      submitted;
      committed;
      commit_ms =
        List.fold_left (fun acc (_, r) -> Summary.merge acc (lat r)) (Summary.create ()) runs;
    }
  in
  {
    name = "na3-protocols";
    default_sim_s = 5.;
    probe =
      (fun ~seed ~sim j ->
        ignore (exp_run ~journal:j ~seed ~sim Exp_common.na3 (snd (List.hd protocols))));
    body;
    reference = None;
  }

(* The rebalance experiment's fabric: NA, replicas WA/VA/QC in both
   groups, leaders spread, 16 range slots over the workload's million
   keys so the Zipf head lands in slot 0 on g0. Domino's in-protocol
   retry is armed as the chaos suite arms it. *)
let chaos_config () =
  let replica_dcs = [| "WA"; "VA"; "QC" |] in
  let client_dcs = Exp_common.na3.Exp_common.client_dcs in
  let topo = Domino_net.Topology.na in
  let leaders =
    Domino_shard.Placement.spread_leaders topo ~replica_dcs ~client_dcs ~groups:2
  in
  let proto = Exp_common.domino_default in
  let params =
    {
      (Protocols.params proto) with
      Domino_smr.Protocol_intf.retry_timeout = Time_ns.ms 800;
      retry_max_attempts = 6;
      retry_failover_after = 1;
    }
  in
  {
    Fabric.topo;
    client_dcs;
    groups =
      Array.init 2 (fun k ->
          {
            Fabric.replica_dcs;
            leader = leaders.(k);
            protocol = Protocols.resolve proto;
            params;
          });
    slots = Slots.Range { slots = 16; keys = 1_000_000 };
  }

let chaos_plan =
  "at 500ms partition a=0 b=1,2 sym until=1500ms\n\
   at 1s migrate slot=0 from=0 to=1\n\
   at 2s transfer group=1 to=1\n\
   at 2500ms roll group=0 dwell=300ms\n"

let plan () =
  match Plan.parse chaos_plan with
  | Ok p -> p
  | Error e -> failwith ("fabric-chaos plan: " ^ e)

let fabric_rate = 100.

let fabric_run ?journal ?timeline ?faults ~seed ~sim config =
  let measure_from, measure_until = window sim in
  Fabric.run ~seed ~rate:fabric_rate ~duration:sim ~measure_from ~measure_until
    ?journal ?timeline ?faults config

let fabric_chaos =
  let body tr ~seed ~sim =
    let faults = plan () and config = chaos_config () in
    let j = Journal.create () in
    let online = Timeline.create ~group_resolver:Slots.resolver_of_mark () in
    let r =
      span tr "fabric.run_journaled" (fun () ->
          fabric_run ~journal:j ~timeline:online ~faults ~seed ~sim config)
    in
    let online = Timeline.finish online in
    let committed =
      Array.fold_left
        (fun acc (g : Fabric.group_result) -> acc + Observer.Recorder.committed g.recorder)
        0 r.Fabric.groups
    in
    let sim_x, submitted = sim_exact [ r.Fabric.metrics ] ~committed in
    let post_x, checks, violations =
      post_run tr
        ~check:
          (Checker.check ~require_complete:true
             ~slot_resolver:Slots.slot_resolver_of_mark)
        ~group_resolver:Slots.resolver_of_mark j ~online
    in
    let migs = r.Fabric.migrations in
    let sum_m f = List.fold_left (fun acc m -> acc +. f m) 0. migs in
    let harness_retries =
      Array.fold_left
        (fun acc (g : Fabric.group_result) ->
          acc + Option.value ~default:0 (List.assoc_opt "harness_retries" g.extra))
        0 r.Fabric.groups
    in
    {
      exact =
        sim_x @ post_x
        @ [
            ("migrate.count", float_of_int (List.length migs));
            ( "migrate.queued",
              sum_m (fun (m : Domino_shard.Migrate.outcome) -> float_of_int m.queued) );
            ( "migrate.span_ms",
              sum_m (fun (m : Domino_shard.Migrate.outcome) ->
                  Time_ns.to_ms_f (m.finished_at - m.started_at)) );
            ("retry.harness_retries", float_of_int harness_retries);
          ];
      checks =
        List.mapi
          (fun k (g : Fabric.group_result) ->
            let c, ok = fingerprints_agree g.store_fingerprints in
            (Printf.sprintf "%s (g%d)" c k, ok))
          (Array.to_list r.Fabric.groups)
        @ checks;
      violations;
      submitted;
      committed;
      commit_ms =
        Array.fold_left
          (fun acc (_, s) -> Summary.merge acc s)
          (Summary.create ()) r.Fabric.client_commit_ms;
    }
  in
  {
    name = "fabric-chaos";
    default_sim_s = 4.;
    probe =
      (fun ~seed ~sim j ->
        ignore (fabric_run ~journal:j ~faults:(plan ()) ~seed ~sim (chaos_config ())));
    body;
    reference =
      Some
        (fun ~seed ~sim ->
          (fabric_run ~faults:(plan ()) ~seed ~sim (chaos_config ())).metrics);
  }

let workloads = [ globe3_record; na3_protocols; fabric_chaos ]

(* {1 Set-up}

   Host time from the call that starts the body's first simulation to
   its first simulated event: plan, topology, groups, stores, router,
   workload and its Zipf tables are built by then. A journal tap sees
   that first event and cuts the run there; the composition marks a
   fabric journals while it is being built do not count. The bare
   workload's probe needs a one-event journal for the tap, so it also
   attaches a flight recorder that its body does not (see NOTES.md). *)

exception First_event

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The [--setup-only] mode: one cold probe, in seconds, on stdout. The
   ring is allocated before the clock starts: how fast the kernel hands
   over its pages swings with the host's memory state. *)
let setup_only w ~seed ~sim =
  let j = if recorded w then Journal.create () else Journal.create ~capacity:1 () in
  Journal.set_tap j (Some (function Journal.Mark _ -> () | _ -> raise First_event));
  let t0 = now () in
  (match w.probe ~seed ~sim j with () -> () | exception First_event -> ());
  Printf.printf "%.17g\n" (now () -. t0)

let setup_in_fresh_processes w ~seed ~sim_s =
  let one () =
    let exe = Sys.executable_name in
    let ic =
      Unix.open_process_args_in exe
        [| exe; "--workload"; w.name; "--seed"; Int64.to_string seed;
           "--sim-s"; Printf.sprintf "%.17g" sim_s; "--setup-only" |]
    in
    let line = In_channel.input_all ic |> String.trim in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> float_of_string line
    | _ -> failwith "set-up probe process failed"
  in
  median (List.init setup_processes (fun _ -> one ()))

(* {1 Output} *)

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let metric_json (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics))

let failed_checks o = List.filter (fun (_, ok) -> not ok) o.checks

let print_checks o =
  List.iter
    (fun (c, ok) -> Printf.printf "check %-45s %s\n" c (if ok then "ok" else "FAILED"))
    o.checks;
  List.iter (fun v -> Printf.printf "checker violation: %s\n" v) o.violations

let exact_of o ~alloc_bytes ~top_heap_bytes =
  o.exact
  @ [
      ("ops.submitted", float_of_int o.submitted);
      ("ops.committed", float_of_int o.committed);
      ("commit.samples", float_of_int (Summary.count o.commit_ms));
      ("commit_p50_ms", Summary.percentile o.commit_ms 50.);
      ("commit_mean_ms", Summary.mean o.commit_ms);
      ("commit_p90_ms", Summary.percentile o.commit_ms 90.);
      ("commit_p99_ms", Summary.percentile o.commit_ms 99.);
      ("gc.alloc_gb", alloc_bytes /. 1073741824.);
      ("peak_heap_mb", mb top_heap_bytes);
    ]

let exact_line x =
  "exact "
  ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (num v)) x)

let get x k = Option.value ~default:0. (List.assoc_opt k x)

let failed_ratio o =
  float_of_int (o.submitted - o.committed) /. float_of_int (max 1 o.submitted)

let attempted_failed o ~extra_failures =
  ( max 1 o.submitted,
    o.submitted - o.committed + List.length (failed_checks o) + extra_failures )

(* Untraced. The first body gives the exact numbers and warms the heap;
   warm repetitions follow while another of median length still fits in
   [seconds], and [wall_s] is their median (the first body's time when
   none fits). Set-up is probed last, in fresh processes: a probe cut
   short at its first event leaves the runtime's allocation counters a
   few words off from one process to the next, which would spoil the
   exact numbers if this process ran it before the first body. *)
let run_untraced w ~seed ~sim ~sim_s ~seconds =
  let tr = tracer false in
  let start = now () in
  let a0 = Gc.allocated_bytes () in
  let first = w.body tr ~seed ~sim in
  let wall1 = now () -. start in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  let top_heap_bytes =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes
  in
  let exact = exact_of first ~alloc_bytes ~top_heap_bytes in
  let rec warm walls mismatches =
    let typical = median (if walls = [] then [ wall1 ] else walls) in
    if now () -. start +. typical > seconds then (walls, mismatches)
    else begin
      let t0 = now () in
      let o = w.body tr ~seed ~sim in
      let wall = now () -. t0 in
      let same =
        exact_of o ~alloc_bytes ~top_heap_bytes = exact
        && o.checks = first.checks && o.violations = first.violations
      in
      warm (wall :: walls) (if same then mismatches else mismatches + 1)
    end
  in
  let walls, mismatches = warm [] 0 in
  let setup_s = setup_in_fresh_processes w ~seed ~sim_s in
  print_checks first;
  Printf.printf "check %-45s %s\n" "repetitions reproduce the exact numbers"
    (if mismatches = 0 then "ok" else "FAILED");
  print_endline (exact_line exact);
  Printf.printf "wall_s first %.3f, warm: %s\n" wall1
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") walls));
  let attempted, failed = attempted_failed first ~extra_failures:mismatches in
  result_line
    ~correct:(failed_checks first = [] && mismatches = 0)
    ~attempted ~failed
    [
      ("setup_s", setup_s, "s");
      ("wall_s", median (if walls = [] then [ wall1 ] else walls), "s");
      ("peak_heap_mb", get exact "peak_heap_mb", "MB");
      ("commit_p50_ms", get exact "commit_p50_ms", "ms");
      ("commit_mean_ms", get exact "commit_mean_ms", "ms");
      ("commit_ratio", 1. -. failed_ratio first, "ratio");
    ]

let per_layer_names =
  [ "provenance.analyze"; "checker.check"; "perfetto.to_string";
    "journal.to_lines"; "journal.of_lines"; "timeline.of_journal";
    "dip.analyze" ]

let write_trace ~w ~seed ~untraced ~traced tr metrics =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%Ld.json" w.name seed) in
  let origin = match spans tr with s :: _ -> s.t0 | [] -> 0. in
  let span_json s =
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("parent", Json.Int s.parent);
        ("name", Json.String s.name);
        ("start_s", Json.Float (s.t0 -. origin));
        ("end_s", Json.Float (s.t1 -. origin));
        ("self_s", Json.Float (self_time tr s));
        ("alloc_mb", Json.Float (mb s.alloc));
      ]
  in
  let doc =
    Json.Obj
      [
        ("workload", Json.String w.name);
        ("seed", Json.String (Int64.to_string seed));
        ("wall_s_untraced", Json.Float untraced);
        ("wall_s_traced", Json.Float traced);
        ("tracing_overhead_s", Json.Float (traced -. untraced));
        ("spans", Json.List (List.map span_json (spans tr)));
        ( "per_layer",
          Json.Obj
            (List.map
               (fun (n, v, u) ->
                 (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
               metrics) );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  path

(* Traced: a warm-up body, one untraced body (for the tracing
   overhead), one traced body, then the reference runs. *)
let run_traced w ~seed ~sim =
  ignore (w.body (tracer false) ~seed ~sim);
  let untraced =
    let t0 = now () in
    ignore (w.body (tracer false) ~seed ~sim);
    now () -. t0
  in
  let tr = tracer true in
  let a0 = Gc.allocated_bytes () in
  let o = span tr "body" (fun () -> w.body tr ~seed ~sim) in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  let traced = fst (span_total tr "body") in
  let exact = exact_of o ~alloc_bytes ~top_heap_bytes:0. in
  (* A bare body is its own reference: its simulations are the
     per-protocol spans inside it. *)
  let sim_run_s, sim_alloc, sim_events =
    match w.reference with
    | None ->
      let sum f = List.fold_left (fun acc (n, _) -> acc +. f ("sim.run." ^ n)) 0. protocols in
      ( sum (fun n -> fst (span_total tr n)),
        mb (sum (fun n -> snd (span_total tr n))),
        get exact "sim.events" )
    | Some run ->
      let events = sim_events (span tr "sim.run" (fun () -> run ~seed ~sim)) in
      (* A journaled run computes provenance inside; timing it again on
         that run's journal splits the run into simulation, recording
         and provenance. *)
      let j = Journal.create () in
      span tr "sim.run_journaled" (fun () -> w.probe ~seed ~sim j);
      ignore (span tr "provenance.analyze" (fun () -> Provenance.analyze j));
      let t, a = span_total tr "sim.run" in
      (t, mb a, events)
  in
  let t name = fst (span_total tr name) in
  let alloc name = mb (snd (span_total tr name)) in
  let metrics =
    [
      ("sim.run_s", sim_run_s, "s");
      ("sim.events", sim_events, "count");
      ("sim.events_per_s", sim_events /. sim_run_s, "1/s");
      ("sim.run_alloc_mb", sim_alloc, "MB");
    ]
    @ List.concat_map
        (fun (n, _) ->
          let s = "sim.run." ^ n in
          [ ("sim.run_s." ^ n, t s, "s"); ("sim.events." ^ n, get exact ("sim.events." ^ n), "count") ])
        protocols
    @ [
        ( "recorder.overhead_s",
          (if not (recorded w) then 0.
           else t "sim.run_journaled" -. t "provenance.analyze" -. sim_run_s),
          "s" );
        ("journal.events", get exact "journal.events", "count");
        ("journal.dropped", get exact "journal.dropped", "count");
        ( "journal.events_per_sim_event",
          get exact "journal.events" /. get exact "sim.events",
          "ratio" );
      ]
    @ List.concat_map
        (fun n -> [ (n ^ "_s", t n, "s"); (n ^ "_alloc_mb", alloc n, "MB") ])
        per_layer_names
    @ [
        ("perfetto.mb", get exact "perfetto.mb", "MB");
        ("journal.text_mb", get exact "journal.text_mb", "MB");
        ("gc.alloc_gb", alloc_bytes /. 1073741824., "GB");
        ("net.msgs_per_commit", get exact "net.msgs_per_commit", "ratio");
        ("store.syncs_per_commit", get exact "store.syncs_per_commit", "ratio");
        ("migrate.count", get exact "migrate.count", "count");
        ("migrate.queued", get exact "migrate.queued", "count");
        ("migrate.span_ms", get exact "migrate.span_ms", "ms");
        ("checker.recoveries", get exact "checker.recoveries", "count");
        ("checker.migrations", get exact "checker.migrations", "count");
        ("retry.harness_retries", get exact "retry.harness_retries", "count");
        ("failed_ratio", failed_ratio o, "ratio");
        ("check_violations", get exact "check_violations", "count");
        ("dip.never", get exact "dip.never", "count");
        ("ttr_ms_max", get exact "ttr_ms_max", "ms");
        ("dip_pct_max", get exact "dip_pct_max", "%");
        ("commit.samples", get exact "commit.samples", "count");
        ("commit_p90_ms", get exact "commit_p90_ms", "ms");
        ("commit_p99_ms", get exact "commit_p99_ms", "ms");
        ("pipeline.overhead_x", untraced /. sim_run_s, "x");
        ("trace.wall_s", traced, "s");
        ("trace.overhead_s", traced -. untraced, "s");
      ]
  in
  print_checks o;
  print_endline (exact_line exact);
  List.iter
    (fun s ->
      Printf.printf "span %3d parent %3d %-24s %9.4f s  self %9.4f s  %9.1f MB\n"
        s.id s.parent s.name (dur s) (self_time tr s) (mb s.alloc))
    (spans tr);
  let path = write_trace ~w ~seed ~untraced ~traced tr metrics in
  Printf.printf "spans written to %s\n" path;
  let attempted, failed = attempted_failed o ~extra_failures:0 in
  result_line ~correct:(failed_checks o = []) ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let sim_s = ref 0. and setup = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N simulation seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--sim-s", Arg.Set_float sim_s, "X simulated seconds (default: per workload)");
      ("--setup-only", Arg.Set setup, " print one cold set-up probe (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; one of: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let seed = Int64.of_int !seed in
  let sim_s = if !sim_s > 0. then !sim_s else w.default_sim_s in
  let sim = Time_ns.of_ms_f (1000. *. sim_s) in
  if !setup then setup_only w ~seed ~sim
  else if !trace = 0 then run_untraced w ~seed ~sim ~sim_s ~seconds:!seconds
  else run_traced w ~seed ~sim
