(* domino-sim: command-line front end for the Domino reproduction.

   Subcommands:
     run        simulate one protocol over a deployment and print latency
     probe      generate a synthetic inter-DC trace and analyse predictability
     geometry   the paper's §4 placement analysis
     experiment regenerate one (or all) of the paper's tables/figures
     analyze    replay a journal file into windowed timelines + dip reports *)

open Cmdliner
open Domino_sim
open Domino_smr
open Domino_exp

(* --- shared argument parsers --- *)

let write_file file contents =
  match open_out file with
  | oc ->
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc contents)
  | exception Sys_error msg ->
    Format.eprintf "domino-sim: %s@." msg;
    exit 1

let faults_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "faults" ] ~docv:"FILE"
        ~doc:
          "Inject the fault plan in $(docv) into the run: timed \
           crash/recover, partitions, link degradation, clock skew, \
           and orchestrated maintenance — slot migration ('migrate \
           slot=3 to=1'), leader transfer ('transfer group=0 to=1'), \
           membership change ('reconfig group=0 remove=2'), rolling \
           patch ('roll group=0 dwell=500ms') — one event per line, \
           e.g. 'at 2s crash node=0'; see test/plans/ for examples.")

let check_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Replay the run's journal through the safety checker \
           (exactly-once execution, per-key log-prefix agreement, write \
           linearizability) and exit non-zero on violations. Implies \
           flight recording.")

(* Read and parse a --faults plan file; any error is fatal before the
   simulation starts. *)
let load_plan = function
  | None -> None
  | Some file ->
    let contents =
      match open_in_bin file with
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      | exception Sys_error msg ->
        Format.eprintf "domino-sim: %s@." msg;
        exit 2
    in
    (match Domino_fault.Plan.parse contents with
    | Ok plan -> Some plan
    | Error msg ->
      Format.eprintf "domino-sim: %s: %s@." file msg;
      exit 2)

let run_checker j =
  (* The slot resolver lets the checker's epoch-split rule key each
     op's migration history off the fabric's slots mark. *)
  let report =
    Domino_fault.Checker.check
      ~slot_resolver:Domino_shard.Slots.slot_resolver_of_mark j
  in
  Format.printf "@.%a@." Domino_fault.Checker.pp_report report;
  if not report.Domino_fault.Checker.ok then exit 1

let journal_out_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "journal-out" ] ~docv:"FILE"
        ~doc:
          "Record the run in the flight recorder and write the journal \
           (one event per line, deterministic bytes) to $(docv).")

let perfetto_out_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "perfetto-out" ] ~docv:"FILE"
        ~doc:
          "Record the run and write a Chrome/Perfetto trace-event JSON \
           file to $(docv) (open at ui.perfetto.dev).")

let timeline_out_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "timeline-out" ] ~docv:"FILE"
        ~doc:
          "Aggregate the run into a fixed-window timeline (per-window \
           throughput, latency quantiles, inflight, drops, durable \
           writes) and write it as deterministic CSV to $(docv).")

let timeline_window_arg =
  Cmdliner.Arg.(
    value & opt float 100.
    & info [ "timeline-window" ] ~docv:"MS"
        ~doc:"Timeline window width in milliseconds of sim time.")

let timeline_window_span ms =
  if ms <= 0. then begin
    Format.eprintf "domino-sim: --timeline-window must be positive@.";
    exit 2
  end;
  Time_ns.of_ms_f ms

(* Offline replay shares the fabric's slot-mark resolver so sharded
   journals attribute per group exactly as the live router did. *)
let timeline_of_journal ~window j =
  Domino_obs.Timeline.of_journal ~window
    ~group_resolver:Domino_shard.Slots.resolver_of_mark j

let seed_arg =
  let doc = "Random seed (runs are deterministic per seed)." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"N" ~doc)

let setting_arg =
  let settings =
    [
      ("globe3", Exp_common.globe3);
      ("na3", Exp_common.na3);
      ("na5", Exp_common.na5);
      ("fig7-single", Exp_common.fig7_single);
      ("fig7-double", Exp_common.fig7_double);
    ]
  in
  let doc =
    "Deployment: one of " ^ String.concat ", " (List.map fst settings) ^ "."
  in
  Arg.(
    value
    & opt (enum settings) Exp_common.globe3
    & info [ "setting" ] ~docv:"SETTING" ~doc)

let protocol_arg additional_delay percentile =
  let mk = function
    | "domino" ->
      Exp_common.Domino
        {
          additional_delay = Time_ns.of_ms_f additional_delay;
          percentile;
          every_replica_learns = false;
          adaptive = false;
        }
    | "mencius" -> Exp_common.Mencius
    | "epaxos" -> Exp_common.Epaxos
    | "multipaxos" -> Exp_common.Multi_paxos
    | "fastpaxos" -> Exp_common.Fast_paxos
    | _ -> assert false
  in
  mk

let protocol_name_arg =
  let doc = "Protocol: domino, mencius, epaxos, multipaxos or fastpaxos." in
  Arg.(
    value
    & opt (enum
             [
               ("domino", "domino");
               ("mencius", "mencius");
               ("epaxos", "epaxos");
               ("multipaxos", "multipaxos");
               ("fastpaxos", "fastpaxos");
             ])
        "domino"
    & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc)

(* --- run --- *)

let run_cmd =
  let duration =
    Arg.(value & opt int 15 & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Simulated run length.")
  in
  let rate =
    Arg.(value & opt float 200. & info [ "rate" ] ~docv:"RPS"
           ~doc:"Requests per second per client.")
  in
  let alpha =
    Arg.(value & opt float 0.75 & info [ "alpha" ] ~docv:"A"
           ~doc:"Zipfian skew of the key distribution.")
  in
  let additional_delay =
    Arg.(value & opt float 0. & info [ "additional-delay" ] ~docv:"MS"
           ~doc:"Extra delay added to DFP request timestamps (Domino).")
  in
  let percentile =
    Arg.(value & opt float 95. & info [ "percentile" ] ~docv:"P"
           ~doc:"Percentile used for delay estimates (Domino).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
           & info [ "metrics-out" ] ~docv:"FILE"
               ~doc:"Write the run's metrics registry (message-class \
                     counters, latency histograms) as JSON to $(docv).")
  in
  let trace_op =
    Arg.(value & opt (some int) None
           & info [ "trace-op" ] ~docv:"N"
               ~doc:"Print the life of the N-th submitted operation \
                     (0-based, global submit order) as a span tree.")
  in
  let fsync_us =
    Arg.(value & opt (some float) None
           & info [ "fsync-us" ] ~docv:"US"
               ~doc:"Modeled fsync barrier latency in microseconds \
                     (default 40, a power-loss-protected NVMe; try 500 \
                     or 2000 for cloud block storage).")
  in
  let batch_sync_us =
    Arg.(value & opt (some float) None
           & info [ "batch-sync-us" ] ~docv:"US"
               ~doc:"Hold each fsync barrier open for $(docv) \
                     microseconds so concurrent writes share one flush, \
                     trading commit latency for fewer syncs (default: \
                     immediate).")
  in
  let no_durability =
    Arg.(value & flag
           & info [ "no-durability" ]
               ~doc:"Skip-fsync mutant: writes cost the same but a \
                     crash-with-amnesia loses the whole log. Combine \
                     with --faults (wipe events) and --check to watch \
                     the safety checker catch the violation.")
  in
  let action seed setting proto_name duration rate alpha additional
      percentile metrics_out trace_op fsync_us batch_sync_us no_durability
      journal_out perfetto_out timeline_out timeline_window faults_file check =
    let proto = protocol_arg additional percentile proto_name in
    let faults = load_plan faults_file in
    let store =
      let p = Domino_store.Store.default_params in
      let p =
        match fsync_us with
        | None -> p
        | Some us ->
          { p with Domino_store.Store.sync_latency = Time_ns.of_ms_f (us /. 1000.) }
      in
      let p =
        match batch_sync_us with
        | None -> p
        | Some us ->
          { p with
            Domino_store.Store.mode =
              Domino_store.Store.Batched (Time_ns.of_ms_f (us /. 1000.)) }
      in
      if no_durability then { p with Domino_store.Store.durable = false } else p
    in
    let journal =
      match (journal_out, perfetto_out, check) with
      | None, None, false -> None
      | _ -> Some (Domino_obs.Journal.create ())
    in
    let agg =
      match timeline_out with
      | None -> None
      | Some _ ->
        Some
          (Domino_obs.Timeline.create
             ~window:(timeline_window_span timeline_window)
             ())
    in
    let r =
      Exp_common.run ~seed ~rate ~alpha ~duration:(Time_ns.sec duration)
        ?trace_op ?journal ?timeline:agg ?faults ~store setting proto
    in
    let timeline = Option.map Domino_obs.Timeline.finish agg in
    let commit = Observer.Recorder.commit_latency_ms r.recorder in
    let exec = Observer.Recorder.exec_latency_ms r.recorder in
    Format.printf "%s on %d replicas, %d clients, %.0f req/s each:@."
      (Exp_common.protocol_name proto)
      (Array.length setting.Exp_common.replica_dcs)
      (Array.length setting.Exp_common.client_dcs)
      rate;
    Format.printf "  submitted %d, committed %d@."
      (Observer.Recorder.submitted r.recorder)
      (Observer.Recorder.committed r.recorder);
    Format.printf "  commit latency: %a@." Domino_stats.Summary.pp_brief commit;
    Format.printf "  exec   latency: %a@." Domino_stats.Summary.pp_brief exec;
    (match r.extra with
    | [] ->
      if r.fast_commits + r.slow_commits > 0 then
        Format.printf "  fast commits: %d, slow: %d@." r.fast_commits
          r.slow_commits
    | extra ->
      Format.printf "  %s:@." (Exp_common.protocol_name proto);
      List.iter (fun (k, v) -> Format.printf "    %s = %d@." k v) extra);
    (match r.store_fingerprints with
    | x :: rest when List.for_all (fun y -> y = x) rest ->
      Format.printf "  replicas converged ✓@."
    | _ -> Format.printf "  WARNING: replica state diverged@.");
    Format.printf "  stable storage: %d records synced%s%s@." r.sync_writes
      (if no_durability then " (durability OFF)" else "")
      (match r.recovery_ms with
      | [] -> ""
      | spans ->
        Printf.sprintf ", %d recoveries (max replay %.2f ms)"
          (List.length spans)
          (List.fold_left Float.max 0. spans));
    (match metrics_out with
    | Some file ->
      write_file file (Domino_obs.Metrics.to_json_string r.metrics);
      Format.printf "  metrics written to %s@." file
    | None -> ());
    (match journal with
    | None -> ()
    | Some j ->
      Format.printf "@.";
      Domino_stats.Tablefmt.print
        (Domino_obs.Provenance.to_table r.provenance);
      (match Domino_obs.Journal.dropped j with
      | 0 -> ()
      | d ->
        Format.eprintf
          "domino-sim: journal ring overflowed, oldest %d events lost@." d);
      (match journal_out with
      | Some file ->
        write_file file (Domino_obs.Journal.to_lines j);
        Format.printf "  journal written to %s@." file
      | None -> ());
      (match perfetto_out with
      | Some file ->
        write_file file (Domino_obs.Perfetto.to_string ?timeline j);
        Format.printf "  perfetto trace written to %s@." file
      | None -> ());
      if check then run_checker j);
    (match (timeline, timeline_out) with
    | Some tl, Some file ->
      write_file file (Domino_obs.Timeline.to_csv tl);
      Format.printf "  timeline written to %s@." file;
      let dips = Domino_obs.Dip.analyze tl in
      if dips <> [] then begin
        Format.printf "@.";
        Domino_stats.Tablefmt.print (Domino_obs.Dip.to_table dips)
      end
    | _ -> ());
    match trace_op with
    | Some n ->
      if r.trace = "" then
        Format.printf "@.no trace recorded: fewer than %d operations@." (n + 1)
      else Format.printf "@.%s" r.trace
    | None -> ()
  in
  let term =
    Term.(
      const action $ seed_arg $ setting_arg
      $ protocol_name_arg $ duration $ rate $ alpha $ additional_delay
      $ percentile $ metrics_out $ trace_op $ fsync_us $ batch_sync_us
      $ no_durability $ journal_out_arg $ perfetto_out_arg $ timeline_out_arg
      $ timeline_window_arg $ faults_arg $ check_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one protocol over a WAN deployment")
    term

(* --- probe --- *)

let probe_cmd =
  let src =
    Arg.(value & opt string "VA" & info [ "src" ] ~docv:"DC" ~doc:"Source datacenter.")
  in
  let dst =
    Arg.(value & opt string "WA" & info [ "dst" ] ~docv:"DC" ~doc:"Destination datacenter.")
  in
  let minutes =
    Arg.(value & opt int 10 & info [ "minutes" ] ~docv:"MIN" ~doc:"Trace length.")
  in
  let action seed src dst minutes =
    let open Domino_net in
    let open Domino_trace in
    let spec = Trace_gen.azure_pair Topology.globe ~src ~dst in
    let probes =
      Trace_gen.generate ~duration:(Time_ns.sec (minutes * 60)) ~seed spec
    in
    let s = Trace_analysis.fig1_summary probes in
    Format.printf "%s -> %s, %d probes over %d min:@." src dst
      (Array.length probes) minutes;
    Format.printf "  RTT min/p50/p95/p99: %.1f / %.1f / %.1f / %.1f ms@."
      s.minimum s.p50 s.p95 s.p99;
    List.iter
      (fun p ->
        let rate =
          Trace_analysis.prediction_rate ~window:(Time_ns.sec 1) ~percentile:p
            probes
        in
        Format.printf "  correct prediction rate at p%.0f (1s window): %.1f%%@."
          p (100. *. rate))
      [ 50.; 90.; 95.; 99. ];
    Format.printf "  p99 misprediction: half-RTT %.2fms, Domino OWD %.2fms@."
      (Trace_analysis.p99_misprediction_half_rtt ~window:(Time_ns.sec 1)
         ~percentile:95. probes)
      (Trace_analysis.p99_misprediction_owd ~window:(Time_ns.sec 1)
         ~percentile:95. probes)
  in
  Cmd.v
    (Cmd.info "probe" ~doc:"Analyse delay predictability for a datacenter pair")
    Term.(const action $ seed_arg $ src $ dst $ minutes)

(* --- geometry --- *)

let geometry_cmd =
  let action () = List.iter Domino_stats.Tablefmt.print (Exp_geometry.tables ()) in
  Cmd.v
    (Cmd.info "geometry" ~doc:"Run the paper's §4 placement analysis")
    Term.(const action $ const ())

(* --- experiment --- *)

let experiment_cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (default: all). Use $(b,--list) to enumerate.")
  in
  let paper =
    Arg.(
      value & flag
      & info [ "paper" ] ~doc:"Paper-scale runs (slow; default is quick scale).")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Independent simulation runs to execute in parallel (default: \
             all cores). Output is byte-identical for every value.")
  in
  let rebalance =
    Arg.(
      value & flag
      & info [ "rebalance" ]
          ~doc:
            "Smoke runs only: let the hot-shard detector trigger live slot \
             migrations (auto-rebalance) instead of the experiment's planned \
             migration plan. Only the $(b,rebalance) experiment honors it.")
  in
  let action seed paper list_only jobs ids journal_out perfetto_out
      timeline_out timeline_window faults_file check rebalance =
    let faults = load_plan faults_file in
    (match jobs with
    | Some n -> (
      (try Domino_par.Par.set_jobs n
       with Invalid_argument msg ->
         Format.eprintf "domino-sim: %s@." msg;
         exit 2);
      let phys = Domino_par.Par.physical_cores () in
      if n > phys then
        Format.eprintf
          "domino-sim: warning: --jobs %d exceeds the %d physical cores; \
           extra jobs only add scheduling noise@."
          n phys)
    | None -> ());
    if list_only then
      List.iter
        (fun e ->
          Format.printf "%-10s %s@." e.Exp_registry.id e.Exp_registry.describe)
        (List.sort
           (fun a b -> compare a.Exp_registry.id b.Exp_registry.id)
           Exp_registry.all)
    else if journal_out <> None || perfetto_out <> None || timeline_out <> None
            || check || faults <> None || rebalance
    then begin
      (* Flight-record one experiment's smoke run instead of printing
         its tables. *)
      let entry =
        match ids with
        | [ id ] -> (
          match Exp_registry.find id with
          | Some e -> e
          | None ->
            Format.eprintf "domino-sim: unknown experiment %S (try --list)@."
              id;
            exit 2)
        | _ ->
          Format.eprintf
            "domino-sim: --journal-out/--perfetto-out/--faults/--check take \
             exactly one experiment id@.";
          exit 2
      in
      match entry.Exp_registry.smoke with
      | None ->
        Format.eprintf "domino-sim: experiment %S has no flight-recorded run@."
          entry.Exp_registry.id;
        exit 2
      | Some smoke ->
        (* Online: the aggregator rides the run's journal tap. The
           result is byte-identical to offline replay of the journal
           (a QCheck-pinned equality), and it exercises the live
           router's attribution path — which is the point of the CI's
           online-vs-offline `cmp` on migration runs. *)
        let agg =
          match timeline_out with
          | None -> None
          | Some _ ->
            Some
              (Domino_obs.Timeline.create
                 ~window:(timeline_window_span timeline_window)
                 ~group_resolver:Domino_shard.Slots.resolver_of_mark ())
        in
        let j = smoke ~seed ?faults ~rebalance ?timeline:agg () in
        (match journal_out with
        | Some file ->
          write_file file (Domino_obs.Journal.to_lines j);
          Format.printf "journal written to %s (%d events)@." file
            (Domino_obs.Journal.length j)
        | None -> ());
        let timeline = Option.map Domino_obs.Timeline.finish agg in
        (match (timeline, timeline_out) with
        | Some tl, Some file ->
          write_file file (Domino_obs.Timeline.to_csv tl);
          Format.printf "timeline written to %s@." file
        | _ -> ());
        (match perfetto_out with
        | Some file ->
          write_file file (Domino_obs.Perfetto.to_string ?timeline j);
          Format.printf "perfetto trace written to %s@." file
        | None -> ());
        if check then run_checker j
    end
    else begin
      let entries =
        match ids with
        | [] -> Exp_registry.all
        | ids ->
          List.map
            (fun id ->
              match Exp_registry.find id with
              | Some e -> e
              | None ->
                Format.eprintf
                  "domino-sim: unknown experiment %S (try --list)@." id;
                exit 2)
            ids
      in
      (* Aliases (fig4, fig12b) resolve to their canonical entry; run
         each entry once even if named twice. *)
      let entries =
        List.fold_left
          (fun acc e ->
            if List.exists (fun s -> s.Exp_registry.id = e.Exp_registry.id) acc
            then acc
            else e :: acc)
          [] entries
        |> List.rev
      in
      List.iter
        (fun e ->
          Format.printf "=== %s: %s ===@." e.Exp_registry.id
            e.Exp_registry.describe;
          List.iter Domino_stats.Tablefmt.print
            (e.Exp_registry.run ~quick:(not paper) ~seed);
          Format.printf "@.")
        entries
    end
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one (or all) of the paper's tables and figures")
    Term.(
      const action $ seed_arg $ paper $ list_only $ jobs $ ids
      $ journal_out_arg $ perfetto_out_arg $ timeline_out_arg
      $ timeline_window_arg $ faults_arg $ check_arg $ rebalance)

(* --- analyze --- *)

let analyze_cmd =
  let journal_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Journal file to analyze (as written by --journal-out; any \
             chaos or golden journal in the repo works).")
  in
  let csv_out =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the per-window timeline CSV to $(docv).")
  in
  let gauges_csv_out =
    Arg.(
      value & opt (some string) None
      & info [ "gauges-csv" ] ~docv:"FILE"
          ~doc:"Write the per-window sampled-gauge CSV to $(docv).")
  in
  let dips_csv_out =
    Arg.(
      value & opt (some string) None
      & info [ "dips-csv" ] ~docv:"FILE"
          ~doc:"Write the per-fault dip report CSV to $(docv).")
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write timeline + dip reports as one JSON document to $(docv).")
  in
  let per_node =
    Arg.(
      value & flag
      & info [ "per-node" ]
          ~doc:"Include per-node rows in the timeline CSV output.")
  in
  let action journal_file window_ms csv_out gauges_csv_out dips_csv_out
      json_out per_node =
    let contents =
      match open_in_bin journal_file with
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      | exception Sys_error msg ->
        Format.eprintf "domino-sim: %s@." msg;
        exit 2
    in
    let j =
      match Domino_obs.Journal.of_lines contents with
      | Ok j -> j
      | Error msg ->
        Format.eprintf "domino-sim: %s: %s@." journal_file msg;
        exit 2
    in
    let tl = timeline_of_journal ~window:(timeline_window_span window_ms) j in
    let dips = Domino_obs.Dip.analyze tl in
    Domino_stats.Tablefmt.print (Domino_obs.Timeline.summary_table tl);
    Format.printf "@.";
    if dips = [] then Format.printf "no fault events in this journal@."
    else Domino_stats.Tablefmt.print (Domino_obs.Dip.to_table dips);
    let write what file contents =
      write_file file contents;
      Format.printf "%s written to %s@." what file
    in
    Option.iter
      (fun f -> write "timeline CSV" f (Domino_obs.Timeline.to_csv ~per_node tl))
      csv_out;
    Option.iter
      (fun f -> write "gauges CSV" f (Domino_obs.Timeline.gauges_to_csv tl))
      gauges_csv_out;
    Option.iter
      (fun f -> write "dips CSV" f (Domino_obs.Dip.to_csv dips))
      dips_csv_out;
    Option.iter
      (fun f ->
        write "JSON" f
          (Domino_stats.Json.to_string_pretty
             (Domino_stats.Json.Obj
                [
                  ("timeline", Domino_obs.Timeline.to_json tl);
                  ("dips", Domino_obs.Dip.to_json dips);
                ])
          ^ "\n"))
      json_out
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Replay a journal file into a fixed-window timeline and per-fault \
          dip/recovery report (deterministic CSV/JSON output)")
    Term.(
      const action $ journal_file $ timeline_window_arg $ csv_out
      $ gauges_csv_out $ dips_csv_out $ json_out $ per_node)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "domino-sim" ~version:"1.0.0"
      ~doc:"Domino (CoNEXT'20) reproduction: simulate, probe, analyse"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ run_cmd; probe_cmd; geometry_cmd; experiment_cmd; analyze_cmd ]))
