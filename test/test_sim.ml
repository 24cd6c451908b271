(* Tests for the discrete-event simulation engine: time arithmetic,
   deterministic RNG, the event heap, and the scheduler. *)

open Domino_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time_ns --- *)

let test_time_units () =
  check_int "us" 1_000 (Time_ns.us 1);
  check_int "ms" 1_000_000 (Time_ns.ms 1);
  check_int "sec" 1_000_000_000 (Time_ns.sec 1);
  check_int "of_ms_f rounds" 1_500_000 (Time_ns.of_ms_f 1.5);
  Alcotest.(check (float 1e-9)) "to_ms_f" 2.5 (Time_ns.to_ms_f (Time_ns.of_ms_f 2.5));
  check_int "add" 15 (Time_ns.add 10 5);
  check_int "diff" (-5) (Time_ns.diff 10 15)

let test_time_pp () =
  let s v = Format.asprintf "%a" Time_ns.pp v in
  check_bool "ns" true (String.length (s 12) > 0);
  Alcotest.(check string) "ms" "2.50ms" (s (Time_ns.of_ms_f 2.5));
  Alcotest.(check string) "s" "3.000s" (s (Time_ns.sec 3))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.int64 a) in
  let ys = List.init 16 (fun _ -> Rng.int64 b) in
  check_bool "streams differ" true (xs <> ys)

let test_rng_float_range () =
  let rng = Rng.create 3L in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 5L in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    check_bool "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_normal_moments () =
  let rng = Rng.create 11L in
  let n = 50_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = Rng.normal rng ~mean:5. ~std:2. in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check_bool "mean ~5" true (Float.abs (mean -. 5.) < 0.1);
  check_bool "var ~4" true (Float.abs (var -. 4.) < 0.3)

let test_rng_exponential_mean () =
  let rng = Rng.create 13L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:3.
  done;
  check_bool "mean ~3" true (Float.abs ((!sum /. float_of_int n) -. 3.) < 0.15)

(* --- Dist --- *)

let test_dist_constant () =
  let rng = Rng.create 1L in
  Alcotest.(check (float 0.)) "constant" 4.2 (Dist.sample_ms (Dist.Constant 4.2) rng)

let test_dist_nonnegative () =
  let rng = Rng.create 1L in
  let d = Dist.Shifted (-5., Dist.Constant 1.) in
  Alcotest.(check (float 0.)) "clamped" 0. (Dist.sample_ms d rng)

let test_dist_mixture_mean () =
  let rng = Rng.create 17L in
  let d = Dist.Mixture [ (0.5, Dist.Constant 2.); (0.5, Dist.Constant 4.) ] in
  Alcotest.(check (float 1e-9)) "analytic mean" 3. (Dist.mean_ms d);
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Dist.sample_ms d rng
  done;
  check_bool "empirical mean ~3" true (Float.abs ((!sum /. float_of_int n) -. 3.) < 0.05)

let test_dist_lognormal_median () =
  let rng = Rng.create 19L in
  let d = Dist.Lognormal { median_ms = 2.; sigma = 0.5 } in
  let samples = Array.init 20_001 (fun _ -> Dist.sample_ms d rng) in
  Array.sort compare samples;
  check_bool "median ~2" true (Float.abs (samples.(10_000) -. 2.) < 0.1)

(* --- Pheap --- *)

let test_heap_orders () =
  let h = Pheap.create () in
  let ts = [ 5; 1; 9; 3; 7; 1; 0 ] in
  List.iteri (fun i t -> ignore (Pheap.push h ~time:t i)) ts;
  let out = ref [] in
  let rec drain () =
    match Pheap.pop h with
    | None -> ()
    | Some (t, _) ->
      out := t :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 5; 7; 9 ] (List.rev !out)

let test_heap_fifo_on_ties () =
  let h = Pheap.create () in
  for i = 0 to 9 do
    ignore (Pheap.push h ~time:42 i)
  done;
  let order = ref [] in
  let rec drain () =
    match Pheap.pop h with
    | None -> ()
    | Some (_, v) ->
      order := v :: !order;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order" (List.init 10 Fun.id)
    (List.rev !order)

let test_heap_cancel () =
  let h = Pheap.create () in
  let _a = Pheap.push h ~time:1 "a" in
  let b = Pheap.push h ~time:2 "b" in
  let _c = Pheap.push h ~time:3 "c" in
  Pheap.cancel h b;
  Pheap.cancel h b (* idempotent *);
  check_int "live" 2 (Pheap.length h);
  let out = ref [] in
  let rec drain () =
    match Pheap.pop h with
    | None -> ()
    | Some (_, v) ->
      out := v :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ] (List.rev !out)

let test_heap_peek () =
  let h = Pheap.create () in
  Alcotest.(check (option int)) "empty" None (Pheap.peek_time h);
  let a = Pheap.push h ~time:5 () in
  ignore (Pheap.push h ~time:9 ());
  Alcotest.(check (option int)) "min" (Some 5) (Pheap.peek_time h);
  Pheap.cancel h a;
  Alcotest.(check (option int)) "skips dead" (Some 9) (Pheap.peek_time h)

let test_heap_compaction () =
  let h = Pheap.create () in
  let handles = Array.init 100 (fun i -> Pheap.push h ~time:i i) in
  check_int "physical size" 100 (Pheap.heap_size h);
  (* Deletion is lazy: cancelling half leaves the entries in place... *)
  for i = 0 to 49 do
    Pheap.cancel h handles.(i)
  done;
  check_int "live" 50 (Pheap.length h);
  check_int "dead entries linger" 100 (Pheap.heap_size h);
  (* ...but one more cancel tips dead > size/2 and compacts the heap
     down to its live entries. *)
  Pheap.cancel h handles.(50);
  check_int "live after tip" 49 (Pheap.length h);
  check_int "compacted to live entries" 49 (Pheap.heap_size h);
  (* Order survives compaction. *)
  let out = ref [] in
  let rec drain () =
    match Pheap.pop h with
    | None -> ()
    | Some (_, v) ->
      out := v :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "survivors in order"
    (List.init 49 (fun i -> 51 + i))
    (List.rev !out)

let test_heap_cancel_after_pop () =
  let h = Pheap.create () in
  let a = Pheap.push h ~time:1 "a" in
  let _b = Pheap.push h ~time:2 "b" in
  Alcotest.(check (option (pair int string))) "pops a" (Some (1, "a")) (Pheap.pop h);
  Pheap.cancel h a (* must not touch the live count: a already left *);
  check_int "b still live" 1 (Pheap.length h);
  Alcotest.(check (option (pair int string))) "pops b" (Some (2, "b")) (Pheap.pop h)

let test_heap_pop_due () =
  let h = Pheap.create () in
  let a = Pheap.push h ~time:1 "a" in
  ignore (Pheap.push h ~time:5 "b");
  ignore (Pheap.push h ~time:9 "c");
  Pheap.cancel h a;
  Alcotest.(check (option (pair int string)))
    "skips dead, pops due" (Some (5, "b"))
    (Pheap.pop_due h ~limit:6);
  Alcotest.(check (option (pair int string)))
    "beyond limit stays" None
    (Pheap.pop_due h ~limit:6);
  check_int "c still queued" 1 (Pheap.length h);
  Alcotest.(check (option (pair int string)))
    "pops once due" (Some (9, "c"))
    (Pheap.pop_due h ~limit:9)

let prop_heap_sorts =
  QCheck.Test.make ~name:"pheap drains any input sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Pheap.create () in
      List.iter (fun t -> ignore (Pheap.push h ~time:t ())) times;
      let rec drain acc =
        match Pheap.pop h with
        | None -> List.rev acc
        | Some (t, ()) -> drain (t :: acc)
      in
      drain [] = List.sort compare times)

(* --- Wheel --- *)

let drain_wheel w =
  let rec go acc =
    match Wheel.pop w with
    | None -> List.rev acc
    | Some (t, v) -> go ((t, v) :: acc)
  in
  go []

let test_wheel_orders () =
  let w = Wheel.create ~dummy:(-1) in
  let ts = [ 5; 1; 9; 3; 7; 1; 0 ] in
  List.iteri (fun i t -> Wheel.add w ~time:t i) ts;
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 5; 7; 9 ]
    (List.map fst (drain_wheel w));
  check_bool "empty after drain" true (Wheel.is_empty w)

let test_wheel_fifo_on_ties () =
  let w = Wheel.create ~dummy:(-1) in
  for i = 0 to 9 do
    Wheel.add w ~time:42 i
  done;
  Alcotest.(check (list int)) "insertion order" (List.init 10 Fun.id)
    (List.map snd (drain_wheel w))

let test_wheel_far_future () =
  (* Times spread across every wheel level, including beyond a
     level-0 lap (32 us) and out to hours: ordering must hold when
     entries cascade down through multiple levels. *)
  let w = Wheel.create ~dummy:(-1) in
  let times =
    [ 0; 1_000; 33_000; 1_000_000; 50_000_000; Time_ns.sec 1;
      Time_ns.sec 3600; 3; Time_ns.ms 2; Time_ns.sec 7200 ]
  in
  List.iteri (fun i t -> Wheel.add w ~time:t i) times;
  Alcotest.(check (list int)) "globally sorted" (List.sort compare times)
    (List.map fst (drain_wheel w))

let test_wheel_cancel () =
  let w = Wheel.create ~dummy:"" in
  Wheel.add w ~time:1 "a";
  let b = Wheel.push w ~time:2 "b" in
  Wheel.add w ~time:3 "c";
  Wheel.cancel w b;
  Wheel.cancel w b (* idempotent *);
  check_int "live" 2 (Wheel.length w);
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ]
    (List.map snd (drain_wheel w))

let test_wheel_cancel_after_pop () =
  let w = Wheel.create ~dummy:"" in
  let a = Wheel.push w ~time:1 "a" in
  ignore (Wheel.push w ~time:2 "b");
  Alcotest.(check (option (pair int string))) "pops a" (Some (1, "a")) (Wheel.pop w);
  Wheel.cancel w a (* must not touch the live count: a already left *);
  check_int "b still live" 1 (Wheel.length w);
  Alcotest.(check (option (pair int string))) "pops b" (Some (2, "b")) (Wheel.pop w)

let test_wheel_peek () =
  let w = Wheel.create ~dummy:0 in
  Alcotest.(check (option int)) "empty" None (Wheel.peek_time w);
  let a = Wheel.push w ~time:(Time_ns.ms 5) 1 in
  ignore (Wheel.push w ~time:(Time_ns.ms 9) 2);
  Alcotest.(check (option int)) "min" (Some (Time_ns.ms 5)) (Wheel.peek_time w);
  Wheel.cancel w a;
  Alcotest.(check (option int)) "skips dead" (Some (Time_ns.ms 9)) (Wheel.peek_time w)

let test_wheel_pop_due () =
  let w = Wheel.create ~dummy:"" in
  let a = Wheel.push w ~time:1 "a" in
  Wheel.add w ~time:5 "b";
  Wheel.add w ~time:(Time_ns.sec 9) "c";
  Wheel.cancel w a;
  Alcotest.(check (option (pair int string)))
    "skips dead, pops due" (Some (5, "b"))
    (Wheel.pop_due w ~limit:6);
  Alcotest.(check (option (pair int string)))
    "beyond limit stays" None
    (Wheel.pop_due w ~limit:6);
  check_int "c still queued" 1 (Wheel.length w);
  Alcotest.(check (option (pair int string)))
    "pops once due" (Some (Time_ns.sec 9, "c"))
    (Wheel.pop_due w ~limit:(Time_ns.sec 9))

let test_wheel_recycles_add_entries () =
  (* Steady-state fire-once traffic must not grow the arena: pop an
     [add]ed entry, insert another, repeat. Indirectly observable via
     correctness (recycled cells must carry the new time/value). *)
  let w = Wheel.create ~dummy:(-1) in
  for round = 0 to 9_999 do
    Wheel.add w ~time:(round * 3) round;
    match Wheel.pop w with
    | Some (t, v) ->
      check_int "time" (round * 3) t;
      check_int "value" round v
    | None -> Alcotest.fail "pop returned None"
  done;
  check_bool "empty" true (Wheel.is_empty w)

(* The equivalence property the whole PR leans on: any interleaving of
   insert / cancel / pop / pop_due produces the identical observation
   sequence from the wheel and from the binary heap, including
   insertion-order ties at equal timestamps. *)
let prop_wheel_pheap_equivalent =
  let open QCheck in
  (* (selector, a, b) triples decode into operations; times mix a
     dense small range (forcing ties) with shifts up to 2^40 ns
     (forcing multi-level cascades). *)
  let op = triple (int_bound 5) (int_bound 0xFFFF) (int_bound 40) in
  Test.make ~name:"wheel = pheap on any op sequence" ~count:300
    (list_of_size Gen.(int_range 0 400) op)
    (fun ops ->
      let h = Pheap.create () in
      let w = Wheel.create ~dummy:(-1) in
      let h_handles = ref [] and w_handles = ref [] and n_handles = ref 0 in
      let next_val = ref 0 in
      let obs_h = Buffer.create 256 and obs_w = Buffer.create 256 in
      let record buf tag = function
        | None -> Buffer.add_string buf (tag ^ ":none;")
        | Some (t, v) -> Buffer.add_string buf (Printf.sprintf "%s:%d,%d;" tag t v)
      in
      let time_of a b = if b land 1 = 0 then a land 63 else a lsl (b mod 24) in
      List.iter
        (fun (sel, a, b) ->
          match sel with
          | 0 | 1 ->
            (* fire-once insert *)
            let t = time_of a b and v = !next_val in
            incr next_val;
            ignore (Pheap.push h ~time:t v);
            Wheel.add w ~time:t v
          | 2 ->
            (* cancellable insert *)
            let t = time_of a b and v = !next_val in
            incr next_val;
            h_handles := Pheap.push h ~time:t v :: !h_handles;
            w_handles := Wheel.push w ~time:t v :: !w_handles;
            incr n_handles
          | 3 ->
            (* cancel one of the handles issued so far (possibly one
               that already popped — both sides must no-op) *)
            if !n_handles > 0 then begin
              let i = a mod !n_handles in
              Pheap.cancel h (List.nth !h_handles i);
              Wheel.cancel w (List.nth !w_handles i)
            end
          | 4 ->
            record obs_h "p" (Pheap.pop h);
            record obs_w "p" (Wheel.pop w)
          | _ ->
            let limit = time_of a b in
            record obs_h "d" (Pheap.pop_due h ~limit);
            record obs_w "d" (Wheel.pop_due w ~limit))
        ops;
      (* Drain what's left. *)
      let rec drain () =
        let rh = Pheap.pop h and rw = Wheel.pop w in
        record obs_h "e" rh;
        record obs_w "e" rw;
        if rh <> None || rw <> None then drain ()
      in
      drain ();
      Pheap.length h = 0 && Wheel.length w = 0
      && Buffer.contents obs_h = Buffer.contents obs_w)

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:(Time_ns.ms 5) (fun () -> log := 5 :: !log));
  ignore (Engine.schedule e ~delay:(Time_ns.ms 1) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:(Time_ns.ms 3) (fun () -> log := 3 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 3; 5 ] (List.rev !log);
  check_int "clock at last event" (Time_ns.ms 5) (Engine.now e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.schedule e ~delay:1 (fun () ->
         incr hits;
         ignore (Engine.schedule e ~delay:1 (fun () -> incr hits))));
  Engine.run e;
  check_int "both ran" 2 !hits

let test_engine_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.schedule e ~delay:(Time_ns.ms 1) (fun () -> incr hits));
  ignore (Engine.schedule e ~delay:(Time_ns.ms 10) (fun () -> incr hits));
  Engine.run ~until:(Time_ns.ms 5) e;
  check_int "only first" 1 !hits;
  check_int "clock clamped to until" (Time_ns.ms 5) (Engine.now e);
  Engine.run e;
  check_int "second runs later" 2 !hits

let test_engine_cancel () =
  let e = Engine.create () in
  let hits = ref 0 in
  let id = Engine.schedule_cancellable e ~delay:1 (fun () -> incr hits) in
  Engine.cancel e id;
  Engine.run e;
  check_int "cancelled" 0 !hits

let test_engine_cancel_at () =
  let e = Engine.create () in
  let hits = ref 0 in
  let id =
    Engine.schedule_at_cancellable e ~at:(Time_ns.ms 2) (fun () -> incr hits)
  in
  ignore (Engine.schedule e ~delay:(Time_ns.ms 1) (fun () -> Engine.cancel e id));
  Engine.run e;
  check_int "cancelled before firing" 0 !hits

let test_engine_cancel_after_fire () =
  let e = Engine.create () in
  let hits = ref 0 in
  let id = Engine.schedule_cancellable e ~delay:1 (fun () -> incr hits) in
  Engine.run e;
  check_int "fired" 1 !hits;
  Engine.cancel e id (* late cancel of a fired once-event is a no-op *);
  ignore (Engine.schedule e ~delay:1 (fun () -> incr hits));
  Engine.run e;
  check_int "later events unaffected" 2 !hits

let test_engine_every () =
  let e = Engine.create () in
  let hits = ref 0 in
  let id = Engine.every e ~interval:(Time_ns.ms 10) (fun () -> incr hits) in
  Engine.run ~until:(Time_ns.ms 95) e;
  check_int "9 ticks in 95ms" 9 !hits;
  Engine.cancel e id;
  Engine.run ~until:(Time_ns.ms 200) e;
  check_int "no ticks after cancel" 9 !hits

let test_engine_every_cancel_inside () =
  let e = Engine.create () in
  let hits = ref 0 in
  let id = ref None in
  id :=
    Some
      (Engine.every e ~interval:1 (fun () ->
           incr hits;
           if !hits = 3 then Option.iter (Engine.cancel e) !id));
  Engine.run ~until:(Time_ns.ms 1) e;
  check_int "self-cancel stops series" 3 !hits

let test_engine_clock_monotone () =
  let e = Engine.create () in
  let last = ref (-1) in
  for i = 1 to 50 do
    ignore
      (Engine.schedule e ~delay:(i mod 7) (fun () ->
           Alcotest.(check bool) "monotone" true (Engine.now e >= !last);
           last := Engine.now e))
  done;
  Engine.run e

let test_engine_past_deadline_clamped () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:(Time_ns.ms 5) (fun () -> ()));
  Engine.run e;
  let hit_at = ref (-1) in
  ignore (Engine.schedule_at e ~at:0 (fun () -> hit_at := Engine.now e));
  Engine.run e;
  check_int "past deadline runs now" (Time_ns.ms 5) !hit_at

(* [run ~until] with only a cancelled prefix and a live event beyond
   the deadline: nothing may execute, the clock must land exactly on
   the deadline (never on the cancelled entries' or the future event's
   time), and the future event must still fire later at its own
   instant. The wheel answers this from a peek without advancing its
   cursor. *)
let test_engine_run_until_pins_clock () =
  let e = Engine.create () in
  let a = Engine.schedule_cancellable e ~delay:(Time_ns.ms 1) (fun () -> ()) in
  let b = Engine.schedule_cancellable e ~delay:(Time_ns.ms 2) (fun () -> ()) in
  Engine.cancel e a;
  Engine.cancel e b;
  let hit_at = ref (-1) in
  Engine.schedule_at e ~at:(Time_ns.ms 10) (fun () -> hit_at := Engine.now e);
  Engine.run ~until:(Time_ns.ms 5) e;
  check_int "nothing executed" 0 (Engine.events_executed e);
  check_int "clock = deadline exactly" (Time_ns.ms 5) (Engine.now e);
  check_int "future event untouched" (-1) !hit_at;
  check_int "future event still pending" 1 (Engine.pending e);
  Engine.run e;
  check_int "fires at its own instant" (Time_ns.ms 10) !hit_at;
  check_int "exactly one event executed" 1 (Engine.events_executed e)


let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "time_ns",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_dist_constant;
          Alcotest.test_case "non-negative" `Quick test_dist_nonnegative;
          Alcotest.test_case "mixture mean" `Quick test_dist_mixture_mean;
          Alcotest.test_case "lognormal median" `Slow test_dist_lognormal_median;
        ] );
      ( "pheap",
        [
          Alcotest.test_case "orders" `Quick test_heap_orders;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "cancel" `Quick test_heap_cancel;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "compaction" `Quick test_heap_compaction;
          Alcotest.test_case "cancel after pop" `Quick test_heap_cancel_after_pop;
          Alcotest.test_case "pop_due" `Quick test_heap_pop_due;
          q prop_heap_sorts;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "orders" `Quick test_wheel_orders;
          Alcotest.test_case "FIFO ties" `Quick test_wheel_fifo_on_ties;
          Alcotest.test_case "far future levels" `Quick test_wheel_far_future;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "cancel after pop" `Quick test_wheel_cancel_after_pop;
          Alcotest.test_case "peek" `Quick test_wheel_peek;
          Alcotest.test_case "pop_due" `Quick test_wheel_pop_due;
          Alcotest.test_case "recycles add entries" `Quick
            test_wheel_recycles_add_entries;
          q prop_wheel_pheap_equivalent;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel absolute" `Quick test_engine_cancel_at;
          Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire;
          Alcotest.test_case "periodic" `Quick test_engine_every;
          Alcotest.test_case "periodic self-cancel" `Quick test_engine_every_cancel_inside;
          Alcotest.test_case "clock monotone" `Quick test_engine_clock_monotone;
          Alcotest.test_case "past deadline clamps" `Quick test_engine_past_deadline_clamped;
          Alcotest.test_case "run-until pins clock (wheel)" `Quick
            test_engine_run_until_pins_clock;
        ] );
    ]
