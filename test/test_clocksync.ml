(* Clocks and timestamps. *)

module Ts = Clocksync.Timestamp

let test_ts_pack_roundtrip () =
  let t = Ts.make ~time_us:123_456 ~node:17 ~seq:42 in
  Alcotest.(check int) "time" 123_456 (Ts.time_us t);
  Alcotest.(check int) "node" 17 (Ts.node t);
  Alcotest.(check int) "seq" 42 (Ts.seq t)

let test_ts_ordering () =
  let a = Ts.make ~time_us:100 ~node:5 ~seq:0 in
  let b = Ts.make ~time_us:100 ~node:5 ~seq:1 in
  let c = Ts.make ~time_us:100 ~node:6 ~seq:0 in
  let d = Ts.make ~time_us:101 ~node:0 ~seq:0 in
  Alcotest.(check bool) "seq orders" true Ts.(a < b);
  Alcotest.(check bool) "node orders above seq" true Ts.(b < c);
  Alcotest.(check bool) "time dominates" true Ts.(c < d);
  Alcotest.(check bool) "zero below all" true Ts.(Ts.zero < a);
  Alcotest.(check bool) "infinity above all" true Ts.(d < Ts.infinity)

let test_ts_windows () =
  let lo = Ts.window_lo ~time_us:500 in
  let hi = Ts.window_hi ~time_us:500 in
  Alcotest.(check int) "lo time" 500 (Ts.time_us lo);
  Alcotest.(check int) "hi time" 500 (Ts.time_us hi);
  let mid = Ts.make ~time_us:500 ~node:3 ~seq:7 in
  Alcotest.(check bool) "lo <= mid <= hi" true Ts.(lo <= mid && mid <= hi);
  let above = Ts.make ~time_us:501 ~node:0 ~seq:0 in
  Alcotest.(check bool) "hi < next microsecond" true Ts.(hi < above)

let test_ts_field_validation () =
  Alcotest.check_raises "node too big" (Invalid_argument "Timestamp.make: node")
    (fun () ->
      (* the node field is 10 bits wide *)
      ignore (Ts.make ~time_us:0 ~node:1024 ~seq:0));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Timestamp.make: negative time") (fun () ->
      ignore (Ts.make ~time_us:(-1) ~node:0 ~seq:0))

let test_clock_offset_and_drift () =
  let e = Sim.Engine.create () in
  let c = Clocksync.Node_clock.create e ~offset_us:500 ~drift_ppm:1000.0 () in
  Alcotest.(check int) "initial offset" 500 (Clocksync.Node_clock.now c);
  Sim.Engine.schedule e ~at:1_000_000 (fun () ->
      (* 1 s elapsed at +1000 ppm = +1 ms drift on top of the offset *)
      Alcotest.(check int) "offset + drift" 1_001_500
        (Clocksync.Node_clock.now c));
  Sim.Engine.run e

let test_clock_sync_clamps () =
  let e = Sim.Engine.create () in
  let c = Clocksync.Node_clock.create e ~offset_us:5_000 () in
  Clocksync.Node_clock.sync c ~error_bound_us:100;
  Alcotest.(check bool) "offset clamped" true
    (abs (Clocksync.Node_clock.offset c) <= 100)

let test_clock_monotone_through_sync () =
  let e = Sim.Engine.create () in
  let c = Clocksync.Node_clock.create e ~offset_us:5_000 () in
  let before = Clocksync.Node_clock.now c in
  (* Sync steps the raw clock backwards by ~5 ms; reading must not go
     back. *)
  Clocksync.Node_clock.sync c ~error_bound_us:0;
  let after = Clocksync.Node_clock.now c in
  Alcotest.(check bool) "monotone" true (after >= before)

let test_sync_daemon () =
  let e = Sim.Engine.create () in
  let c = Clocksync.Node_clock.create e ~offset_us:0 ~drift_ppm:10_000.0 () in
  Clocksync.Node_clock.start_sync_daemon c ~period_us:10_000 ~error_bound_us:50;
  Sim.Engine.schedule e ~at:1_000_000 (fun () ->
      (* Drift accumulates 100 µs per 10 ms period, but each sync clamps
         the error back to 50 µs. *)
      Alcotest.(check bool) "error bounded by sync daemon" true
        (abs (Clocksync.Node_clock.offset c) <= 200));
  (* The daemon reschedules forever; bound the run. *)
  Sim.Engine.run ~until:1_000_001 e

let test_ts_source_strictly_increasing () =
  let e = Sim.Engine.create () in
  let clk = Clocksync.Node_clock.perfect e in
  let src = Clocksync.Ts_source.create clk ~node:3 in
  let prev = ref Ts.zero in
  for _ = 1 to 10_000 do
    match Clocksync.Ts_source.next src ~lo:0 ~hi:1_000_000 with
    | Some ts ->
        Alcotest.(check bool) "strictly increasing" true Ts.(!prev < ts);
        prev := ts
    | None -> Alcotest.fail "window exhausted unexpectedly"
  done

let test_ts_source_clamps_to_window () =
  let e = Sim.Engine.create () in
  let clk = Clocksync.Node_clock.perfect e in
  let src = Clocksync.Ts_source.create clk ~node:3 in
  (* Clock is at 0; the window starts later — timestamps clamp up to lo. *)
  (match Clocksync.Ts_source.next src ~lo:5_000 ~hi:6_000 with
  | Some ts -> Alcotest.(check int) "clamped to lo" 5_000 (Ts.time_us ts)
  | None -> Alcotest.fail "should issue");
  Sim.Engine.schedule e ~at:9_000 (fun () ->
      (* Clock beyond hi: clamp down to hi, drawing on the seq space. *)
      match Clocksync.Ts_source.next src ~lo:5_000 ~hi:6_000 with
      | Some ts -> Alcotest.(check int) "clamped to hi" 6_000 (Ts.time_us ts)
      | None -> Alcotest.fail "seq space should remain");
  Sim.Engine.run e

let test_ts_source_window_exhaustion () =
  let e = Sim.Engine.create () in
  let clk = Clocksync.Node_clock.perfect e in
  let src = Clocksync.Ts_source.create clk ~node:3 in
  Sim.Engine.schedule e ~at:100 (fun () ->
      (* A one-microsecond window at a past instant: only the 4096-deep
         sequence space is available, then None. *)
      let issued = ref 0 in
      let rec drain () =
        match Clocksync.Ts_source.next src ~lo:10 ~hi:10 with
        | Some _ ->
            incr issued;
            drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check int) "seq space" (1 lsl Ts.seq_bits) !issued);
  Sim.Engine.run e

(* qcheck: every issued timestamp lies inside the requested window and is
   unique across two sources with different node ids. *)
let prop_ts_in_window_and_unique =
  QCheck2.Test.make ~name:"ts_source window + uniqueness" ~count:100
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 5_000))
    (fun (lo, width) ->
      let hi = lo + width in
      let e = Sim.Engine.create () in
      let clk = Clocksync.Node_clock.perfect e in
      let s1 = Clocksync.Ts_source.create clk ~node:1 in
      let s2 = Clocksync.Ts_source.create clk ~node:2 in
      let all = Hashtbl.create 64 in
      let ok = ref true in
      for _ = 1 to 50 do
        List.iter
          (fun src ->
            match Clocksync.Ts_source.next src ~lo ~hi with
            | Some ts ->
                let t = Ts.time_us ts in
                if t < lo || t > hi then ok := false;
                if Hashtbl.mem all (Ts.to_int ts) then ok := false;
                Hashtbl.add all (Ts.to_int ts) ()
            | None -> ())
          [ s1; s2 ]
      done;
      !ok)

let suite =
  [ Alcotest.test_case "ts pack roundtrip" `Quick test_ts_pack_roundtrip;
    Alcotest.test_case "ts ordering" `Quick test_ts_ordering;
    Alcotest.test_case "ts windows" `Quick test_ts_windows;
    Alcotest.test_case "ts field validation" `Quick test_ts_field_validation;
    Alcotest.test_case "clock offset+drift" `Quick test_clock_offset_and_drift;
    Alcotest.test_case "clock sync clamps" `Quick test_clock_sync_clamps;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone_through_sync;
    Alcotest.test_case "sync daemon" `Quick test_sync_daemon;
    Alcotest.test_case "ts_source increasing" `Quick
      test_ts_source_strictly_increasing;
    Alcotest.test_case "ts_source clamps" `Quick test_ts_source_clamps_to_window;
    Alcotest.test_case "ts_source exhaustion" `Quick
      test_ts_source_window_exhaustion;
    QCheck_alcotest.to_alcotest prop_ts_in_window_and_unique ]
