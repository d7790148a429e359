(* A miniature of the paper's Figure 9: YCSB-like microbenchmark
   throughput as the contention index rises.  ALOHA-DB stays flat — its
   key-level concurrency control never blocks on hot keys — while Calvin's
   single-threaded lock manager collapses and the conventional 2PL/2PC
   baseline collapses even earlier.

   All three engines run through the same kernel client loop.

   Run with:  dune exec examples/ycsb_contention.exe *)

let () =
  let n = 4 in
  Format.printf
    "YCSB read-modify-write, %d servers, 10 keys/txn, 2 partitions/txn@.@."
    n;
  Format.printf "%-12s %-14s %-14s %-14s@." "CI" "ALOHA (txn/s)"
    "Calvin (txn/s)" "2PL (txn/s)";
  List.iter
    (fun ci ->
      let point name clients =
        let engine = List.assoc name Harness.Setup.engines in
        let built =
          Harness.Setup.ycsb ~engine ~n ~ci ~keys_per_partition:20_000 ()
        in
        let r =
          Harness.Setup.run built
            ~arrival:(Kernel.Arrivals.Closed { clients_per_fe = clients })
            ~warmup_us:60_000 ~measure_us:80_000 ()
        in
        r.Kernel.Result.throughput_tps
      in
      Format.printf "%-12g %-14.0f %-14.0f %-14.0f@." ci
        (point "aloha" 1_200) (point "calvin" 300) (point "twopl" 300))
    [ 0.0001; 0.001; 0.01; 0.1 ]
