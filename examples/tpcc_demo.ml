(* TPC-C on ALOHA-DB and Calvin side by side: a small cluster, a burst of
   NewOrder transactions, throughput and the paper's headline ratio.

   Both engines run through the same kernel client loop — only the packed
   ENGINE module differs.

   Run with:  dune exec examples/tpcc_demo.exe *)

let aloha_engine = List.assoc "aloha" Harness.Setup.engines
let calvin_engine = List.assoc "calvin" Harness.Setup.engines

let () =
  let n = 4 in
  Format.printf "TPC-C NewOrder, %d servers, 1 warehouse per host@." n;
  Format.printf "(distributed transactions, 1%% invalid-item aborts)@.@.";

  let run engine clients =
    let built =
      Harness.Setup.tpcc ~engine ~n ~warehouses_per_host:1 ~kind:`NewOrder ()
    in
    Harness.Setup.run built
      ~arrival:(Kernel.Arrivals.Closed { clients_per_fe = clients })
      ~warmup_us:75_000 ~measure_us:100_000 ()
  in

  let aloha = run aloha_engine 1_000 in
  Format.printf "ALOHA-DB : %a@." Kernel.Result.pp aloha;
  List.iter
    (fun (stage, us) ->
      Format.printf "           %-22s %6.2f ms@." stage (us /. 1000.0))
    aloha.Kernel.Result.stages;

  let calvin = run calvin_engine 300 in
  Format.printf "@.Calvin   : %a@." Kernel.Result.pp calvin;
  List.iter
    (fun (stage, us) ->
      Format.printf "           %-22s %6.2f ms@." stage (us /. 1000.0))
    calvin.Kernel.Result.stages;

  Format.printf "@.speedup  : %.1fx (paper reports 13-112x depending on scale)@."
    (aloha.Kernel.Result.throughput_tps /. calvin.Kernel.Result.throughput_tps);
  Format.printf
    "aborts   : ALOHA %d installed-phase aborts (the required 1%%), Calvin %d (cannot abort)@."
    (Kernel.Result.abort aloha "install")
    (Kernel.Result.abort calvin "install")
