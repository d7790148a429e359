(** Regeneration of every table and figure in the paper's evaluation
    (§V), plus the ablations called out in DESIGN.md.

    Each [figN] function runs the experiment at the given {!scale} and
    prints paper-style rows to stdout; EXPERIMENTS.md records the
    paper-vs-measured comparison.  All runs are deterministic. *)

type scale = {
  label : string;
  warmup_us : int;
  measure_us : int;
  aloha_clients : int;  (** closed-loop clients per FE at saturation *)
  calvin_clients : int;
  fig6_fractions : float list;  (** offered load as fraction of peak *)
  fig7_xs : int list;  (** warehouses / districts per host *)
  fig8_servers : int list;
  fig9_cis : float list;
  fig11_epochs_ms : int list;
}

val quick : scale
(** Small point set, short windows — minutes, for development and CI. *)

val full : scale
(** The paper's point set (slightly thinned where the curve is flat). *)

val targets : (string * (scale -> unit)) list
(** Every table, figure and ablation by name, each printing its rows:
    - ["table1"]: Table I, the supported f-types and f-argument
      representations (scale-free);
    - ["fig6"]: throughput vs latency, TPC-C and Scaled TPC-C NewOrder,
      8 servers, 1W/10W/1D/10D;
    - ["fig7"]: throughput vs warehouses/districts per host (NewOrder and
      Payment);
    - ["fig8"]: scale-out, NewOrder throughput for 1..20 servers;
    - ["fig9"]: microbenchmark throughput vs contention index, ALOHA,
      Calvin and 2PL/2PC;
    - ["fig10"]: latency breakdown by stage under low and high contention;
    - ["fig11"]: latency vs epoch duration (medium contention, light load);
    - ["ablation-straggler"]: §III-C no-authorization starts on vs off,
      under injected network delay spikes;
    - ["ablation-push"]: §IV-B recipient-set pushes on vs off on a
      cross-partition transfer workload;
    - ["ablation-dependent"]: §IV-E determinate functors vs the optimistic
      method on contended conditional withdrawals;
    - ["ext-conventional"]: beyond the paper, Fig. 9's sweep with a
      conventional 2PL/2PC system, which collapses earliest while Calvin
      degrades and ALOHA-DB stays flat;
    - ["all"]: every one of the above, in this order. *)
