(** Seeded fault schedules.

    A schedule is an engine-neutral description of what goes wrong during
    a run: probabilistic link edicts, a partition window, a backend crash
    with its restart time, and straggler clock skew.  [generate] is a
    pure function of [(seed, n_servers)], so a failing schedule is fully
    identified by its seed. *)

type event =
  | Edict of Net.Faults.edict
  | Partition of { group : int list; from_us : int; until_us : int }
      (** server-id group cut from the rest (including the epoch manager)
          during the window *)
  | Crash of { node : int; at_us : int; restart_at_us : int }
      (** backend-role crash and restart; engines without a recovery path
          interpret it as a stall window *)
  | Skew of { node : int; at_us : int; skew_us : int }
      (** step the node's local clock by [skew_us] (negative = backwards,
          which plateaus a monotone clock) *)

type t = { seed : int; n_servers : int; events : event list }

val generate : seed:int -> n_servers:int -> t
(** A mixed random schedule: 1-3 edicts, an optional partition window, an
    optional crash, 0-2 skew steps.  Every window closes before the
    drain horizon. *)

val generate_replicated : seed:int -> n_servers:int -> t
(** The replication battery's schedule shape: crash {e every} backend
    exactly once, in a seed-determined order, staggered ~25ms apart so at
    most one backend is down (or catching up) at any moment — the "any
    single backend loss" regime — plus 0-1 edicts and 0-2 skews.  No
    partition windows: the failure monitor is a crash detector, not a
    membership service. *)

val has_crash : t -> bool

val pp : Format.formatter -> t -> unit
