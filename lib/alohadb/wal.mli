(** Write-ahead log for one backend partition (§III-A fault tolerance).

    ALOHA-DB inherits ALOHA-KV's durability story: every installed functor
    (not its computed value!) is logged, because functor evaluation is
    deterministic — replaying the installs and recomputing reproduces the
    exact post-crash state, including deferred dependent-key writes.
    The log is never truncated, so an entry's position is fixed for the
    log's lifetime (the replication ship sequence relies on it).

    The log models a durable device: appends buffer in memory and reach
    stable storage after [flush_latency_us] (group commit); only flushed
    entries survive a crash. *)

type entry = Message.log_entry =
  | Log_install of {
      key : Mvstore.Key.t;
      version : int;
      spec : Message.fspec;
      txn_id : int;
      coordinator : int;
      epoch : int;
      fast : bool;
          (** installed by the coordination-free fast path: replay and
              reintegration route the entry to the lazy-merge buffer
              instead of an epoch batch *)
    }
  | Log_abort of { key : Mvstore.Key.t; version : int }
      (** second-round rollback of an installed write *)
  | Log_epoch_closed of int

type t

val create : Sim.Engine.t -> ?flush_latency_us:int -> unit -> t
(** [flush_latency_us] defaults to 500 (one SSD-class fsync). *)

val append : t -> entry -> unit
(** Buffer an entry; it becomes durable at the next flush completion. *)

val after_durable : t -> (unit -> unit) -> unit
(** Run the callback once everything appended so far is flushed (at once
    if nothing is pending).  A hardened server defers install acks until
    their log entries are durable (see {!Config}).  Callbacks pending at
    a crash are discarded by {!lose_unflushed}. *)

val lose_unflushed : t -> int
(** Crash the device: the buffered (unflushed) tail is lost, pending
    {!after_durable} callbacks are dropped.  Returns how many entries were
    lost.  The durable prefix is what recovery sees. *)

val durable : t -> entry list
(** Entries that survived as of now, oldest first (what a post-crash
    recovery would read). *)

val all : t -> entry list
(** Every entry, durable prefix then unflushed tail, oldest first — what
    a live process (no crash) can read back.  Replica promotion replays
    this: the promoted follower did not crash, so its buffered tail is
    still valid. *)

val set_on_flush : t -> (unit -> unit) -> unit
(** Install the flush hook, fired after each flush completion once the
    newly durable entries are visible through {!durable} (and before
    {!after_durable} waiters run).  The replication primary ships its
    freshly durable suffix from here, so a follower can never ack an
    entry the primary itself might lose in a crash. *)

val durable_range : t -> from:int -> upto:int -> (int * entry) list
(** Durable entries with 1-based sequence positions in (from, upto],
    oldest first — the retransmission window a primary re-ships to a
    lagging follower. *)

val durable_count : t -> int
val pending_count : t -> int
(** Buffered entries not yet flushed (lost on crash). *)

val pending_bytes : t -> int
(** Nominal size of the unflushed tail (gauge for the observability
    layer; sizes are modelled, not serialized). *)

