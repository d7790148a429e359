(** The replica role of one server: the logs it leads (a primary's WAL
    and {!Cores.Repl} group per partition), the logs it follows (each a
    {!Cores.Follower_log}), WAL shipping over the replication plane,
    which partitions it [leads], and the epoch close gate
    ({!Cores.Close_gate}).  Nothing hooks into the participant: {!Server}
    passes each close to {!gate} with the work to run once it may close.

    Every partition is a replication group, of one member at k = 1, so
    every k takes the same logging, ack-gating, crash and restart path.
    A durable server leads its home partition's group from the start. *)

type t

type fabric = {
  plane : Message.rpc;
      (** the WAL-ship plane: an RPC instance of its own, so ship traffic
          cannot perturb the data plane's latency stream *)
  route : Net.Route.t;  (** every partition's group, primary and term *)
}

val create : Node.t -> fabric -> t
(** Lead the home partition's group when [node.durable], follow every
    other partition whose group includes this server, and serve the
    ship plane. *)

val leads : t -> partition:int -> bool
(** Durable: the home partition until a failover takes it away, plus
    any partition adopted by promotion.  Otherwise exactly the home
    partition. *)

val wal : t -> Wal.t option
(** The home partition's log, while led. *)

val leads_any : t -> bool

val iter_led : t -> (partition:int -> Wal.t -> unit) -> unit
(** Every log this server leads. *)

val log_entry : t -> partition:int -> Wal.entry -> unit
(** Append to [partition]'s log, if led here. *)

val gate : t -> epoch:int -> (epoch:int -> unit) -> unit
(** The participant closed [epoch]: log its close marker on every led
    log (the backend up), and pass the close to the continuation through
    the {!Cores.Close_gate}.  When [node.hardened] it waits until each
    led group with followers is durable through the marker on every
    live replica; otherwise it passes at once. *)

val after_logged :
  t -> partition:int -> gated:bool -> (unit -> unit) -> unit
(** Run the continuation once [partition]'s entries logged so far are
    flushed and acked by every live follower, when [gated] and
    [node.hardened]; at once otherwise. *)

val note_member_down : t -> partition:int -> member:Net.Address.t -> unit
val note_member_rejoin : t -> partition:int -> member:Net.Address.t -> unit

val crash : t -> (epoch:int -> unit) -> unit
(** Lose every unflushed log tail, and deliver every close the gate
    holds, in ascending order. *)

val demote_lost : t -> unit
(** Restart: follow, from an empty log, every partition the route says
    someone else leads now. *)

val reship_all : t -> unit
(** Restart: re-ship every led log from the start (follower acks are
    volatile on both sides). *)

val adopt :
  t ->
  partition:int ->
  down:Net.Address.t list ->
  closed_epoch:int ->
  replay:(Wal.entry list -> unit) ->
  release:(unit -> unit) ->
  unit
(** Promotion (see {!Server.adopt_partition}): [replay] gets the
    followed log, which this server then leads under the route's term;
    [release] runs before shipping resumes. *)

val wal_pending_bytes : t -> int
val replication_lag : t -> int

val note_groups : t -> Obs.Ledger.t -> epoch:int -> unit
(** Ledger: each led group's ack floor and live followers at close. *)
