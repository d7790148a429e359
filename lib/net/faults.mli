(** Deterministic link-level fault injection for {!Network}.

    A [Faults.t] is a seeded decision oracle shared by one or more
    networks: every send consults {!decide}, which rolls the fault RNG in
    simulation order, so a whole run is reproducible from the fault seed
    (the chaos subsystem's determinism contract — see DESIGN.md, "Fault
    model").

    Faults are expressed as {e edicts}: time-windowed probabilistic rules
    (drop / delay / duplicate / reorder) matched per link, plus partition
    windows that separate an address group from the rest of the world.
    Windows are evaluated lazily against the caller-supplied [now];
    nothing is scheduled, so a [Faults.t] can be built before the
    simulation engine exists.

    Two transport models interpret the same edicts:

    - [Lossy] (UDP-like): drops and partition cut-offs lose the message;
      duplicates and reorderings are delivered as such.  For protocols
      hardened against loss (ALOHA-DB with retries enabled).
    - [Reliable] (TCP-like): a "drop" manifests as a retransmission delay,
      a partition buffers traffic until the window closes, duplicates and
      reorderings are suppressed (the transport dedups and orders).  For
      protocols that assume reliable FIFO links (Calvin, 2PL). *)

type t

type transport = Lossy | Reliable

type kind = Drop | Delay | Duplicate | Reorder

type edict = {
  kind : kind;
  p : float;  (** per-message probability the edict fires *)
  extra_max_us : int;
      (** delay bound for [Delay]; displacement bound for [Reorder];
          ignored by [Drop]/[Duplicate] *)
  src : Address.t option;  (** [None] matches any source *)
  dst : Address.t option;  (** [None] matches any destination *)
  from_us : int;
  until_us : int;  (** window is [[from_us, until_us)] *)
}

val edict :
  ?src:Address.t -> ?dst:Address.t -> ?extra_max_us:int ->
  kind -> p:float -> from_us:int -> until_us:int -> edict

val create : ?transport:transport -> seed:int -> unit -> t
(** [transport] defaults to [Lossy]. *)


val install : t -> edict list -> unit
(** Append edicts (evaluated in installation order). *)

val partition : t -> group:Address.t list -> from_us:int -> until_us:int -> unit
(** Separate [group] from all other addresses (both directions) during the
    window.  Traffic within [group], and within the complement, is
    unaffected. *)

type verdict =
  | Deliver of { extra_delay_us : int; copies : int; reorder : bool }
      (** deliver [copies] (>= 1) copies after an extra delay; [reorder]
          asks the network to bypass per-link FIFO for this message *)
  | Drop_injected  (** lost to a probabilistic link fault *)
  | Drop_partitioned  (** cut off by an active partition window *)

val decide : t -> now:int -> src:Address.t -> dst:Address.t -> verdict
(** Roll the fault oracle for one message.  Consumes randomness only for
    edicts whose window and link filter match, keeping the decision
    sequence reproducible from the seed. *)
