(** One node of a real TCP-connected cluster, running the hierarchical
    protocol for every configured lock object.

    One event loop thread [Unix.select]s over the listener, the inbound
    connections, a wake-up pipe and the outbound connections that are
    connecting or have bytes to write; the custody kick and the reconnect
    backoff (50 ms ×1.5, capped at 1 s) are timers inside it. One mutex
    guards engines, callback tables, counters and output buffers. Grant
    and upgrade callbacks run after it is released, on the loop thread or
    the calling thread: they may call back into the runner but must not
    block.

    Every entry point runs inside {!Dcs_hlock.Node.with_send_batch} (so
    superseded Release/Freeze traffic coalesces), encodes each frame
    (4-byte big-endian length prefix + envelope) into its peer's buffer,
    and ends with non-blocking writes; what the kernel does not take
    waits for the socket to turn writable. A failed write keeps every
    frame not fully accepted, in order, for the reconnect (a partial
    frame is resent whole; the peer drops the truncated copy at end of
    stream). Frames are dropped only at {!stop}, which logs the count. An
    oversized or malformed inbound frame closes its connection.

    The token for every lock starts at node 0 — start node 0 first, or let
    connection retries smooth over the startup order. *)

type t

(** Build a runner for [self] in [config]. Does not touch the network.
    [kick_interval] (seconds, default 1.0, must be positive) is the period
    of the custody-kick watchdog: lower it to the order of a few network
    round trips for latency-sensitive deployments, raise it to quiet
    idle clusters.

    [telemetry], when given, streams this node's [dcs-obs/2] shard: every
    engine lifecycle event, a [Sent]/[Received] transport event per
    span-carrying frame (the causal edges [dcs-trace analyze] aligns
    clocks with), per-class frame accounting, periodic {!Dcs_obs.Metrics}
    snapshots (each kick), and closing [msgs]/[counters] lines at {!stop}.
    The caller keeps ownership and closes the shard after {!stop}. *)
val create :
  ?protocol:Dcs_hlock.Node.config ->
  ?kick_interval:float ->
  ?telemetry:Dcs_obs.Shard.t ->
  config:Cluster_config.t ->
  self:int ->
  unit ->
  t

(** Bind the listen port and start the event loop thread. Ignores SIGPIPE
    process-wide (a dead peer must surface as a write error the runner
    can retry, not kill the process). *)
val start : t -> unit

(** Block until every peer's listen port accepts a TCP connection (the
    probe connections are closed immediately; peers see them as empty
    sessions). Call after {!start} and before issuing requests so the
    first message storm never races peer startup. [Error] names the peers
    still unreachable when [timeout] (seconds, default 10) expires. *)
val await_peers : ?timeout:float -> t -> (unit, string) result

(** Stop the event loop, wait for it to exit and close every socket.
    When it returns, {!stats}[.dropped_frames] is final. Idempotent. *)
val stop : t -> unit

(** {1 Asynchronous API (callbacks run outside the runner's mutex)} *)

val request : ?priority:int -> t -> lock:int -> mode:Dcs_modes.Mode.t -> on_granted:(unit -> unit) -> int
val release : t -> lock:int -> seq:int -> unit
val upgrade : t -> lock:int -> seq:int -> on_upgraded:(unit -> unit) -> unit

(** {1 Blocking convenience wrappers} *)

(** Acquire and wait for the grant; returns the ticket. *)
val request_sync : ?priority:int -> t -> lock:int -> mode:Dcs_modes.Mode.t -> int

(** Upgrade a held [U] ticket to [W] and wait. *)
val upgrade_sync : t -> lock:int -> seq:int -> unit

(** Messages sent by this node so far, by class. *)
val counters : t -> Dcs_proto.Counters.t

(** This node's id. *)
val id : t -> int

(** {1 Runtime observability} *)

(** The live metrics registry ([net.*] transport counters and gauges,
    [grants.*] grant-mix counters). Shared with the telemetry shard's
    periodic snapshots. *)
val metrics : t -> Dcs_obs.Metrics.t

(** A point-in-time view of the transport, queryable while running. *)
type stats = {
  frames_sent : int;  (** frames fully handed to the kernel *)
  bytes_sent : int;  (** wire bytes of those frames (prefix included) *)
  batches : int;  (** writes that handed bytes to the kernel *)
  partial_requeues : int;  (** failed writes; their unsent frames wait for a reconnect *)
  connects : int;  (** successful outbound connections *)
  reconnects : int;  (** connects that replaced an earlier session *)
  connect_retries : int;  (** failed connection attempts *)
  backoff_ms : float;  (** current reconnect backoff (0 when connected) *)
  queued_frames : int;  (** frames not yet fully written now *)
  dropped_frames : int;  (** frames abandoned at shutdown *)
  decode_errors : int;  (** malformed or oversized inbound frames *)
  frames_received : int;
  bytes_received : int;  (** payload bytes decoded *)
}

val stats : t -> stats
