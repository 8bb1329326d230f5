(** The sharded lock-namespace service: lock sets hash to buckets
    ({!Directory.bucket_of_set}), every bucket has exactly one home shard
    ({!Directory}), and shards execute their buckets' request bursts on
    pooled {!Cell}s, fanned over domains with {!Dcs_netkit.Parallel}.

    Execution proceeds in rounds. Between bursts a lock set's whole
    protocol state rests as an encoded blob
    ({!Dcs_wire.Codec.encode_cluster_state}); at a round boundary a
    bucket can migrate: its store travels in a real
    {!Dcs_wire.Shard_msg.Handoff} wire message — encoded and re-decoded
    through the codec, exactly the bytes a cross-process handoff ships —
    together with the requests that arrived while it was migrating, which
    the new home replays in arrival order before its own next-round work.

    Everything a burst does derives from [(seed, set, burst ordinal)]
    and the set's restored state, so {!result.digest} is invariant under
    [shards], [buckets], worker count and migration schedule; the
    unsharded service is the [shards = buckets = 1] case. *)

type config = {
  shards : int;
  buckets : int;  (** namespace partitions; every participant must agree *)
  lock_sets : int;
  nodes : int;  (** population serving each lock set *)
  rounds : int;
  jobs_per_round : int;  (** bursts issued per round *)
  ops_per_burst : int;
  skew : float;  (** Zipf theta over lock sets; 0 = uniform *)
  seed : int64;
  latency : Dcs_sim.Dist.t;
}

(** 1 shard, 8 buckets, 16 lock sets of 8 nodes, 4 rounds × 8 bursts of
    4 ops, uniform, seed 42, the paper's LAN latency. *)
val default_config : config

(** Move [bucket] to shard [dst] at the boundary of [round]: jobs for it
    during [round] are parked and travel in the handoff. *)
type migration = { round : int; bucket : int; dst : int }

type shard_stat = {
  shard : int;
  bursts : int;
  grants : int;
  msgs : int;
  buckets_owned : int;  (** at the end of the run *)
}

type result = {
  digest : int64;
      (** folds every set's (id, bursts, grants, msgs, state bytes) in
          namespace order — placement-independent *)
  bucket_digests : (int * int64) list;  (** same fold per bucket *)
  bursts : int;  (** always the plan's total: no burst is lost *)
  grants : int;
  upgrades : int;
  msgs : int;
  shard_stats : shard_stat list;  (** the balance table *)
  migrations_applied : int;
  parked_replayed : int;
  handoff_bytes : int;  (** encoded Handoff frames *)
  rounds_run : int;  (** ≥ [rounds]: parked work may need extra rounds *)
}

val bucket_of_set : buckets:int -> int -> int

(** {2 Building blocks}

    A cross-process shard worker drives its shard with {!run_round} and
    {!install} — the routing, parking and handoff code {!run} executes
    for every shard — so the distributed service and the in-process
    router share one execution path, one at-rest format and one digest. *)

(** One lock set's at-rest record between bursts: its encoded cluster
    state ({!Dcs_wire.Codec.encode_cluster_state}) and the accounting
    that travels with it in a handoff. Deliberately nothing more — the
    receiving side of a handoff sees only the wire entry. *)
type set_state = {
  mutable state : string;
  mutable s_bursts : int;
  mutable s_grants : int;
  mutable s_msgs : int;
}

val set_state_of_entry : Dcs_wire.Shard_msg.handoff_entry -> set_state

(** A bucket store's contents as wire entries, in ascending set order —
    the handoff send order. *)
val entries_of_store : (int, set_state) Hashtbl.t -> Dcs_wire.Shard_msg.handoff_entry list

(** Run one burst on [cell] against the set's prior state in the store,
    updating the store in place. Returns (grants, upgrades, msgs).
    Raises [Failure] if the burst does not drain, loses grants, or
    arrives out of order (its ordinal must equal the set's burst count —
    the invariant migrations and replays must preserve). *)
val run_burst : config -> Cell.t -> (int, set_state) Hashtbl.t -> Traffic.job -> int * int * int

(** Fold the namespace digest over whatever store the caller has:
    [find set] returns the set's at-rest record if it ever ran. *)
val digest_of_store : lock_sets:int -> (int -> set_state option) -> int64

(** One shard: its id, its pooled cell, the bucket-indexed stores it
    serves from (only the entries of buckets it homes are its own), and
    the parked jobs installed handoffs left for it to replay. *)
type shard = {
  id : int;
  cell : Cell.t;
  stores : (int, set_state) Hashtbl.t array;
  mutable replays : Traffic.job list;
}

(** What one shard did in one round. [handoffs] are
    {!Dcs_wire.Shard_msg.Handoff}s, in schedule order. *)
type round_report = {
  bursts : int;
  grants : int;
  upgrades : int;
  msgs : int;
  handoffs : Dcs_wire.Shard_msg.t list;
}

(** Run shard [sh]'s part of [round] against directory [dir], in which
    this round's [migrations] have begun: route [sh.replays], then
    [plan_jobs] (the round's plan, [[||]] in an extra replay round);
    run the jobs of buckets [sh] homes through {!run_burst}; park the
    jobs of its migrating buckets; and empty each bucket it migrates
    away this round into a Handoff carrying that bucket's parked jobs.
    Touches only the stores of buckets [sh] homes. *)
val run_round :
  config -> Directory.t -> shard -> round:int -> migration list -> Traffic.job array -> round_report

(** Install a received handoff: replace [bucket]'s store with [entries]
    and queue the [(set, burst)] jobs in [parked] for replay after any
    already queued. *)
val install :
  shard -> bucket:int -> Dcs_wire.Shard_msg.handoff_entry list -> (int * int) list -> unit

(** Check a migration schedule against [cfg] without running it: raises
    [Invalid_argument] on out-of-range ids, a bucket migrated twice in
    one round, or a migration to the bucket's current home under the
    ownership map the earlier entries produce. *)
val validate_migrations : config -> migration list -> unit

(** Execute the whole plan. [jobs] caps the worker domains per round
    (default {!Dcs_netkit.Parallel.default_jobs}); results do not depend
    on it. Raises [Failure] if a burst fails to drain or loses grants,
    or [Invalid_argument] for malformed configs/migrations (see
    {!validate_migrations}). *)
val run : ?jobs:int -> ?migrations:migration list -> config -> result
