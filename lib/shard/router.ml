(* The shard router: partitions the lock-set namespace into buckets,
   homes each bucket at exactly one shard (Directory), executes the
   namespace's request bursts round by round — every shard serving its
   own buckets on its own pooled Cell, fanned over domains with
   Dcs_netkit.Parallel — and migrates buckets between shards live at
   round boundaries.

   Between bursts a lock set's whole protocol state rests as one encoded
   blob (Codec.encode_cluster_state) in its bucket's store; a burst
   decodes it, runs to quiescence, and writes the new blob back. A
   migration therefore only has to move blobs: the source's bucket store
   travels inside a real Handoff wire message (encoded and re-decoded
   through Dcs_wire.Codec, exactly the bytes a cross-process handoff
   ships), together with the jobs that arrived for the bucket while it
   was migrating — parked, carried in the handoff, and replayed in
   arrival order by the new home before any of its next-round work.

   Determinism: the plan and every burst's content derive from
   (seed, set, burst ordinal) only — never from plan position, executing
   shard or domain — and a reset Cell is observationally fresh, so the
   final per-set states, grant counts and digests are invariant under
   shard count, bucket count, worker count and migration schedule. The
   unsharded service is literally the shards = buckets = 1 case. *)

module Rng = Dcs_sim.Rng
module Dist = Dcs_sim.Dist
module Codec = Dcs_wire.Codec
module Shard_msg = Dcs_wire.Shard_msg
module Parallel = Dcs_netkit.Parallel

type config = {
  shards : int;
  buckets : int;
  lock_sets : int;
  nodes : int;
  rounds : int;
  jobs_per_round : int;
  ops_per_burst : int;
  skew : float;
  seed : int64;
  latency : Dist.t;
}

let default_config =
  {
    shards = 1;
    buckets = 8;
    lock_sets = 16;
    nodes = 8;
    rounds = 4;
    jobs_per_round = 8;
    ops_per_burst = 4;
    skew = 0.0;
    seed = 42L;
    latency = Dist.uniform_around 150.0;
  }

type migration = { round : int; bucket : int; dst : int }

type shard_stat = { shard : int; bursts : int; grants : int; msgs : int; buckets_owned : int }

type result = {
  digest : int64;
  bucket_digests : (int * int64) list;
  bursts : int;
  grants : int;
  upgrades : int;
  msgs : int;
  shard_stats : shard_stat list;
  migrations_applied : int;
  parked_replayed : int;
  handoff_bytes : int;
  rounds_run : int;
}

(* At-rest record for one lock set: encoded cluster state plus the
   accounting that travels with it in a handoff. *)
type set_state = {
  mutable state : string;
  mutable s_bursts : int;
  mutable s_grants : int;
  mutable s_msgs : int;
}

let bucket_of_set = Directory.bucket_of_set

(* {1 Digests} *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let mix h x = Int64.mul (Int64.logxor h x) fnv_prime
let mix_int h i = mix h (Int64.of_int i)
let mix_string h s = String.fold_left (fun h c -> mix_int h (Char.code c)) h s

let mix_set h set (st : set_state) =
  let h = mix_int h set in
  let h = mix_int h st.s_bursts in
  let h = mix_int h st.s_grants in
  let h = mix_int h st.s_msgs in
  mix_string h st.state

let digest_of_store ~lock_sets find =
  let digest = ref fnv_offset in
  for set = 0 to lock_sets - 1 do
    match find set with None -> () | Some st -> digest := mix_set !digest set st
  done;
  !digest

(* {1 Handoff conversions}

   A set's at-rest record and its wire form are interconvertible with no
   information to spare: the wire entry carries (set, bursts, grants,
   msgs, state) and the at-rest record keeps exactly those, so state that
   leaves through one and returns through the other is bit-identical. *)

let set_state_of_entry (e : Shard_msg.handoff_entry) =
  {
    state = Codec.encode_cluster_state e.Shard_msg.state;
    s_bursts = e.Shard_msg.bursts;
    s_grants = e.Shard_msg.grants;
    s_msgs = e.Shard_msg.msgs;
  }

let entry_of_set_state ~set (st : set_state) =
  {
    Shard_msg.set;
    bursts = st.s_bursts;
    grants = st.s_grants;
    msgs = st.s_msgs;
    state = Codec.decode_cluster_state st.state;
  }

(* A bucket store's sets in ascending set order — the handoff send
   order and the per-bucket digest's fold order. *)
let sorted_sets tbl =
  let sets = Hashtbl.fold (fun set st acc -> (set, st) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare a b) sets

let entries_of_store tbl = List.map (fun (set, st) -> entry_of_set_state ~set st) (sorted_sets tbl)

(* {1 One burst}

   A pure function of (config.seed, job, prior state): reset the cell to
   the burst's seed and restored state, schedule the burst's ops, run to
   quiescence, export. [Cell.drain] returning [Ok] proves every request
   was granted — a burst cannot silently lose grants. *)

let run_burst cfg cell tbl (job : Traffic.job) =
  let prior = Hashtbl.find_opt tbl job.Traffic.set in
  (match prior with
  | Some p when p.s_bursts <> job.Traffic.burst ->
      failwith
        (Printf.sprintf "Router: set %d expected burst %d, got %d (ordering violated)"
           job.Traffic.set p.s_bursts job.Traffic.burst)
  | None when job.Traffic.burst <> 0 ->
      failwith
        (Printf.sprintf "Router: set %d first burst has ordinal %d (handoff lost state?)"
           job.Traffic.set job.Traffic.burst)
  | _ -> ());
  let restore = Option.map (fun p -> [| Codec.decode_cluster_state p.state |]) prior in
  let burst_seed = Parallel.cell_seed ~base:cfg.seed ~salt:(Traffic.salt_of_job job) in
  Cell.reset ?restore cell ~seed:(Int64.add burst_seed 0x9E37L) ~locks:1;
  let ops = Traffic.burst_ops ~seed:burst_seed ~nodes:cfg.nodes ~ops:cfg.ops_per_burst in
  let upgrades = ref 0 in
  List.iter
    (fun (op : Traffic.op) ->
      Cell.schedule cell ~after:op.at (fun () ->
          let seq = ref (-1) in
          seq :=
            Cell.request ~priority:op.priority cell ~node:op.node ~lock:0 ~mode:op.mode
              ~on_granted:(fun () ->
                if op.upgrade then
                  Cell.schedule cell ~after:(op.hold /. 2.0) (fun () ->
                      Cell.upgrade cell ~node:op.node ~lock:0 ~seq:!seq ~on_upgraded:(fun () ->
                          incr upgrades;
                          Cell.schedule cell ~after:(op.hold /. 2.0) (fun () ->
                              Cell.release cell ~node:op.node ~lock:0 ~seq:!seq)))
                else
                  Cell.schedule cell ~after:op.hold (fun () ->
                      Cell.release cell ~node:op.node ~lock:0 ~seq:!seq))))
    ops;
  (match Cell.drain cell with
  | Ok () -> ()
  | Error `Undrained ->
      failwith (Printf.sprintf "Router: burst (%d, %d) did not drain" job.Traffic.set job.Traffic.burst)
  | Error (`Stuck n) ->
      failwith
        (Printf.sprintf "Router: burst (%d, %d) lost %d grants" job.Traffic.set job.Traffic.burst n));
  let bytes = Codec.encode_cluster_state (Cell.export_lock cell ~lock:0) in
  let burst_msgs = Dcs_proto.Counters.total (Cell.message_counters cell) in
  let burst_grants = List.length ops in
  (match prior with
  | Some p ->
      p.state <- bytes;
      p.s_bursts <- p.s_bursts + 1;
      p.s_grants <- p.s_grants + burst_grants;
      p.s_msgs <- p.s_msgs + burst_msgs
  | None ->
      Hashtbl.replace tbl job.Traffic.set
        { state = bytes; s_bursts = 1; s_grants = burst_grants; s_msgs = burst_msgs });
  (burst_grants, !upgrades, burst_msgs)

(* {1 Migration schedules} *)

let validate_migrations cfg migrations =
  List.iter
    (fun m ->
      if m.round < 0 || m.round >= cfg.rounds then
        invalid_arg (Printf.sprintf "Router.run: migration round %d out of range" m.round);
      if m.bucket < 0 || m.bucket >= cfg.buckets then
        invalid_arg (Printf.sprintf "Router.run: migration bucket %d out of range" m.bucket);
      if m.dst < 0 || m.dst >= cfg.shards then
        invalid_arg (Printf.sprintf "Router.run: migration dst %d out of range" m.dst))
    migrations;
  (* Replay the schedule against the ownership map it produces: a bucket
     migrated to its current home, or twice in one round, would otherwise
     only surface as a [Directory.begin_migration] failure deep inside the
     round loop — and, cross-process, inside every worker at once. *)
  let home = Array.init cfg.buckets (fun b -> b mod cfg.shards) in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen (m.round, m.bucket) then
        invalid_arg
          (Printf.sprintf "Router.run: bucket %d migrated twice in round %d" m.bucket m.round);
      Hashtbl.add seen (m.round, m.bucket) ();
      if home.(m.bucket) = m.dst then
        invalid_arg
          (Printf.sprintf "Router.run: round %d migrates bucket %d to shard %d, its current home"
             m.round m.bucket m.dst);
      home.(m.bucket) <- m.dst)
    (List.stable_sort (fun a b -> compare a.round b.round) migrations)

(* {1 One shard's round}

   The per-round policy both drivers share — the in-process [run] below
   and the cross-process worker in dcs-shard-node: route replays, then
   the plan; serve the buckets this shard homes; park the jobs of its
   migrating buckets; and empty each bucket it migrates away into a
   Handoff carrying those parked jobs. *)

type shard = {
  id : int;
  cell : Cell.t;
  stores : (int, set_state) Hashtbl.t array;
  mutable replays : Traffic.job list;
}

type round_report = {
  bursts : int;
  grants : int;
  upgrades : int;
  msgs : int;
  handoffs : Shard_msg.t list;
}

(* Route and run: handoff replays first (they are older), then this
   round's plan, in issue order; jobs for other shards' buckets are not
   ours. Returns the round's counts and, per bucket, the jobs parked
   because the bucket is migrating, newest first. *)
let serve cfg dir sh plan_jobs =
  let mine = ref [] in
  let parked = Array.make cfg.buckets [] in
  let route (job : Traffic.job) =
    let bucket = bucket_of_set ~buckets:cfg.buckets job.Traffic.set in
    if Directory.home dir ~bucket = sh.id then
      match Directory.migrating dir ~bucket with
      | Some _ -> parked.(bucket) <- job :: parked.(bucket)
      | None -> mine := job :: !mine
  in
  let pending = sh.replays in
  sh.replays <- [];
  List.iter route pending;
  Array.iter route plan_jobs;
  let bursts, grants, upgrades, msgs =
    List.fold_left
      (fun (b, g, u, m) job ->
        let bucket = bucket_of_set ~buckets:cfg.buckets job.Traffic.set in
        let grants, upgrades, msgs = run_burst cfg sh.cell sh.stores.(bucket) job in
        (b + 1, g + grants, u + upgrades, m + msgs))
      (0, 0, 0, 0) (List.rev !mine)
  in
  ({ bursts; grants; upgrades; msgs; handoffs = [] }, parked)

(* Empty [bucket]'s store into a Handoff that carries its parked jobs. *)
let handoff dir sh ~bucket parked =
  let entries = entries_of_store sh.stores.(bucket) in
  Hashtbl.reset sh.stores.(bucket);
  let job_id (j : Traffic.job) = (j.Traffic.set, j.Traffic.burst) in
  Shard_msg.Handoff
    {
      bucket;
      version = Directory.version dir ~bucket + 1;
      entries;
      parked = List.rev_map job_id parked.(bucket);
    }

let run_round cfg dir sh ~round migrations plan_jobs =
  let report, parked = serve cfg dir sh plan_jobs in
  let handoffs =
    List.filter_map
      (fun m ->
        if m.round = round && Directory.home dir ~bucket:m.bucket = sh.id then
          Some (handoff dir sh ~bucket:m.bucket parked)
        else None)
      migrations
  in
  { report with handoffs }

let install sh ~bucket entries parked =
  let store = sh.stores.(bucket) in
  Hashtbl.reset store;
  List.iter
    (fun (e : Shard_msg.handoff_entry) ->
      Hashtbl.replace store e.Shard_msg.set (set_state_of_entry e))
    entries;
  sh.replays <- sh.replays @ List.map (fun (set, burst) -> { Traffic.set; burst }) parked

(* {1 The round loop} *)

let run ?jobs ?(migrations = []) cfg =
  if cfg.shards < 1 then invalid_arg "Router.run: need at least one shard";
  if cfg.buckets < 1 then invalid_arg "Router.run: need at least one bucket";
  if cfg.nodes < 1 then invalid_arg "Router.run: need at least one node";
  if cfg.ops_per_burst < 1 then invalid_arg "Router.run: need at least one op per burst";
  validate_migrations cfg migrations;
  let plan =
    Traffic.plan ~skew:cfg.skew ~seed:cfg.seed ~lock_sets:cfg.lock_sets ~rounds:cfg.rounds
      ~jobs_per_round:cfg.jobs_per_round ()
  in
  let dir = Directory.create ~buckets:cfg.buckets ~shards:cfg.shards in
  (* One bucket-indexed store array shared by every shard: within a round
     a shard touches only the stores of buckets it homes, so the domains
     of [Parallel.map] are disjoint, and its join is the happens-before
     barrier the handoffs and the next round read behind. *)
  let stores = Array.init cfg.buckets (fun _ -> Hashtbl.create 16) in
  let shards =
    Array.init cfg.shards (fun id ->
        { id; cell = Cell.create ~latency:cfg.latency ~nodes:cfg.nodes (); stores; replays = [] })
  in
  (* Cumulative per-shard accounting (the balance table). *)
  let sh_bursts = Array.make cfg.shards 0 in
  let sh_grants = Array.make cfg.shards 0 in
  let sh_msgs = Array.make cfg.shards 0 in
  let total_upgrades = ref 0 in
  let migrations_applied = ref 0 in
  let parked_replayed = ref 0 in
  let handoff_bytes = ref 0 in
  let rounds_run = ref 0 in
  let r = ref 0 in
  while !r < cfg.rounds || Array.exists (fun sh -> sh.replays <> []) shards do
    let round = !r in
    incr rounds_run;
    (* Migrations scheduled for this round start now: their buckets stop
       accepting work, so this round's jobs for them are parked. *)
    List.iter
      (fun m -> if m.round = round then Directory.begin_migration dir ~bucket:m.bucket ~dst:m.dst)
      migrations;
    let plan_jobs = if round < cfg.rounds then plan.Traffic.rounds.(round) else [||] in
    let served = Parallel.map ?jobs (fun sh -> serve cfg dir sh plan_jobs) shards in
    Array.iteri
      (fun s ((rep : round_report), _) ->
        sh_bursts.(s) <- sh_bursts.(s) + rep.bursts;
        sh_grants.(s) <- sh_grants.(s) + rep.grants;
        sh_msgs.(s) <- sh_msgs.(s) + rep.msgs;
        total_upgrades := !total_upgrades + rep.upgrades)
      served;
    (* Commit this round's migrations in schedule order, each handoff
       crossing the real wire codec. The sources build their handoffs
       here, after the join, rather than inside [Parallel.map]: the
       decoded entries then live on this domain's heap, not on that of a
       worker domain the round's end orphans (shard2's peak heap read
       about 20% higher the other way). *)
    List.iter
      (fun mg ->
        if mg.round = round then begin
          let src = Directory.home dir ~bucket:mg.bucket in
          let handoff = handoff dir shards.(src) ~bucket:mg.bucket (snd served.(src)) in
          let frame = Codec.encode { Codec.src; lock = 0; payload = Codec.Shard handoff } in
          handoff_bytes := !handoff_bytes + String.length frame;
          (* The receiving side sees only the bytes: everything a set's
             future behaviour depends on must round-trip through them.
             That is why upgrades are not part of the at-rest record —
             the wire entry carries (bursts, grants, msgs, state) and
             nothing else. *)
          (match (Codec.decode frame).Codec.payload with
          | Codec.Shard (Shard_msg.Handoff { bucket; entries; parked; _ }) ->
              install shards.(mg.dst) ~bucket entries parked;
              parked_replayed := !parked_replayed + List.length parked
          | _ -> failwith "Router: handoff did not decode as a Handoff");
          Directory.commit_migration dir ~bucket:mg.bucket;
          incr migrations_applied;
          match Directory.validate dir with
          | [] -> ()
          | problems -> failwith ("Router: directory invalid: " ^ String.concat "; " problems)
        end)
      migrations;
    incr r
  done;
  (* Final digests. The global digest folds sets in namespace order —
     independent of bucketing and placement; per-bucket digests fold each
     bucket's sets in set order — the balance/migration fingerprint. *)
  let bucket_digests =
    List.init cfg.buckets (fun b ->
        let fold h (set, st) = mix_set h set st in
        (b, List.fold_left fold fnv_offset (sorted_sets stores.(b))))
  in
  let digest =
    digest_of_store ~lock_sets:cfg.lock_sets (fun set ->
        Hashtbl.find_opt stores.(bucket_of_set ~buckets:cfg.buckets set) set)
  in
  let owned = Array.make cfg.shards 0 in
  for b = 0 to cfg.buckets - 1 do
    let h = Directory.home dir ~bucket:b in
    owned.(h) <- owned.(h) + 1
  done;
  {
    digest;
    bucket_digests;
    bursts = Array.fold_left ( + ) 0 sh_bursts;
    grants = Array.fold_left ( + ) 0 sh_grants;
    upgrades = !total_upgrades;
    msgs = Array.fold_left ( + ) 0 sh_msgs;
    shard_stats =
      List.init cfg.shards (fun s ->
          {
            shard = s;
            bursts = sh_bursts.(s);
            grants = sh_grants.(s);
            msgs = sh_msgs.(s);
            buckets_owned = owned.(s);
          });
    migrations_applied = !migrations_applied;
    parked_replayed = !parked_replayed;
    handoff_bytes = !handoff_bytes;
    rounds_run = !rounds_run;
  }
