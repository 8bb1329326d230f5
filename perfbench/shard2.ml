(* shard2: the sharded lock-namespace service, 2 shards over 16 buckets
   executed by [Router.run ~jobs:2], with a seeded schedule that moves a
   few buckets between the shards mid-run. A run repeats one seeded plan
   until its time is up; every repetition must give the same digest and
   counts, and a sequential replay of the plan through [Router.run_burst]
   must reach the same namespace digest. The traced replay times each
   burst and, beside it, the codec and cell calls a burst makes. *)

module Router = Dcs_shard.Router
module Cell = Dcs_shard.Cell
module Traffic = Dcs_shard.Traffic
module Directory = Dcs_shard.Directory
module Codec = Dcs_wire.Codec

let jobs = 2

let config seed =
  {
    Router.shards = 2;
    buckets = 16;
    lock_sets = 4096;
    nodes = 16;
    rounds = 16;
    jobs_per_round = 64;
    ops_per_burst = 4;
    skew = 0.9;
    seed;
    latency = Dcs_sim.Dist.uniform_around 150.0;
  }

(* Two buckets change home at each of three round boundaries. *)
let migrations (cfg : Router.config) =
  let home = Array.init cfg.buckets (fun b -> b mod cfg.shards) in
  let rng = Dcs_sim.Rng.create ~seed:(Int64.add cfg.seed 0x5A5AL) in
  List.concat_map
    (fun round ->
      let b1 = Dcs_sim.Rng.int rng ~bound:cfg.buckets in
      let b2 = (b1 + 1 + Dcs_sim.Rng.int rng ~bound:(cfg.buckets - 1)) mod cfg.buckets in
      List.map
        (fun bucket ->
          let dst = (home.(bucket) + 1) mod cfg.shards in
          home.(bucket) <- dst;
          { Router.round; bucket; dst })
        [ b1; b2 ])
    [ cfg.rounds / 4; cfg.rounds / 2; 3 * cfg.rounds / 4 ]

type replay = {
  digest : int64;
  grants : int;
  msgs : int;
  wall_ns : int;
  burst_ns : float array;  (** wall time of each [Router.run_burst] call *)
  slowest_shard_ns : int;  (** Helpers.sum_by over rounds of the busiest shard's burst time *)
  busy_ns : int;
  decode_ns : int;  (** traced only, as the rest below *)
  encode_ns : int;
  reset_ns : int;
  state_bytes_per_set : float;
}

(* Execute the plan on one cell in the order Router.run gives each shard,
   routing jobs through the same directory transitions, so the per-shard
   busy time of every round is known. *)
let replay ~traced (cfg : Router.config) migrations =
  let t_start = Helpers.now_ns () in
  let plan =
    Traffic.plan ~skew:cfg.skew ~seed:cfg.seed ~lock_sets:cfg.lock_sets ~rounds:cfg.rounds
      ~jobs_per_round:cfg.jobs_per_round ()
  in
  let cell = Cell.create ~latency:cfg.latency ~nodes:cfg.nodes () in
  let spare = Cell.create ~latency:cfg.latency ~nodes:cfg.nodes () in
  let store = Hashtbl.create cfg.lock_sets in
  let dir = Directory.create ~buckets:cfg.buckets ~shards:cfg.shards in
  let burst_ns = Array.make plan.Traffic.total_bursts 0.0 in
  let n = ref 0 and grants = ref 0 and msgs = ref 0 in
  let slowest = ref 0 and busy = ref 0 and decode_ns = ref 0 and encode_ns = ref 0 and reset_ns = ref 0 in
  let timed acc f =
    let t0 = Helpers.now_ns () in
    let v = f () in
    acc := !acc + (Helpers.now_ns () - t0);
    v
  in
  let run_job (job : Traffic.job) =
    if traced then
      Option.iter
        (fun (p : Router.set_state) ->
          let snaps = timed decode_ns (fun () -> Codec.decode_cluster_state p.Router.state) in
          timed reset_ns (fun () -> Cell.reset ~restore:[| snaps |] spare ~seed:cfg.seed ~locks:1))
        (Hashtbl.find_opt store job.Traffic.set);
    let t0 = Helpers.now_ns () in
    let g, _, m = Router.run_burst cfg cell store job in
    let dt = Helpers.now_ns () - t0 in
    burst_ns.(!n) <- float_of_int dt;
    if traced then begin
      let snaps = Cell.export_lock cell ~lock:0 in
      ignore (timed encode_ns (fun () -> Codec.encode_cluster_state snaps))
    end;
    incr n;
    grants := !grants + g;
    msgs := !msgs + m;
    dt
  in
  let replays = Array.make cfg.shards [] in
  let r = ref 0 in
  while !r < cfg.rounds || Array.exists (fun l -> l <> []) replays do
    let round = !r in
    List.iter
      (fun (m : Router.migration) ->
        if m.round = round then Directory.begin_migration dir ~bucket:m.bucket ~dst:m.dst)
      migrations;
    let per_shard = Array.make cfg.shards [] and parked = Array.make cfg.buckets [] in
    let route (job : Traffic.job) =
      let bucket = Router.bucket_of_set ~buckets:cfg.buckets job.Traffic.set in
      match Directory.migrating dir ~bucket with
      | Some _ -> parked.(bucket) <- job :: parked.(bucket)
      | None ->
          let home = Directory.home dir ~bucket in
          per_shard.(home) <- job :: per_shard.(home)
    in
    let pending = Array.copy replays in
    Array.fill replays 0 cfg.shards [];
    Array.iter (List.iter route) pending;
    if round < cfg.rounds then Array.iter route plan.Traffic.rounds.(round);
    let round_max = ref 0 in
    Array.iter
      (fun jobs_rev ->
        let shard_busy = List.fold_left (fun acc job -> acc + run_job job) 0 (List.rev jobs_rev) in
        busy := !busy + shard_busy;
        round_max := max !round_max shard_busy)
      per_shard;
    slowest := !slowest + !round_max;
    List.iter
      (fun (m : Router.migration) ->
        if m.round = round then begin
          replays.(m.dst) <- replays.(m.dst) @ List.rev parked.(m.bucket);
          Directory.commit_migration dir ~bucket:m.bucket
        end)
      migrations;
    incr r
  done;
  let wall_ns = Helpers.now_ns () - t_start in
  let state_bytes =
    Hashtbl.fold (fun _ (st : Router.set_state) acc -> acc + String.length st.Router.state) store 0
  in
  {
    digest = Router.digest_of_store ~lock_sets:cfg.lock_sets (Hashtbl.find_opt store);
    grants = !grants;
    msgs = !msgs;
    wall_ns;
    burst_ns = Array.sub burst_ns 0 !n;
    slowest_shard_ns = !slowest;
    busy_ns = !busy;
    decode_ns = !decode_ns;
    encode_ns = !encode_ns;
    reset_ns = !reset_ns;
    state_bytes_per_set = Helpers.ratio (float_of_int state_bytes) (float_of_int (Hashtbl.length store));
  }

let run ~seed ~seconds ~trace =
  let cfg = config (Int64.of_int seed) in
  let migrations = migrations cfg in
  let failures = ref [] in
  let budget = int_of_float (seconds *. 1e9) in
  let setups =
    List.init 25 (fun _ ->
        let t0 = Helpers.now_ns () in
        ignore (Router.run ~jobs { cfg with Router.rounds = 0 });
        float_of_int (Helpers.now_ns () - t0))
  in
  (* Each turn of the loop runs the service three times, each timed as a
     whole plan, then replays the plan sequentially, untraced and (with --trace 1)
     traced. Interleaving them spreads every estimate over the whole run
     rather than over one stretch of the host's speed. *)
  let deadline = Helpers.now_ns () + budget in
  let gc = ref (0.0, 0, 0) in
  let service () =
    let s0 = Gc.quick_stat () in
    let t0 = Helpers.now_ns () in
    let res = Router.run ~jobs ~migrations cfg in
    let t1 = Helpers.now_ns () in
    let s1 = Gc.quick_stat () in
    let w, ma, mi = !gc in
    gc :=
      ( w +. s1.Gc.minor_words -. s0.Gc.minor_words,
        ma + s1.Gc.major_collections - s0.Gc.major_collections,
        mi + s1.Gc.minor_collections - s0.Gc.minor_collections );
    (res, t1 - t0)
  in
  (* Only what the metrics need is kept from each repetition: its wall
     time, and the element-wise fastest burst times so far. Results are
     checked as they come, and each turn starts from a collected heap, so
     the heap's peak is the workload's and not the number of repetitions
     the host's speed allowed. *)
  let first = service () in
  let res, _ = first in
  let signature (r : Router.result) =
    Printf.sprintf "digest=%Lx grants=%d msgs=%d" r.Router.digest r.Router.grants r.Router.msgs
  in
  let check_replay (rp : replay) =
    Helpers.expect_same failures "sequential replay digest vs Router.run"
      (signature res)
      (Printf.sprintf "digest=%Lx grants=%d msgs=%d" rp.digest rp.grants rp.msgs)
  in
  let fold_bursts acc (rp : replay) =
    check_replay rp;
    let bursts = match acc with None -> rp.burst_ns | Some a -> Helpers.fastest [ a; rp.burst_ns ] in
    (Some bursts, { rp with burst_ns = [||] })
  in
  let rec loop runs (plain_bursts, plain) (traced_bursts, traced) =
    Gc.full_major ();
    (* Three service runs take about as long as one replay. *)
    let runs =
      List.fold_left
        (fun runs _ ->
          let r, ns = service () in
          Helpers.expect_same failures "Router.run digest" (signature res) (signature r);
          ns :: runs)
        runs [ 1; 2; 3 ]
    in
    let plain_bursts, rp = fold_bursts plain_bursts (replay ~traced:false cfg migrations) in
    let plain = (plain_bursts, rp :: plain) in
    let traced =
      if trace then
        let traced_bursts, rp = fold_bursts traced_bursts (replay ~traced:true cfg migrations) in
        (traced_bursts, rp :: traced)
      else (traced_bursts, traced)
    in
    if Helpers.now_ns () < deadline then loop runs plain traced else (runs, plain, traced)
  in
  let runs, (plain_bursts, plain_replays), (traced_bursts, traced) =
    loop [ snd first ] (None, []) (None, [])
  in
  let rp = List.hd plain_replays in
  let plain_bursts = Option.get plain_bursts in
  let p50 = Helpers.percentile ~q:0.5 plain_bursts and p99 = Helpers.percentile ~q:0.99 plain_bursts in
  let total_runs = float_of_int (List.length runs) in
  let grants = float_of_int res.Router.grants in
  (* A two-domain plan's time has a long fast tail (the rare stretch when
     the host leaves both cores free), so the fastest repetition jumps
     from run to run; the median plan is steadier. *)
  let run_wall = Helpers.median_by float_of_int runs in
  let e2e =
    [
      ("ops_per_s", grants *. 1e9 /. run_wall);
      ("op_latency_p50_us", p50.value /. 1000.0);
      ("op_latency_p99_us", p99.value /. 1000.0);
      ("msgs_per_op", float_of_int res.Router.msgs /. grants);
      ("setup_s", Helpers.median (Array.of_list setups) /. 1e9);
      ("heap_peak_mb", Helpers.heap_peak_mb ());
    ]
  in
  let layers () =
    let bursts = float_of_int (res.Router.bursts * List.length traced) in
    let per_burst f = Helpers.ratio (float_of_int (Helpers.sum_by f traced)) bursts in
    let burst_ns = Option.value traced_bursts ~default:[||] in
    let burst_q q = (Helpers.percentile ~q burst_ns).value in
    let shard_grants =
      List.map (fun (s : Router.shard_stat) -> float_of_int s.Router.grants) res.Router.shard_stats
    in
    [
      ("router.burst_ns_p50", burst_q 0.5);
      ("router.burst_ns_p99", burst_q 0.99);
      ( "router.shard_balance",
        Helpers.ratio
          (List.fold_left Float.min infinity shard_grants)
          (List.fold_left Float.max 0.0 shard_grants) );
      ( "router.handoff_bytes_per_migration",
        Helpers.ratio (float_of_int res.Router.handoff_bytes) (float_of_int res.Router.migrations_applied) );
      ("codec.state_decode_ns_per_burst", per_burst (fun r -> r.decode_ns));
      ("codec.state_encode_ns_per_burst", per_burst (fun r -> r.encode_ns));
      ("codec.state_bytes_per_set", rp.state_bytes_per_set);
      ("cell.reset_ns_per_burst", per_burst (fun r -> r.reset_ns));
      ( "parallel.round_overhead_ns",
        (run_wall -. Helpers.median_by (fun r -> float_of_int r.slowest_shard_ns) traced)
        /. float_of_int res.Router.rounds_run );
      ( "parallel.busy_ratio",
        Helpers.median_by (fun r -> float_of_int r.busy_ns) traced /. (float_of_int jobs *. run_wall) );
      ( "trace.overhead_ratio",
        Helpers.median_by (fun r -> float_of_int r.wall_ns) traced
        /. Helpers.median_by (fun r -> float_of_int r.wall_ns) plain_replays
        -. 1.0 );
    ]
    @
    let minor_words, major, minor = !gc in
    Helpers.gc_metrics ~ops:(grants *. total_runs) ~minor_words ~major ~minor
  in
  let attempted = res.Router.bursts * cfg.Router.ops_per_burst * List.length runs in
  {
    Helpers.attempted;
    failed = attempted - (res.Router.grants * List.length runs);
    failures = List.rev !failures;
    metrics = (if trace then layers () else e2e);
    info =
      [
        ("op_latency_samples", float_of_int p99.samples, "count");
        ("op_latency_high_percentile", p99.q *. 100.0, "%");
        ("plan_repetitions", total_runs, "count");
        ("migrations_applied", float_of_int res.Router.migrations_applied, "count");
      ];
  }
