(* airline64: the paper's multi-airline workload (§4) on a 64-node
   simulated cluster, issued through Hlock_cluster the way Experiment's
   hierarchical driver issues it. A run repeats one pass of seeded
   episodes until its time is up, so every repetition of an episode must
   reproduce the same message, event and latency counts exactly. The
   traced episodes record spans around the benchmark's calls into hlock,
   around Net.send (through the cluster's [?transport]) and the delivered
   continuation it wraps, and around Engine.run. *)

module Airline = Dcs_workload.Airline
module Engine = Dcs_sim.Engine
module Rng = Dcs_sim.Rng
module Net = Dcs_runtime.Net
module Cluster = Dcs_runtime.Hlock_cluster
module Msg_class = Dcs_proto.Msg_class
module Spans = Helpers.Spans

let nodes = 64
let workload = { Airline.default_config with Airline.ops_per_node = 40 }
let latency = Dcs_sim.Dist.uniform_around 150.0
let k_engine = 0
let k_send = 1
let k_handle = 2
let k_request = 3
let k_release = 4
let k_upgrade = 5
let k_kick = 6
let k_driver = 7

let span_names =
  [| "engine"; "net.send"; "hlock.handle"; "hlock.request"; "hlock.release"; "hlock.upgrade";
     "hlock.kick"; "driver" |]

type episode = {
  expected : int;
  ops : int;
  msgs : (Msg_class.t * int) list;
  events : int;
  latencies : float array;  (** simulated ms from issue to every lock held *)
  mean_link : float;
  setup_ns : int;
  run_ns : int;  (** from the first op's scheduling until the engine drains *)
  requests : int;
  local_grants : int;  (** grants fired before [request] returned *)
  problems : string list;
}

let episode ?spans ~seed () =
  let t_setup = Helpers.now_ns () in
  let engine = Engine.create () in
  let net = Net.create ~engine ~latency ~rng:(Rng.create ~seed:(Int64.add seed 0x9E37L)) () in
  let transport =
    Option.map
      (fun s ~src ~dst ~cls ~describe deliver ->
        Spans.enter s k_send;
        Net.send net ~src ~dst ~cls ~describe (fun () -> Spans.span s k_handle deliver);
        Spans.exit s k_send)
      spans
  in
  let cluster = Cluster.create ?transport ~net ~nodes ~locks:(1 + workload.Airline.entries) () in
  let t_start = Helpers.now_ns () in
  let call kind f = match spans with None -> f () | Some s -> Spans.span s kind f in
  let as_driver f = match spans with None -> f | Some s -> fun () -> Spans.span s k_driver f in
  let schedule ~after f = Engine.schedule engine ~after (as_driver f) in
  let requests = ref 0 and local_grants = ref 0 in
  let request ~node ~lock ~mode on_granted =
    match spans with
    | None -> Cluster.request cluster ~node ~lock ~mode ~on_granted
    | Some s ->
        incr requests;
        let returned = ref false in
        Spans.enter s k_request;
        let seq =
          Cluster.request cluster ~node ~lock ~mode ~on_granted:(fun () ->
              if not !returned then incr local_grants;
              Spans.span s k_driver on_granted)
        in
        Spans.exit s k_request;
        returned := true;
        seq
  in
  let release ~node ~lock ~seq = call k_release (fun () -> Cluster.release cluster ~node ~lock ~seq) in
  let upgrade ~node ~lock ~seq on_upgraded =
    call k_upgrade (fun () ->
        Cluster.upgrade cluster ~node ~lock ~seq ~on_upgraded:(as_driver on_upgraded))
  in
  let expected = nodes * workload.Airline.ops_per_node in
  let latencies = Array.make expected 0.0 in
  let ops = ref 0 and acquisitions = ref 0 in
  let master = Rng.create ~seed in
  let kick_period = 400.0 *. Dcs_sim.Dist.mean latency in
  let rec kick_loop () =
    if !ops < expected then begin
      call k_kick (fun () -> Cluster.kick_all cluster);
      schedule ~after:kick_period kick_loop
    end
  in
  let zipf = Airline.entry_zipf workload in
  let table = 0 and entry_lock e = 1 + e in
  let start_node node =
    let rng = Rng.split master in
    let remaining = ref workload.Airline.ops_per_node in
    let rec idle_then_op () =
      if !remaining > 0 then
        schedule ~after:(Dcs_sim.Dist.sample workload.Airline.idle_time rng) start_op
    and start_op () =
      let op = Airline.sample_op ?zipf workload rng in
      let t0 = Engine.now engine in
      let acquired ~release_all =
        latencies.(!acquisitions) <- Engine.now engine -. t0;
        incr acquisitions;
        let cs = Dcs_sim.Dist.sample workload.Airline.cs_time rng in
        match op with
        | Airline.Table_op { upgrade = true; _ } ->
            schedule ~after:(cs /. 2.0) (fun () -> release_all ~upgrade_first:true ~after:(cs /. 2.0))
        | Airline.Table_op _ | Airline.Entry_op _ ->
            schedule ~after:cs (fun () -> release_all ~upgrade_first:false ~after:0.0)
      in
      let finish () =
        incr ops;
        decr remaining;
        idle_then_op ()
      in
      match op with
      | Airline.Table_op { mode; _ } ->
          let seq = ref (-1) in
          seq :=
            request ~node ~lock:table ~mode (fun () ->
                acquired ~release_all:(fun ~upgrade_first ~after ->
                    if upgrade_first then
                      upgrade ~node ~lock:table ~seq:!seq (fun () ->
                          schedule ~after (fun () ->
                              release ~node ~lock:table ~seq:!seq;
                              finish ()))
                    else begin
                      release ~node ~lock:table ~seq:!seq;
                      finish ()
                    end))
      | Airline.Entry_op { intent; entry_mode; entry } ->
          let table_seq = ref (-1) and entry_seq = ref (-1) in
          table_seq :=
            request ~node ~lock:table ~mode:intent (fun () ->
                entry_seq :=
                  request ~node ~lock:(entry_lock entry) ~mode:entry_mode (fun () ->
                      acquired ~release_all:(fun ~upgrade_first:_ ~after:_ ->
                          release ~node ~lock:(entry_lock entry) ~seq:!entry_seq;
                          release ~node ~lock:table ~seq:!table_seq;
                          finish ())))
    in
    idle_then_op ()
  in
  call k_driver (fun () ->
      schedule ~after:kick_period kick_loop;
      for node = 0 to nodes - 1 do
        start_node node
      done);
  let outcome = call k_engine (fun () -> Engine.run engine) in
  let t_end = Helpers.now_ns () in
  let problems =
    (match outcome with
    | Engine.Drained -> []
    | Engine.Horizon_reached | Engine.Event_limit -> [ "engine stopped before draining" ])
    @ (if !ops = expected then []
       else [ Printf.sprintf "%d of %d ops completed" !ops expected ])
    @ Cluster.quiescent_violations cluster
  in
  {
    expected;
    ops = !ops;
    msgs = Dcs_proto.Counters.to_list (Net.counters net);
    events = Engine.events_processed engine;
    latencies = Array.sub latencies 0 !acquisitions;
    mean_link = Net.mean_latency net;
    setup_ns = t_start - t_setup;
    run_ns = t_end - t_start;
    requests = !requests;
    local_grants = !local_grants;
    problems;
  }

(* A run is a fixed set of episodes, one per seed derived from the run's
   seed: pooling them keeps the latency percentiles and message counts
   of one run close to those of another seed, where a single episode's
   vary by tens of percent. *)
let episodes_per_pass = 32

type pass = { eps : episode list; pass_ops : int; pass_ns : int }

(* Time of a pass made of each episode's fastest repetition. *)
let fastest_pass_ns passes =
  Helpers.sum_floats
    (Helpers.fastest
       (List.map (fun p -> Array.of_list (List.map (fun e -> float_of_int e.run_ns) p.eps)) passes))

let pass ?spans seeds =
  let eps = List.map (fun seed -> episode ?spans ~seed ()) seeds in
  {
    eps;
    pass_ops = Helpers.sum_by (fun (e : episode) -> e.ops) eps;
    pass_ns = Helpers.sum_by (fun (e : episode) -> e.run_ns) eps;
  }

let latency_factor ep q =
  if ep.latencies = [||] then 0.0 else (Helpers.percentile ~q ep.latencies).value /. ep.mean_link

let class_counts ep =
  String.concat ","
    (List.map (fun (c, n) -> Printf.sprintf "%s=%d" (Msg_class.to_string c) n) ep.msgs)

(* Repeat passes for [budget_ns] (at least one), checking every episode
   against the same episode of the run's first pass. *)
let phase ?spans ~failures ~first seeds budget_ns =
  let deadline = Helpers.now_ns () + budget_ns in
  let rec loop acc =
    let p = pass ?spans seeds in
    List.iter (fun ep -> failures := List.rev_append ep.problems !failures) p.eps;
    (match !first with
    | None -> first := Some p
    | Some f ->
        List.iteri
          (fun i (a, b) ->
            let same name show =
              Helpers.expect_same failures (Printf.sprintf "%s of episode %d" name i) (show a) (show b)
            in
            same "msgs_per_op (per-class message counts)" class_counts;
            same "engine.events_per_op" (fun e -> string_of_int e.events);
            same "sim_latency_factor_p50" (fun e -> Printf.sprintf "%h" (latency_factor e 0.5));
            same "sim_latency_factor_p99" (fun e -> Printf.sprintf "%h" (latency_factor e 0.99)))
          (List.combine f.eps p.eps));
    (* Only the first pass's latencies are read; holding every pass's
       would grow the heap the episodes run in. *)
    let acc = { p with eps = List.map (fun e -> { e with latencies = [||] }) p.eps } :: acc in
    if Helpers.now_ns () < deadline then loop acc else List.rev acc
  in
  loop []

let run ~seed ~seconds ~trace =
  let seeds =
    List.init episodes_per_pass (fun salt ->
        Dcs_netkit.Parallel.cell_seed ~base:(Int64.of_int seed) ~salt)
  in
  let failures = ref [] and first = ref None in
  let budget = int_of_float (seconds *. 1e9) in
  let gc0 = Gc.quick_stat () in
  let plain = phase ~failures ~first seeds (if trace then budget / 2 else budget) in
  let gc1 = Gc.quick_stat () in
  let spans = Spans.create span_names in
  let traced = if trace then phase ~spans ~failures ~first seeds (budget / 2) else [] in
  let f = Option.get !first in
  let latencies = Array.concat (List.map (fun e -> e.latencies) f.eps) in
  let mean_link = Dcs_sim.Dist.mean latency in
  let p50 = Helpers.percentile ~q:0.5 latencies and p99 = Helpers.percentile ~q:0.99 latencies in
  let ops = float_of_int f.pass_ops in
  let all_eps = List.concat_map (fun p -> p.eps) (plain @ traced) in
  let attempted = Helpers.sum_by (fun e -> e.expected) all_eps in
  let failed = attempted - Helpers.sum_by (fun e -> e.ops) all_eps in
  let class_total cls = Helpers.sum_by (fun e -> List.assoc cls e.msgs) f.eps in
  let e2e =
    [
      ("ops_per_s", ops *. 1e9 /. fastest_pass_ns plain);
      ("op_latency_p50_us", p50.value *. 1000.0);
      ("op_latency_p99_us", p99.value *. 1000.0);
      ("msgs_per_op", float_of_int (Helpers.sum_by (fun e -> Helpers.sum_by snd e.msgs) f.eps) /. ops);
      ( "setup_s",
        Helpers.median_by
          (fun e -> float_of_int e.setup_ns)
          (List.concat_map (fun p -> p.eps) plain)
        /. 1e9 );
      ("heap_peak_mb", Helpers.heap_peak_mb ());
    ]
  in
  let traced_eps = List.concat_map (fun p -> p.eps) traced in
  let traced_events = float_of_int (Helpers.sum_by (fun e -> e.events) traced_eps) in
  let per_call kind =
    Helpers.ratio (float_of_int (Spans.self spans kind)) (float_of_int (Spans.count spans kind))
  in
  let class_per_op cls = float_of_int (class_total cls) /. ops in
  let layer_sum_ratio =
    Helpers.ratio
      (float_of_int (Spans.self_sum spans))
      (float_of_int (Helpers.sum_by (fun p -> p.pass_ns) traced))
  in
  if trace && Float.abs (layer_sum_ratio -. 1.0) > 0.10 then
    failures :=
      Printf.sprintf "layer self-times sum to %.3f of the traced wall time (limit 10%%)" layer_sum_ratio
      :: !failures;
  let layers () =
    [
      ("hlock.handle_self_ns_per_msg", per_call k_handle);
      ("hlock.request_ns_per_call", per_call k_request);
      ("hlock.release_ns_per_call", per_call k_release);
      ( "hlock.local_grant_ratio",
        Helpers.ratio (float_of_int (Helpers.sum_by (fun e -> e.local_grants) traced_eps))
          (float_of_int (Helpers.sum_by (fun e -> e.requests) traced_eps)) );
      ("net.send_ns_per_msg", per_call k_send);
      ("net.msgs_per_op.request", class_per_op Msg_class.Request);
      ("net.msgs_per_op.copy_grant", class_per_op Msg_class.Copy_grant);
      ("net.msgs_per_op.token_transfer", class_per_op Msg_class.Token_transfer);
      ("net.msgs_per_op.release", class_per_op Msg_class.Release);
      ("net.msgs_per_op.freeze", class_per_op Msg_class.Freeze);
      ("engine.events_per_op", float_of_int (Helpers.sum_by (fun e -> e.events) f.eps) /. ops);
      ("engine.self_ns_per_event", Helpers.ratio (float_of_int (Spans.self spans k_engine)) traced_events);
      ("trace.layer_sum_ratio", layer_sum_ratio);
      ("trace.overhead_ratio", (fastest_pass_ns traced /. fastest_pass_ns plain) -. 1.0);
    ]
    @ Helpers.gc_between gc0 gc1 ~ops:(float_of_int (Helpers.sum_by (fun p -> p.pass_ops) plain))
  in
  {
    Helpers.attempted;
    failed;
    failures = List.rev !failures;
    metrics = (if trace then layers () else e2e);
    info =
      [
        ("sim_latency_factor_p50", p50.value /. mean_link, "x_link");
        ("sim_latency_factor_p99", p99.value /. mean_link, "x_link");
        ("op_latency_samples", float_of_int p99.samples, "count");
        ("op_latency_high_percentile", p99.q *. 100.0, "%");
        ("passes", float_of_int (List.length plain + List.length traced), "count");
      ];
  }
