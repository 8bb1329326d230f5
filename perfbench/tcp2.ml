(* tcp2: two Runner nodes inside this process, connected over loopback
   by one outbound TCP connection each. One generator thread keeps a
   single request outstanding on one lock (closed loop), alternating the
   requesting node, 30% W and 70% R, so most grants move the token or a
   copy across the socket. A run is several sessions, each set up from
   fresh sockets, so set-up time has several samples. A request not
   granted within [deadline_s] counts as failed and ends its session. *)

module Runner = Dcs_netkit.Runner
module Mode = Dcs_modes.Mode

let sessions = 30
let window = 1000

(* Latency samples of the untraced sessions, kept outside the OCaml heap
   so that holding them does not show in [heap_peak_mb]. *)
type samples = {
  mutable buf : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
}

let samples () = { buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 65536; len = 0 }

let push s v =
  let cap = Bigarray.Array1.dim s.buf in
  if s.len = cap then begin
    let bigger = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (2 * cap) in
    Bigarray.Array1.blit s.buf (Bigarray.Array1.sub bigger 0 cap);
    s.buf <- bigger
  end;
  s.buf.{s.len} <- v;
  s.len <- s.len + 1

let deadline_s = 2.0
let write_share = 0.3

let free_ports n =
  let socks =
    List.init n (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map (fun s -> match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0) socks
  in
  List.iter Unix.close socks;
  ports

(* Wait for one grant signal on [fd]; false once [timeout] seconds pass. *)
let await_signal fd ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Bytes.create 1 in
  let rec wait () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> wait ()
      | _ -> Unix.read fd buf 0 1 = 1
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

type session = {
  setup_ns : int;
  ops : int;
  failed : int;
  loop_ns : int;
  cpu_s : float;
  windows_ns : float array;  (** wall time of each full window of [window] ops *)
  release_ns : int;  (** traced sessions only *)
  msgs : int;
  frames : int;
  bytes : int;
  batches : int;
  partial_requeues : int;
  reconnects : int;
  decode_errors : int;
  dropped_frames : int;
  minor_words : float;
  major_collections : int;
  minor_collections : int;
}

let session ~rng ~latencies ~traced ~budget_ns =
  let t0 = Helpers.now_ns () in
  let config =
    match free_ports 2 with
    | [ p0; p1 ] ->
        Result.get_ok
          (Dcs_netkit.Cluster_config.parse ~locks:1
             (Printf.sprintf "0:127.0.0.1:%d,1:127.0.0.1:%d" p0 p1))
    | _ -> assert false
  in
  let runners = Array.init 2 (fun self -> Runner.create ~config ~self ()) in
  Array.iter Runner.start runners;
  Array.iter
    (fun r -> match Runner.await_peers r with Ok () -> () | Error e -> failwith e)
    runners;
  let rfd, wfd = Unix.pipe () in
  let signal () = ignore (Unix.single_write_substring wfd "g" 0 1) in
  let release_ns = ref 0 in
  (* One op; its grant latency in ns, or -1 when the deadline passed. *)
  let op node mode =
    let start = Helpers.now_ns () in
    let seq = Runner.request runners.(node) ~lock:0 ~mode ~on_granted:signal in
    if not (await_signal rfd ~timeout:deadline_s) then -1
    else begin
      let granted = Helpers.now_ns () in
      if traced then begin
        Runner.release runners.(node) ~lock:0 ~seq;
        release_ns := !release_ns + (Helpers.now_ns () - granted)
      end
      else Runner.release runners.(node) ~lock:0 ~seq;
      granted - start
    end
  in
  (* Connect both writers before the clock for ops starts. *)
  let warm = op 0 Mode.R >= 0 && op 1 Mode.R >= 0 in
  let setup_ns = Helpers.now_ns () - t0 in
  let total f = f runners.(0) + f runners.(1) in
  let stat f = total (fun r -> f (Runner.stats r)) in
  let msgs0 = total (fun r -> Dcs_proto.Counters.total (Runner.counters r)) in
  let frames0 = stat (fun s -> s.Runner.frames_sent) and bytes0 = stat (fun s -> s.Runner.bytes_sent) in
  let batches0 = stat (fun s -> s.Runner.batches) in
  let requeues0 = stat (fun s -> s.Runner.partial_requeues) in
  let reconnects0 = stat (fun s -> s.Runner.reconnects) in
  let windows = ref [] and window_start = ref 0 in
  let ops = ref 0 and failed = ref (if warm then 0 else 1) in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Unix.times () in
  let loop_start = Helpers.now_ns () in
  window_start := loop_start;
  let deadline = loop_start + budget_ns in
  while !failed = 0 && Helpers.now_ns () < deadline do
    let mode = if Dcs_sim.Rng.float rng < write_share then Mode.W else Mode.R in
    let lat = op (!ops land 1) mode in
    if lat < 0 then incr failed
    else begin
      if not traced then push latencies (float_of_int lat /. 1000.0);
      incr ops;
      if !ops mod window = 0 then begin
        let now = Helpers.now_ns () in
        windows := float_of_int (now - !window_start) :: !windows;
        window_start := now
      end
    end
  done;
  let loop_ns = Helpers.now_ns () - loop_start in
  let cpu1 = Unix.times () in
  let gc1 = Gc.quick_stat () in
  (* Let the last releases leave before stopping, so nothing is dropped. *)
  let quiet_by = Unix.gettimeofday () +. 1.0 in
  while stat (fun s -> s.Runner.queued_frames) > 0 && Unix.gettimeofday () < quiet_by do
    Thread.delay 0.001
  done;
  let msgs = total (fun r -> Dcs_proto.Counters.total (Runner.counters r)) - msgs0 in
  let frames = stat (fun s -> s.Runner.frames_sent) - frames0 in
  let bytes = stat (fun s -> s.Runner.bytes_sent) - bytes0 in
  let batches = stat (fun s -> s.Runner.batches) - batches0 in
  let partial_requeues = stat (fun s -> s.Runner.partial_requeues) - requeues0 in
  let reconnects = stat (fun s -> s.Runner.reconnects) - reconnects0 in
  Array.iter Runner.stop runners;
  Thread.delay 0.01;
  let decode_errors = stat (fun s -> s.Runner.decode_errors) in
  let dropped_frames = stat (fun s -> s.Runner.dropped_frames) in
  Unix.close rfd;
  Unix.close wfd;
  let cpu t = t.Unix.tms_utime +. t.Unix.tms_stime in
  {
    setup_ns;
    ops = !ops;
    failed = !failed;
    loop_ns;
    cpu_s = cpu cpu1 -. cpu cpu0;
    windows_ns = Array.of_list (List.rev !windows);
    release_ns = !release_ns;
    msgs;
    frames;
    bytes;
    batches;
    partial_requeues;
    reconnects;
    decode_errors;
    dropped_frames;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
  }

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* Ops per second over the median window of [window] ops; sessions too
   short for one window fall back to their whole loops. *)
let ops_per_s sessions =
  match Array.concat (List.map (fun s -> s.windows_ns) sessions) with
  | [||] ->
      float_of_int (Helpers.sum_by (fun s -> s.ops) sessions)
      *. 1e9
      /. float_of_int (max 1 (Helpers.sum_by (fun s -> s.loop_ns) sessions))
  | w -> float_of_int window *. 1e9 /. Helpers.median w

let run ~seed ~seconds ~trace =
  let rng = Dcs_sim.Rng.create ~seed:(Int64.of_int seed) in
  let latencies = samples () in
  let budget_ns = int_of_float (seconds *. 1e9) / sessions in
  let offsets = ref [] in
  let all =
    List.init sessions (fun i ->
        let traced = trace && i >= sessions / 2 in
        let first = latencies.len in
        let s = session ~rng ~latencies ~traced ~budget_ns in
        if not traced then offsets := (first, s.ops) :: !offsets;
        (traced, s))
  in
  let heap_peak_mb = Helpers.heap_peak_mb () in
  let plain = List.filter_map (fun (t, s) -> if t then None else Some s) all in
  let traced = List.filter_map (fun (t, s) -> if t then Some s else None) all in
  let all = List.map snd all in
  let failures =
    List.concat_map
      (fun s ->
        (if s.decode_errors > 0 then [ Printf.sprintf "%d decode errors" s.decode_errors ] else [])
        @ (if s.dropped_frames > 0 then [ Printf.sprintf "%d dropped frames" s.dropped_frames ] else [])
        @
        if s.failed > 0 then [ Printf.sprintf "a request was not granted within %.0f s" deadline_s ]
        else [])
      all
  in
  (* Latency percentiles are taken within each window of [window] ops and
     reported as their median over windows: a burst of host noise then
     spoils the windows it falls in rather than the run's tail. *)
  let windows =
    List.concat_map
      (fun (first, ops) ->
        List.init (ops / window) (fun w ->
            Array.init window (fun i -> latencies.buf.{first + (w * window) + i})))
      !offsets
  in
  let windows =
    if windows = [] then [ Array.init latencies.len (fun i -> latencies.buf.{i}) ] else windows
  in
  let windowed q =
    let ps = List.map (Helpers.percentile ~q) windows in
    (Helpers.median_by (fun (p : Helpers.percentile) -> p.value) ps, List.hd ps)
  in
  let p50, _ = windowed 0.5 and p99, p99_window = windowed 0.99 in
  let ops = float_of_int (Helpers.sum_by (fun s -> s.ops) plain) in
  let per_op f = Helpers.ratio (float_of_int (Helpers.sum_by f plain)) ops in
  let e2e =
    [
      ("ops_per_s", ops_per_s plain);
      ("op_latency_p50_us", p50);
      ("op_latency_p99_us", p99);
      ("msgs_per_op", per_op (fun s -> s.msgs));
      ("setup_s", Helpers.median_by (fun s -> float_of_int s.setup_ns) all /. 1e9);
      ("heap_peak_mb", heap_peak_mb);
    ]
  in
  let layers () =
    [
      ( "runner.release_ns_per_call",
        Helpers.ratio (float_of_int (Helpers.sum_by (fun s -> s.release_ns) traced))
          (float_of_int (Helpers.sum_by (fun s -> s.ops) traced)) );
      ("runner.frames_per_op", per_op (fun s -> s.frames));
      ("runner.bytes_per_op", per_op (fun s -> s.bytes));
      ( "runner.frames_per_batch",
        Helpers.ratio
          (float_of_int (Helpers.sum_by (fun s -> s.frames) plain))
          (float_of_int (Helpers.sum_by (fun s -> s.batches) plain)) );
      ("runner.cpu_us_per_op", Helpers.ratio (sumf (fun s -> s.cpu_s) plain *. 1e6) ops);
      ( "runner.cpu_busy_ratio",
        sumf (fun s -> s.cpu_s) plain /. (float_of_int (Helpers.sum_by (fun s -> s.loop_ns) plain) /. 1e9) );
      ("runner.partial_requeues", float_of_int (Helpers.sum_by (fun s -> s.partial_requeues) all));
      ("runner.reconnects", float_of_int (Helpers.sum_by (fun s -> s.reconnects) all));
      ("runner.decode_errors", float_of_int (Helpers.sum_by (fun s -> s.decode_errors) all));
      ("runner.dropped_frames", float_of_int (Helpers.sum_by (fun s -> s.dropped_frames) all));
      ("trace.overhead_ratio", (ops_per_s plain /. ops_per_s traced) -. 1.0);
    ]
    @ Helpers.gc_metrics ~ops ~minor_words:(sumf (fun s -> s.minor_words) plain)
        ~major:(Helpers.sum_by (fun s -> s.major_collections) plain)
        ~minor:(Helpers.sum_by (fun s -> s.minor_collections) plain)
  in
  let attempted = Helpers.sum_by (fun s -> s.ops + s.failed) all in
  {
    Helpers.attempted;
    failed = Helpers.sum_by (fun s -> s.failed) all;
    failures;
    metrics = (if trace then layers () else e2e);
    info =
      [
        ("op_latency_windows", float_of_int (List.length windows), "count");
        ("op_latency_samples_per_window", float_of_int p99_window.samples, "count");
        ("op_latency_high_percentile", p99_window.q *. 100.0, "%");
        ("sessions", float_of_int sessions, "count");
      ];
  }
