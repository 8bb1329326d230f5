module Node = Dcs_hlock.Node
module Codec = Dcs_wire.Codec
module Buf = Dcs_wire.Buf
module Metrics = Dcs_obs.Metrics
module Mode = Dcs_modes.Mode

let src_log = Logs.Src.create "dcs.netkit" ~doc:"TCP cluster runner"

module Log = (val Logs.src_log src_log : Logs.LOG)

(* The outbound connection to one peer. [Broken] holds a socket whose
   write failed; only the loop closes it, because a socket another thread
   closes could still be in the loop's current select set. *)
type link = Down | Connecting of Unix.file_descr | Up of Unix.file_descr | Broken of Unix.file_descr

type peer = {
  pid : int;
  (* Encoded frames back to back (4-byte big-endian length prefix +
     envelope). Bytes before [start] belong to frames already accounted;
     the kernel has taken everything before [written]. *)
  out : Buf.writer;
  frames : (int * Codec.envelope) Queue.t;  (* size of each frame from [start] on *)
  mutable start : int;
  mutable written : int;
  mutable link : link;
  mutable connected_before : bool;
  mutable delay : float;  (* the next reconnect backoff *)
  mutable retry_at : float;
  mutable attempts : int;
}

(* A grant or upgrade callback, or the note that the event came first. *)
type slot = Waiting of (unit -> unit) | Fired

(* An accepted connection; touched only by the loop thread. *)
type inbound = { fd : Unix.file_descr; mutable data : Bytes.t; mutable len : int }

type t = {
  config : Cluster_config.t;
  self : int;
  (* The one mutex: it guards the engines, the callback tables, [due],
     the counters and every peer's link and output buffer. *)
  mutex : Mutex.t;
  mutable nodes : Node.t array;  (* one engine per lock *)
  grants : (int, slot) Hashtbl.t array;  (* per lock, seq-keyed *)
  upgrades : (int, slot) Hashtbl.t array;
  mutable due : (unit -> unit) list;  (* callbacks to run once the mutex is released *)
  counters : Dcs_proto.Counters.t;
  peers : peer array;  (* by peer id; the own slot stays empty *)
  kick_interval : float;
  telemetry : Dcs_obs.Shard.t option;
  (* Live transport metrics ({!Dcs_obs.Metrics}): the handles are looked
     up once here so hot-path updates are a single atomic op. *)
  metrics : Metrics.t;
  m_frames_sent : Metrics.counter;
  m_bytes_sent : Metrics.counter;
  m_batches : Metrics.counter;
  m_partial_requeues : Metrics.counter;
  m_connects : Metrics.counter;
  m_reconnects : Metrics.counter;
  m_connect_retries : Metrics.counter;
  m_dropped : Metrics.counter;
  m_decode_errors : Metrics.counter;
  m_frames_received : Metrics.counter;
  m_bytes_received : Metrics.counter;
  m_backoff : Metrics.gauge;
  m_queue_depth : Metrics.gauge;
  m_grants : Metrics.counter array;  (* per Mode.index *)
  m_upgrades : Metrics.counter;
  mutable running : bool;
  mutable loop : Thread.t option;
  mutable wake_w : Unix.file_descr option;  (* write end of the loop's self-pipe *)
  mutable woken : bool;  (* a wake-up byte went out since the loop last looked *)
}

let id t = t.self

let counters t = t.counters

let metrics t = t.metrics

type stats = {
  frames_sent : int;
  bytes_sent : int;
  batches : int;
  partial_requeues : int;
  connects : int;
  reconnects : int;
  connect_retries : int;
  backoff_ms : float;
  queued_frames : int;
  dropped_frames : int;
  decode_errors : int;
  frames_received : int;
  bytes_received : int;
}

let queued_frames t =
  Mutex.lock t.mutex;
  let n = Array.fold_left (fun acc p -> acc + Queue.length p.frames) 0 t.peers in
  Mutex.unlock t.mutex;
  n

let stats t =
  {
    frames_sent = Metrics.value t.m_frames_sent;
    bytes_sent = Metrics.value t.m_bytes_sent;
    batches = Metrics.value t.m_batches;
    partial_requeues = Metrics.value t.m_partial_requeues;
    connects = Metrics.value t.m_connects;
    reconnects = Metrics.value t.m_reconnects;
    connect_retries = Metrics.value t.m_connect_retries;
    backoff_ms = Metrics.gauge_value t.m_backoff;
    queued_frames = queued_frames t;
    dropped_frames = Metrics.value t.m_dropped;
    decode_errors = Metrics.value t.m_decode_errors;
    frames_received = Metrics.value t.m_frames_received;
    bytes_received = Metrics.value t.m_bytes_received;
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let addr (p : Cluster_config.peer) =
  Unix.ADDR_INET (Unix.inet_addr_of_string p.Cluster_config.host, p.Cluster_config.port)

(* The span id a wire message belongs to, if it carries one. Release and
   Freeze messages are span-less bookkeeping. *)
let span_of_msg (msg : Dcs_hlock.Msg.t) =
  match msg with
  | Request r -> Some (r.requester, r.seq)
  | Grant { req; _ } -> Some (req.requester, req.seq)
  | Token { serving; _ } -> Some (serving.requester, serving.seq)
  | Release _ | Freeze _ -> None

(* Shard accounting for one frame that fully reached the kernel:
   per-class count/bytes, plus a Sent span event for causal alignment. *)
let record_written t ~dst (env : Codec.envelope) ~payload_bytes =
  match t.telemetry with
  | None -> ()
  | Some sh -> (
      match env.Codec.payload with
      | Codec.Hlock msg -> (
          let cls = Dcs_hlock.Msg.class_of msg in
          Dcs_obs.Shard.message sh ~cls ~bytes:payload_bytes;
          match span_of_msg msg with
          | Some (requester, seq) ->
              Dcs_obs.Shard.event sh ~lock:env.Codec.lock ~node:t.self
                (Dcs_obs.Event.Span { requester; seq })
                (Dcs_obs.Event.Sent { cls; dst })
          | None -> ())
      | Codec.Naimi _ | Codec.Shard _ -> ())

(* {1 Outbound: per-peer buffers, written without blocking}

   All of this runs under [t.mutex]. *)

let wake t =
  match t.wake_w with
  | Some fd when not t.woken ->
      t.woken <- true;
      ignore (Unix.single_write_substring fd "w" 0 1)
  | _ -> ()

let send_env t ~dst env =
  if dst = t.self then Log.err (fun m -> m "dropping self-addressed frame")
  else begin
    let p = t.peers.(dst) in
    let at = Buf.length p.out in
    Buf.u32_be p.out 0;
    Codec.write_envelope p.out env;
    Buf.patch_u32_be p.out ~at (Buf.length p.out - at - 4);
    Queue.push (Buf.length p.out - at, env) p.frames
  end

(* Book every frame the kernel has now taken whole. *)
let account t p =
  while (not (Queue.is_empty p.frames)) && p.start + fst (Queue.peek p.frames) <= p.written do
    let size, env = Queue.pop p.frames in
    record_written t ~dst:p.pid env ~payload_bytes:(size - 4);
    Metrics.incr t.m_frames_sent;
    Metrics.add t.m_bytes_sent size;
    p.start <- p.start + size
  done

(* One syscall per [single_write], so a failure never hides how many
   bytes earlier calls handed over. On a failed write every byte from the
   first frame not fully written is kept: the peer discards the truncated
   copy at end of stream and gets the frame again, whole, on the next
   connection. *)
let rec write_out t p fd =
  let len = Buf.length p.out in
  match Unix.single_write fd (Buf.unsafe_bytes p.out) p.written (len - p.written) with
  | k ->
      Metrics.incr t.m_batches;
      p.written <- p.written + k;
      account t p;
      if p.written = len then begin
        Buf.reset p.out;
        p.start <- 0;
        p.written <- 0
      end
      else write_out t p fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Metrics.incr t.m_partial_requeues;
      Log.err (fun m ->
          m "link to %d: write failed (%s); keeping %d frame(s), reconnecting" p.pid
            (Unix.error_message e) (Queue.length p.frames));
      p.written <- p.start;
      p.link <- Broken fd

(* Hand every peer's pending bytes to the kernel. Whatever is left (the
   kernel's buffer is full, or the peer is not connected) waits for the
   loop, which is woken to take it on. *)
let flush t =
  let left = ref false in
  Array.iter
    (fun p ->
      if p.written < Buf.length p.out then begin
        (match p.link with Up fd -> write_out t p fd | Down | Connecting _ | Broken _ -> ());
        if p.written < Buf.length p.out then left := true
      end)
    t.peers;
  if !left then wake t

(* Run [f] under the mutex, flush what it sent, release the mutex, then
   run the callbacks it made due: they may call back into [t]. *)
let locked t f =
  Mutex.lock t.mutex;
  Fun.protect f ~finally:(fun () ->
      flush t;
      let due = List.rev t.due in
      t.due <- [];
      Mutex.unlock t.mutex;
      List.iter
        (fun cb ->
          try cb () with e -> Log.err (fun m -> m "callback raised: %s" (Printexc.to_string e)))
        due)

(* A grant or upgrade for [seq] happened: make its callback due, or note
   it for {!on_fired} when the caller has not registered one yet. *)
let fired t tbl seq =
  match Hashtbl.find_opt tbl seq with
  | Some (Waiting cb) ->
      Hashtbl.remove tbl seq;
      t.due <- cb :: t.due
  | Some Fired | None -> Hashtbl.replace tbl seq Fired

let on_fired t tbl seq cb =
  match Hashtbl.find_opt tbl seq with
  | Some Fired ->
      Hashtbl.remove tbl seq;
      t.due <- cb :: t.due
  | Some (Waiting _) | None -> Hashtbl.replace tbl seq (Waiting cb)

(* {1 Node construction} *)

let create ?(protocol = Node.default_config) ?(kick_interval = 1.0) ?telemetry ~config ~self () =
  let n = Cluster_config.size config in
  if self < 0 || self >= n then invalid_arg "Runner.create: self out of range";
  if kick_interval <= 0.0 then invalid_arg "Runner.create: kick_interval must be positive";
  let locks = config.Cluster_config.locks in
  let metrics = Metrics.create () in
  let c name = Metrics.counter metrics name and g name = Metrics.gauge metrics name in
  let peer pid =
    {
      pid;
      out = Buf.writer ();
      frames = Queue.create ();
      start = 0;
      written = 0;
      link = Down;
      connected_before = false;
      delay = 0.05;
      retry_at = 0.0;
      attempts = 0;
    }
  in
  let t =
    {
      config;
      self;
      mutex = Mutex.create ();
      nodes = [||];
      grants = Array.init locks (fun _ -> Hashtbl.create 32);
      upgrades = Array.init locks (fun _ -> Hashtbl.create 8);
      due = [];
      counters = Dcs_proto.Counters.create ();
      peers = Array.init n peer;
      kick_interval;
      telemetry;
      metrics;
      m_frames_sent = c "net.frames_sent";
      m_bytes_sent = c "net.bytes_sent";
      m_batches = c "net.batches";
      m_partial_requeues = c "net.partial_requeues";
      m_connects = c "net.connects";
      m_reconnects = c "net.reconnects";
      m_connect_retries = c "net.connect_retries";
      m_dropped = c "net.dropped_frames";
      m_decode_errors = c "net.decode_errors";
      m_frames_received = c "net.frames_received";
      m_bytes_received = c "net.bytes_received";
      m_backoff = g "net.backoff_ms";
      m_queue_depth = g "net.outbound_queue_depth";
      m_grants =
        Array.of_list (List.map (fun m -> c ("grants." ^ Mode.to_string m)) Mode.all);
      m_upgrades = c "grants.upgrades";
      running = false;
      loop = None;
      wake_w = None;
      woken = false;
    }
  in
  let nodes =
    Array.init locks (fun lock ->
        let send ~dst msg =
          Dcs_proto.Counters.incr t.counters (Dcs_hlock.Msg.class_of msg);
          send_env t ~dst { Codec.src = self; lock; payload = Codec.Hlock msg }
        in
        let on_granted (r : Dcs_hlock.Msg.request) = fired t t.grants.(lock) r.seq in
        let on_upgraded seq = fired t t.upgrades.(lock) seq in
        (* Engine lifecycle hook: grant-mix counters always (the analyzer
           cross-checks them against merged spans), full event stream to
           the shard when one is attached. *)
        let obs scope kind =
          (match kind with
          | Dcs_obs.Event.Granted_local { mode; _ } | Dcs_obs.Event.Granted_token { mode; _ } ->
              Metrics.incr t.m_grants.(Mode.index mode)
          | Dcs_obs.Event.Upgraded -> Metrics.incr t.m_upgrades
          | _ -> ());
          match t.telemetry with
          | Some sh -> Dcs_obs.Shard.event sh ~lock ~node:self scope kind
          | None -> ()
        in
        Node.create ~config:protocol ~obs ~id:self ~peers:n ~is_token:(self = 0)
          ~parent:(if self = 0 then None else Some 0)
          ~send ~on_granted ~on_upgraded ())
  in
  t.nodes <- nodes;
  t

(* {1 Inbound} *)

(* Runs under the mutex. *)
let dispatch t (env : Codec.envelope) ~bytes =
  Metrics.incr t.m_frames_received;
  Metrics.add t.m_bytes_received bytes;
  match env.Codec.payload with
  | Codec.Hlock msg ->
      (* The Received event must precede the events dispatch produces, so
         the span's merged timeline orders the arrival before its
         consequences. *)
      (match (t.telemetry, span_of_msg msg) with
      | Some sh, Some (requester, seq) ->
          Dcs_obs.Shard.event sh ~lock:env.Codec.lock ~node:t.self
            (Dcs_obs.Event.Span { requester; seq })
            (Dcs_obs.Event.Received { cls = Dcs_hlock.Msg.class_of msg; src = env.Codec.src })
      | _ -> ());
      let lock = env.Codec.lock in
      if lock < 0 || lock >= Array.length t.nodes then
        Log.err (fun m -> m "message for unknown lock %d" lock)
      else begin
        let node = t.nodes.(lock) in
        try Node.with_send_batch node (fun () -> Node.handle_msg node ~src:env.Codec.src msg)
        with e -> Log.err (fun m -> m "handler raised: %s" (Printexc.to_string e))
      end
  | Codec.Naimi _ | Codec.Shard _ -> Log.err (fun m -> m "unexpected non-hlock payload")

(* Dispatch every complete frame in [c]'s buffer from [off] on, in place,
   then keep the incomplete tail at the front of a buffer it fits in.
   [Error] on an oversized or malformed frame. *)
let rec take_frames t c off =
  let whole = c.len - off >= 4 in
  let size = if whole then Int32.to_int (Bytes.get_int32_be c.data off) land 0xffff_ffff else 0 in
  if size > Codec.max_frame then Error (Printf.sprintf "oversized frame (%d bytes)" size)
  else if whole && c.len - off - 4 >= size then
    match Codec.decode_sub c.data ~off:(off + 4) ~len:size with
    | env ->
        dispatch t env ~bytes:size;
        take_frames t c (off + 4 + size)
    | exception Buf.Malformed reason -> Error ("malformed frame: " ^ reason)
  else begin
    let cap = Bytes.length c.data in
    let data = if cap >= 4 + size then c.data else Bytes.create (max (2 * cap) (4 + size)) in
    Bytes.blit c.data off data 0 (c.len - off);
    c.data <- data;
    c.len <- c.len - off;
    Ok ()
  end

(* Read what [c] has; close it and return false at end of stream, on a
   read error or on a bad frame. *)
let receive t c =
  let open_ =
    match Unix.read c.fd c.data c.len (Bytes.length c.data - c.len) with
    | 0 -> false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
    | exception Unix.Unix_error _ -> false
    | k -> (
        c.len <- c.len + k;
        match locked t (fun () -> take_frames t c 0) with
        | Ok () -> true
        | Error reason ->
            Metrics.incr t.m_decode_errors;
            Log.err (fun m -> m "%s; closing the connection" reason);
            false)
  in
  if not open_ then close_quietly c.fd;
  open_

(* {1 The event loop} *)

(* Connect failures back off 50 ms, ×1.5 per failure, capped at 1 s. *)
let retry_later t p =
  Metrics.incr t.m_connect_retries;
  Metrics.set t.m_backoff (p.delay *. 1000.0);
  p.attempts <- p.attempts + 1;
  if p.attempts mod 50 = 0 then
    Log.warn (fun m -> m "link to %d: still unreachable after %d attempts" p.pid p.attempts);
  p.retry_at <- Unix.gettimeofday () +. p.delay;
  p.delay <- Float.min 1.0 (p.delay *. 1.5);
  p.link <- Down

let connect t p =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> retry_later t p
  | fd -> (
      match
        Unix.set_nonblock fd;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        Unix.connect fd (addr (Cluster_config.peer t.config p.pid))
      with
      | () | (exception Unix.Unix_error (Unix.EINPROGRESS, _, _)) -> p.link <- Connecting fd
      | exception _ ->
          close_quietly fd;
          retry_later t p)

(* A connecting socket turned writable: the connect finished, one way or
   the other. *)
let connected t p fd =
  match Unix.getsockopt_error fd with
  | None ->
      Metrics.incr t.m_connects;
      if p.connected_before then Metrics.incr t.m_reconnects;
      p.connected_before <- true;
      Metrics.set t.m_backoff 0.0;
      p.delay <- 0.05;
      p.attempts <- 0;
      p.link <- Up fd
  | Some _ ->
      close_quietly fd;
      retry_later t p

let kick t =
  locked t (fun () -> Array.iter (fun n -> Node.with_send_batch n (fun () -> Node.kick n)) t.nodes);
  Metrics.set t.m_queue_depth (float_of_int (queued_frames t));
  Option.iter (fun sh -> Dcs_obs.Shard.snapshot sh t.metrics) t.telemetry

(* Close every socket, booking the frames that never left as dropped. *)
let shut_down t listener wake_r conns =
  Mutex.lock t.mutex;
  Array.iter
    (fun p ->
      (match p.link with Down -> () | Connecting fd | Up fd | Broken fd -> close_quietly fd);
      let dropped = Queue.length p.frames in
      if dropped > 0 then begin
        Metrics.add t.m_dropped dropped;
        Log.err (fun m -> m "link to %d: shut down with %d frame(s) unsent" p.pid dropped)
      end)
    t.peers;
  Option.iter close_quietly t.wake_w;
  t.wake_w <- None;
  Mutex.unlock t.mutex;
  List.iter (fun c -> close_quietly c.fd) conns;
  close_quietly listener;
  close_quietly wake_r

let run_loop t listener wake_r =
  let conns = ref [] in
  let next_kick = ref (Unix.gettimeofday () +. t.kick_interval) in
  let running = ref true in
  while !running do
    (* Timers: close broken links, start due connects, and find which
       outbound sockets to watch and how long to wait. Any change after
       this point writes a new wake-up byte. *)
    Mutex.lock t.mutex;
    running := t.running;
    t.woken <- false;
    let now = Unix.gettimeofday () in
    let writes = ref [] and deadline = ref !next_kick in
    Array.iter
      (fun p ->
        (match p.link with
        | Broken fd ->
            close_quietly fd;
            p.link <- Down;
            p.retry_at <- now
        | Down | Connecting _ | Up _ -> ());
        let pending = p.written < Buf.length p.out in
        if pending && p.link = Down && p.retry_at <= now then connect t p;
        match p.link with
        | Down | Broken _ -> if pending then deadline := Float.min !deadline p.retry_at
        | Connecting fd -> writes := fd :: !writes
        | Up fd -> if pending then writes := fd :: !writes)
      t.peers;
    Mutex.unlock t.mutex;
    if !running then begin
      let reads = wake_r :: listener :: List.map (fun c -> c.fd) !conns in
      match Unix.select reads !writes [] (Float.max 0.0 (!deadline -. now)) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          if List.mem wake_r readable then ignore (Unix.read wake_r (Bytes.create 16) 0 16);
          (if List.mem listener readable then
             match Unix.accept listener with
             | fd, _ ->
                 Unix.set_nonblock fd;
                 conns := { fd; data = Bytes.create 4096; len = 0 } :: !conns
             | exception Unix.Unix_error _ -> ());
          conns := List.filter (fun c -> (not (List.mem c.fd readable)) || receive t c) !conns;
          if writable <> [] then
            locked t (fun () ->
                Array.iter
                  (fun p ->
                    match p.link with
                    | Connecting fd when List.mem fd writable -> connected t p fd
                    | Down | Connecting _ | Up _ | Broken _ -> ())
                  t.peers);
          if Unix.gettimeofday () >= !next_kick then begin
            kick t;
            next_kick := Unix.gettimeofday () +. t.kick_interval
          end
    end
  done;
  shut_down t listener wake_r !conns

let start t =
  if not t.running then begin
    (* A peer that dies between our connect and our write would otherwise
       kill the whole process with SIGPIPE; the loop turns the resulting
       EPIPE into a reconnect that resends the unsent frames. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt listener Unix.SO_REUSEADDR true;
       Unix.bind listener (addr (Cluster_config.peer t.config t.self));
       Unix.listen listener 64;
       Unix.set_nonblock listener
     with e ->
       close_quietly listener;
       raise e);
    let wake_r, wake_w = Unix.pipe () in
    Mutex.lock t.mutex;
    t.running <- true;
    t.wake_w <- Some wake_w;
    t.woken <- false;
    t.loop <- Some (Thread.create (fun () -> run_loop t listener wake_r) ());
    Mutex.unlock t.mutex
  end

(* Startup barrier: probe every peer's listen port until it accepts. A
   successful connect is closed straight away — the peer's loop just sees
   EOF — so this only proves the socket is bound, which is all the first
   request storm needs (the loop retries the real connections itself). *)
let await_peers ?(timeout = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let probe peer =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let up = try Unix.connect sock (addr peer); true with _ -> false in
    close_quietly sock;
    up
  in
  let rec wait_for pending =
    match List.filter (fun p -> not (probe p)) pending with
    | [] -> Ok ()
    | pending when Unix.gettimeofday () >= deadline ->
        Error
          (Printf.sprintf "await_peers: %s unreachable after %.1fs"
             (String.concat ", "
                (List.map (fun p -> Printf.sprintf "node %d" p.Cluster_config.id) pending))
             timeout)
    | pending ->
        Thread.delay 0.05;
        wait_for pending
  in
  wait_for (List.filter (fun p -> p.Cluster_config.id <> t.self) t.config.Cluster_config.peers)

let stop t =
  Mutex.lock t.mutex;
  let loop = if t.running then t.loop else None in
  t.running <- false;
  t.loop <- None;
  wake t;
  Mutex.unlock t.mutex;
  match loop with
  | None -> ()
  | Some th -> (
      (* A callback on the loop thread cannot wait for its own thread. *)
      if Thread.id th <> Thread.id (Thread.self ()) then Thread.join th;
      (* Closing shard lines: a final metrics snapshot, the per-class
         frame accounting, and the authoritative queued-message counters
         the analyzer cross-checks against. The creator still owns the
         shard and closes it. *)
      match t.telemetry with
      | Some sh ->
          Metrics.set t.m_queue_depth (float_of_int (queued_frames t));
          Dcs_obs.Shard.snapshot sh t.metrics;
          Dcs_obs.Shard.write_msgs sh;
          Dcs_obs.Shard.write_counters sh (Dcs_proto.Counters.to_list t.counters)
      | None -> ())

(* {1 Client API} *)

let request ?priority t ~lock ~mode ~on_granted =
  locked t (fun () ->
      let node = t.nodes.(lock) in
      let seq = Node.with_send_batch node (fun () -> Node.request ?priority node ~mode) in
      on_fired t t.grants.(lock) seq on_granted;
      seq)

let release t ~lock ~seq =
  locked t (fun () ->
      let node = t.nodes.(lock) in
      Node.with_send_batch node (fun () -> Node.release node ~seq))

let upgrade t ~lock ~seq ~on_upgraded =
  locked t (fun () ->
      let node = t.nodes.(lock) in
      Node.with_send_batch node (fun () -> Node.upgrade node ~seq);
      on_fired t t.upgrades.(lock) seq on_upgraded)

(* Blocking wrappers: a tiny one-shot latch. The callback runs on the
   loop thread or in the calling thread, never under the runner's mutex. *)
let await start =
  let m = Mutex.create () and c = Condition.create () and done_ = ref false in
  let r =
    start (fun () ->
        Mutex.lock m;
        done_ := true;
        Condition.signal c;
        Mutex.unlock m)
  in
  Mutex.lock m;
  while not !done_ do
    Condition.wait c m
  done;
  Mutex.unlock m;
  r

let request_sync ?priority t ~lock ~mode =
  await (fun k -> request ?priority t ~lock ~mode ~on_granted:k)

let upgrade_sync t ~lock ~seq = await (fun k -> upgrade t ~lock ~seq ~on_upgraded:k)
