(* Measurement helpers shared by the workloads. None of this touches the
   library: spans are recorded around the benchmark's own calls into it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* {1 Percentiles} *)

type percentile = { q : float; value : float; samples : int }

let percentile ~q samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Helpers.percentile: no samples";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  (* Nearest rank, then step down until at least 10 samples lie above it;
     with 10 or fewer samples nothing qualifies and the minimum is the
     best that can be said. *)
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  let idx = max 0 (min rank (n - 11)) in
  { q = float_of_int (idx + 1) /. float_of_int n; value = sorted.(idx); samples = n }

let median values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Helpers.median: no values";
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  if n land 1 = 1 then sorted.(n / 2) else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

(* Timings of repeated, identical work. Other tenants of the host only
   ever add time, and on a shared host they add a lot (a fixed CPU loop
   varies by ±30% from one half-second to the next), so the fastest
   repetition of each unit of work is the least disturbed estimate of its
   cost. [fastest reps] is the element-wise minimum over repetitions,
   truncated to the shortest. *)
let fastest = function
  | [] -> invalid_arg "Helpers.fastest: no repetitions"
  | first :: rest ->
      List.fold_left
        (fun acc r -> Array.init (min (Array.length acc) (Array.length r)) (fun i -> Float.min acc.(i) r.(i)))
        first rest

let sum_floats a = Array.fold_left ( +. ) 0.0 a
let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let median_by f xs = median (Array.of_list (List.map f xs))

(* {1 Nested spans} *)

module Spans = struct
  type t = {
    clock : unit -> int;
    names : string array;
    self : int array;
    count : int array;
    mutable depth : int;
    stack_kind : int array;
    stack_start : int array;
    stack_child : int array;
  }

  let max_depth = 256

  let create ?(clock = now_ns) names =
    let n = Array.length names in
    {
      clock;
      names;
      self = Array.make n 0;
      count = Array.make n 0;
      depth = 0;
      stack_kind = Array.make max_depth 0;
      stack_start = Array.make max_depth 0;
      stack_child = Array.make max_depth 0;
    }

  let enter t kind =
    let d = t.depth in
    t.stack_kind.(d) <- kind;
    t.stack_child.(d) <- 0;
    t.depth <- d + 1;
    t.stack_start.(d) <- t.clock ()

  let exit t kind =
    let stop = t.clock () in
    let d = t.depth - 1 in
    if d < 0 || t.stack_kind.(d) <> kind then
      invalid_arg (Printf.sprintf "Spans.exit: %s is not the innermost open span" t.names.(kind));
    t.depth <- d;
    let dur = stop - t.stack_start.(d) in
    t.self.(kind) <- t.self.(kind) + dur - t.stack_child.(d);
    t.count.(kind) <- t.count.(kind) + 1;
    if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dur

  let span t kind f =
    enter t kind;
    match f () with
    | v ->
        exit t kind;
        v
    | exception e ->
        exit t kind;
        raise e

  let self t kind = t.self.(kind)
  let count t kind = t.count.(kind)
  let self_sum t = Array.fold_left ( + ) 0 t.self
end

(* {1 Metrics} *)

let name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> name_char c || c = '/' || c = '%') s

(* The metrics the benchmark reports, with their units; BENCHMARK.json
   lists the same names. *)
let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_latency_p50_us", "us");
    ("op_latency_p99_us", "us");
    ("msgs_per_op", "msg/op");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("hlock.handle_self_ns_per_msg", "ns");
    ("hlock.request_ns_per_call", "ns");
    ("hlock.release_ns_per_call", "ns");
    ("hlock.local_grant_ratio", "ratio");
    ("net.send_ns_per_msg", "ns");
    ("net.msgs_per_op.request", "msg/op");
    ("net.msgs_per_op.copy_grant", "msg/op");
    ("net.msgs_per_op.token_transfer", "msg/op");
    ("net.msgs_per_op.release", "msg/op");
    ("net.msgs_per_op.freeze", "msg/op");
    ("engine.events_per_op", "count");
    ("engine.self_ns_per_event", "ns");
    ("router.burst_ns_p50", "ns");
    ("router.burst_ns_p99", "ns");
    ("router.shard_balance", "ratio");
    ("router.handoff_bytes_per_migration", "bytes");
    ("codec.state_decode_ns_per_burst", "ns");
    ("codec.state_encode_ns_per_burst", "ns");
    ("codec.state_bytes_per_set", "bytes");
    ("cell.reset_ns_per_burst", "ns");
    ("parallel.round_overhead_ns", "ns");
    ("parallel.busy_ratio", "ratio");
    ("runner.release_ns_per_call", "ns");
    ("runner.frames_per_op", "count");
    ("runner.bytes_per_op", "bytes");
    ("runner.frames_per_batch", "count");
    ("runner.cpu_us_per_op", "us");
    ("runner.cpu_busy_ratio", "ratio");
    ("runner.partial_requeues", "count");
    ("runner.reconnects", "count");
    ("runner.decode_errors", "count");
    ("runner.dropped_frames", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("gc.minor_collections_per_kop", "1/kop");
    ("trace.layer_sum_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

(* [ratio a b] is a / b, or 0 when nothing was measured (b = 0): the
   per-layer value of a layer the workload does not cross. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* GC work per op between two [Gc.quick_stat]s (which count every
   domain), from the differences [minor_words], [major] and [minor]. *)
let gc_metrics ~ops ~minor_words ~major ~minor =
  [
    ("gc.minor_words_per_op", ratio minor_words ops);
    ("gc.major_collections", float_of_int major);
    ("gc.minor_collections_per_kop", ratio (float_of_int minor) (ops /. 1000.0));
  ]

let gc_between (s0 : Gc.stat) (s1 : Gc.stat) ~ops =
  gc_metrics ~ops ~minor_words:(s1.Gc.minor_words -. s0.Gc.minor_words)
    ~major:(s1.Gc.major_collections - s0.Gc.major_collections)
    ~minor:(s1.Gc.minor_collections - s0.Gc.minor_collections)

(* {1 Host fingerprint} *)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.trim (String.sub line 0 i) = "model name" ->
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> scan ())
      in
      let model = scan () in
      close_in ic;
      model

let fingerprint () =
  Printf.sprintf "nproc=%d cpu=%S ocaml=%s word_size=%d"
    (Domain.recommended_domain_count ())
    (cpu_model ()) Sys.ocaml_version Sys.word_size

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* {1 Workload outcomes} *)

type outcome = {
  attempted : int;  (** ops issued *)
  failed : int;  (** ops that did not complete *)
  failures : string list;  (** failed correctness checks, each naming what differed *)
  metrics : (string * float) list;  (** end-to-end or per-layer, by run kind *)
  info : (string * float * string) list;  (** printed only: name, value, unit *)
}

(* Deterministic counts must repeat exactly: [expect_same failures name
   first now] records a failure naming the count when they differ. *)
let expect_same failures name first now =
  if first <> now then
    failures := Printf.sprintf "%s differs between repetitions (%s vs %s)" name first now :: !failures
