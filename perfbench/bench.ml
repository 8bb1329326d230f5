(* The repository benchmark.

     bench.exe --workload airline64|shard2|tcp2 --seed N --seconds S --trace 0|1

   With --trace 0 it reports the end-to-end metrics; with --trace 1 it
   runs the workload untraced and then traced, and reports the per-layer
   metrics (a layer the workload does not cross reads 0). Human-readable
   lines come first; the last line of standard output is one JSON
   object. The exit code is 0 whenever a result was printed, also when a
   correctness check failed: the JSON says so. *)

let workloads =
  [ ("airline64", Airline64.run); ("shard2", Shard2.run); ("tcp2", Tcp2.run) ]

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0.0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  airline64, shard2 or tcp2");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let catalog = if !trace = 1 then Helpers.per_layer else Helpers.end_to_end in
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d\nhost: %s\n%!" !workload !seed !seconds
    !trace (Helpers.fingerprint ());
  let o = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  let value name =
    match List.assoc_opt name o.Helpers.metrics with
    | Some v when Float.is_finite v -> v
    | Some _ -> failwith ("metric is not finite: " ^ name)
    | None when !trace = 1 -> 0.0
    | None -> failwith ("workload did not report " ^ name)
  in
  List.iter (fun (name, unit) -> Printf.printf "  %-36s %16.4f %s\n" name (value name) unit) catalog;
  Printf.printf "  %-36s %16.4f ratio\n" "failed_op_ratio"
    (float_of_int o.Helpers.failed /. float_of_int (max 1 o.Helpers.attempted));
  List.iter (fun (name, v, unit) -> Printf.printf "  %-36s %16.4f %s\n" name v unit) o.Helpers.info;
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) o.Helpers.failures;
  let correct = o.Helpers.failures = [] && o.Helpers.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 o.Helpers.attempted) o.Helpers.failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name (value name) unit)
          catalog))
