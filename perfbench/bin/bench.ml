(* The Disco benchmark: command-line entry point.

     bench.exe --workload fanout|plan|churn|serve --seed N --seconds S
               --trace 0|1 [--trace-dir DIR]

   With --trace 0 it runs the untraced pass for S seconds and prints the
   end-to-end metrics. With --trace 1 it runs the untraced pass for S/2
   seconds, replays the same operations on a fresh federation with spans
   recorded, checks that the replay reproduced the answers, writes the
   spans to DIR and prints the per-layer metrics. The last line of
   standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload fanout|plan|churn|serve --seed N --seconds S --trace 0|1 \
     [--trace-dir DIR]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let trace_dir = ref "perfbench-traces" in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | "--trace-dir" :: v :: rest ->
        trace_dir := v;
        go rest
    | [] -> ()
    | arg :: _ ->
        Printf.eprintf "bench: unexpected argument %s\n" arg;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload Workload.names && seconds > 0.0 ->
      (!workload, seed, seconds, trace, !trace_dir)
  | _ -> usage ()

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun { Report.name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let report_failures (p : Workload.pass) =
  let shown = ref 0 in
  Array.iteri
    (fun i o ->
      if Report.failed o && !shown < 5 then (
        incr shown;
        Printf.printf "  op %d failed: %s\n" i o.Workload.o_why))
    p.Workload.obs

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755)

let () =
  let workload, seed, seconds, trace, trace_dir = parse_args () in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s\n%!"
    workload seed seconds trace Workload.nproc Sys.ocaml_version;
  let pass = Workload.pass workload ~seed in
  if not trace then (
    let p = pass ~budget:(Seconds seconds) ~tracer:None ~digests:false ~alloc:false ~resample:true in
    let metrics = Report.end_to_end p in
    let pct, _ = Report.latency_tail p in
    let lat = Quantile.sorted (Report.latencies p) in
    Printf.printf
      "queries=%d operations=%d setup_samples=%d tail=p%g (latency_p99_ms reads this \
       percentile) latency_ms p10/p25/p50/p75/p90=%s\n"
      (Array.length lat) (Report.attempted p) p.Workload.setup_samples pct
      (String.concat "/"
         (List.map (fun q -> Printf.sprintf "%.3f" (Quantile.at_sorted lat q)) [ 10.; 25.; 50.; 75.; 90. ]));
    report_failures p;
    let failed = Report.failures p in
    print_result ~correct:(failed = 0) ~attempted:(Report.attempted p) ~failed metrics)
  else
    let untraced =
      pass ~budget:(Seconds (seconds /. 2.0)) ~tracer:None ~digests:true ~alloc:true ~resample:false
    in
    let tr = Workload.tracer ~replicas:(Workload.replicas workload) in
    let traced =
      pass ~budget:(Ops (Report.attempted untraced)) ~tracer:(Some tr) ~digests:true
        ~alloc:false ~resample:false
    in
    let spans = Span.spans tr.Workload.spans in
    mkdir_p trace_dir;
    let file = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" workload seed) in
    Out_channel.with_open_text file (fun oc -> output_string oc (Span.to_json spans));
    let problems = Report.transparency ~workload ~untraced ~traced in
    List.iter (fun p -> Printf.printf "  trace transparency: %s\n" p) problems;
    report_failures untraced;
    report_failures traced;
    Printf.printf "operations=%d spans=%d written to %s\n" (Report.attempted traced)
      (List.length spans) file;
    let metrics =
      Report.per_layer ~untraced ~traced ~spans ~leaves:!(tr.Workload.leaves)
    in
    let failed = Report.failures untraced + Report.failures traced + List.length problems in
    print_result ~correct:(failed = 0)
      ~attempted:(Report.attempted untraced + Report.attempted traced)
      ~failed metrics
