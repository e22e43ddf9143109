(* Metrics from passes: end-to-end figures from an untraced pass,
   per-layer figures from a traced pass and its spans. *)

open Workload

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b
let queries (p : pass) = List.filter (fun o -> o.o_query) (Array.to_list p.obs)
let failed o = o.o_wrong || o.o_raised || o.o_refused
let answered o = not (o.o_raised || o.o_refused)
let floats f l = Array.of_list (List.map f l)
let wall_ms o = o.o_wall_ns /. 1e6

let attempted (p : pass) = Array.length p.obs
let failures (p : pass) = List.length (List.filter failed (Array.to_list p.obs))

let latencies p = floats wall_ms (queries p)

let virtual_p50 p =
  Quantile.median (floats (fun o -> o.o_virtual_ms) (List.filter answered (queries p)))

(* The tail percentile reported as [latency_p99_ms]: p99 when the sample
   has ten values beyond it, else the highest level that has. *)
let latency_tail p = Quantile.tail (latencies p)

(* Latency is summarised by its mean, not its median: the wall time of a
   query moves between a fast and a slow phase of a shared host, and the
   median of a run jumps to whichever phase held more than half of it.
   The median is printed beside the result line for reading. *)
let end_to_end (p : pass) =
  let qs = queries p in
  let nq = List.length qs in
  let completed = List.length (List.filter answered (Array.to_list p.obs)) in
  [
    m "setup_s" "s" p.setup_s;
    m "throughput_ops_s" "1/s" (fratio (float_of_int completed) p.window_s);
    m "latency_mean_ms" "ms" (Quantile.mean (latencies p));
    m "latency_p99_ms" "ms" (snd (latency_tail p));
    m "virtual_ms_p50" "ms" (virtual_p50 p);
    m "complete_ratio" "ratio" (ratio (List.length (List.filter (fun o -> o.o_complete) qs)) nq);
    m "answer_fraction" "ratio" (Quantile.mean (floats (fun o -> o.o_fraction) qs));
    m "success_ratio" "ratio" (1.0 -. ratio (failures p) (attempted p));
    m "peak_heap_mb" "MiB" p.heap_mb;
  ]

(* -- per layer -- *)

let dur_us s = Int64.to_float (Span.duration_ns s) /. 1e3
let p50 l = if l = [] then 0.0 else Quantile.median (Array.of_list l)

let per_layer ~(untraced : pass) ~(traced : pass) ~spans ~leaves =
  let self = Span.self_times spans in
  let self_us s = Int64.to_float (Hashtbl.find self s.Span.id) /. 1e3 in
  let by_req = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace by_req s.Span.req
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_req s.Span.req)))
    spans;
  let named name l = List.filter (fun s -> String.equal s.Span.name name) l in
  let all name = named name spans in
  let one name l = match named name l with s :: _ -> Some s | [] -> None in
  let dur_of name l = match one name l with Some s -> dur_us s | None -> 0.0 in
  (* one row per traced query *)
  let rows =
    Hashtbl.fold
      (fun _ l acc ->
        match one "core.query" l with
        | None -> acc
        | Some q ->
            let fe = dur_of "oql.parse" l +. dur_of "core.expand" l +. dur_of "algebra.compile" l in
            let explain = one "optimizer.explain" l in
            let planning = match explain with Some e -> dur_us e | None -> fe in
            let plan_us = Option.map (fun e -> Float.max 0.0 (dur_us e -. fe)) explain in
            (q, plan_us, self_us q -. planning) :: acc)
      by_req []
  in
  let nq = max 1 (List.length rows) in
  let wrappers = all "wrapper.execute" in
  let calls = List.length wrappers in
  let attr k s = float_of_int (Option.value ~default:0 (List.assoc_opt k s.Span.attrs)) in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let query_time = sum (fun (q, _, _) -> dur_us q) rows in
  let wrapper_time = sum (fun (q, _, _) -> dur_us q -. self_us q) rows in
  let c = traced.counters in
  let tq = queries traced in
  let sumi f = List.fold_left (fun acc o -> acc + f o) 0 tq in
  let execs = sumi (fun o -> o.o_execs) in
  let row_errors =
    List.map
      (fun (pred, rows) ->
        Float.abs (pred -. float_of_int rows) /. Float.max 1.0 (float_of_int rows))
      leaves
  in
  let serve_pairs =
    List.filter_map
      (fun sub ->
        match one "serve.worker" (Hashtbl.find by_req sub.Span.req) with
        | Some w -> Some (dur_us sub -. dur_us w)
        | None -> None)
      (all "serve.submit")
  in
  (* the span that times what the untraced pass reports as latency *)
  let traced_latency =
    match all "serve.submit" with [] -> all "core.query" | subs -> subs
  in
  let traced_p50 = p50 (List.map dur_us traced_latency) in
  let untraced_p50 = Quantile.median (latencies untraced) *. 1e3 in
  let us = "us" and count = "count" and per_q = "count/query" in
  [
    m "oql.parse_us" us (p50 (List.map dur_us (all "oql.parse")));
    m "core.expand_us" us (p50 (List.map dur_us (all "core.expand")));
    m "algebra.compile_us" us (p50 (List.map dur_us (all "algebra.compile")));
    m "optimizer.plan_us" us (p50 (List.filter_map (fun (_, p, _) -> p) rows));
    m "optimizer.alternatives" count (fratio c.candidates (float_of_int c.optimize_calls));
    m "check.warnings_per_plan" count (ratio c.check_warnings c.optimize_calls);
    m "cost.row_error_p50" "ratio" (p50 row_errors);
    m "core.plan_cache_hit_ratio" "ratio" (ratio c.plan_hits (c.plan_hits + c.plan_misses));
    m "core.mediator_self_us" us (p50 (List.map (fun (_, _, s) -> s) rows));
    m "core.mediator_self_us_per_source" us
      (p50 (List.map (fun (_, _, s) -> s) rows) /. float_of_int traced.sources);
    m "core.alloc_words_per_query" "words"
      (Quantile.mean (floats (fun o -> o.o_alloc_words) (queries untraced)));
    m "runtime.execs_per_query" per_q (ratio execs nq);
    m "runtime.round_trips_per_query" per_q (ratio (sumi (fun o -> o.o_round_trips)) nq);
    m "runtime.tuples_shipped_per_query" per_q (ratio (sumi (fun o -> o.o_tuples)) nq);
    m "runtime.blocked_ratio" "ratio" (ratio (sumi (fun o -> o.o_blocked)) execs);
    m "runtime.batch_dedup_hits" per_q (ratio c.dedup_hits nq);
    m "wrapper.execute_us" us (p50 (List.map dur_us wrappers));
    m "wrapper.calls_per_query" per_q (ratio calls nq);
    m "wrapper.exprs_per_call" count (fratio (sum (attr "exprs") wrappers) (float_of_int calls));
    m "wrapper.rows_per_call" count (fratio (sum (attr "rows") wrappers) (float_of_int calls));
    m "wrapper.busy_share" "ratio" (fratio wrapper_time query_time);
    m "source.busy_ms_per_query" "ms" (fratio c.src_busy_ms (float_of_int nq));
    m "source.refused_ratio" "ratio" (ratio c.src_refused c.src_calls);
    m "cache.answer_hit_ratio" "ratio" (ratio c.cache_hits c.cache_lookups);
    m "cache.stale_ratio" "ratio" (ratio c.cache_stale c.cache_lookups);
    m "cache.evictions" count (float_of_int c.cache_evictions);
    m "relation.insert_us" us (p50 (List.map dur_us (all "relation.insert")));
    m "algebra.answer_oql_us" us (p50 (List.map dur_us (all "algebra.answer_oql")));
    m "serve.exec_us" us (p50 (List.map dur_us (all "serve.worker")));
    m "serve.queue_wait_us" us (p50 serve_pairs);
    m "serve.shed" count (float_of_int c.shed);
    m "serve.errors" count (float_of_int c.server_errors);
    m "obs.trace_overhead_pct" "%" (100.0 *. (fratio traced_p50 untraced_p50 -. 1.0));
  ]

(* The traced pass must reproduce the untraced one: the same answers and
   exec counts operation by operation and the same median virtual time
   (virtual time is wall time under the serve workload's scheduler, so
   there it is not compared). Returns the mismatches. *)
let transparency ~workload ~(untraced : pass) ~(traced : pass) =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let n = Array.length untraced.obs in
  if Array.length traced.obs <> n then
    add "traced pass ran %d operations, untraced %d" (Array.length traced.obs) n
  else
    Array.iteri
      (fun i u ->
        let t = traced.obs.(i) in
        if not (String.equal u.o_digest t.o_digest) then add "op %d: answers differ" i;
        if u.o_execs <> t.o_execs then add "op %d: execs %d vs %d" i u.o_execs t.o_execs)
      untraced.obs;
  if (not (String.equal workload "serve")) && virtual_p50 untraced <> virtual_p50 traced then
    add "virtual_ms_p50 %.6f vs %.6f" (virtual_p50 untraced) (virtual_p50 traced);
  List.rev !problems
