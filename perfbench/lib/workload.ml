(* The four workloads and the passes that measure them.

   A pass builds a federation from the seed (set-up), then issues
   operations for a wall-time budget or a fixed count. The untraced pass
   gives the end-to-end figures. The traced pass replays the same
   operations on a fresh federation with spans recorded around every
   call into a layer, and must reproduce the untraced answers exactly. *)

open Disco

let nproc = Domain.recommended_domain_count ()

type op = Query of Fed.query | Write of int * Fed.row  (** replace the row with its id *)

type budget = Seconds of float | Ops of int

(* -- tracing context -- *)

type tracer = {
  spans : Span.t;
  current : (int * int) Atomic.t array;
      (** per mediator replica: the [core.query] span running on it and
          its request, read by the wrapper decorator *)
  leaves : (float * int) list ref;  (** (predicted rows, rows) per exec leaf *)
  leaves_mutex : Mutex.t;
}

let tracer ~replicas =
  {
    spans = Span.create ();
    current = Array.init replicas (fun _ -> Atomic.make (-1, -1));
    leaves = ref [];
    leaves_mutex = Mutex.create ();
  }

(* The mediator's own (virtual-time) trace sink: keeps the cost model's
   row prediction and the observed rows of every exec leaf. *)
let sink tr (trace : Trace.trace) =
  let rec walk acc (s : Trace.span) =
    let acc =
      match s.Trace.s_exec with
      | Some { Trace.x_predicted_rows = Some p; x_rows; x_origin = Trace.Source; _ } ->
          (p, x_rows) :: acc
      | Some _ | None -> acc
    in
    List.fold_left walk acc s.Trace.s_children
  in
  let found = walk [] trace.Trace.t_root in
  Mutex.lock tr.leaves_mutex;
  tr.leaves := found @ !(tr.leaves);
  Mutex.unlock tr.leaves_mutex

(* A wrapper that times every call into [inner] as a [wrapper.execute]
   span. It keeps the inner wrapper's name and functionality and hands
   batches to the inner [execute_batch] unchanged, so planning, batching
   and pricing are those of the undecorated federation. *)
let decorate tr ~replica inner =
  let timed ~exprs call =
    let parent, req = Atomic.get tr.current.(replica) in
    let id = Span.fresh_id tr.spans in
    let start = Span.now () in
    let results = call () in
    let stop = Span.now () in
    let rows =
      List.fold_left
        (fun acc -> function Ok (_, n) -> acc + n | Error _ -> acc)
        0 results
    in
    Span.record tr.spans ~id ~parent ~req ~name:"wrapper.execute"
      ~attrs:[ ("exprs", exprs); ("rows", rows) ]
      ~start ~stop ();
    results
  in
  Wrapper.make ~name:(Wrapper.name inner) ~grammar:(Wrapper.functionality inner)
    ~execute:(fun src e ->
      List.hd (timed ~exprs:1 (fun () -> [ Wrapper.execute inner src e ])))
    ~execute_batch:(fun src es ->
      timed ~exprs:(List.length es) (fun () -> Wrapper.execute_batch inner src es))
    ()

(* Forget what set-up recorded: only measured operations count. *)
let forget_setup = function
  | None -> ()
  | Some tr ->
      Span.clear tr.spans;
      Mutex.lock tr.leaves_mutex;
      tr.leaves := [];
      Mutex.unlock tr.leaves_mutex

let build ?sched ?tracer ~replica ~seed spec =
  match tracer with
  | None -> Fed.build ?sched ~seed spec
  | Some tr ->
      Fed.build ?sched ~seed
        ~wrapper:(decorate tr ~replica (Wrapper.sql_wrapper ()))
        ~trace_sink:(sink tr) spec

(* The front end the mediator runs before planning, timed from outside:
   parse, expand, compile + locate. *)
let front_end tr ~parent ~req (fed : Fed.t) text =
  let registry = Mediator.registry fed.Fed.med in
  let ast = Span.with_span tr.spans ~parent ~req "oql.parse" (fun _ -> Oql.parse text) in
  let expanded =
    Span.with_span tr.spans ~parent ~req "core.expand" (fun _ -> Expand.expand registry ast)
  in
  Span.with_span tr.spans ~parent ~req "algebra.compile" (fun _ ->
      match Compile.compile expanded with
      | Ok e ->
          ignore
            (Compile.locate
               ~repo_of:(fun name ->
                 Option.map
                   (fun me -> me.Registry.me_repository)
                   (Registry.find_extent registry name))
               e)
      | Error _ -> ())

(* -- observations -- *)

type obs = {
  o_query : bool;  (** a query, not a source write *)
  o_wall_ns : float;
  o_virtual_ms : float;
  o_execs : int;
  o_round_trips : int;
  o_tuples : int;
  o_blocked : int;
  o_wrong : bool;  (** answered, but not the oracle's answer *)
  o_raised : bool;  (** the call raised *)
  o_refused : bool;  (** shed or failed by the server *)
  o_complete : bool;
  o_fraction : float;
  o_digest : string;  (** answer digest (traced-mode passes only) *)
  o_alloc_words : float;
  o_why : string;
}

let blank =
  {
    o_query = true;
    o_wall_ns = 0.0;
    o_virtual_ms = 0.0;
    o_execs = 0;
    o_round_trips = 0;
    o_tuples = 0;
    o_blocked = 0;
    o_wrong = false;
    o_raised = false;
    o_refused = false;
    o_complete = false;
    o_fraction = 0.0;
    o_digest = "";
    o_alloc_words = 0.0;
    o_why = "";
  }

let digest_answer = function
  | Mediator.Complete v -> Digest.to_hex (Digest.string (Marshal.to_string v []))
  | (Mediator.Partial _ | Mediator.Unavailable _) as a -> (
      match Mediator.answer_oql a with
      | s -> Digest.to_hex (Digest.string s)
      | exception _ -> "unavailable")

(* Per-pass counters read from the program after the last operation,
   as deltas over the measured operations. *)
type counters = {
  plan_hits : int;
  plan_misses : int;
  candidates : float;  (** optimizer candidates costed, summed *)
  optimize_calls : int;
  check_warnings : int;
  dedup_hits : int;
  src_busy_ms : float;
  src_calls : int;
  src_refused : int;
  cache_hits : int;
  cache_lookups : int;
  cache_stale : int;
  cache_evictions : int;
  shed : int;
  server_errors : int;
}

let zero_counters =
  {
    plan_hits = 0;
    plan_misses = 0;
    candidates = 0.0;
    optimize_calls = 0;
    check_warnings = 0;
    dedup_hits = 0;
    src_busy_ms = 0.0;
    src_calls = 0;
    src_refused = 0;
    cache_hits = 0;
    cache_lookups = 0;
    cache_stale = 0;
    cache_evictions = 0;
    shed = 0;
    server_errors = 0;
  }

(* Zero the program's own counters once set-up is done. The plan cache
   keeps its counters with its plans, so those are taken as deltas. *)
let reset_counters (fed : Fed.t) =
  Metrics.reset fed.Fed.metrics;
  Array.iter Source.reset_stats fed.Fed.sources;
  Option.iter Answer_cache.reset_stats (Mediator.answer_cache fed.Fed.med);
  Mediator.plan_cache_stats fed.Fed.med

let read_counters (fed : Fed.t) (before : Mediator.plan_cache_stats) =
  let pc = Mediator.plan_cache_stats fed.Fed.med in
  let cand = Metrics.find_histogram fed.Fed.metrics "optimizer.candidates" in
  let src = Array.map Source.stats fed.Fed.sources in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 src in
  let cache = Mediator.answer_cache_stats fed.Fed.med in
  let cache_int f = match cache with Some s -> f s | None -> 0 in
  {
    zero_counters with
    plan_hits = pc.Mediator.p_hits - before.Mediator.p_hits;
    plan_misses = pc.Mediator.p_misses - before.Mediator.p_misses;
    candidates = (match cand with Some h -> h.Metrics.h_sum | None -> 0.0);
    optimize_calls = (match cand with Some h -> h.Metrics.h_count | None -> 0);
    check_warnings = Metrics.find_counter fed.Fed.metrics "check.warnings";
    dedup_hits = Metrics.find_counter fed.Fed.metrics "runtime.batch.dedup_hits";
    src_busy_ms = Array.fold_left (fun acc s -> acc +. s.Source.busy_ms) 0.0 src;
    src_calls =
      sum (fun s -> s.Source.calls_answered + s.Source.calls_refused + s.Source.calls_timed_out);
    src_refused = sum (fun s -> s.Source.calls_refused);
    cache_hits = cache_int (fun s -> s.Answer_cache.hits);
    cache_lookups =
      cache_int (fun s -> s.Answer_cache.hits + s.Answer_cache.misses + s.Answer_cache.stale);
    cache_stale = cache_int (fun s -> s.Answer_cache.stale);
    cache_evictions = cache_int (fun s -> s.Answer_cache.evictions);
  }

let add_counters a b =
  {
    plan_hits = a.plan_hits + b.plan_hits;
    plan_misses = a.plan_misses + b.plan_misses;
    candidates = a.candidates +. b.candidates;
    optimize_calls = a.optimize_calls + b.optimize_calls;
    check_warnings = a.check_warnings + b.check_warnings;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    src_busy_ms = a.src_busy_ms +. b.src_busy_ms;
    src_calls = a.src_calls + b.src_calls;
    src_refused = a.src_refused + b.src_refused;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_lookups = a.cache_lookups + b.cache_lookups;
    cache_stale = a.cache_stale + b.cache_stale;
    cache_evictions = a.cache_evictions + b.cache_evictions;
    shed = a.shed + b.shed;
    server_errors = a.server_errors + b.server_errors;
  }

(* One pass: its set-up time, the observations, the wall window the
   operations took, and the program's counters. *)
type pass = {
  setup_s : float;  (** mean of the set-up samples *)
  setup_samples : int;
  obs : obs array;  (** in operation order *)
  window_s : float;
  counters : counters;
  sources : int;
  heap_mb : float;  (** [Gc] top heap once [heap_after] operations are done *)
}

let elapsed_s t0 = Int64.to_float (Int64.sub (Span.now ()) t0) /. 1e9

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The heap is read after a fixed number of operations, not at the end
   of the timed run, and before any set-up sample (below), so that it
   covers the same work however fast the run went: one set-up and the
   first [after] operations. *)
type heap = { after : int; mutable mb : float option }

let heap_reader ~heap_after = { after = heap_after; mb = None }
let note_heap h done_ops = if done_ops = h.after then h.mb <- Some (top_heap_mb ())
let heap_read h = Option.is_some h.mb
let heap_mb h = match h.mb with Some mb -> mb | None -> top_heap_mb ()

let timed f =
  let t0 = Span.now () in
  let x = f () in
  (x, elapsed_s t0)

(* Set-up time. The set-up of the federation a pass measures is the
   first sample. A [--trace 0] pass also builds and drops one more
   federation every [resample_every_s] seconds between operations, once
   the heap has been read, so that the samples see the CPU of the whole
   run and not of one moment at its start. Their mean is reported: on a
   host whose speed moves between a fast and a slow phase, a median
   jumps from one phase to the other while the mean moves with the
   share of time spent in each. *)
let resample_every_s = 2.0

type setups = {
  rebuild : (unit -> unit -> unit) option;
      (** sets up a federation and returns what releases it *)
  mutable times : float list;
  mutable last : int64;  (** when the last sample ended *)
}

let setups ~first rebuild = { rebuild; times = [ first ]; last = Span.now () }
let setup_s s = Quantile.mean (Array.of_list s.times)

let sample_due s heap =
  Option.is_some s.rebuild && heap_read heap && elapsed_s s.last >= resample_every_s

(* Times one set-up. Releasing it and collecting its garbage are not
   timed; the full collection keeps the operations that follow from
   paying for the set-up's heap. *)
let sample s =
  Option.iter
    (fun rebuild ->
      let release, dt = timed rebuild in
      release ();
      Gc.full_major ();
      s.times <- dt :: s.times;
      s.last <- Span.now ())
    s.rebuild

(* Source rows as the oracle reads them, re-read only when a table's
   version moves. *)
let rows_reader (fed : Fed.t) =
  let memo = Array.map (fun _ -> (-1, [])) fed.Fed.tables in
  fun i ->
    let v = Table.version fed.Fed.tables.(i) in
    match memo.(i) with
    | v', rows when v' = v -> rows
    | _ ->
        let rows = Fed.current_rows fed i in
        memo.(i) <- (v, rows);
        rows

let run_query (fed : Fed.t) text =
  match Mediator.query fed.Fed.med text with
  | o -> Ok o
  | exception (Out_of_memory as e) -> raise e
  | exception e -> Error (Printexc.to_string e)

(* -- closed-loop workloads: one client, one mediator -- *)

type closed = {
  spec : int -> Fed.spec;  (** from the seed *)
  warmup : int -> Fed.query list;  (** run once during set-up *)
  op : int -> int -> op;  (** [op seed i] *)
  step_ms : float;  (** virtual ms the clock advances before each operation *)
  heap_after : int;  (** operations after which the heap is read *)
}

let setup_closed w ~seed ~tracer =
  let fed = build ?tracer ~replica:0 ~seed (w.spec seed) in
  List.iter
    (fun (q : Fed.query) ->
      match run_query fed q.Fed.text with
      | Ok _ -> ()
      | Error e -> failwith (Printf.sprintf "warm-up query %s raised %s" q.Fed.text e))
    (w.warmup seed);
  fed

let measure_closed w (fed : Fed.t) ~seed ~budget ~tracer ~digests ~alloc ~setups =
  let before = reset_counters fed in
  let clock = Mediator.clock fed.Fed.med in
  let rows_of = rows_reader fed in
  let n = Array.length fed.Fed.sources in
  let obs = ref [] in
  let heap = heap_reader ~heap_after:w.heap_after in
  let busy_ns = ref 0L in
  let start = Span.now () in
  let continue i =
    match budget with Ops k -> i < k | Seconds s -> i = 0 || elapsed_s start < s
  in
  let op = w.op seed in
  let i = ref 0 in
  while continue !i do
    if sample_due setups heap then sample setups;
    let req = !i in
    if w.step_ms > 0.0 then Clock.advance_to clock (Clock.now clock +. w.step_ms);
    let root = match tracer with Some tr -> Span.fresh_id tr.spans | None -> -1 in
    let root_start = Span.now () in
    let o =
      match op req with
      | Write (s, row) ->
          let table = fed.Fed.tables.(s) in
          let t0 = Span.now () in
          let insert _ = Table.insert table (Fed.to_array row) in
          let result =
            try
              ignore (Table.delete_where table (fun a -> Value.equal a.(0) (Value.Int row.Fed.id)));
              Ok
                (match tracer with
                | None -> insert ()
                | Some tr -> Span.with_span tr.spans ~parent:root ~req "relation.insert" insert)
            with e -> Error e
          in
          let dt = Int64.sub (Span.now ()) t0 in
          busy_ns := Int64.add !busy_ns dt;
          {
            blank with
            o_query = false;
            o_wall_ns = Int64.to_float dt;
            o_raised = Result.is_error result;
            o_why =
              (match result with Ok () -> "" | Error e -> Printexc.to_string e);
          }
      | Query q ->
          let now = Clock.now clock in
          let down =
            List.filter (fun j -> not (Source.is_up fed.Fed.sources.(j) now)) (List.init n Fun.id)
          in
          Option.iter (fun tr -> front_end tr ~parent:root ~req fed q.Fed.text) tracer;
          let qspan = match tracer with Some tr -> Span.fresh_id tr.spans | None -> -1 in
          Option.iter (fun tr -> Atomic.set tr.current.(0) (qspan, req)) tracer;
          let a0 = if alloc then Gc.minor_words () else 0.0 in
          let t0 = Span.now () in
          let result = run_query fed q.Fed.text in
          let t1 = Span.now () in
          let a1 = if alloc then Gc.minor_words () else 0.0 in
          let dt = Int64.sub t1 t0 in
          busy_ns := Int64.add !busy_ns dt;
          (match tracer with
          | Some tr ->
              Span.record tr.spans ~id:qspan ~parent:root ~req ~name:"core.query" ~start:t0
                ~stop:t1 ();
              (match result with
              | Ok o when not o.Mediator.from_cache ->
                  ignore
                    (Span.with_span tr.spans ~parent:root ~req "optimizer.explain" (fun _ ->
                         Mediator.explain fed.Fed.med q.Fed.text))
              | Ok _ | Error _ -> ());
              (match result with
              | Ok { Mediator.answer = Mediator.Partial _ as a; _ } ->
                  ignore
                    (Span.with_span tr.spans ~parent:root ~req "algebra.answer_oql" (fun _ ->
                         Mediator.answer_oql a))
              | Ok _ | Error _ -> ())
          | None -> ());
          let base = { blank with o_wall_ns = Int64.to_float dt; o_alloc_words = a1 -. a0 } in
          (match result with
          | Error e -> { base with o_raised = true; o_why = e }
          | Ok o ->
              let v = Fed.check ~rows_of ~down q o.Mediator.answer in
              let st = o.Mediator.stats in
              {
                base with
                o_virtual_ms = st.Runtime.elapsed_ms;
                o_execs = st.Runtime.execs_issued;
                o_round_trips = st.Runtime.round_trips;
                o_tuples = st.Runtime.tuples_shipped;
                o_blocked = st.Runtime.execs_blocked;
                o_wrong = not v.Fed.ok;
                o_complete = v.Fed.complete;
                o_fraction = v.Fed.fraction;
                o_digest = (if digests then digest_answer o.Mediator.answer else "");
                o_why = v.Fed.why;
              })
    in
    Option.iter
      (fun tr ->
        Span.record tr.spans ~id:root ~parent:(-1) ~req ~name:"op" ~start:root_start
          ~stop:(Span.now ()) ())
      tracer;
    obs := o :: !obs;
    incr i;
    note_heap heap !i
  done;
  ( Array.of_list (List.rev !obs),
    Int64.to_float !busy_ns /. 1e9,
    read_counters fed before,
    heap_mb heap )

let closed_pass w ~seed ~budget ~tracer ~digests ~alloc ~resample =
  let fed, first = timed (fun () -> setup_closed w ~seed ~tracer) in
  forget_setup tracer;
  let setups =
    setups ~first
      (if resample then
         Some
           (fun () ->
             ignore (setup_closed w ~seed ~tracer:None);
             ignore)
       else None)
  in
  let obs, window_s, counters, heap_mb =
    measure_closed w fed ~seed ~budget ~tracer ~digests ~alloc ~setups
  in
  {
    setup_s = setup_s setups;
    setup_samples = List.length setups.times;
    obs;
    window_s;
    counters;
    sources = Array.length fed.Fed.sources;
    heap_mb;
  }

(* [k] distinct values of [0, n) in a seeded order. *)
let seeded_perm ~seed ~salt n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Fed.draw ~seed salt i mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A small pool of near-equal selections over the union: every text
   ships nearly every row, so which text runs hardly moves the cost. The
   pool is cycled in a seeded order, so each text runs equally often. *)
let selection_pool ~seed ~n =
  Array.init 8 (fun j -> Fed.names_above ~n (10 + (3 * j) + Fed.uniform ~seed 4000 j 0 2))

let cycled ~seed pool =
  let perm = seeded_perm ~seed ~salt:4100 (Array.length pool) in
  fun i -> pool.(perm.(i mod Array.length pool))

(* fanout: many sources, warm plan cache — the mediator's per-source
   runtime work and union assembly. Sources are kept small (16 rows) so
   that per-source work, not per-row allocation, sets a query's cost; in
   runs alternating the two sizes on a shared host, the median latency
   spread 7% at 16 rows and 17% at 62. *)
let fanout =
  let n = 64 in
  {
    spec =
      (fun seed ->
        {
          Fed.sources = n;
          rows = 16;
          latency = Fed.seeded_latency ~seed;
          schedule = (fun _ -> Schedule.always_up);
          cache = false;
        });
    warmup = (fun seed -> Array.to_list (selection_pool ~seed ~n));
    op =
      (fun seed ->
        let pick = cycled ~seed (selection_pool ~seed ~n) in
        fun i -> Query (pick i));
    step_ms = 0.0;
    heap_after = 100;
  }

(* plan: every text is new, so every query is planned. Two of three are
   two-conjunct selections over the union, one of three an equi-join of
   two extents; the last literal is the operation number, so no text
   repeats within a run. *)
let plan_op ~n ~seed i =
  let bound = 100_000 + i in
  if i mod 3 = 2 then
    let left = Fed.uniform ~seed 5000 i 0 (n - 1) in
    let right = (left + 1 + Fed.uniform ~seed 5001 i 0 (n - 2)) mod n in
    Fed.join ~left ~right ~k:(Fed.uniform ~seed 5002 i 300 480) ~bound
  else Fed.id_and_salary ~n ~k:(Fed.uniform ~seed 5003 i 400 490) ~bound

let plan =
  let n = 8 in
  {
    spec =
      (fun seed ->
        {
          Fed.sources = n;
          rows = 20;
          latency = Fed.seeded_latency ~seed;
          schedule = (fun _ -> Schedule.always_up);
          cache = false;
        });
    (* negative op numbers keep warm-up texts out of the measured ones *)
    warmup = (fun seed -> List.init 6 (fun j -> plan_op ~n ~seed (-1 - j)));
    op = (fun seed i -> Query (plan_op ~n ~seed i));
    step_ms = 0.0;
    heap_after = 600;
  }

(* churn: flaky sources, answer cache, Zipf-skewed reads of 32 window
   selections of equal width, and a write at a random source every 10th
   operation. A write replaces one of the source's rows with a new row of
   the same id, so the tables keep their size however many operations
   the run gets through. *)
let churn_n = 16
let churn_rows = 250

let churn_pool ~n =
  Array.init 32 (fun j ->
      let lo = 10 + (15 * j) in
      Fed.window ~n ~lo ~hi:(lo + 40))

let zipf_cdf ~s k =
  let w = Array.init k (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick cdf u =
  let rec go r = if r >= Array.length cdf - 1 || u <= cdf.(r) then r else go (r + 1) in
  go 0

let churn =
  let n = churn_n in
  {
    spec =
      (fun seed ->
        let flaky = Array.sub (seeded_perm ~seed ~salt:6000 n) 0 4 in
        {
          Fed.sources = n;
          rows = churn_rows;
          latency = Fed.seeded_latency ~seed;
          schedule =
            (fun i ->
              if Array.mem i flaky then
                Schedule.flaky ~seed:((seed * 7919) + i) ~period:1000.0 ~availability:0.8
              else Schedule.always_up);
          cache = true;
        });
    warmup = (fun _ -> Array.to_list (churn_pool ~n));
    op =
      (fun seed ->
        let pool = churn_pool ~n in
        let rank_to_text = seeded_perm ~seed ~salt:6100 (Array.length pool) in
        let cdf = zipf_cdf ~s:1.1 (Array.length pool) in
        fun i ->
          if i mod 10 = 9 then
            let s = Fed.uniform ~seed 6200 i 0 (n - 1) in
            let id = Fed.uniform ~seed 6201 i 0 (churn_rows - 1) in
            Write (s, Fed.gen_row ~seed:(seed + 1 + i) ~source:s id)
          else
            Query pool.(rank_to_text.(zipf_pick cdf (Fed.unit_float ~seed 6300 i))));
    step_ms = 50.0;
    heap_after = 1500;
  }

(* -- serve: a server over mediator replicas on one wall scheduler -- *)

let serve_n = 8
let serve_inflight = 2
let serve_clients = max 1 (min 2 nproc)
let serve_heap_after = 1500

let serve_spec seed =
  {
    Fed.sources = serve_n;
    rows = 50;
    latency = Fed.micro_latency ~seed;
    schedule = (fun _ -> Schedule.always_up);
    cache = false;
  }

type server = {
  sched : Scheduler.t;
  feds : Fed.t array;
  srv : Server.t;
  client_req : (int * int) Atomic.t array;
      (** per client: the [serve.submit] span in flight and its request *)
  served : (int * Runtime.stats * float) list ref array;
      (** per worker: (request, runtime stats, words allocated) *)
}

let client_of_tenant t = int_of_string (String.sub t 1 (String.length t - 1))

let setup_serve ~seed ~tracer ~alloc =
  let sched = Scheduler.wall () in
  let pool = selection_pool ~seed ~n:serve_n in
  let feds =
    Array.init serve_inflight (fun replica ->
        let fed = build ~sched ?tracer ~replica ~seed (serve_spec seed) in
        Array.iter
          (fun (q : Fed.query) ->
            match run_query fed q.Fed.text with
            | Ok _ -> ()
            | Error e -> failwith (Printf.sprintf "warm-up query %s raised %s" q.Fed.text e))
          pool;
        fed)
  in
  let client_req = Array.init serve_clients (fun _ -> Atomic.make (-1, -1)) in
  let served = Array.init serve_inflight (fun _ -> ref []) in
  (* worker [w] only ever runs on its own thread, so [served.(w)] needs
     no lock *)
  let worker w ~tenant text =
    let fed = feds.(w) in
    let parent, req = Atomic.get client_req.(client_of_tenant tenant) in
    let execute () =
      let a0 = if alloc then Gc.minor_words () else 0.0 in
      match Mediator.query fed.Fed.med text with
      | o ->
          let st = o.Mediator.stats in
          let words = if alloc then Gc.minor_words () -. a0 else 0.0 in
          served.(w) := (req, st, words) :: !(served.(w));
          Server.Answered
            { body = Mediator.answer_oql o.Mediator.answer; elapsed_ms = st.Runtime.elapsed_ms }
      | exception e -> Server.Failed (Printexc.to_string e)
    in
    match tracer with
    | None -> execute ()
    | Some tr ->
        Span.with_span tr.spans ~parent ~req "serve.worker" (fun wid ->
            let qspan = Span.fresh_id tr.spans in
            Atomic.set tr.current.(w) (qspan, req);
            let t0 = Span.now () in
            let reply = execute () in
            Span.record tr.spans ~id:qspan ~parent:wid ~req ~name:"core.query" ~start:t0
              ~stop:(Span.now ()) ();
            reply)
  in
  let srv =
    Server.create ~inflight:serve_inflight ~queue_bound:64 ~metrics:(Metrics.create ()) ~worker ()
  in
  { sched; feds; srv; client_req; served }

let stop_serve s =
  Server.stop s.srv;
  Scheduler.shutdown s.sched

let serve_pass ~seed ~budget ~tracer ~digests ~alloc ~resample =
  let s, first = timed (fun () -> setup_serve ~seed ~tracer ~alloc) in
  forget_setup tracer;
  let setups =
    setups ~first
      (if resample then
         Some
           (fun () ->
             let other = setup_serve ~seed ~tracer:None ~alloc:false in
             fun () -> stop_serve other)
       else None)
  in
  let before = Array.map reset_counters s.feds in
  let pool = selection_pool ~seed ~n:serve_n in
  let pick = cycled ~seed pool in
  let expected =
    Array.map
      (fun (q : Fed.query) ->
        ( q.Fed.text,
          Runtime.answer_oql (Runtime.Complete (q.Fed.expected (Fed.current_rows s.feds.(0)))) ))
      pool
  in
  let expected_of text = List.assoc text (Array.to_list expected) in
  let next = Atomic.make 0 in
  let heap = heap_reader ~heap_after:serve_heap_after in
  let start = Span.now () in
  let over () = match budget with Ops _ -> false | Seconds sec -> elapsed_s start >= sec in
  (* cleared by the client that finds a set-up sample due, which stops
     the clients until the main thread has taken it *)
  let running = Atomic.make true in
  let client c () =
    let tenant = Printf.sprintf "c%d" c in
    let mine = ref [] in
    let rec loop () =
      if Atomic.get running && not (over ()) then
        if sample_due setups heap then Atomic.set running false
        else
          let i = Atomic.fetch_and_add next 1 in
          match budget with Ops k when i >= k -> () | Ops _ | Seconds _ -> run i
    and run i =
      let q = pick i in
      let sid = match tracer with Some tr -> Span.fresh_id tr.spans | None -> -1 in
      Atomic.set s.client_req.(c) (sid, i);
      let t0 = Span.now () in
      let reply = Server.submit s.srv ~tenant q.Fed.text in
      let t1 = Span.now () in
      Option.iter
        (fun tr ->
          Span.record tr.spans ~id:sid ~parent:(-1) ~req:i ~name:"serve.submit" ~start:t0
            ~stop:t1 ();
          front_end tr ~parent:sid ~req:i s.feds.(0) q.Fed.text)
        tracer;
      let base = { blank with o_wall_ns = Int64.to_float (Int64.sub t1 t0) } in
      let o =
        match reply with
        | Server.Answered { body; elapsed_ms } ->
            let ok = String.equal body (expected_of q.Fed.text) in
            {
              base with
              o_virtual_ms = elapsed_ms;
              o_wrong = not ok;
              o_complete = ok;
              o_fraction = (if ok then 1.0 else 0.0);
              o_digest = (if digests then Digest.to_hex (Digest.string body) else "");
              o_why = (if ok then "" else "wrong answer to " ^ q.Fed.text);
            }
        | Server.Shed _ -> { base with o_refused = true; o_why = "shed" }
        | Server.Failed e -> { base with o_refused = true; o_why = e }
      in
      mine := (i, o) :: !mine;
      note_heap heap (i + 1);
      loop ()
    in
    loop ();
    !mine
  in
  (* run the clients until the budget is spent, pausing them for each
     set-up sample; the window is the time they ran *)
  let results = ref [] and window_s = ref 0.0 in
  let rec segment () =
    let got = Array.make serve_clients [] in
    let (), dt =
      timed (fun () ->
          Array.init serve_clients (fun c -> Thread.create (fun () -> got.(c) <- client c ()) ())
          |> Array.iter Thread.join)
    in
    window_s := !window_s +. dt;
    results := Array.to_list got @ !results;
    if not (Atomic.get running) then (
      sample setups;
      Atomic.set running true;
      segment ())
  in
  segment ();
  let window_s = !window_s in
  let health = Server.health s.srv in
  stop_serve s;
  let obs =
    List.concat !results |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd |> Array.of_list
  in
  let counters =
    Array.to_list (Array.mapi (fun w fed -> read_counters fed before.(w)) s.feds)
    |> List.fold_left add_counters
         { zero_counters with shed = health.Server.h_shed; server_errors = health.Server.h_errors }
  in
  let stats = Hashtbl.create 4096 in
  Array.iter (fun l -> List.iter (fun (req, st, words) -> Hashtbl.replace stats req (st, words)) !l) s.served;
  let obs =
    Array.mapi
      (fun i o ->
        match Hashtbl.find_opt stats i with
        | None -> o
        | Some (st, words) ->
            {
              o with
              o_alloc_words = words;
              o_execs = st.Runtime.execs_issued;
              o_round_trips = st.Runtime.round_trips;
              o_tuples = st.Runtime.tuples_shipped;
              o_blocked = st.Runtime.execs_blocked;
            })
      obs
  in
  {
    setup_s = setup_s setups;
    setup_samples = List.length setups.times;
    obs;
    window_s;
    counters;
    sources = serve_n;
    heap_mb = heap_mb heap;
  }

(* -- dispatch -- *)

let names = [ "fanout"; "plan"; "churn"; "serve" ]

let pass name ~seed ~budget ~tracer ~digests ~alloc ~resample =
  let closed w = closed_pass w ~seed ~budget ~tracer ~digests ~alloc ~resample in
  match name with
  | "fanout" -> closed fanout
  | "plan" -> closed plan
  | "churn" -> closed churn
  | "serve" -> serve_pass ~seed ~budget ~tracer ~digests ~alloc ~resample
  | other -> invalid_arg ("unknown workload " ^ other)

let replicas name = if String.equal name "serve" then serve_inflight else 1
