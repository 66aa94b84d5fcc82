(* serve: open-loop YCSB mix A (50% reads, 50% updates, zipf 0.99 over
   2000 records) offered at a fixed 5000 req/s.  Pools [inject] (1
   worker, hosting the dispatch loop) and [serve] (1 worker): the
   nowa_run --serve --pools topology.  The dispatch loop replays a
   schedule from [Workload.generate] and routes each request to the serve
   pool with [spawn_unit_on]; the task runs [Kv.exec].  Every request is
   timed from its scheduled arrival.  The single FIFO serve worker makes
   the run equivalent to a serial replay of the schedule, so every reply
   and the final store contents are checked against that replay. *)

open Common
module R = Nowa.Presets.Nowa
module W = Nowa_server.Workload
module Kv = Nowa_server.Kv

let rate = 5_000.0
let warmup_s = 0.5

let spec ~seed ~seconds =
  let base = W.default_spec ~mix:(Option.get (W.find_mix "A")) in
  {
    base with
    W.rate;
    warmup = int_of_float (rate *. warmup_s);
    requests = int_of_float (rate *. seconds);
    seed;
  }

let fresh_kv (s : W.spec) =
  let kv = Kv.create ~shards:s.W.shards ~buckets_per_shard:s.W.buckets_per_shard () in
  for k = 0 to s.W.records - 1 do
    ignore (Kv.exec kv (Kv.Put (k, k)))
  done;
  kv

(* Replies compared as ints: the value read, -1 for a miss, -2 for an
   acknowledged write; anything else is a bad reply. *)
let code = function
  | Kv.Hit v -> v
  | Kv.Miss -> -1
  | Kv.Ack -> -2
  | Kv.Dropped -> -3
  | Kv.Pending | Kv.Many _ -> -4

let checksum kv = Kv.fold (fun k v acc -> acc + (Nowa_util.Splitmix.scramble k lxor v)) kv 0

type input = {
  sp : W.spec;
  events : W.event array;
  expect : int array;  (* per-request reply of the serial replay *)
  final : int;  (* store checksum after the serial replay *)
}

let setup ~seed ~seconds =
  let sp = spec ~seed ~seconds in
  let events = W.generate sp in
  let kv = fresh_kv sp in
  let expect = Array.map (fun (e : W.event) -> code (Kv.exec kv e.W.op)) events in
  { sp; events; expect; final = checksum kv }

let conf ~seed ~traced =
  {
    (base_conf ~seed ~workers:2) with
    Nowa.Config.pools = [ Nowa.Config.pool "inject" ~workers:1; Nowa.Config.pool "serve" ~workers:1 ];
    trace_capacity = (if traced then 1 lsl 14 else 0);
  }

(* Per-request stamps, preallocated: due (scheduled arrival), dispatch
   (just before routing), start (task begins on the serve worker), exec
   (Kv.exec returned) and done (completion recorded).  Latency is
   done - due; the four phases between consecutive stamps telescope to it
   exactly. *)
type stamps = {
  due : int array;
  dispatch : int array;
  start : int array;
  exec : int array;
  done_ : int array;
  reply : int array;
}

let unanswered = min_int

let make_stamps n =
  let a () = Array.make n 0 in
  {
    due = a ();
    dispatch = a ();
    start = a ();
    exec = a ();
    done_ = a ();
    reply = Array.make n unanswered;
  }

type result = {
  st : stamps;
  n : int;
  d : delta;  (* Gc and process CPU over the whole replay *)
  m : Nowa.Metrics.t option;
}

(* Replay the schedule once on a fresh store inside the serve topology.
   Untraced runs write only due/done/reply; traced runs write every
   stamp. *)
let replay ~seed ~traced inp =
  let n = Array.length inp.events in
  let st = make_stamps n in
  let kv = fresh_kv inp.sp in
  let finished = Nowa_util.Padding.atomic 0 in
  (* The admission count: dispatched and not yet finished. *)
  let inflight = Nowa_util.Padding.atomic 0 in
  let s = snap () in
  R.run ~conf:(conf ~seed ~traced) (fun () ->
      let serve = R.pool "serve" in
      let base = now_ns () + 1_000_000 in
      Array.iteri
        (fun i (ev : W.event) ->
          let due = base + ev.W.at_ns in
          while now_ns () < due do
            Domain.cpu_relax ()
          done;
          st.due.(i) <- due;
          if traced then st.dispatch.(i) <- now_ns ();
          Atomic.incr inflight;
          R.spawn_unit_on serve (fun () ->
              if traced then st.start.(i) <- now_ns ();
              let r = Kv.exec kv ev.W.op in
              let t = now_ns () in
              if traced then st.exec.(i) <- t;
              st.reply.(i) <- code r;
              st.done_.(i) <- (if traced then now_ns () else t);
              Atomic.decr inflight;
              Atomic.incr finished))
        inp.events;
      let deadline = now_ns () + 30_000_000_000 in
      while Atomic.get finished < n && now_ns () < deadline do
        Domain.cpu_relax ()
      done);
  let d = since s in
  attempt n;
  let dropped = Kv.dropped kv in
  let completed = ref 0 in
  Array.iter (fun c -> if c <> unanswered && c <> code Kv.Dropped then incr completed) st.reply;
  if !completed + dropped <> n then
    fail_ops (n - !completed - dropped) "serve: offered %d <> completed %d + dropped %d" n
      !completed dropped;
  if dropped > 0 then fail_ops dropped "serve: %d requests dropped" dropped;
  check (Atomic.get inflight = 0) "serve: admission count %d after drain" (Atomic.get inflight);
  let bad = ref 0 in
  Array.iteri (fun i e -> if st.reply.(i) <> e then incr bad) inp.expect;
  if !bad > 0 then fail_ops !bad "serve: %d replies differ from the serial replay" !bad;
  check (checksum kv = inp.final) "serve: final store differs from the serial replay";
  {
    st;
    n;
    d;
    m = R.last_metrics ();
  }

let fl = float_of_int

(* Samples of [f i] over the measured (post-warm-up) requests. *)
let measured inp f =
  let w = inp.sp.W.warmup in
  Array.init (Array.length inp.events - w) (fun j -> f (j + w))

let latency_us inp r = measured inp (fun i -> fl (r.st.done_.(i) - r.st.due.(i)) /. 1e3)

(* Median over fixed windows of consecutive measured requests of each
   window's quantile: a transient host stall moves one window, not the
   reported figure. *)
let windowed_quantile ~p (a : float array) =
  let window = 2_500 in
  let k = max 1 (Array.length a / window) in
  let len = Array.length a / k in
  median (Array.init k (fun j -> percentile p (Array.sub a (j * len) len)))

let run ~seed ~seconds =
  let setup_s, inp =
    timed_setup (fun () ->
        let inp = setup ~seed ~seconds in
        (inp, runtime_start (module R) (conf ~seed ~traced:false)))
  in
  let r = replay ~seed ~traced:false inp in
  let lat = latency_us inp r in
  let cpu_per_req_us = r.d.d_cpu_s *. 1e6 /. fl r.n in
  let p50 = windowed_quantile ~p:50.0 lat in
  log "serve: %d requests, p50 %.1f us, p90 %.1f us, p99 %.1f us, cpu/req %.1f us" r.n p50
    (percentile 90.0 lat) (percentile 99.0 lat) cpu_per_req_us;
  (* The open loop's time scale is the mean arrival gap: a request's CPU
     and its latency are reported as shares of it. *)
  let gap_us = 1e6 /. rate in
  metric "setup_s" "s" setup_s;
  metric "work_overhead" "x" (cpu_per_req_us /. gap_us);
  metric "wall_overhead" "x" (p50 /. gap_us)

let layers ~seed ~seconds =
  let inp = setup ~seed ~seconds in
  let plain = replay ~seed ~traced:false inp in
  let r = replay ~seed ~traced:true inp in
  let st = r.st in
  (* Telescoping: due -> dispatch -> start -> exec -> done, integer ns. *)
  let residual = ref 0 and disorder = ref 0 in
  for i = 0 to r.n - 1 do
    let lag = st.dispatch.(i) - st.due.(i)
    and wait = st.start.(i) - st.dispatch.(i)
    and exec = st.exec.(i) - st.start.(i)
    and compl = st.done_.(i) - st.exec.(i) in
    residual := max !residual (abs (lag + wait + exec + compl - (st.done_.(i) - st.due.(i))));
    if lag < 0 || wait < 0 || exec < 0 || compl < 0 then incr disorder
  done;
  check (!residual = 0) "serve: spans do not telescope (residual %d ns)" !residual;
  check (!disorder = 0) "serve: %d requests with stamps out of order" !disorder;
  let us a b = measured inp (fun i -> fl (b.(i) - a.(i)) /. 1e3) in
  let lat = latency_us inp r in
  let of_class c =
    measured inp (fun i ->
        if inp.events.(i).W.cls = c then fl (st.exec.(i) - st.start.(i)) /. 1e3 else nan)
    |> Array.to_list
    |> List.filter (fun x -> not (Float.is_nan x))
    |> Array.of_list
  in
  metric "serve.latency_p50_us" "us" (percentile 50.0 lat);
  metric "serve.latency_p90_us" "us" (percentile 90.0 lat);
  metric "serve.latency_p99_us" "us" (percentile 99.0 lat);
  metric "serve.cpu_per_req_us" "us" (plain.d.d_cpu_s *. 1e6 /. fl plain.n);
  metric "loadgen.dispatch_lag_us_p50" "us" (percentile 50.0 (us st.due st.dispatch));
  metric "loadgen.dispatch_lag_us_p99" "us" (percentile 99.0 (us st.due st.dispatch));
  metric "route.sched_wait_us_p50" "us" (percentile 50.0 (us st.dispatch st.start));
  metric "route.sched_wait_us_p90" "us" (percentile 90.0 (us st.dispatch st.start));
  metric "kv.read_exec_us_p50" "us" (percentile 50.0 (of_class W.Read));
  metric "kv.update_exec_us_p50" "us" (percentile 50.0 (of_class W.Update));
  metric "serve.completion_us_p50" "us" (percentile 50.0 (us st.exec st.done_));
  metric "gc.minor_per_kreq" "1/kreq" (fl r.d.d_minor_gcs *. 1e3 /. fl r.n);
  let tot f = match r.m with Some m -> fl (Nowa.Metrics.total m f) | None -> 0.0 in
  metric "sleepers.parks_per_req" "1/req" (tot (fun w -> w.Nowa.Metrics.parks) /. fl r.n);
  metric "sleepers.wake_retries" "count" (tot (fun w -> w.Nowa.Metrics.wake_retries));
  let run_ns = match r.m with Some m -> m.Nowa.Metrics.elapsed_s *. 1e9 | None -> 1.0 in
  metric "engine.parked_fraction" "ratio"
    (tot (fun w -> w.Nowa.Metrics.parked_ns) /. (2.0 *. run_ns));
  metric "trace.serve_latency_p50_ratio" "x"
    (percentile 50.0 lat /. percentile 50.0 (latency_us inp plain))
