(* Shared plumbing for the benchmark: clocks, outside-in GC/CPU deltas,
   order statistics, the failure ledger and the result line. *)

(* CLOCK_MONOTONIC in integer ns, allocation-free: the per-request and
   per-packet stamps need sub-microsecond resolution, which
   [Unix.gettimeofday] does not give. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* -- outside-in attribution: Gc and Unix.times deltas per timed phase -- *)

type snap = { minor_gcs : int; minor_words : float; cpu_s : float }

let snap () =
  let s = Gc.quick_stat () in
  {
    minor_gcs = s.Gc.minor_collections;
    minor_words = s.Gc.minor_words;
    cpu_s = Nowa_util.Cpu.process_cpu_time ();
  }

type delta = { d_minor_gcs : int; d_minor_words : float; d_cpu_s : float }

let since a =
  let b = snap () in
  {
    d_minor_gcs = b.minor_gcs - a.minor_gcs;
    d_minor_words = b.minor_words -. a.minor_words;
    d_cpu_s = b.cpu_s -. a.cpu_s;
  }

(* -- order statistics over float samples -------------------------------- *)

(* Nearest-rank percentile, [p] in [0, 100]; 0 on an empty sample. *)
let percentile p (a : float array) =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median a = percentile 50.0 a

(* Mean of the samples between the first and third quartile; 0 on an
   empty sample, like [percentile]. *)
let interquartile_mean (a : float array) =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let mid = Array.sub s (n / 4) (n - (2 * (n / 4))) in
    Array.fold_left ( +. ) 0.0 mid /. float_of_int (Array.length mid)
  end
let median_l l = median (Array.of_list l)

let geomean l =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

let sum_l f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* -- the failure ledger ---------------------------------------------------- *)

(* Every checked operation is counted as attempted; a failed check is
   counted, printed to stderr at once, and turns [correct] false. *)
let attempted = ref 0
let failed = ref 0
let problems = ref 0

let attempt n = attempted := !attempted + n

let fail_ops n fmt =
  Printf.ksprintf
    (fun msg ->
      failed := !failed + n;
      incr problems;
      Printf.eprintf "FAIL: %s\n%!" msg)
    fmt

(* A check on a whole section rather than on counted operations (a sum
   identity, a conservation law): it fails the run without inflating
   [failed]. *)
let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr problems;
        Printf.eprintf "FAIL: %s\n%!" msg
      end)
    fmt

(* -- metrics and the result line ------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []

let metric name unit v =
  if not (Float.is_finite v) then begin
    check false "metric %s is not finite (%f)" name v;
    metrics := (name, 0.0, unit) :: !metrics
  end
  else metrics := (name, v, unit) :: !metrics

let result_line () =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!problems = 0)
    (max 1 !attempted) !failed;
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
    (List.rev !metrics);
  Buffer.add_string b "}}";
  Buffer.contents b

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Median over five repetitions of a set-up step, in seconds.  [f]
   returns its result and the ns of its own run that are not set-up (a
   runtime teardown).  Each repetition starts from a fully collected heap,
   so the previous one's garbage is not charged to it. *)
let timed_setup f =
  let reps = 5 in
  let times = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    Gc.full_major ();
    let t0 = now_ns () in
    let r, uncounted_ns = f () in
    times.(i) <- float_of_int (now_ns () - t0 - uncounted_ns) /. 1e9;
    last := Some r
  done;
  (median times, Option.get !last)

(* Config every section starts from: the default configuration, the run's
   seed for the victim PRNGs, tracing off. *)
let base_conf ~seed ~workers = { (Nowa.Config.with_workers workers) with Nowa.Config.seed }

(* The runtime-start share of set-up: [run] with a root that returns at
   once, so domain spawn and pool construction count.  Returns the ns
   the teardown after the root took, which is not set-up. *)
let runtime_start (module R : Nowa.RUNTIME) conf =
  let root_done = R.run ~conf (fun () -> now_ns ()) in
  now_ns () - root_done
