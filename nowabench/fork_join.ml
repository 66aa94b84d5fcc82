(* fork-join: the paper's own measurement.  fib(31) and nqueens(12) on
   the nowa preset; each trial interleaves a serial-elision run, a
   1-worker run and a 2-worker run of each kernel, in a seeded order, the
   runtime runs timed inside [R.run] so domain spawn is excluded.  Every
   result is checked against a fingerprint computed without a runtime. *)

open Common
module R = Nowa.Presets.Nowa
module Serial = Nowa_kernels.Kernel_intf.Serial

type kernel = {
  kname : string;
  par : unit -> int;  (* the kernel on the nowa preset *)
  elision : unit -> int;  (* the same source on the serial elision *)
  reference : unit -> int;  (* the fingerprint, computed without a runtime *)
}

let fib_n = 31
let nqueens_n = 12

(* An independent nqueens count: the bitmask algorithm, no runtime and
   no allocation. *)
let nqueens_reference n =
  let all = (1 lsl n) - 1 in
  let rec place cols d1 d2 =
    if cols = all then 1
    else begin
      let free = ref (all land lnot (cols lor d1 lor d2)) and count = ref 0 in
      while !free <> 0 do
        let bit = !free land - !free in
        free := !free lxor bit;
        count := !count + place (cols lor bit) ((d1 lor bit) lsl 1) ((d2 lor bit) lsr 1)
      done;
      !count
    end
  in
  place 0 0 0

let kernels =
  let module Fr = Nowa_kernels.Fib.Make (R) in
  let module Fs = Nowa_kernels.Fib.Make (Serial) in
  let module Qr = Nowa_kernels.Nqueens.Make (R) in
  let module Qs = Nowa_kernels.Nqueens.Make (Serial) in
  [
    {
      kname = "fib";
      par = (fun () -> Fr.run fib_n);
      elision = (fun () -> Fs.run fib_n);
      reference = (fun () -> Nowa_kernels.Fib.serial fib_n);
    };
    {
      kname = "nqueens";
      par = (fun () -> Qr.run nqueens_n);
      elision = (fun () -> Qs.run nqueens_n);
      reference = (fun () -> nqueens_reference nqueens_n);
    };
  ]

(* One timed pass: wall ns, the fingerprint, and the Gc/CPU delta. *)
type pass = { ns : int; value : int; d : delta }

let timed f =
  let s = snap () in
  let t0 = now_ns () in
  let value = f () in
  let ns = now_ns () - t0 in
  { ns; value; d = since s }

let serial_pass k = Serial.run (fun () -> timed k.elision)

let runtime_pass ~conf k = R.run ~conf (fun () -> timed k.par)

type sample = {
  ts : pass;
  t1 : pass;
  t2 : pass;
  m1 : Nowa.Metrics.t;  (* scheduler counters of the 1-worker run *)
  m2 : Nowa.Metrics.t;  (* ... and of the 2-worker run *)
  tr2 : Nowa.Trace_analysis.t option;  (* traced runs only *)
}

let metrics_of_last () =
  match R.last_metrics () with
  | Some m -> m
  | None -> failwith "fork-join: nowa collected no metrics"

(* Seeded Fisher-Yates over the three run kinds of one trial. *)
let shuffled rng =
  let a = [| `Serial; `One; `Two |] in
  for i = 2 downto 1 do
    let j = Nowa_util.Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Set-up: the reference fingerprint of every kernel and one runtime
   start. *)
let setup ~seed =
  let refs = List.map (fun k -> (k.kname, k.reference ())) kernels in
  check
    (List.assoc "nqueens" refs = Nowa_kernels.Nqueens.solutions.(nqueens_n))
    "fork-join: nqueens reference disagrees with the known solution count";
  (refs, runtime_start (module R) (base_conf ~seed ~workers:2))

let trial_samples ~seed ~seconds ~traced refs =
  let rng = Nowa_util.Splitmix.make ~seed in
  let per_kernel = Hashtbl.create 2 in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let trials = ref 0 in
  while !trials < 3 || now_ns () < deadline do
    incr trials;
    (* Each trial's runtime runs take a victim-selection seed drawn from
       the run's seed, so the medians span several steal sequences. *)
    let seed = Nowa_util.Splitmix.int rng (1 lsl 30) in
    let conf1 = base_conf ~seed ~workers:1 in
    let conf2 =
      { (base_conf ~seed ~workers:2) with
        Nowa.Config.trace_capacity = (if traced then 1 lsl 16 else 0) }
    in
    List.iter
      (fun k ->
        let ts = ref None and r1 = ref None and r2 = ref None in
        Array.iter
          (function
            | `Serial -> ts := Some (serial_pass k)
            | `One ->
              let p = runtime_pass ~conf:conf1 k in
              r1 := Some (p, metrics_of_last ())
            | `Two ->
              let p = runtime_pass ~conf:conf2 k in
              let tr =
                if traced then Option.map Nowa.Trace_analysis.summarize (R.last_trace ())
                else None
              in
              r2 := Some (p, metrics_of_last (), tr))
          (shuffled rng);
        let ts = Option.get !ts in
        let t1, m1 = Option.get !r1 in
        let t2, m2, tr2 = Option.get !r2 in
        let expect = List.assoc k.kname refs in
        List.iter
          (fun (what, (p : pass)) ->
            attempt 1;
            if p.value <> expect then
              fail_ops 1 "fork-join: %s %s fingerprint %d, reference %d" k.kname what
                p.value expect)
          [ ("serial", ts); ("1-worker", t1); ("2-worker", t2) ];
        let s = { ts; t1; t2; m1; m2; tr2 } in
        Hashtbl.replace per_kernel k.kname
          (s :: Option.value ~default:[] (Hashtbl.find_opt per_kernel k.kname)))
      kernels
  done;
  List.map (fun k -> (k, Hashtbl.find per_kernel k.kname)) kernels

let ratio_median f samples = median_l (List.map f samples)
let fl = float_of_int

let run ~seed ~seconds ~traced =
  let setup_s, refs = timed_setup (fun () -> setup ~seed) in
  let per = trial_samples ~seed ~seconds ~traced refs in
  (* A 1-worker run never steals, so its spawn count is the kernel's
     exact spawn count: every 1-worker run must agree on it. *)
  let spawns_of s = Nowa.Metrics.total s.m1 (fun w -> w.Nowa.Metrics.spawns) in
  let spawn_counts =
    List.map
      (fun (k, ss) ->
        let c = spawns_of (List.hd ss) in
        check (c > 0 && List.for_all (fun s -> spawns_of s = c) ss)
          "fork-join: %s 1-worker spawn counts disagree" k.kname;
        (k.kname, max 1 c))
      per
  in
  let spawns k = fl (List.assoc k.kname spawn_counts) in
  (* Ts, T1 and T2 of a trial are interleaved, so per-trial ratios cancel
     host-speed drift the whole trial shares.  Their interquartile mean is
     robust to outlier trials like the median, and steadier over the ten
     or so trials a run holds.  T1/Ts is read in process CPU time: a
     1-worker run is one busy domain, and CPU time leaves out the time a
     virtualised host steals from it. *)
  let ratio_iqm f ss = interquartile_mean (Array.of_list (List.map f ss)) in
  let overhead (_, ss) = ratio_iqm (fun s -> s.t1.d.d_cpu_s /. s.ts.d.d_cpu_s) ss in
  let slowdown (_, ss) = ratio_iqm (fun s -> fl s.t2.ns /. fl s.ts.ns) ss in
  let speedup (_, ss) = ratio_iqm (fun s -> fl s.ts.ns /. fl s.t2.ns) ss in
  let cpu_per_spawn_us (k, ss) =
    ratio_median (fun s -> s.t2.d.d_cpu_s *. 1e6 /. spawns k) ss
  in
  List.iter
    (fun ((k, ss) as c) ->
      log "fork-join %s: %d trials, median Ts %.1f ms, T1/Ts %.2f, Ts/T2 %.2f" k.kname
        (List.length ss)
        (median_l (List.map (fun s -> fl s.ts.ns /. 1e6) ss))
        (overhead c) (speedup c))
    per;
  if not traced then begin
    metric "setup_s" "s" setup_s;
    metric "work_overhead" "x" (geomean (List.map overhead per));
    metric "wall_overhead" "x" (geomean (List.map slowdown per))
  end
  else begin
    let all = List.concat_map snd per in
    let n = fl (List.length all) in
    let tot f = sum_l f all in
    let total_spawns = sum_l (fun (k, ss) -> spawns k *. fl (List.length ss)) per in
    let m2 f = tot (fun s -> fl (Nowa.Metrics.total s.m2 f)) in
    metric "fork_join.speedup" "x" (geomean (List.map speedup per));
    metric "fork_join.cpu_per_spawn_us" "us" (geomean (List.map cpu_per_spawn_us per));
    metric "fork_join.makespan_s" "s"
      (sum_l (fun (_, ss) -> ratio_median (fun s -> fl s.t2.ns /. 1e9) ss) per);
    metric "engine.overhead_ns_per_spawn" "ns"
      (tot (fun s -> fl (s.t1.ns - s.ts.ns)) /. total_spawns);
    metric "engine.alloc_words_per_spawn" "words"
      (tot (fun s -> s.t1.d.d_minor_words) /. total_spawns);
    let syncs =
      m2 (fun w -> w.Nowa.Metrics.fused_syncs + w.fast_syncs + w.suspensions)
    in
    metric "engine.fused_sync_ratio" "ratio"
      (m2 (fun w -> w.Nowa.Metrics.fused_syncs) /. Float.max 1.0 syncs);
    metric "gc.minor_per_pass" "count"
      (tot (fun s -> fl (s.t1.d.d_minor_gcs + s.t2.d.d_minor_gcs)) /. (2.0 *. n));
    let steals = m2 (fun w -> w.Nowa.Metrics.steals) in
    metric "engine.steals" "count/pass" (steals /. n);
    metric "engine.steal_success_ratio" "ratio"
      (steals /. Float.max 1.0 (m2 (fun w -> w.Nowa.Metrics.steal_attempts)));
    let analyses = List.filter_map (fun s -> s.tr2) all in
    let lat =
      Array.of_list
        (List.concat_map
           (fun (a : Nowa.Trace_analysis.t) ->
             Array.to_list a.workers
             |> List.concat_map (fun w -> w.Nowa.Trace_analysis.steal_latencies_ns))
           analyses)
    in
    (* The runtime's trace clock is quantised to a few hundred ns, so a
       plain median of its samples repeats from run to run; the mean of
       the middle half is as robust and keeps the resolution. *)
    metric "engine.steal_latency_iqm_ns" "ns" (interquartile_mean lat);
    metric "engine.utilization_2w" "ratio"
      (sum_l (fun (a : Nowa.Trace_analysis.t) -> a.utilization) analyses
      /. Float.max 1.0 (fl (List.length analyses)));
    metric "engine.suspensions" "count/pass" (m2 (fun w -> w.Nowa.Metrics.suspensions) /. n);
    metric "engine.lost_continuations" "count/pass"
      (m2 (fun w -> w.Nowa.Metrics.lost_continuations) /. n);
    metric "engine.parks_2w" "count/pass" (m2 (fun w -> w.Nowa.Metrics.parks) /. n)
  end
