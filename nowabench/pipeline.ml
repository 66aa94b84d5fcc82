(* pipeline: the routed path at saturation.  Two pools, [feed] (1 worker,
   hosting the root) and [work] (1 worker).  The feed root injects a
   round of packets unpaced with [spawn_unit_on]; each packet makes three
   [stage_mix] hops parse -> route -> transmit, every hop routed through
   the work pool's inject queue.  No spawn/sync runs.  Each round is
   paired with a timed serial composition of the same packets, and
   checked: completion count and composed payload checksum must equal
   the serial composition's. *)

open Common
module R = Nowa.Presets.Nowa

let packets_per_round = 50_000

(* Per-stage transform: a dense integer mix, so a hop is real work but
   the round measures routing rather than arithmetic. *)
let stage_mix salt x0 =
  let x = ref (x0 + salt) in
  for _ = 1 to 96 do
    x := (!x * 0x9E3779B1) land 0x3FFFFFFFFFFF;
    x := !x lxor (!x lsr 13)
  done;
  !x

let compose p = stage_mix 3 (stage_mix 2 (stage_mix 1 p))

(* Seeded packet payloads. *)
let payloads ~seed n =
  let rng = Nowa_util.Splitmix.make ~seed in
  Array.init n (fun _ -> Nowa_util.Splitmix.int rng (1 lsl 40))

let serial_checksum pkts = Array.fold_left (fun acc p -> acc + compose p) 0 pkts

let conf ~seed ~traced =
  {
    (base_conf ~seed ~workers:2) with
    Nowa.Config.pools = [ Nowa.Config.pool "feed" ~workers:1; Nowa.Config.pool "work" ~workers:1 ];
    trace_capacity = (if traced then 1 lsl 14 else 0);
  }

(* Per-packet stamps of a traced round, preallocated before the round:
   injection on the feed side, start and end of each hop's compute. *)
type stamps = { inj : int array; hs : int array array; he : int array array }

let make_stamps n =
  {
    inj = Array.make n 0;
    hs = Array.init 3 (fun _ -> Array.make n 0);
    he = Array.init 3 (fun _ -> Array.make n 0);
  }

type round = {
  wall_ns : int;  (* first injection -> last packet transmitted *)
  inject_ns : int;  (* the feed's injection loop alone *)
  serial_ns : int;  (* serial composition of the same packets *)
  serial_cpu_s : float;
  d : delta;
  stamps : stamps option;
}

(* One round inside a running pipeline topology.  [stamps] turns the
   per-packet timestamps on. *)
let round ~pkts ~expected ~stamps =
  let n = Array.length pkts in
  let work = R.pool "work" in
  let completed = Nowa_util.Padding.atomic 0 in
  let checksum = Nowa_util.Padding.atomic 0 in
  let hop i p x k =
    match stamps with
    | None -> k (stage_mix (i + 1) x)
    | Some st ->
      st.hs.(i).(p) <- now_ns ();
      let y = stage_mix (i + 1) x in
      st.he.(i).(p) <- now_ns ();
      k y
  in
  let s = snap () in
  let t0 = now_ns () in
  for p = 0 to n - 1 do
    (match stamps with Some st -> st.inj.(p) <- now_ns () | None -> ());
    let x0 = pkts.(p) in
    R.spawn_unit_on work (fun () ->
        hop 0 p x0 (fun x1 ->
            R.spawn_unit_on work (fun () ->
                hop 1 p x1 (fun x2 ->
                    R.spawn_unit_on work (fun () ->
                        hop 2 p x2 (fun x3 ->
                            ignore (Atomic.fetch_and_add checksum x3);
                            ignore (Atomic.fetch_and_add completed 1)))))))
  done;
  let t_inj = now_ns () in
  (* Routed packets are under no scope: the completion counter is the
     join, and the deadline turns a lost packet into a failure instead
     of a hang. *)
  let deadline = t0 + 60_000_000_000 in
  while Atomic.get completed < n && now_ns () < deadline do
    Unix.sleepf 1e-4
  done;
  let t1 = now_ns () in
  let d = since s in
  let done_ = Atomic.get completed in
  attempt n;
  if done_ <> n then fail_ops (abs (n - done_)) "pipeline: %d of %d packets completed" done_ n
  else if Atomic.get checksum <> expected then
    fail_ops n "pipeline: composed checksum differs from the serial composition";
  (* The serial composition of the same packets, timed right after the
     round so the pair shares the host's state. *)
  let s0 = snap () in
  let ts = now_ns () in
  let serial = serial_checksum pkts in
  let serial_ns = now_ns () - ts in
  let serial_cpu_s = (since s0).d_cpu_s in
  check (serial = expected) "pipeline: serial composition is not deterministic";
  { wall_ns = t1 - t0; inject_ns = t_inj - t0; serial_ns; serial_cpu_s; d; stamps }

let setup ~seed =
  let pkts = payloads ~seed packets_per_round in
  let expected = serial_checksum pkts in
  ((pkts, expected), runtime_start (module R) (conf ~seed ~traced:false))

(* Rounds until [seconds] have passed (at least 3), in one runtime. *)
let rounds ~seed ~seconds ~traced (pkts, expected) =
  let stamps = if traced then Some (make_stamps (Array.length pkts)) else None in
  let rs =
    R.run ~conf:(conf ~seed ~traced) (fun () ->
        let deadline = now_ns () + int_of_float (seconds *. 1e9) in
        let acc = ref [] in
        while List.length !acc < 3 || now_ns () < deadline do
          acc := round ~pkts ~expected ~stamps :: !acc
        done;
        !acc)
  in
  (rs, R.last_metrics ())

let fl = float_of_int

(* Medians over rounds.  Each round is paired with the serial composition
   timed right after it, so the ratios cancel host-speed drift. *)
type summary = {
  wall_per_pkt_ns : float;
  wall_ratio : float;  (* round wall / serial wall *)
  cpu_ratio : float;  (* round process CPU / serial CPU *)
  cpu_per_pkt_us : float;
  rs : round list;
  m : Nowa.Metrics.t option;
}

let summarise (rs, m) =
  let per f = median_l (List.map f rs) in
  let n = fl packets_per_round in
  {
    wall_per_pkt_ns = per (fun r -> fl r.wall_ns /. n);
    wall_ratio = per (fun r -> fl r.wall_ns /. fl r.serial_ns);
    cpu_ratio = per (fun r -> r.d.d_cpu_s /. r.serial_cpu_s);
    cpu_per_pkt_us = per (fun r -> r.d.d_cpu_s *. 1e6 /. n);
    rs;
    m;
  }

let measure ~seed ~seconds ~traced input = summarise (rounds ~seed ~seconds ~traced input)

let run ~seed ~seconds =
  let setup_s, input = timed_setup (fun () -> setup ~seed) in
  let s = measure ~seed ~seconds ~traced:false input in
  log "pipeline: %d rounds of %d packets, %.3f Mpkt/s, wall/serial %.2f, cpu/serial %.2f"
    (List.length s.rs) packets_per_round (1e3 /. s.wall_per_pkt_ns) s.wall_ratio s.cpu_ratio;
  metric "setup_s" "s" setup_s;
  metric "work_overhead" "x" s.cpu_ratio;
  metric "wall_overhead" "x" s.wall_ratio

(* Per-layer run: an untraced pass and a traced pass of the same length;
   the traced one keeps per-packet stamps and gives the layer rows, the
   pair gives the tracing overhead. *)
let layers ~seed ~seconds =
  let input = fst (setup ~seed) in
  let plain = measure ~seed ~seconds ~traced:false input in
  let t = measure ~seed ~seconds ~traced:true input in
  let n = fl packets_per_round in
  let per f = median_l (List.map f t.rs) in
  let compute_ns r =
    match r.stamps with
    | None -> 0.0
    | Some st ->
      let sum = ref 0 and disorder = ref 0 in
      for i = 0 to 2 do
        for p = 0 to packets_per_round - 1 do
          let d = st.he.(i).(p) - st.hs.(i).(p) in
          if d < 0 || st.hs.(i).(p) < st.inj.(p) then incr disorder;
          sum := !sum + d
        done
      done;
      check (!disorder = 0) "pipeline: %d hops with stamps out of order" !disorder;
      fl !sum /. n
  in
  (* Stamps are overwritten each round: only the last round's survive,
     so the compute share is read from that round alone. *)
  let last = List.hd t.rs in
  let compute = compute_ns last in
  metric "pipeline.throughput_mpps" "Mpkt/s" (1e3 /. plain.wall_per_pkt_ns);
  metric "pipeline.cpu_per_packet_us" "us" plain.cpu_per_pkt_us;
  metric "route.inject_ns_per_packet" "ns" (per (fun r -> fl r.inject_ns /. n));
  metric "stage.compute_ns_per_packet" "ns" compute;
  metric "route.overhead_ns_per_packet" "ns" ((fl last.wall_ns /. n) -. compute);
  metric "pipeline.serial_ns_per_packet" "ns" (per (fun r -> fl r.serial_ns /. n));
  let rounds = fl (List.length t.rs) in
  let wakeups =
    match t.m with
    | Some m -> fl (Nowa.Metrics.total m (fun w -> w.Nowa.Metrics.wakeups))
    | None -> 0.0
  in
  metric "sleepers.wakeups_per_kpkt" "1/kpkt" (wakeups *. 1e3 /. (rounds *. n));
  metric "gc.minor_per_kpkt" "1/kpkt"
    (sum_l (fun r -> fl r.d.d_minor_gcs) t.rs *. 1e3 /. (rounds *. n));
  metric "trace.pipeline_throughput_ratio" "x" (plain.wall_per_pkt_ns /. t.wall_per_pkt_ns)
