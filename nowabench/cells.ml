(* Layer-stack cells: tight loops over single public functions, each the
   median of several timed batches.  The spawn+sync stack is

     cell.spawn_sync_ns = effect + deque push/pop + counter
                          + wake_one (no sleeper) + residual

   where the residual (task box, frame, promise, scope, station points)
   is reported under its own name, never hidden. *)

open Common
module R = Nowa.Presets.Nowa

let batches = 7

(* Median ns per iteration over [batches] batches of [iters]. *)
let per_iter ~iters body =
  median
    (Array.init batches (fun _ ->
         let t0 = now_ns () in
         body iters;
         float_of_int (now_ns () - t0) /. float_of_int iters))

(* OCaml's own effect round trip: one [match_with] installing a handler,
   one [perform] and one [continue] — what a spawn costs at the least. *)
type _ Effect.t += Hop : unit Effect.t

let effect_ns () =
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Hop -> Some (fun (k : (a, unit) Effect.Deep.continuation) -> Effect.Deep.continue k ())
          | _ -> None);
    }
  in
  let body () = Effect.perform Hop in
  per_iter ~iters:200_000 (fun n ->
      for _ = 1 to n do
        Effect.Deep.match_with body () handler
      done)

module Deque = Nowa_deque.Chase_lev.Make (struct
  type t = int

  let dummy = -1
end)

let deque_push_pop_ns () =
  let q = Deque.create () in
  per_iter ~iters:2_000_000 (fun n ->
      for i = 1 to n do
        Deque.push_bottom q i;
        ignore (Sys.opaque_identity (Deque.pop q))
      done)

let deque_steal_ns () =
  let q = Deque.create () in
  let on_commit (_ : int) = () in
  per_iter ~iters:1_000_000 (fun n ->
      for i = 1 to n do
        Deque.push_bottom q i;
        ignore (Sys.opaque_identity (Deque.steal q ~on_commit))
      done)

(* The counter operations of a steal-free spawn+sync: the sync checks
   [forked] and, never forked, completes without touching anything else. *)
let counter_ns () =
  let module C = Nowa_sync.Wait_free_counter in
  let c = C.create () in
  per_iter ~iters:5_000_000 (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (C.forked c))
      done)

(* The spawner's wake probe when nobody sleeps: one atomic load. *)
let wake_one_idle_ns () =
  let s = Nowa_runtime.Sleepers.create ~workers:2 in
  per_iter ~iters:5_000_000 (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Nowa_runtime.Sleepers.wake_one s))
      done)

(* Full scope/spawn/sync/get on a 1-worker nowa runtime: ns and minor
   words per iteration. *)
let spawn_sync ~seed =
  let iters = 200_000 in
  R.run ~conf:(base_conf ~seed ~workers:1) (fun () ->
      let step () =
        R.scope (fun sc ->
            let p = R.spawn sc (fun () -> 1) in
            R.sync sc;
            R.get p)
      in
      let words = ref 0.0 in
      let ns =
        per_iter ~iters (fun n ->
            let w0 = Gc.minor_words () in
            let acc = ref 0 in
            for _ = 1 to n do
              acc := !acc + step ()
            done;
            words := (Gc.minor_words () -. w0) /. float_of_int n;
            check (!acc = n) "cell.spawn_sync: %d of %d children returned" !acc n)
      in
      (ns, !words))

(* The routed path's queue: one push and one pop of the mutex-protected
   inject queue. *)
let inject_push_pop_ns () =
  let q = Nowa_deque.Central_queue.create () in
  per_iter ~iters:1_000_000 (fun n ->
      for i = 1 to n do
        Nowa_deque.Central_queue.push q i;
        ignore (Sys.opaque_identity (Nowa_deque.Central_queue.pop q))
      done)

(* A 2-domain park -> wake round trip through [Sleepers]: the parker
   announces and blocks; the waker sees the bit, stamps, wakes it; the
   parker stamps on return.  Median wake-to-running time, in us. *)
let park_wake_us () =
  let module S = Nowa_runtime.Sleepers in
  let rounds = 2_000 in
  let s = S.create ~workers:2 in
  let woke = Array.make rounds 0 in
  let round = Atomic.make 0 in
  let parker =
    Domain.spawn (fun () ->
        for r = 0 to rounds - 1 do
          ignore (S.announce s ~worker:1);
          S.park s ~worker:1;
          woke.(r) <- now_ns ();
          Atomic.set round (r + 1)
        done)
  in
  let sent = Array.make rounds 0 in
  for r = 0 to rounds - 1 do
    while not (S.waiting s ~worker:1 && S.announced s ~worker:1) do
      Domain.cpu_relax ()
    done;
    sent.(r) <- now_ns ();
    if not (S.wake_one s) then check false "cell.park_wake: wake_one found no sleeper";
    while Atomic.get round <= r do
      Domain.cpu_relax ()
    done
  done;
  Domain.join parker;
  median (Array.init rounds (fun r -> float_of_int (woke.(r) - sent.(r)) /. 1e3))

let run ~seed =
  let effect = effect_ns () in
  let push_pop = deque_push_pop_ns () in
  let counter = counter_ns () in
  let wake = wake_one_idle_ns () in
  let spawn_sync_ns, words = spawn_sync ~seed in
  let residual = spawn_sync_ns -. (effect +. push_pop +. counter +. wake) in
  let sum = effect +. push_pop +. counter +. wake +. residual in
  check
    (Float.abs (sum -. spawn_sync_ns) <= 1e-9 *. spawn_sync_ns)
    "cells: components + residual %.3f ns <> spawn_sync %.3f ns" sum spawn_sync_ns;
  metric "cell.effect_ns" "ns" effect;
  metric "cell.deque_push_pop_ns" "ns" push_pop;
  metric "cell.deque_steal_ns" "ns" (deque_steal_ns ());
  metric "cell.counter_ns" "ns" counter;
  metric "cell.wake_one_idle_ns" "ns" wake;
  metric "cell.spawn_sync_ns" "ns" spawn_sync_ns;
  metric "cell.spawn_sync_words" "words" words;
  metric "cell.residual_ns" "ns" residual;
  metric "cell.inject_push_pop_ns" "ns" (inject_push_pop_ns ());
  metric "cell.park_wake_us" "us" (park_wake_us ())
