(* The per-layer run: every layer is measured on the workload that
   exercises it — the engine rows on fork-join, the routing rows on
   pipeline, the wake and KV rows on serve — plus the layer-stack cells.
   All of it runs whichever workload is named, so every per-layer metric
   is present in every traced run.  The measured time is split between
   the three sections. *)

open Common

let run ~seed ~seconds =
  let share = seconds /. 3.0 in
  Cells.run ~seed;
  Fork_join.run ~seed ~seconds:share ~traced:true;
  (* The pipeline and serve sections make an untraced and a traced pass
     each, for the tracing overhead. *)
  Pipeline.layers ~seed ~seconds:(share /. 2.0);
  Serve.layers ~seed ~seconds:(share /. 2.0);
  metric "check.error_rate" "ratio" (float_of_int !failed /. float_of_int (max 1 !attempted))
