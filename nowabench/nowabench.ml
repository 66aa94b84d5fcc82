(* Entry point of the repository benchmark:

     nowabench --workload fork-join|pipeline|serve --seed N --seconds S --trace 0|1

   With --trace 0 it measures the named workload with tracing off and
   prints the end-to-end metrics; with --trace 1 it prints the per-layer
   metrics of every layer (see README.md).  The last line of standard
   output is the result object. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fork-join, pipeline or serve");
      ("--seed", Arg.Set_int seed, "N input and victim-selection seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nowabench --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds in
  (match (!workload, !trace) with
  | "fork-join", 0 -> Fork_join.run ~seed ~seconds ~traced:false
  | "pipeline", 0 -> Pipeline.run ~seed ~seconds
  | "serve", 0 -> Serve.run ~seed ~seconds
  | ("fork-join" | "pipeline" | "serve"), 1 -> Layers.run ~seed ~seconds
  | _ ->
    prerr_endline "nowabench: --workload must be fork-join, pipeline or serve; --trace 0 or 1";
    exit 2);
  print_endline (Common.result_line ())
