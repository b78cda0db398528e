(* The metric names and units the benchmark reports; BENCHMARK.json lists
   the same names. *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* End-to-end metrics of an untraced run.  The latencies are of one
   operation: a net through its engine, or a served request.  The
   arguments are as measured; the times are reported at the reference
   host speed (see [Harness.calibrate]), and a "varbench-raw" line
   before the result keeps the measured values. *)
let end_to_end ~setup_s ~rss_mb ~sinks_per_s ~lat_p50_ms ~lat_p95_ms =
  let round = Harness.round_s () in
  let scale = Harness.reference_round_s /. round in
  Printf.printf
    "varbench-raw {\"setup_s\": %.6g, \"sinks_per_s\": %.6g, \"lat_p50_ms\": %.6g, \
     \"lat_p95_ms\": %.6g, \"kernel_round_ms\": %.4f, \"kernel_rounds\": %d, \
     \"scale\": %.4f}\n"
    setup_s sinks_per_s lat_p50_ms lat_p95_ms (1e3 *. round)
    (List.length !Harness.rounds) scale;
  [
    ("setup_s", setup_s *. scale, "s");
    ("ok_ratio", ratio (!Harness.attempted - !Harness.failed) !Harness.attempted, "ratio");
    ("rss_peak_mb", rss_mb, "MB");
    ("sinks_per_s", sinks_per_s /. scale, "1/s");
    ("lat_p50_ms", lat_p50_ms *. scale, "ms");
    ("lat_p95_ms", lat_p95_ms *. scale, "ms");
  ]

(* Per-layer metrics of a traced run, each per pass (dp-table1,
   sample-k256) or per request (serve-mix); a layer a workload does
   not exercise reads 0. *)
let per_layer =
  [
    ("compile.tape_ms", "ms");
    ("compile.ops", "count");
    ("bufins.dp_ms", "ms");
    ("bufins.lift_ms", "ms");
    ("bufins.prune_ms", "ms");
    ("bufins.node_self_ms", "ms");
    ("bufins.keep_ratio", "ratio");
    ("bufins.peak_candidates", "count");
    ("bufins.total_candidates", "count");
    ("sta.eval_ms", "ms");
    ("sample.dp_ms", "ms");
    ("sample.lift_ms", "ms");
    ("sample.prune_ms", "ms");
    ("sample.dominance_checks", "count");
    ("sample.keep_ratio", "ratio");
    ("sample.peak_candidates", "count");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("codec_bin.encode_us", "us");
    ("codec_bin.decode_us", "us");
    ("handler.exec_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.tapes_hit_ratio", "ratio");
    ("router.v1_cache_hit_ratio", "ratio");
    ("router.v2_cache_hit_ratio", "ratio");
    ("serve.transport_ms", "ms");
    ("serve.lat_p99_ms", "ms");
    ("unaccounted_pct", "%");
    ("gc.alloc_mb", "MB");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

let fill values =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k per_layer) then invalid_arg ("unknown metric " ^ k))
    values;
  List.map
    (fun (k, unit) -> (k, Option.value (List.assoc_opt k values) ~default:0.0, unit))
    per_layer
