(* Tests for lib/obs: counter/histogram registries (including the
   merge laws the per-domain fold relies on), the span ring, the
   Chrome trace / text-summary exports (golden bytes), and the
   instrumented engine's accounting invariants. *)

(* Run [f] with observability forced on or off, restoring the prior
   state afterwards — CI runs the whole suite once with VARBUF_OBS=1,
   so tests must not leak a hard-coded flag value. *)
let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect
    ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())
    f

(* ---------- counters: concurrent recording and merging ---------- *)

let counter_names = [| "alpha"; "beta"; "gamma"; "delta" |]

let record_ops reg ops =
  List.iter (fun (i, v) -> Obs.Counters.add reg counter_names.(i) v) ops

let prop_merge_matches_sequential =
  (* Partition an op list round-robin over N domains, each recording
     into its own registry; folding the registries together must give
     exactly the totals of recording everything sequentially. *)
  let gen =
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 0 200)
           (pair (int_range 0 3) (int_range 0 100))))
  in
  QCheck.Test.make ~name:"N-domain recording merges to sequential totals"
    ~count:50 gen (fun (domains, ops) ->
      let seq = Obs.Counters.create () in
      record_ops seq ops;
      let parts = Array.make domains [] in
      List.iteri
        (fun k op -> parts.(k mod domains) <- op :: parts.(k mod domains))
        ops;
      let regs =
        Array.map
          (fun part ->
            Domain.spawn (fun () ->
                let r = Obs.Counters.create () in
                record_ops r part;
                r))
          parts
        |> Array.map Domain.join
      in
      let merged = Obs.Counters.create () in
      Array.iter (fun r -> Obs.Counters.merge_into ~into:merged r) regs;
      Obs.Counters.counter_values merged = Obs.Counters.counter_values seq)

let test_shared_registry_concurrent () =
  (* Domains bumping the same handles of one shared registry: the
     atomic adds must lose nothing. *)
  let reg = Obs.Counters.create () in
  let c = Obs.Counters.counter reg "hits" in
  let per_domain = 10_000 and domains = 4 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counters.incr c 1
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (per_domain * domains)
    (Obs.Counters.get reg "hits")

let test_reset_keeps_handles () =
  let reg = Obs.Counters.create () in
  let c = Obs.Counters.counter reg "x" in
  Obs.Counters.incr c 5;
  Obs.Counters.reset reg;
  Alcotest.(check int) "zeroed" 0 (Obs.Counters.get reg "x");
  Obs.Counters.incr c 3;
  Alcotest.(check int) "handle still live after reset" 3
    (Obs.Counters.get reg "x")

let test_merge_into_histograms () =
  let a = Obs.Counters.create () and b = Obs.Counters.create () in
  Obs.Counters.observe a "ms" ~lo:0.0 ~hi:10.0 ~bins:10 2.0;
  Obs.Counters.observe a "ms" ~lo:0.0 ~hi:10.0 ~bins:10 4.0;
  Obs.Counters.observe b "ms" ~lo:0.0 ~hi:10.0 ~bins:10 9.0;
  Obs.Counters.merge_into ~into:a b;
  match Obs.Counters.hist_values a with
  | [ ("ms", s) ] ->
    Alcotest.(check int) "count" 3 s.Obs.Counters.count;
    Alcotest.(check (float 1e-9)) "mean" 5.0 s.Obs.Counters.mean;
    Alcotest.(check (float 1e-9)) "max" 9.0 s.Obs.Counters.max_value
  | other -> Alcotest.failf "unexpected histograms (%d)" (List.length other)

(* ---------- histogram merge laws ---------- *)

let hist_of samples =
  let h = Numeric.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:20 in
  List.iter (fun v -> Numeric.Histogram.add h (float_of_int v /. 10.0)) samples;
  h

let bin_counts h =
  List.init (Numeric.Histogram.bins h) (Numeric.Histogram.bin_count h)

let prop_hist_merge_laws =
  let gen =
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 60) (int_range 0 1000))
        (list_of_size Gen.(int_range 0 60) (int_range 0 1000))
        (list_of_size Gen.(int_range 0 60) (int_range 0 1000)))
  in
  QCheck.Test.make ~name:"histogram merge is associative and commutative"
    ~count:100 gen (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      let open Numeric.Histogram in
      bin_counts (merge a b) = bin_counts (merge b a)
      && bin_counts (merge (merge a b) c) = bin_counts (merge a (merge b c)))

let test_hist_merge_mismatch () =
  let a = Numeric.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:20 in
  let b = Numeric.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:10 in
  Alcotest.(check bool) "different binning rejected" true
    (try
       ignore (Numeric.Histogram.merge a b);
       false
     with Invalid_argument _ -> true)

(* ---------- span ring ---------- *)

let fixture_spans =
  [
    { Obs.Span.name = "lift"; cat = "dp"; ts_ns = 1_000; dur_ns = 5_000; tid = 0 };
    {
      Obs.Span.name = "prune.2p";
      cat = "dp";
      ts_ns = 3_000;
      dur_ns = 2_000;
      tid = 1;
    };
  ]

let test_ring_overflow () =
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_capacity 65536)
    (fun () ->
      Obs.Span.set_capacity 4;
      for i = 1 to 10 do
        Obs.Span.record_dur ~name:"s" ~cat:"t" ~ts_ns:(i * 100) ~dur_ns:10
      done;
      let spans = Obs.Span.snapshot () in
      Alcotest.(check int) "ring keeps the newest capacity spans" 4
        (List.length spans);
      Alcotest.(check int) "overwritten spans counted" 6 (Obs.Span.dropped ());
      (* Oldest overwritten first: the survivors are the last four. *)
      Alcotest.(check (list int)) "newest survive"
        [ 700; 800; 900; 1000 ]
        (List.map (fun s -> s.Obs.Span.ts_ns) spans))

(* ---------- export: golden bytes ---------- *)

let test_chrome_json_golden () =
  Alcotest.(check string) "two-span trace"
    "{\"traceEvents\":[\n\
     {\"cat\":\"dp\",\"dur\":5,\"name\":\"lift\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0},\n\
     {\"cat\":\"dp\",\"dur\":2,\"name\":\"prune.2p\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":2}\n\
     ]}\n"
    (Obs.Export.chrome_json fixture_spans);
  Alcotest.(check string) "empty trace" "{\"traceEvents\":[\n]}\n"
    (Obs.Export.chrome_json [])

let test_summary_golden () =
  let reg = Obs.Counters.create () in
  Obs.Counters.add reg "dp.generated.2p" 12;
  Obs.Counters.add reg "dp.kept.2p" 8;
  Obs.Counters.observe reg "exec_ms" ~lo:0.0 ~hi:10.0 ~bins:10 2.0;
  Obs.Counters.observe reg "exec_ms" 4.0;
  Alcotest.(check string) "summary"
    "span dp.lift count 1 total_ms 0.005 max_ms 0.005\n\
     span dp.prune.2p count 1 total_ms 0.002 max_ms 0.002\n\
     counter dp.generated.2p 12\n\
     counter dp.kept.2p 8\n\
     hist exec_ms count 2 mean 3.000 max 4.000\n"
    (Obs.Export.summary ~counters:reg fixture_spans)

let test_json_escaping () =
  let nasty =
    [ { Obs.Span.name = "a\"b\\c\nd\001"; cat = "x"; ts_ns = 0; dur_ns = 0; tid = 0 } ]
  in
  Alcotest.(check bool) "escaped" true
    (let j = Obs.Export.chrome_json nasty in
     String.length j > 0
     && not (String.contains (String.concat "" (String.split_on_char '\n' j)) '\001'))

(* ---------- instrumented engine: accounting invariants ---------- *)

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
    ~range_um:2000.0

let model die =
  Varmodel.Model.create ~mode:Varmodel.Model.Wid
    ~spatial:Varmodel.Model.default_heterogeneous ~grid:(grid die) ()

let strip (r : Bufins.Engine.result) =
  ( r.Bufins.Engine.root_rat,
    r.Bufins.Engine.best,
    r.Bufins.Engine.buffers,
    r.Bufins.Engine.widths,
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates,
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates )

let test_engine_counters_balance () =
  (* Per-rule accounting on a real run: every candidate handed to the
     pruner is either kept or pruned, so generated = kept + pruned
     counter-for-counter. *)
  with_obs true (fun () ->
      let get name = Obs.Counters.get Obs.Counters.global name in
      let tags = [ "det"; "2p"; "1p"; "4p" ] in
      let before =
        List.map
          (fun tag ->
            ( get ("dp.generated." ^ tag),
              get ("dp.kept." ^ tag),
              get ("dp.pruned." ^ tag) ))
          tags
      in
      let nodes_before = get "dp.nodes" in
      let die = 3000.0 in
      let tree =
        Rctree.Generate.random_steiner ~seed:31 ~sinks:30 ~die_um:die ()
      in
      let r =
        Bufins.Engine.run (Bufins.Engine.default_config ()) ~model:(model die)
          tree
      in
      List.iter2
        (fun tag (g0, k0, p0) ->
          let g = get ("dp.generated." ^ tag) - g0
          and k = get ("dp.kept." ^ tag) - k0
          and p = get ("dp.pruned." ^ tag) - p0 in
          Alcotest.(check int)
            (Printf.sprintf "%s: pruned = generated - kept" tag)
            (g - k) p)
        tags before;
      let g2 = get "dp.generated.2p" in
      Alcotest.(check bool) "the 2P run generated candidates" true (g2 > 0);
      Alcotest.(check int) "node counter matches the engine's stats"
        r.Bufins.Engine.stats.Bufins.Engine.nodes
        (get "dp.nodes" - nodes_before))

let test_engine_obs_identity () =
  (* Enabling observability must not change a byte of the result. *)
  let die = 3000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:32 ~sinks:25 ~die_um:die () in
  let run () =
    strip
      (Bufins.Engine.run (Bufins.Engine.default_config ()) ~model:(model die)
         tree)
  in
  let off = with_obs false run in
  let on = with_obs true run in
  Alcotest.(check bool) "obs on/off identical" true (off = on)

let test_pool_instrumented () =
  with_obs true (fun () ->
      Obs.Span.clear ();
      let get name = Obs.Counters.get Obs.Counters.global name in
      let tasks0 = get "pool.tasks.worker" + get "pool.tasks.helper" in
      let expected = Array.init 64 (fun i -> i * i) in
      Exec.Pool.with_pool ~jobs:2 (fun pool ->
          Alcotest.(check (array int)) "result unchanged" expected
            (Exec.Pool.parallel_init pool 64 ~f:(fun i -> i * i)));
      let tasks1 = get "pool.tasks.worker" + get "pool.tasks.helper" in
      Alcotest.(check bool) "task counters advanced" true (tasks1 > tasks0);
      let spans = Obs.Span.snapshot () in
      Alcotest.(check bool) "pool task spans recorded" true
        (List.exists
           (fun s -> s.Obs.Span.cat = "pool" && s.Obs.Span.name = "task")
           spans);
      Alcotest.(check bool) "queue depth observed" true
        (List.mem_assoc "pool.queue_depth"
           (List.map
              (fun (n, (s : Obs.Counters.hist_stats)) -> (n, s.Obs.Counters.count))
              (Obs.Counters.hist_values Obs.Counters.global))))

let qcheck = Qseed.to_alcotest

let suite =
  [
    qcheck prop_merge_matches_sequential;
    Alcotest.test_case "shared registry, 4 domains" `Quick
      test_shared_registry_concurrent;
    Alcotest.test_case "reset keeps handles valid" `Quick
      test_reset_keeps_handles;
    Alcotest.test_case "merge_into combines histograms" `Quick
      test_merge_into_histograms;
    qcheck prop_hist_merge_laws;
    Alcotest.test_case "histogram merge rejects mismatched binning" `Quick
      test_hist_merge_mismatch;
    Alcotest.test_case "span ring overflow" `Quick test_ring_overflow;
    Alcotest.test_case "chrome trace golden bytes" `Quick
      test_chrome_json_golden;
    Alcotest.test_case "text summary golden bytes" `Quick test_summary_golden;
    Alcotest.test_case "JSON escaping" `Quick test_json_escaping;
    Alcotest.test_case "engine counters balance" `Quick
      test_engine_counters_balance;
    Alcotest.test_case "engine identical with obs on/off" `Quick
      test_engine_obs_identity;
    Alcotest.test_case "pool tasks instrumented" `Quick test_pool_instrumented;
  ]
