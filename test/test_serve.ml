(* End-to-end tests for lib/serve: protocol round-trips, a live server
   exercised over a loopback Unix-domain socket (error isolation,
   stats, graceful shutdown), and the byte-identical determinism
   contract across --jobs counts. *)

let sock_counter = Atomic.make 0

let fresh_socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "varbuf-test-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add sock_counter 1))

(* Start a server in its own domain, hand [f] a fresh-connection
   maker (multi-client tests open several), and always drain the
   server before returning — via the stop flag if [f] did not already
   ask for shutdown. *)
let with_server_multi ?(jobs = 2) ?(tweak = fun c -> c) f =
  let socket_path = fresh_socket_path () in
  let config = tweak { (Serve.Server.default_config ~socket_path) with jobs } in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run ~should_stop:(fun () -> Atomic.get stop) config)
  in
  let rec connect tries =
    match Serve.Client.connect socket_path with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.sleepf 0.02;
      connect (tries - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () -> f (fun () -> connect 250))

(* The common single-client shape. *)
let with_server ?jobs ?tweak f =
  with_server_multi ?jobs ?tweak (fun connect ->
      let client = connect () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () -> f client))

let small_tree = Rctree.Generate.random_steiner ~seed:11 ~sinks:9 ~die_um:2000.0 ()

(* ---------- protocol round-trips (no server) ---------- *)

let test_request_roundtrip () =
  let req =
    {
      (Serve.Protocol.default_request ~tree:small_tree) with
      Serve.Protocol.id = 42;
      seed = 7;
      mode = Experiments.Common.D2d;
      rule = Bufins.Prune.two_param ~p_l:0.6 ~p_t:0.85 ();
      deadline_ms = 1500;
      mc_trials = 64;
      wire_sizing = true;
    }
  in
  let text = Serve.Protocol.encode_request req in
  let decoded = Serve.Protocol.decode_request text in
  Alcotest.(check string)
    "request encoding round-trips exactly" text
    (Serve.Protocol.encode_request decoded);
  Alcotest.(check int) "id" 42 decoded.Serve.Protocol.id;
  Alcotest.(check bool) "rule" true
    (decoded.Serve.Protocol.rule = Bufins.Prune.two_param ~p_l:0.6 ~p_t:0.85 ())

let test_response_roundtrip () =
  let req =
    { (Serve.Protocol.default_request ~tree:small_tree) with
      Serve.Protocol.id = 3; mc_trials = 32 }
  in
  let resp = Serve.Handler.run req in
  let text = Serve.Protocol.encode_response resp in
  let decoded = Serve.Protocol.decode_response text in
  Alcotest.(check string)
    "response encoding round-trips exactly" text
    (Serve.Protocol.encode_response decoded);
  Alcotest.(check int) "id echoed" 3 resp.Serve.Protocol.r_id;
  Alcotest.(check bool) "mc present" true (resp.Serve.Protocol.mc <> None)

let test_error_roundtrip () =
  let e =
    { Serve.Protocol.code = Serve.Protocol.err_parse;
      message = "line 3: unknown field" }
  in
  let decoded = Serve.Protocol.decode_error (Serve.Protocol.encode_error e) in
  Alcotest.(check string) "code" e.Serve.Protocol.code decoded.Serve.Protocol.code;
  Alcotest.(check string) "message" e.Serve.Protocol.message
    decoded.Serve.Protocol.message

let test_handler_deadline () =
  let req = Serve.Protocol.default_request ~tree:small_tree in
  match Serve.Handler.run ~deadline_s:0.0 req with
  | _ -> Alcotest.fail "an expired deadline must raise Budget_exceeded"
  | exception Bufins.Engine.Budget_exceeded _ -> ()

(* ---------- live server ---------- *)

let test_server_errors_and_requests () =
  (* A small frame limit so the oversized path is cheap to exercise. *)
  let tweak c = { c with Serve.Server.max_payload = 16_384 } in
  with_server ~jobs:2 ~tweak (fun client ->
      (* 1. Malformed request: error frame, connection survives. *)
      let reply =
        Serve.Client.roundtrip client ~kind:"request" "this is not a request\n"
      in
      Alcotest.(check string) "malformed -> error frame" "error"
        reply.Serve.Wire.kind;
      let e = Serve.Protocol.decode_error reply.Serve.Wire.payload in
      Alcotest.(check string) "malformed -> parse" Serve.Protocol.err_parse
        e.Serve.Protocol.code;
      (* 2. Oversized request: rejected, stream stays in sync. *)
      let reply =
        Serve.Client.roundtrip client ~kind:"request" (String.make 20_000 'x')
      in
      let e = Serve.Protocol.decode_error reply.Serve.Wire.payload in
      Alcotest.(check string) "oversized -> too_large"
        Serve.Protocol.err_too_large e.Serve.Protocol.code;
      (* 3. Unknown frame kind: protocol error, connection survives. *)
      let reply = Serve.Client.roundtrip client ~kind:"bogus" "" in
      let e = Serve.Protocol.decode_error reply.Serve.Wire.payload in
      Alcotest.(check string) "unknown kind -> proto" Serve.Protocol.err_proto
        e.Serve.Protocol.code;
      (* 4. The same connection still serves a real request. *)
      let req =
        { (Serve.Protocol.default_request ~tree:small_tree) with
          Serve.Protocol.id = 5 }
      in
      (match Serve.Client.request client req with
      | Ok resp ->
        Alcotest.(check int) "id echoed" 5 resp.Serve.Protocol.r_id;
        Alcotest.(check bool) "some buffers placed" true
          (resp.Serve.Protocol.assignment.Bufins.Assignment.buffers <> [])
      | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message);
      (* 5. Stats report the traffic above. *)
      let stats = Serve.Client.stats client in
      let has sub =
        Alcotest.(check bool) (Printf.sprintf "stats contain %S" sub) true
          (List.exists
             (fun line ->
               String.length line >= String.length sub
               && String.sub line 0 (String.length sub) = sub)
             (String.split_on_char '\n' stats))
      in
      has "requests 4";
      has "ok 1";
      has "error_parse 1";
      has "error_too_large 1";
      has "error_proto 1";
      has "latency_ms_count 1";
      has "latency_ms_bucket";
      (* 6. Graceful shutdown acknowledged. *)
      Serve.Client.shutdown client)

let test_server_deadline () =
  with_server ~jobs:2 (fun client ->
      let tree =
        Rctree.Generate.random_steiner ~seed:2 ~sinks:400 ~die_um:8000.0 ()
      in
      let req =
        { (Serve.Protocol.default_request ~tree) with
          Serve.Protocol.deadline_ms = 1 }
      in
      match Serve.Client.request client req with
      | Ok _ -> Alcotest.fail "a 1 ms deadline on a 400-sink net must trip"
      | Error e ->
        Alcotest.(check string) "deadline error" Serve.Protocol.err_deadline
          e.Serve.Protocol.code)

(* ---------- determinism across jobs counts ---------- *)

let test_determinism_across_jobs () =
  let tree = Rctree.Generate.random_steiner ~seed:5 ~sinks:40 ~die_um:3000.0 () in
  let req =
    { (Serve.Protocol.default_request ~tree) with
      Serve.Protocol.id = 9; seed = 7; mc_trials = 128 }
  in
  (* The in-process library call is the reference. *)
  let expected = Serve.Protocol.encode_response (Serve.Handler.run req) in
  let via_server jobs =
    let payload = ref "" in
    with_server ~jobs (fun client ->
        match Serve.Client.request_raw client req with
        | Ok raw -> payload := raw
        | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message);
    !payload
  in
  Alcotest.(check string) "server at --jobs 1 is byte-identical" expected
    (via_server 1);
  Alcotest.(check string) "server at --jobs 4 is byte-identical" expected
    (via_server 4)

(* ---------- result cache ---------- *)

let test_cache_key () =
  let req = Serve.Protocol.default_request ~tree:small_tree in
  let k = Serve.Cache.key_of_request req in
  (* id and deadline are routing, not payload: they must not split the
     cache; everything else must. *)
  Alcotest.(check string) "id ignored" k
    (Serve.Cache.key_of_request { req with Serve.Protocol.id = 99 });
  Alcotest.(check string) "deadline ignored" k
    (Serve.Cache.key_of_request { req with Serve.Protocol.deadline_ms = 5000 });
  Alcotest.(check bool) "seed splits" false
    (k = Serve.Cache.key_of_request { req with Serve.Protocol.seed = 2 });
  Alcotest.(check bool) "mode splits" false
    (k
    = Serve.Cache.key_of_request
        { req with Serve.Protocol.mode = Experiments.Common.Nom });
  (* The key belongs to the request, not to the wire it arrived on: a
     request decoded from v1 text and the same one decoded from v2
     bytes share one key.  Every payload field away from its default,
     so each is present in both encodings. *)
  let key = Serve.Cache.key_of_request in
  let base =
    {
      req with
      Serve.Protocol.id = 7;
      deadline_ms = 300;
      mc_trials = 10;
      wire_sizing = true;
      samples = 64;
      relax = 0.75;
      btypes = 4;
      objective = Bufins.Dominance.Weighted 0.5;
      eps_power = 0.25;
    }
  in
  let via_v1 =
    Serve.Protocol.decode_request (Serve.Protocol.encode_request base)
  in
  let via_v2 =
    Serve.Codec_bin.decode_request (Serve.Codec_bin.encode_request base)
  in
  Alcotest.(check string) "v1 and v2 decodes share a key" (key via_v1)
    (key via_v2);
  Alcotest.(check string) "decoding keeps the key" (key base) (key via_v1);
  List.iter
    (fun (what, r) ->
      Alcotest.(check bool) (what ^ " splits") false (key r = key base))
    [
      ( "tree",
        {
          base with
          Serve.Protocol.tree =
            Rctree.Generate.random_steiner ~seed:12 ~sinks:9 ~die_um:2000.0 ();
        } );
      ( "rule parameters",
        {
          base with
          Serve.Protocol.rule = Bufins.Prune.two_param ~p_l:0.5 ~p_t:0.6 ();
        } );
      ("samples", { base with Serve.Protocol.samples = 65 });
      ("relax", { base with Serve.Protocol.relax = 0.8 });
      ("btypes", { base with Serve.Protocol.btypes = 2 });
      ( "objective",
        { base with Serve.Protocol.objective = Bufins.Dominance.Weighted 0.25 }
      );
      ("eps_power", { base with Serve.Protocol.eps_power = 0.5 });
      ("mc", { base with Serve.Protocol.mc_trials = 11 });
      ("wire_sizing", { base with Serve.Protocol.wire_sizing = false });
    ];
  Alcotest.(check string) "id and deadline ignored on a full request"
    (key base)
    (key { base with Serve.Protocol.id = 8; deadline_ms = 0 })

let test_cache_lru () =
  let cache = Serve.Cache.create ~entries:2 in
  let resp id =
    { (Serve.Handler.run (Serve.Protocol.default_request ~tree:small_tree)) with
      Serve.Protocol.r_id = id }
  in
  Serve.Cache.add cache "a" (resp 1);
  Serve.Cache.add cache "b" (resp 2);
  (* Touch "a" so "b" is the LRU victim when "c" arrives. *)
  Alcotest.(check bool) "a hits" true (Serve.Cache.find cache "a" <> None);
  Serve.Cache.add cache "c" (resp 3);
  Alcotest.(check int) "bounded" 2 (Serve.Cache.length cache);
  Alcotest.(check bool) "a survived" true (Serve.Cache.find cache "a" <> None);
  Alcotest.(check bool) "b evicted" true (Serve.Cache.find cache "b" = None);
  Alcotest.(check bool) "c present" true (Serve.Cache.find cache "c" <> None)

let test_cache_end_to_end () =
  let req =
    { (Serve.Protocol.default_request ~tree:small_tree) with
      Serve.Protocol.id = 21; mc_trials = 16 }
  in
  with_server ~jobs:2 (fun client ->
      let ask r =
        match Serve.Client.request_raw client r with
        | Ok raw -> raw
        | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message
      in
      let first = ask req in
      (* A repeat of the same payload must be answered from the cache
         with byte-identical payload. *)
      let second = ask req in
      Alcotest.(check string) "repeat is byte-identical" first second;
      (* Same payload under a different id and deadline: still a hit,
         identical modulo the echoed id. *)
      let third =
        ask { req with Serve.Protocol.id = 22; deadline_ms = 60_000 }
      in
      let strip raw =
        Serve.Protocol.encode_response
          { (Serve.Protocol.decode_response raw) with Serve.Protocol.r_id = 0 }
      in
      Alcotest.(check int) "new id echoed on hit" 22
        (Serve.Protocol.decode_response third).Serve.Protocol.r_id;
      Alcotest.(check string) "hit differs only in id" (strip first)
        (strip third);
      let stats = Serve.Client.stats client in
      let has sub =
        Alcotest.(check bool) (Printf.sprintf "stats contain %S" sub) true
          (List.exists
             (fun line ->
               String.length line >= String.length sub
               && String.sub line 0 (String.length sub) = sub)
             (String.split_on_char '\n' stats))
      in
      has "cache_hits 2";
      has "cache_misses 1")

let test_cache_disabled () =
  let tweak c = { c with Serve.Server.cache_entries = 0 } in
  let req = Serve.Protocol.default_request ~tree:small_tree in
  with_server ~jobs:2 ~tweak (fun client ->
      let ask () =
        match Serve.Client.request_raw client req with
        | Ok raw -> raw
        | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message
      in
      (* Still deterministic, just recomputed; counters stay zero. *)
      Alcotest.(check string) "recompute is byte-identical" (ask ()) (ask ());
      let stats = Serve.Client.stats client in
      Alcotest.(check bool) "no hits counted" true
        (List.mem "cache_hits 0" (String.split_on_char '\n' stats));
      Alcotest.(check bool) "no misses counted" true
        (List.mem "cache_misses 0" (String.split_on_char '\n' stats)))

(* ---------- metrics: the latency lines cover ok responses only ---------- *)

let test_metrics_latency_ok_only () =
  (* Regression for an impl/doc disagreement: errors bump the request
     and error counters but must never enter the latency distribution,
     so latency_ms_count equals ok (2), not requests (3), and the mean
     averages the two successful latencies only. *)
  let m = Serve.Metrics.create () in
  Serve.Metrics.request_ok m ~latency_ms:10.0;
  Serve.Metrics.request_ok m ~latency_ms:30.0;
  Serve.Metrics.request_error m ~code:Serve.Protocol.err_parse;
  let lines = String.split_on_char '\n' (Serve.Metrics.render m) in
  let has line =
    Alcotest.(check bool) (Printf.sprintf "render contains %S" line) true
      (List.mem line lines)
  in
  has "requests 3";
  has "ok 2";
  has "errors 1";
  has "error_parse 1";
  has "latency_ms_count 2";
  has "latency_ms_mean 20.0";
  has "latency_ms_max 30.0";
  (* The percentiles are nearest-rank: p50 is the 10 ms sample, p95 and
     p99 the 30 ms one.  Sub-second samples are reported within 1 ms,
     and no percentile exceeds the max (500 ms bins once printed p50
     250 next to a max of 33). *)
  let value key =
    let prefix = key ^ " " in
    let n = String.length prefix in
    match List.find_opt (String.starts_with ~prefix) lines with
    | Some l -> float_of_string (String.sub l n (String.length l - n))
    | None -> Alcotest.failf "render has no %s line" key
  in
  let max = value "latency_ms_max" in
  List.iter
    (fun (key, sample) ->
      let v = value key in
      Alcotest.(check bool)
        (Printf.sprintf "%s %g within 1 ms of %g" key v sample)
        true
        (Float.abs (v -. sample) <= 1.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s %g <= max %g" key v max)
        true (v <= max))
    [
      ("latency_ms_p50", 10.0);
      ("latency_ms_p95", 30.0);
      ("latency_ms_p99", 30.0);
    ]

let test_metrics_line_set () =
  (* The rendered stats payload's key sequence is a documented
     contract (metrics.mli / DESIGN.md): counters, ratio, sorted
     error_/kind_ lines, then the ok-only latency block.  Pin the
     whole set so doc and output cannot drift apart again (obs_ lines
     are appended only under observability and excluded here). *)
  let m = Serve.Metrics.create () in
  Serve.Metrics.conn_opened m;
  Serve.Metrics.request_kind m ~kind:"request";
  Serve.Metrics.request_kind m ~kind:"request";
  Serve.Metrics.request_kind m ~kind:"stats";
  Serve.Metrics.cache_miss m;
  Serve.Metrics.request_ok m ~latency_ms:10.0;
  Serve.Metrics.request_ok m ~latency_ms:30.0;
  Serve.Metrics.request_error m ~code:Serve.Protocol.err_parse;
  let keys =
    String.split_on_char '\n' (Serve.Metrics.render m)
    |> List.filter (fun l -> l <> "")
    |> List.filter (fun l ->
           not (String.length l >= 4 && String.sub l 0 4 = "obs_"))
    |> List.map (fun l ->
           match String.index_opt l ' ' with
           | Some i -> String.sub l 0 i
           | None -> l)
  in
  Alcotest.(check (list string))
    "rendered stats key sequence"
    [
      "uptime_s"; "connections"; "connections_total"; "requests"; "ok";
      "errors"; "cache_hits"; "cache_misses"; "cache_hit_ratio";
      "error_parse"; "kind_request"; "kind_stats"; "latency_ms_count";
      "latency_ms_mean"; "latency_ms_max"; "latency_ms_p50";
      "latency_ms_p95"; "latency_ms_p99"; "latency_ms_bucket";
    ]
    keys

let test_metrics_hit_ratio_and_kinds () =
  let m = Serve.Metrics.create () in
  let lines () = String.split_on_char '\n' (Serve.Metrics.render m) in
  (* Before the cache is consulted, no ratio line at all. *)
  Alcotest.(check bool) "no ratio until the cache is consulted" false
    (List.exists
       (fun l -> String.length l >= 15 && String.sub l 0 15 = "cache_hit_ratio")
       (lines ()));
  Serve.Metrics.cache_hit m;
  Serve.Metrics.cache_hit m;
  Serve.Metrics.cache_hit m;
  Serve.Metrics.cache_miss m;
  Serve.Metrics.request_kind m ~kind:"request";
  Serve.Metrics.request_kind m ~kind:"request";
  Serve.Metrics.request_kind m ~kind:"stats";
  let has line =
    Alcotest.(check bool) (Printf.sprintf "render contains %S" line) true
      (List.mem line (lines ()))
  in
  has "cache_hits 3";
  has "cache_misses 1";
  has "cache_hit_ratio 0.7500";
  has "kind_request 2";
  has "kind_stats 1"

(* ---------- wire: resync after an oversized frame mid-stream ---------- *)

let test_wire_resync_after_oversized () =
  (* A tiny payload limit, the whole stream fed 3 bytes at a time so
     the oversized frame's header and payload are both split across
     feeds: the decoder must discard exactly the announced bytes and
     hand over the following frame intact. *)
  let dec = Serve.Wire.decoder ~max_payload:8 () in
  let stream =
    "varbuf1 ok 2\nhi" ^ "varbuf1 blob 20\n" ^ String.make 20 'x'
    ^ "varbuf1 stats 3\nyes"
  in
  let events = ref [] in
  let drain () =
    let rec go () =
      match Serve.Wire.next dec with
      | Some e ->
        events := e :: !events;
        go ()
      | None -> ()
    in
    go ()
  in
  let n = String.length stream in
  let i = ref 0 in
  while !i < n do
    let len = min 3 (n - !i) in
    Serve.Wire.feed dec (Bytes.of_string (String.sub stream !i len)) len;
    drain ();
    i := !i + len
  done;
  match List.rev !events with
  | [ Serve.Wire.Frame f1; Serve.Wire.Oversized o; Serve.Wire.Frame f2 ] ->
    Alcotest.(check string) "first frame kind" "ok" f1.Serve.Wire.kind;
    Alcotest.(check string) "first frame payload" "hi" f1.Serve.Wire.payload;
    Alcotest.(check string) "oversized kind" "blob" o.kind;
    Alcotest.(check int) "oversized length" 20 o.len;
    Alcotest.(check string) "stream resynced" "stats" f2.Serve.Wire.kind;
    Alcotest.(check string) "payload after resync" "yes" f2.Serve.Wire.payload
  | evs -> Alcotest.failf "unexpected event sequence (%d events)" (List.length evs)

(* ---------- cache hits from concurrent clients ---------- *)

let test_cache_hit_concurrent_clients () =
  (* Two clients replay a cached payload concurrently under different
     request ids: each must get the cached result with its own id
     rewritten in — not the warm requester's id, and not the other
     client's. *)
  let req =
    { (Serve.Protocol.default_request ~tree:small_tree) with
      Serve.Protocol.id = 100; mc_trials = 16 }
  in
  with_server_multi (fun connect ->
      let ask c r =
        match Serve.Client.request_raw c r with
        | Ok raw -> raw
        | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message
      in
      let warm_client = connect () in
      Fun.protect ~finally:(fun () -> Serve.Client.close warm_client)
      @@ fun () ->
      let warm = ask warm_client req in
      let ds =
        List.map
          (fun id ->
            Domain.spawn (fun () ->
                let c = connect () in
                Fun.protect
                  ~finally:(fun () -> Serve.Client.close c)
                  (fun () -> ask c { req with Serve.Protocol.id })))
          [ 101; 102 ]
      in
      let replies = List.map Domain.join ds in
      let strip raw =
        Serve.Protocol.encode_response
          { (Serve.Protocol.decode_response raw) with Serve.Protocol.r_id = 0 }
      in
      List.iter2
        (fun id raw ->
          Alcotest.(check int) "hit echoes the caller's id" id
            (Serve.Protocol.decode_response raw).Serve.Protocol.r_id;
          Alcotest.(check string) "hit payload matches the cached result"
            (strip warm) (strip raw))
        [ 101; 102 ] replies;
      Alcotest.(check bool) "both answered from the cache" true
        (List.mem "cache_hits 2"
           (String.split_on_char '\n' (Serve.Client.stats warm_client))))

(* ---------- trace request ---------- *)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect
    ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())
    f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_trace_request () =
  with_obs true (fun () ->
      Obs.Span.clear ();
      with_server ~jobs:2 (fun client ->
          (match Serve.Client.request client
                   { (Serve.Protocol.default_request ~tree:small_tree) with
                     Serve.Protocol.id = 1 }
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message);
          (* The worker flushes its span right after completing the
             future, which can land a hair after our response frame:
             poll briefly instead of racing it. *)
          let rec poll tries =
            let payload = Serve.Client.trace client in
            if contains payload "\"name\":\"request\"" || tries = 0 then payload
            else begin
              Unix.sleepf 0.02;
              poll (tries - 1)
            end
          in
          let payload = poll 50 in
          Alcotest.(check bool) "chrome trace shape" true
            (contains payload "{\"traceEvents\":[");
          Alcotest.(check bool) "request span present" true
            (contains payload "\"name\":\"request\"");
          Alcotest.(check bool) "serve category" true
            (contains payload "\"cat\":\"serve\"")))

let suite =
  [
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "error round-trip" `Quick test_error_roundtrip;
    Alcotest.test_case "expired deadline trips the budget" `Quick
      test_handler_deadline;
    Alcotest.test_case "error isolation, stats, shutdown" `Quick
      test_server_errors_and_requests;
    Alcotest.test_case "deadline maps to a deadline error" `Quick
      test_server_deadline;
    Alcotest.test_case "byte-identical at jobs 1 and 4" `Quick
      test_determinism_across_jobs;
    Alcotest.test_case "cache key canonicalisation" `Quick test_cache_key;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "cache hit end to end" `Quick test_cache_end_to_end;
    Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
    Alcotest.test_case "latency metrics cover ok only" `Quick
      test_metrics_latency_ok_only;
    Alcotest.test_case "cache hit ratio and per-kind counters" `Quick
      test_metrics_hit_ratio_and_kinds;
    Alcotest.test_case "rendered stats line set matches the documented contract"
      `Quick test_metrics_line_set;
    Alcotest.test_case "wire resync after oversized frame" `Quick
      test_wire_resync_after_oversized;
    Alcotest.test_case "cache hits from concurrent clients" `Quick
      test_cache_hit_concurrent_clients;
    Alcotest.test_case "trace request" `Quick test_trace_request;
  ]
