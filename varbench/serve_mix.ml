(* serve-mix: a closed loop of two connections, one speaking v1 text
   and one v2 binary, against the front door of a forked
   `varbuf-serve cluster` (2 shards x 1 job).  Requests carry 100-sink
   random nets generated from the seed:

   - 60% fresh trees;
   - 20% exact repeats from a hot set of 32 trees (worker response
     cache and router caches hit);
   - 20% hot-set trees with a fresh [seed] field (response cache
     misses, tape cache hits).

   After the timed loop every reply is compared, byte for byte through
   Protocol.encode_response, with an in-process Serve.Handler.run of
   the same request stream (in send order, with its own Serve.Cache
   and Serve.Tapes).  That replay also gives the codec and handler
   figures of the traced run. *)

open Harness

let sinks = 100
let die = 4000.0
let hot_n = 32
let shards = 2

(* Length of the blocks the latency percentiles are taken over. *)
let block_s = 2.0

(* Cache capacity of the in-process replay: the cluster's total, two
   shards of the worker default (128 entries each). *)
let replay_entries = shards * 128

(* ---------- the request stream ---------- *)

let hot_set ~seed =
  let rng = Numeric.Rng.create ~seed:(seed lxor 0x5eed) in
  Array.init hot_n (fun _ ->
      Rctree.Generate.random_steiner ~seed:(Numeric.Rng.int rng ~bound:0x3fffffff)
        ~sinks ~die_um:die ())

(* Request [i] of the stream, a pure function of (seed, i). *)
let request ~seed ~hot i =
  let rng = Numeric.Rng.split_at (Numeric.Rng.create ~seed) i in
  let u = Numeric.Rng.uniform rng in
  let base tree = { (Serve.Protocol.default_request ~tree) with id = i } in
  if u < 0.6 then
    base
      (Rctree.Generate.random_steiner ~seed:(Numeric.Rng.int rng ~bound:0x3fffffff)
         ~sinks ~die_um:die ())
  else if u < 0.8 then base hot.(Numeric.Rng.int rng ~bound:hot_n)
  else { (base hot.(Numeric.Rng.int rng ~bound:hot_n)) with seed = 2 + i }

(* ---------- the cluster process ---------- *)

(* The varbuf-serve CLI, built by run.sh beside this program. *)
let serve_exe = "_build/default/bin/serve_main.exe"

let cluster_pid = ref None

(* Kill the cluster and its workers outright (time limit or failed
   shutdown), then reap the cluster. *)
let kill_cluster () =
  match !cluster_pid with
  | None -> ()
  | Some pid ->
    cluster_pid := None;
    let kill p = try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> () in
    List.iter kill (child_pids pid);
    kill pid;
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

(* Wait up to [timeout] seconds for the cluster to exit by itself. *)
let await_exit pid ~timeout =
  let t_end = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < t_end ->
      Unix.sleepf 0.02;
      go ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let probe_request =
  Serve.Protocol.default_request
    ~tree:(Rctree.Generate.random_steiner ~seed:1 ~sinks:4 ~die_um:die ())

(* Fork the cluster and connect to its front door, which answers with
   the protocol hello once the router listens.  The socket path is
   relative to the checkout, which keeps it short. *)
let spawn ~tag =
  ensure_state_dir ();
  let socket = Printf.sprintf "%s/c%d-%d.sock" state_dir (Unix.getpid ()) tag in
  let log =
    Unix.openfile
      (Printf.sprintf "%s/cluster-%d.log" state_dir tag)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process serve_exe
      [| serve_exe; "cluster"; "--socket"; socket; "--shards"; string_of_int shards;
         "--jobs-per-shard"; "1" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  cluster_pid := Some pid;
  let t_end = now () +. 60.0 in
  let rec connect () =
    match Serve.Client.connect socket with
    | c -> c
    | exception (Unix.Unix_error _ | Failure _ | Serve.Wire.Closed) when now () < t_end ->
      Unix.sleepf 0.005;
      connect ()
  in
  (pid, socket, connect ())

(* Wait for the cluster's first OK response on [c], then close it. *)
let first_ok c =
  let t_end = now () +. 60.0 in
  let rec go () =
    match Serve.Client.request c probe_request with
    | Ok _ -> ()
    | Error _ when now () < t_end ->
      Unix.sleepf 0.01;
      go ()
    | Error e -> failwith ("cluster never answered: " ^ e.message)
  in
  Fun.protect go ~finally:(fun () -> Serve.Client.close c)

let shutdown ~socket pid =
  (try
     let c = Serve.Client.connect socket in
     Serve.Client.shutdown c;
     Serve.Client.close c
   with Unix.Unix_error _ | Failure _ | Serve.Wire.Closed -> ());
  if await_exit pid ~timeout:15.0 then cluster_pid := None
  else begin
    fatal "cluster did not exit after shutdown";
    kill_cluster ()
  end

(* ---------- the closed loop ---------- *)

type record = {
  req : Serve.Protocol.request;
  wire : Serve.Wire.proto;
  reply : (string, string) result;  (** raw reply payload or error *)
  sent : float;
  rtt : float;
  block : int;  (** block of the timed window it was sent in; -1 outside *)
}

(* Drive one connection until [t_end]: the requests [next_req] gives,
   each sent when the previous reply is in. *)
let drive ~socket ~wire ~next_req ~t_end ~block out =
  let c = Serve.Client.connect ~wire socket in
  let rec go () =
    match if now () < t_end then next_req () else None with
    | None -> ()
    | Some (req : Serve.Protocol.request) ->
      let reply, rtt =
        timed ~req:req.id
          (if wire = Serve.Wire.V1 then "client.v1" else "client.v2")
          (fun _ ->
            match Serve.Client.request_raw c req with
            | Ok raw -> Ok raw
            | Error e -> Error (e.code ^ ": " ^ e.message)
            | exception (Unix.Unix_error _ | Failure _ | Serve.Wire.Closed as ex) ->
              Error (Printexc.to_string ex))
      in
      out := { req; wire; reply; sent = now () -. rtt; rtt; block } :: !out;
      if Result.is_ok reply then go ()
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) go

let stats_value text key =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ k; v ] when k = key -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.0

(* The router's stats frame: its cache counters, and its own latency
   figures, which are recorded beside the client-side ones only to
   show how far they are off (see NOTES.md). *)
let router_stats socket =
  let c = Serve.Client.connect socket in
  let text = Serve.Client.stats c in
  Serve.Client.close c;
  List.map (fun k -> (k, stats_value text k))
    [ "cluster_v1_cache_hits"; "cluster_v1_cache_misses"; "cluster_v2_cache_hits";
      "cluster_v2_cache_misses"; "latency_ms_p50"; "latency_ms_p95"; "latency_ms_max" ]

(* ---------- the in-process replay ---------- *)

type replay = {
  exec : (int, float) Hashtbl.t;  (** request id -> Handler.run seconds *)
  codec : (Serve.Wire.proto * float * float) list;  (** wire, encode s, decode s *)
  cache_ratio : float;
  tapes_ratio : float;
  gc_mb : float;
  gc_majors : float;
  handler_total : float;
  layer : (string * float) list;  (** traced replay only, per request *)
}

(* Answer every recorded request in process, in send order; check the
   cluster's replies against the answers when [verify]. *)
let replay ~verify ~traced records =
  let cache = Serve.Cache.create ~entries:replay_entries in
  let tapes = Serve.Tapes.create ~entries:replay_entries in
  let exec = Hashtbl.create 1024 in
  let codec = ref [] and acc = Hashtbl.create 8 in
  let ops = ref 0 and dp_total = ref 0 and dp_peak = ref 0 in
  let kept0 = counter "dp.kept.2p" and gen0 = counter "dp.generated.2p" in
  let g0 = gc_mark () in
  with_obs traced (fun () ->
      List.iter
        (fun r ->
          let module P = Serve.Protocol in
          let module B = Serve.Codec_bin in
          let v1 = r.wire = Serve.Wire.V1 in
          let codec_name = if v1 then "protocol." else "codec_bin." in
          let call name f = timed ~req:r.req.id (codec_name ^ name) (fun _ -> f ()) in
          let bytes, t_er =
            call "encode_request" (fun () ->
                if v1 then P.encode_request r.req else B.encode_request r.req)
          in
          let req, t_dr =
            call "decode_request" (fun () ->
                if v1 then P.decode_request bytes else B.decode_request bytes)
          in
          let misses0 = (Serve.Cache.stats cache).misses in
          let tape_misses0 = (Serve.Tapes.stats tapes).misses in
          let resp, t_x =
            timed ~req:req.id "serve.handler" (fun _ -> Serve.Handler.run ~cache ~tapes req)
          in
          if (Serve.Cache.stats cache).misses > misses0 then begin
            dp_total := !dp_total + resp.total_candidates;
            dp_peak := max !dp_peak resp.peak_candidates
          end;
          (if (Serve.Tapes.stats tapes).misses > tape_misses0 then
             match Serve.Tapes.peek tapes (Serve.Tapes.digest_of_tree req.tree) with
             | Some e -> ops := !ops + Compile.Tape.op_count e.tape
             | None -> ());
          if traced then drain_spans acc;
          let out, t_es =
            call "encode_response" (fun () ->
                if v1 then P.encode_response resp else B.encode_response resp)
          in
          let _, t_ds =
            call "decode_response" (fun () ->
                if v1 then P.decode_response out else B.decode_response out)
          in
          Hashtbl.replace exec req.id t_x;
          codec := (r.wire, t_er +. t_es, t_dr +. t_ds) :: !codec;
          if verify then
            let got =
              match r.reply with
              | Ok raw when v1 -> raw
              | Ok raw -> (
                try P.encode_response (B.decode_response raw) with Failure m -> "undecodable: " ^ m)
              | Error e -> "error: " ^ e
            in
            check ~what:(Printf.sprintf "serve-mix request %d" req.id) (got = P.encode_response resp))
        records);
  let alloc, majors = gc_since g0 in
  let n = float_of_int (max 1 (List.length records)) in
  let hit_ratio hits misses = Metrics_def.ratio hits (hits + misses) in
  let cs = Serve.Cache.stats cache and ts = Serve.Tapes.stats tapes in
  let per_req x = x /. n in
  let self k = span_ms acc k ~self:true and total k = span_ms acc k ~self:false in
  let handler_total = Hashtbl.fold (fun _ t a -> a +. t) exec 0.0 in
  let covered =
    total "tape/tape.compile" +. self "dp/node" +. self "dp/lift" +. total "dp/prune.2p"
  in
  {
    exec;
    codec = !codec;
    cache_ratio = hit_ratio cs.hits cs.misses;
    tapes_ratio = hit_ratio ts.hits ts.misses;
    gc_mb = alloc /. n;
    gc_majors = majors /. n;
    handler_total;
    layer =
      [
        ("compile.tape_ms", per_req (total "tape/tape.compile"));
        ("compile.ops", per_req (float_of_int !ops));
        ("bufins.dp_ms", per_req (total "dp/node"));
        ("bufins.lift_ms", per_req (self "dp/lift"));
        ("bufins.prune_ms", per_req (total "dp/prune.2p"));
        ("bufins.node_self_ms", per_req (self "dp/node"));
        ( "bufins.keep_ratio",
          Metrics_def.ratio (counter "dp.kept.2p" - kept0) (counter "dp.generated.2p" - gen0) );
        ("bufins.peak_candidates", float_of_int !dp_peak);
        ("bufins.total_candidates", per_req (float_of_int !dp_total));
        ("unaccounted_pct", 100.0 *. (1.0 -. (covered /. (1e3 *. handler_total))));
      ];
  }

(* ---------- the workload ---------- *)

let run ~seed ~seconds =
  (* Set-up, nine times (median reported): the hot set, then the
     cluster's spawn up to its front door's hello.  The time on to the
     first OK response is recorded in the metadata only: the router's
     first dial races the workers' bind, and a lost race costs a
     redial 0.4 s later, so that time is bimodal (see NOTES.md).  Only
     the last cluster serves the load. *)
  let setups = Array.make 9 0.0 and first_oks = Array.make 9 0.0 in
  let live = ref None in
  for i = 0 to Array.length setups - 1 do
    Option.iter (fun (pid, socket, _) -> shutdown ~socket pid) !live;
    let t0 = now () in
    let hot = hot_set ~seed in
    let pid, socket, c = spawn ~tag:i in
    setups.(i) <- now () -. t0;
    first_ok c;
    first_oks.(i) <- now () -. t0;
    live := Some (pid, socket, hot)
  done;
  let pid, socket, hot = Option.get !live in
  let conns = [ (0, Serve.Wire.V1); (1, Serve.Wire.V2) ] in
  let out = ref [] and out_lock = Mutex.create () in
  (* [phase] runs both connections to [t_end], connection c sending
     the requests [next_req c] gives. *)
  let phase ~block ~t_end next_req =
    let threads =
      List.map
        (fun (c, wire) ->
          Thread.create
            (fun () ->
              let mine = ref [] in
              (try drive ~socket ~wire ~next_req:(next_req c) ~t_end ~block mine
               with Unix.Unix_error _ | Failure _ | Serve.Wire.Closed ->
                 fatal "a client connection failed");
              Mutex.lock out_lock;
              out := !mine @ !out;
              Mutex.unlock out_lock)
            ())
        conns
    in
    List.iter Thread.join threads
  in
  (* [counted n f] gives [f 0], [f 1], ..., [f (n - 1)], then None. *)
  let counted n f =
    let k = ref 0 in
    fun () ->
      let i = !k in
      incr k;
      if i < n then Some (f i) else None
  in
  (* Warm-up, untimed: every hot tree once, split over both wires. *)
  phase ~block:(-1) ~t_end:infinity (fun c ->
      counted (hot_n / 2) (fun j ->
          { (Serve.Protocol.default_request ~tree:hot.((2 * j) + c)) with
            id = 1_000_000_000 + (2 * j) + c }));
  (* The window runs as [nblk] blocks of about two seconds.  After each
     block the load drains and pauses for three host-speed kernel
     rounds (see [Harness.calibrate]), so the rounds sample the host
     all through the window.  The reported percentiles are medians of
     the blocks' own, so a stretch of a few seconds in which the host
     runs slow moves only its blocks; throughput counts the blocks'
     busy time.  The traced p99 pools the whole window. *)
  let nblk = max 1 (int_of_float (seconds /. block_s)) in
  let streams =
    Array.init 2 (fun c -> counted max_int (fun k -> request ~seed ~hot ((2 * k) + c)))
  in
  let busy = ref 0.0 in
  for _ = 1 to 5 do calibrate () done;
  let stats0 = router_stats socket in
  recording := !tracing;
  for b = 0 to nblk - 1 do
    let t0 = now () in
    phase ~block:b ~t_end:(t0 +. (seconds /. float_of_int nblk)) (fun c -> streams.(c));
    busy := !busy +. (now () -. t0);
    for _ = 1 to 3 do calibrate () done
  done;
  recording := false;
  let records = List.sort (fun a b -> Float.compare a.sent b.sent) !out in
  let timed_recs = List.filter (fun r -> r.block >= 0) records in
  let stats1 = router_stats socket in
  let rss = List.fold_left (fun a p -> a +. vm_hwm_mb p) (vm_hwm_mb pid) (child_pids pid) in
  shutdown ~socket pid;
  let lat_ms = Array.of_list (List.map (fun r -> 1e3 *. r.rtt) timed_recs) in
  let blocks = Array.make nblk [] in
  List.iter (fun r -> blocks.(r.block) <- (1e3 *. r.rtt) :: blocks.(r.block)) timed_recs;
  let blocks = Array.map Array.of_list blocks in
  let block_median q = median (Array.map (fun b -> quantile b q) blocks) in
  let block_min = Array.fold_left (fun a b -> min a (Array.length b)) max_int blocks in
  let nreq = List.length timed_recs in
  let rps = float_of_int nreq /. !busy in
  let base = replay ~verify:true ~traced:false records in
  print_meta ~workload:"serve-mix" ~seed ~seconds ~jobs:1 ~shards
    ~samples:
      [ ("lat_blocks", nblk); ("lat_p50_ms_per_block_min", block_min);
        ("lat_p95_ms_per_block_min", block_min); ("serve.lat_p99_ms", Array.length lat_ms);
        ("setups", Array.length setups) ]
    [ ("requests", string_of_int nreq); ("connections", "2");
      ("replayed", string_of_int (List.length records));
      ( "router_stats_latency_ms",
        Printf.sprintf "{\"p50\": %g, \"p95\": %g, \"max\": %g}"
          (List.assoc "latency_ms_p50" stats1) (List.assoc "latency_ms_p95" stats1)
          (List.assoc "latency_ms_max" stats1) );
      ( "cluster_first_ok_s",
        "[" ^ String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") first_oks)) ^ "]" );
      ( "client_latency_ms",
        Printf.sprintf "{\"p50\": %g, \"p95\": %g, \"max\": %g}" (quantile lat_ms 0.5)
          (quantile lat_ms 0.95) (quantile lat_ms 1.0) ) ];
  if not !tracing then
    Metrics_def.end_to_end ~setup_s:(median setups) ~rss_mb:rss
      ~sinks_per_s:(rps *. float_of_int sinks)
      ~lat_p50_ms:(block_median 0.50) ~lat_p95_ms:(block_median 0.95)
  else begin
    let tr = replay ~verify:false ~traced:true records in
    let delta k = int_of_float (List.assoc k stats1 -. List.assoc k stats0) in
    let router v =
      let h = delta (Printf.sprintf "cluster_v%d_cache_hits" v) in
      Metrics_def.ratio h (h + delta (Printf.sprintf "cluster_v%d_cache_misses" v))
    in
    let codec wire pick =
      let xs = List.filter_map (fun (w, e, d) -> if w = wire then Some (pick (e, d)) else None) base.codec in
      1e6 *. sum (Array.of_list xs) /. float_of_int (max 1 (List.length xs))
    in
    let exec_timed =
      List.fold_left (fun a r -> a +. Hashtbl.find base.exec r.req.id) 0.0 timed_recs
    in
    let n = float_of_int (max 1 nreq) in
    tr.layer
    @ [
        ("protocol.encode_us", codec Serve.Wire.V1 fst);
        ("protocol.decode_us", codec Serve.Wire.V1 snd);
        ("codec_bin.encode_us", codec Serve.Wire.V2 fst);
        ("codec_bin.decode_us", codec Serve.Wire.V2 snd);
        ("handler.exec_ms", 1e3 *. base.handler_total /. float_of_int (List.length records));
        ("serve.cache_hit_ratio", base.cache_ratio);
        ("serve.tapes_hit_ratio", base.tapes_ratio);
        ("router.v1_cache_hit_ratio", router 1);
        ("router.v2_cache_hit_ratio", router 2);
        ("serve.transport_ms", (sum lat_ms /. n) -. (1e3 *. exec_timed /. n));
        ("serve.lat_p99_ms", quantile lat_ms 0.99);
        ("gc.alloc_mb", base.gc_mb);
        ("gc.major_collections", base.gc_majors);
        ("trace.overhead_pct", 100.0 *. ((tr.handler_total /. base.handler_total) -. 1.0));
      ]
    |> Metrics_def.fill
  end
