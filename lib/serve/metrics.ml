type t = {
  started_at : float;
  conns_open : int Atomic.t;
  conns_total : int Atomic.t;
  requests : int Atomic.t;
  ok : int Atomic.t;
  errors : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  by_code : (string, int Atomic.t) Hashtbl.t;
  by_kind : (string, int Atomic.t) Hashtbl.t;
  code_mutex : Mutex.t;
  hist : Numeric.Histogram.t;
  fine : Numeric.Histogram.t;
  mutable lat_sum : float;
  mutable lat_max : float;
  hist_mutex : Mutex.t;
}

let fine_hi = 1000.0

let create () =
  {
    started_at = Unix.gettimeofday ();
    conns_open = Atomic.make 0;
    conns_total = Atomic.make 0;
    requests = Atomic.make 0;
    ok = Atomic.make 0;
    errors = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    by_code = Hashtbl.create 8;
    by_kind = Hashtbl.create 8;
    code_mutex = Mutex.create ();
    (* 120 bins of 500 ms: interactive requests land in the first few
       bins, the clamped top bin catches everything slower.  The
       sub-second samples also go to 1 ms bins, for percentiles. *)
    hist = Numeric.Histogram.create ~lo:0.0 ~hi:60_000.0 ~bins:120;
    fine = Numeric.Histogram.create ~lo:0.0 ~hi:fine_hi ~bins:1000;
    lat_sum = 0.0;
    lat_max = 0.0;
    hist_mutex = Mutex.create ();
  }

let conn_opened t =
  Atomic.incr t.conns_open;
  Atomic.incr t.conns_total

let conn_closed t = Atomic.decr t.conns_open

let request_ok t ~latency_ms =
  Atomic.incr t.requests;
  Atomic.incr t.ok;
  Mutex.lock t.hist_mutex;
  Numeric.Histogram.add t.hist latency_ms;
  if latency_ms < fine_hi then Numeric.Histogram.add t.fine latency_ms;
  t.lat_sum <- t.lat_sum +. latency_ms;
  if latency_ms > t.lat_max then t.lat_max <- latency_ms;
  Mutex.unlock t.hist_mutex

let cache_hit t = Atomic.incr t.cache_hits
let cache_miss t = Atomic.incr t.cache_misses

(* by_code and by_kind share one mutex: both are tiny tables touched
   once per request. *)
let bump_keyed t table key =
  Mutex.lock t.code_mutex;
  let counter =
    match Hashtbl.find_opt table key with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.add table key c;
      c
  in
  Mutex.unlock t.code_mutex;
  Atomic.incr counter

let request_error t ~code =
  Atomic.incr t.requests;
  Atomic.incr t.errors;
  bump_keyed t t.by_code code

let request_kind t ~kind = bump_keyed t t.by_kind kind

let render t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "uptime_s %.1f\n" (Unix.gettimeofday () -. t.started_at);
  Printf.bprintf buf "connections %d\n" (Atomic.get t.conns_open);
  Printf.bprintf buf "connections_total %d\n" (Atomic.get t.conns_total);
  Printf.bprintf buf "requests %d\n" (Atomic.get t.requests);
  Printf.bprintf buf "ok %d\n" (Atomic.get t.ok);
  Printf.bprintf buf "errors %d\n" (Atomic.get t.errors);
  let hits = Atomic.get t.cache_hits and misses = Atomic.get t.cache_misses in
  Printf.bprintf buf "cache_hits %d\n" hits;
  Printf.bprintf buf "cache_misses %d\n" misses;
  (* The ratio shard dashboards want directly; only meaningful once the
     cache has been consulted. *)
  if hits + misses > 0 then
    Printf.bprintf buf "cache_hit_ratio %.4f\n"
      (float_of_int hits /. float_of_int (hits + misses));
  Mutex.lock t.code_mutex;
  let codes =
    Hashtbl.fold (fun code c acc -> (code, Atomic.get c) :: acc) t.by_code []
  in
  let kinds =
    Hashtbl.fold (fun kind c acc -> (kind, Atomic.get c) :: acc) t.by_kind []
  in
  Mutex.unlock t.code_mutex;
  List.iter
    (fun (code, n) -> Printf.bprintf buf "error_%s %d\n" code n)
    (List.sort compare codes);
  List.iter
    (fun (kind, n) -> Printf.bprintf buf "kind_%s %d\n" kind n)
    (List.sort compare kinds);
  Mutex.lock t.hist_mutex;
  let total = Numeric.Histogram.total t.hist in
  Printf.bprintf buf "latency_ms_count %d\n" total;
  if total > 0 then begin
    Printf.bprintf buf "latency_ms_mean %.1f\n" (t.lat_sum /. float_of_int total);
    Printf.bprintf buf "latency_ms_max %.1f\n" t.lat_max;
    (* Nearest-rank tails: a rank among the sub-second samples is read
       from the 1 ms bins, any later one from the 500 ms bins (which
       hold every sample, so the rank carries over).  An estimate can
       sit up to one bin above its sample, so it is capped at the
       recorded max. *)
    let percentile p =
      let rank = max 1 (int_of_float (ceil (p *. float_of_int total))) in
      let h =
        if rank <= Numeric.Histogram.total t.fine then t.fine else t.hist
      in
      Float.min (Numeric.Histogram.value_at_rank h rank) t.lat_max
    in
    Printf.bprintf buf "latency_ms_p50 %.1f\n" (percentile 0.50);
    Printf.bprintf buf "latency_ms_p95 %.1f\n" (percentile 0.95);
    Printf.bprintf buf "latency_ms_p99 %.1f\n" (percentile 0.99);
    for i = 0 to Numeric.Histogram.bins t.hist - 1 do
      let count = Numeric.Histogram.bin_count t.hist i in
      if count > 0 then
        Printf.bprintf buf "latency_ms_bucket %g %d\n"
          (Numeric.Histogram.bin_center t.hist i)
          count
    done
  end;
  Mutex.unlock t.hist_mutex;
  (* With observability on, fold the global registry in: queue wait vs
     execution split (serve.queue_wait_ms / serve.exec_ms histograms),
     DP per-phase candidate totals, pool and arena counters. *)
  if Obs.Control.on () then begin
    List.iter
      (fun (name, v) -> Printf.bprintf buf "obs_%s %d\n" name v)
      (Obs.Counters.counter_values Obs.Counters.global);
    List.iter
      (fun (name, (s : Obs.Counters.hist_stats)) ->
        Printf.bprintf buf "obs_%s_count %d\n" name s.Obs.Counters.count;
        Printf.bprintf buf "obs_%s_mean %.3f\n" name s.Obs.Counters.mean;
        Printf.bprintf buf "obs_%s_max %.3f\n" name s.Obs.Counters.max_value)
      (Obs.Counters.hist_values Obs.Counters.global)
  end;
  Buffer.contents buf
