(* Tests for the sampling-based yield engine (lib/sample):

   - the shared sample matrix depends only on (seed, id, K), never on
     draw order;
   - engine output is bit-identical across job counts and with
     observability on or off;
   - per-sample dominance pruning at relax = 1 never loses the
     per-sample optimum (exact equality against the unpruned brute
     force on small trees);
   - sampled yield figures cross-validate the canonical prediction: a
     Nom model makes every sample identical and reproduces the
     deterministic optimum, and under WID the sampled quantile tracks
     Sta.Yield's analytic one;
   - the sample fields round-trip through both wire codecs, and a
     sample-free request keeps its exact pre-sample v1 bytes. *)

let qcheck = Qseed.to_alcotest
let tech = Device.Tech.default_65nm
let library = Device.Buffer.default_library

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
    ~range_um:2000.0

let model ?(mode = Varmodel.Model.Wid) die =
  Varmodel.Model.create ~mode ~spatial:Varmodel.Model.default_heterogeneous
    ~grid:(grid die) ()

let config ?(samples = 64) ?(seed = 1) ?(relax = 1.0) () =
  {
    (Sample.Engine.default_config ~samples ~seed ~relax ())
    with
    Sample.Engine.tech;
    library;
  }

let with_pool jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect f ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())

(* Everything the serve layer would encode, so equality here is
   byte-equality of responses. *)
let strip (r : Sample.Engine.result) =
  ( r.Sample.Engine.best.Sample.Engine.load,
    r.Sample.Engine.best.Sample.Engine.rat,
    r.Sample.Engine.root_rat,
    r.Sample.Engine.root_best_per_sample,
    r.Sample.Engine.buffers,
    r.Sample.Engine.widths,
    r.Sample.Engine.sampled_mean,
    r.Sample.Engine.sampled_std,
    r.Sample.Engine.rat_at_yield,
    r.Sample.Engine.load_limit_met,
    r.Sample.Engine.stats.Bufins.Engine.peak_candidates,
    r.Sample.Engine.stats.Bufins.Engine.total_candidates )

(* ---------- sample matrix ---------- *)

let test_matrix_order_independent () =
  let a = Sample.Matrix.create ~seed:7 ~k:32 ~sources:9 in
  let b = Sample.Matrix.create ~seed:7 ~k:32 ~sources:9 in
  (* Draw a forward and b backward (and some rows twice): rows must
     agree pairwise anyway. *)
  for id = 0 to 8 do
    ignore (Sample.Matrix.source a id)
  done;
  for id = 8 downto 0 do
    ignore (Sample.Matrix.source b id)
  done;
  Sample.Matrix.prefill b ~lo:0 ~hi:99;
  for id = 0 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "row %d identical" id)
      true
      (Sample.Matrix.source a id = Sample.Matrix.source b id)
  done;
  let c = Sample.Matrix.create ~seed:8 ~k:32 ~sources:9 in
  Alcotest.(check bool) "different seed differs" false
    (Sample.Matrix.source a 0 = Sample.Matrix.source c 0)

(* ---------- determinism across jobs and observability ---------- *)

let test_jobs_and_obs_identical () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks:24 ~die_um:die () in
  let cfg = config ~samples:64 () in
  (* The model consumes device ids as the DP runs, so every run gets a
     fresh one; determinism across job counts is exactly the claim
     under test. *)
  let seq = strip (Sample.Engine.run cfg ~model:(model die) tree) in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let r =
            Sample.Engine.run ~pool ~grain:2 cfg ~model:(model die) tree
          in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d identical" jobs)
            true
            (strip r = seq)))
    [ 1; 2; 4 ];
  let on =
    with_obs true (fun () ->
        strip (Sample.Engine.run cfg ~model:(model die) tree))
  in
  let off =
    with_obs false (fun () ->
        strip (Sample.Engine.run cfg ~model:(model die) tree))
  in
  Alcotest.(check bool) "obs on = obs off" true (on = off);
  Alcotest.(check bool) "obs on = baseline" true (on = seq)

(* ---------- pruning exactness vs brute force ---------- *)

let prop_pruning_preserves_per_sample_optimum =
  (* relax > 1 disables pruning entirely (the brute-force reference);
     at relax = 1 full dominance must keep, for every sample, some
     candidate achieving that sample's maximum driver-output RAT.
     Small trees only: the unpruned frontier grows as 4^positions. *)
  QCheck.Test.make
    ~name:"relax=1 dominance preserves every per-sample optimum (vs brute force)"
    ~count:8
    QCheck.(pair (int_range 2 4) (int_range 0 1000))
    (fun (sinks, seed) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let pruned =
        Sample.Engine.run (config ~samples:16 ()) ~model:(model die) tree
      in
      let brute =
        Sample.Engine.run
          (config ~samples:16 ~relax:2.0 ())
          ~model:(model die) tree
      in
      pruned.Sample.Engine.root_best_per_sample
      = brute.Sample.Engine.root_best_per_sample
      && pruned.Sample.Engine.stats.Bufins.Engine.peak_candidates
         <= brute.Sample.Engine.stats.Bufins.Engine.peak_candidates)

(* ---------- the shared prune kernel ---------- *)

(* Reference: the greedy sweep spelled out.  Sort by (mean load
   ascending, mean RAT descending[, power ascending]) with fl-summed
   means, then keep a candidate unless an earlier kept one ties-or-beats
   it in at least [need] samples (at no more power when power-aware),
   checking every kept one in O(n²). *)
let kernel_reference ~k ~need ~power_aware ~eps ~load ~rat ~power =
  let n = Array.length power in
  let mean a c =
    let s = ref 0.0 in
    for t = 0 to k - 1 do
      s := !s +. a.((c * k) + t)
    done;
    !s /. float_of_int k
  in
  let ml = Array.init n (mean load) and mr = Array.init n (mean rat) in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare ml.(a) ml.(b) in
      if c <> 0 then c
      else
        let c = Float.compare mr.(b) mr.(a) in
        if c <> 0 || not power_aware then c
        else Float.compare power.(a) power.(b))
    order;
  let dominates j i =
    let count = ref 0 in
    for t = 0 to k - 1 do
      let jo = (j * k) + t and io = (i * k) + t in
      if load.(jo) <= load.(io) && rat.(jo) >= rat.(io) then incr count
    done;
    !count >= need
    && ((not power_aware)
       || Bufins.Dominance.power_le ~eps power.(j) power.(i))
  in
  if n <= 1 then Array.init n Fun.id
  else
    Array.of_list
      (Array.fold_left
         (fun kept i ->
           if List.exists (fun j -> dominates j i) kept then kept
           else kept @ [ i ])
         [] order)

(* Dyadic row values: [-1] stands for NaN, [-2] for -0.0, [-3] and
   [-4] for +/-infinity. *)
let dyadic v =
  match v with
  | -1 -> Float.nan
  | -2 -> -0.0
  | -3 -> Float.infinity
  | -4 -> Float.neg_infinity
  | v -> 0.5 *. float_of_int v

(* Rows on a coarse dyadic grid; some rows copy an earlier row and some
   reverse one, so exact duplicates and tied means with different rows
   are both common.  A few rows get a NaN RAT sample, or a +infinity
   one and (with a -infinity beside it) a NaN mean RAT without a NaN
   sample — NaN means the sweep's kept index must scan past — or have
   their zeros negated. *)
let arb_kernel =
  let gen =
    QCheck.Gen.(
      let* k = int_range 1 6 in
      let* n = int_range 1 30 in
      let* need = frequency [ (1, return k); (1, int_range 1 k) ] in
      let* power_aware = bool in
      let* eps = oneofl [ 0.0; 0.5 ] in
      let row = array_repeat k (int_range 0 3) in
      let* fresh = array_repeat n (pair row row) in
      let* shape = array_repeat n (pair (int_range 0 9) (int_range 0 1000)) in
      let* power = array_repeat n (int_range 0 7) in
      let rows = Array.copy fresh in
      Array.iteri
        (fun i (kind, pick) ->
          if i > 0 then
            let l, r = rows.(pick mod i) in
            match kind with
            | 0 -> rows.(i) <- (l, r)
            | 1 ->
              let rev a = Array.init k (fun t -> a.(k - 1 - t)) in
              rows.(i) <- (rev l, rev r)
            | 6 ->
              let r = Array.copy (snd rows.(i)) in
              r.(pick mod k) <- -1;
              rows.(i) <- (fst rows.(i), r)
            | 7 ->
              let neg = Array.map (fun v -> if v = 0 then -2 else v) in
              rows.(i) <- (neg (fst rows.(i)), neg (snd rows.(i)))
            | 8 | 9 ->
              let r = Array.copy (snd rows.(i)) in
              r.(pick mod k) <- -3;
              if kind = 9 && k > 1 then r.((pick + 1) mod k) <- -4;
              rows.(i) <- (fst rows.(i), r)
            | _ -> ())
        shape;
      let flat f =
        Array.concat
          (Array.to_list (Array.map (fun row -> Array.map dyadic (f row)) rows))
      in
      return
        ( k,
          need,
          power_aware,
          eps,
          flat fst,
          flat snd,
          Array.map (fun p -> 0.25 *. float_of_int p) power ))
  in
  QCheck.make gen ~print:(fun (k, need, power_aware, eps, load, rat, power) ->
      let row a c =
        String.concat ","
          (List.init k (fun t -> Printf.sprintf "%g" a.((c * k) + t)))
      in
      Printf.sprintf "k=%d need=%d power_aware=%b eps=%g rows=%s" k need
        power_aware eps
        (String.concat " "
           (List.init (Array.length power) (fun c ->
                Printf.sprintf "[%s|%s|%g]" (row load c) (row rat c) power.(c)))))

let prop_kernel_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"prune kernel = naive dominated-by-earlier-kept reference (kept order)"
    arb_kernel (fun (k, need, power_aware, eps, load, rat, power) ->
      Sample.Engine.sweep_rows ~k ~need ~power_aware ~eps ~check_time:ignore
        ~load ~rat ~power
      = kernel_reference ~k ~need ~power_aware ~eps ~load ~rat ~power)

(* Merge inputs: two sides of rows at a load level and a RAT level
   plus a per-sample jitter of 0 or 0.5, so rows at different load
   levels are sketch-ordered and RAT rows cover one another often
   enough for the pair filter to fire.  Some rows copy another's load
   row (duplicate loads), its RAT row (equal RAT rows, or one raised in
   a single sample) or the whole row reversed (exact ties in both mean
   keys), on either side; some have their zeros negated; at most one
   row gets a NaN RAT sample. *)
let arb_merge =
  let gen =
    QCheck.Gen.(
      let* k = oneofl [ 1; 2; 7; 64 ] in
      let* need =
        frequency [ (4, return k); (1, return (k + 1)); (1, int_range 1 k) ]
      in
      let* power_aware = bool in
      let* eps = oneofl [ 0.0; 0.5 ] in
      let* na = int_range 1 9 and* nb = int_range 1 9 in
      (* Rows of both sides in one array, A first, so shapes can tie a
         row of B to one of A. *)
      let n = na + nb in
      let* base =
        array_repeat n
          (quad (int_range 0 3) (int_range 0 4)
             (array_repeat k (int_range 0 1))
             (array_repeat k (int_range 0 1)))
      in
      let* shape = array_repeat n (pair (int_range 0 7) (int_range 0 1000)) in
      let* power = array_repeat n (int_range 0 3) in
      let* nan = int_range 0 2 and* at = int_range 0 1000 in
      let rows =
        Array.map
          (fun (ll, rl, lj, rj) ->
            ( Array.map (fun j -> (2 * ll) + j) lj,
              Array.map (fun j -> (2 * rl) + j) rj ))
          base
      in
      Array.iteri
        (fun i (kind, pick) ->
          if i > 0 then begin
            let l, r = rows.(pick mod i) in
            let rev a = Array.init k (fun t -> a.(k - 1 - t)) in
            match kind with
            | 0 -> rows.(i) <- (Array.copy l, snd rows.(i))
            | 1 -> rows.(i) <- (fst rows.(i), Array.copy r)
            | 2 -> rows.(i) <- (rev l, rev r)
            | 3 ->
              let neg = Array.map (fun v -> if v = 0 then -2 else v) in
              rows.(i) <- (neg (fst rows.(i)), neg (snd rows.(i)))
            | 4 ->
              (* Covers the picked row's RAT, which misses covering it
                 in exactly one sample. *)
              let r = Array.copy r in
              r.(pick mod k) <- r.(pick mod k) + 1;
              rows.(i) <- (fst rows.(i), r)
            | _ -> ()
          end)
        shape;
      let rows =
        Array.mapi
          (fun i (l, r) ->
            (Array.map dyadic l, Array.map dyadic r, 0.25 *. float_of_int power.(i)))
          rows
      in
      (* Two cases in three get one NaN RAT sample. *)
      if nan < 2 then begin
        let _, r, _ = rows.(at mod n) in
        r.(at mod k) <- Float.nan
      end;
      return
        (k, need, power_aware, eps, Array.sub rows 0 na, Array.sub rows na nb))
  in
  QCheck.make gen ~print:(fun (k, need, power_aware, eps, a, b) ->
      let side rows =
        String.concat " "
          (Array.to_list
             (Array.map
                (fun (l, r, p) ->
                  let row a =
                    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%g") a))
                  in
                  Printf.sprintf "[%s|%s|%g]" (row l) (row r) p)
                rows))
      in
      Printf.sprintf "k=%d need=%d power_aware=%b eps=%g a=%s b=%s" k need
        power_aware eps (side a) (side b))

(* Does [Sample.Engine.merge_rows] return the same kept rows, order,
   choices and powers as the sweep over the explicit cross product? *)
let merge_agrees (k, need, power_aware, eps, a, b) =
  let sol base x (load, rat, power) =
    {
      Sample.Engine.load;
      rat;
      power;
      choice = Bufins.Sol.At_sink (base + x);
    }
  in
  let sa = Array.mapi (sol 0) a and sb = Array.mapi (sol 1000) b in
  let na = Array.length sa and nb = Array.length sb in
  let got =
    Sample.Engine.merge_rows ~k ~need ~power_aware ~eps ~node:7
      ~check:ignore ~check_time:ignore sa sb
  in
  (* Candidate [c] is pair number [ncand - 1 - c] in row-major
     order. *)
  let ncand = na * nb in
  let pair c = ((ncand - 1 - c) / nb, (ncand - 1 - c) mod nb) in
  let row f =
    Array.concat
      (List.init ncand (fun c ->
           let i, j = pair c in
           Array.init k (fun t -> f sa.(i) sb.(j) t)))
  in
  let load =
    row (fun x y t -> x.Sample.Engine.load.(t) +. y.Sample.Engine.load.(t))
  in
  let rat =
    row (fun x y t ->
        Float.min x.Sample.Engine.rat.(t) y.Sample.Engine.rat.(t))
  in
  let power =
    Array.init ncand (fun c ->
        let i, j = pair c in
        sa.(i).Sample.Engine.power +. sb.(j).Sample.Engine.power)
  in
  let want =
    Sample.Engine.sweep_rows ~k ~need ~power_aware ~eps ~check_time:ignore
      ~load ~rat ~power
  in
  let bits a = Array.map Int64.bits_of_float a in
  Array.length got = Array.length want
  && Array.for_all2
       (fun (s : Sample.Engine.sol) c ->
         let i, j = pair c in
         s.Sample.Engine.choice
         = Bufins.Sol.Merged
             {
               node = 7;
               left = Bufins.Sol.At_sink i;
               right = Bufins.Sol.At_sink (1000 + j);
             }
         && bits s.Sample.Engine.load = bits (Array.sub load (c * k) k)
         && bits s.Sample.Engine.rat = bits (Array.sub rat (c * k) k)
         && Int64.bits_of_float s.Sample.Engine.power
            = Int64.bits_of_float power.(c))
       got want

let prop_merge_matches_cross_product =
  QCheck.Test.make ~count:500
    ~name:"merge (pair filter) = sweep over the explicit cross product"
    arb_merge merge_agrees

let test_merge_filter_cases () =
  (* Hand cases the filter must not get wrong.  Cover undecided by the
     sketch and failing only in the last sample: A row 0 has less load
     than A row 1 and RAT (5, 5, 4) against B's (4, 4, 5), so pair
     (0, 0) does not dominate pair (1, 0) and both survive.  Equal
     rows: A's two rows are identical, so pairs (0, 0) and (1, 0) tie
     in every key and the stable sort keeps (1, 0); the filter, which
     needs a strictly smaller mean load, must skip neither. *)
  let row v = Array.make 3 v in
  let cover =
    ( 3,
      [| (row 1.0, [| 5.0; 5.0; 4.0 |], 0.0); (row 2.0, row 9.0, 0.0) |],
      [| (row 1.0, [| 4.0; 4.0; 5.0 |], 0.0) |] )
  in
  let ties =
    ( 1,
      [| ([| 1.0 |], [| 9.0 |], 0.0); ([| 1.0 |], [| 9.0 |], 0.0) |],
      [| ([| 1.0 |], [| 4.0 |], 0.0); ([| 2.0 |], [| 3.0 |], 0.0) |] )
  in
  List.iter
    (fun (what, (k, a, b)) ->
      List.iter
        (fun power_aware ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, power_aware=%b" what power_aware)
            true
            (merge_agrees (k, k, power_aware, 0.0, a, b)))
        [ false; true ])
    [ ("cover decided by the last sample", cover); ("equal load rows", ties) ]

let test_counters_balance () =
  (* Every candidate handed to the sweep is kept or pruned; the pairs it
     considered are counted. *)
  with_obs true (fun () ->
      let get name = Obs.Counters.get Obs.Counters.global name in
      let g0 = get "sample.generated" and k0 = get "sample.kept"
      and p0 = get "sample.pruned" and c0 = get "sample.dominance_checks"
      and s0 = get "sample.pairs_skipped" in
      let die = 4000.0 in
      let tree =
        Rctree.Generate.random_steiner ~seed:7 ~sinks:24 ~die_um:die ()
      in
      ignore (Sample.Engine.run (config ()) ~model:(model die) tree);
      let g = get "sample.generated" - g0 and k = get "sample.kept" - k0
      and p = get "sample.pruned" - p0 in
      Alcotest.(check bool) "candidates were generated" true (g > 0);
      Alcotest.(check int) "generated = kept + pruned" g (k + p);
      (* Merge pairs the filter skips count as generated and pruned. *)
      let sk = get "sample.pairs_skipped" - s0 in
      Alcotest.(check bool) "merge pairs were skipped" true (sk > 0);
      Alcotest.(check bool) "pairs_skipped <= pruned" true (sk <= p);
      Alcotest.(check bool) "dominance checks counted" true
        (get "sample.dominance_checks" - c0 > 0))

let test_merge_budget_trips () =
  (* A candidate budget trips inside the first merge whose cross
     product exceeds it, after exactly limit + 1 pairs, with the
     canonical engine's message: the lazy merge checks the budget once
     per pair, in row-major pair order, before staging that pair's
     keys.  The messages are pinned. *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks:24 ~die_um:die () in
  List.iter
    (fun (limit, expect) ->
      let cfg =
        {
          (config ()) with
          Sample.Engine.budget =
            {
              Bufins.Engine.no_budget with
              Bufins.Engine.max_candidates = Some limit;
            };
        }
      in
      let msg f =
        match f () with
        | _ -> "completed"
        | exception Bufins.Engine.Budget_exceeded m -> m
      in
      Alcotest.(check string)
        (Printf.sprintf "tape, limit %d" limit)
        expect
        (msg (fun () ->
             Sample.Engine.run_tape cfg ~model:(model die)
               (Compile.Tape.compile tree))))
    [
      (40, "candidate limit 40 exceeded at merge at node 4 (41)");
      (400, "candidate limit 400 exceeded at merge at node 3 (401)");
    ]

(* ---------- cross-validation against the canonical engines ---------- *)

let test_nom_model_matches_deterministic_optimum () =
  (* Under a Nom model every sample sees the same (nominal) process, so
     the K-vectors are constant: std must vanish and the optimum must
     equal the canonical deterministic DP's root RAT. *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:11 ~sinks:10 ~die_um:die () in
  let r =
    Sample.Engine.run
      (config ~samples:32 ())
      ~model:(model ~mode:Varmodel.Model.Nom die)
      tree
  in
  Alcotest.(check (float 1e-9)) "sampled std is zero" 0.0
    r.Sample.Engine.sampled_std;
  Alcotest.(check (float 1e-9))
    "quantile equals mean when samples are constant" r.Sample.Engine.sampled_mean
    r.Sample.Engine.rat_at_yield;
  let det =
    Bufins.Engine.run
      {
        (Bufins.Engine.default_config ~rule:Bufins.Prune.deterministic ()) with
        Bufins.Engine.tech;
        library;
      }
      ~model:(model ~mode:Varmodel.Model.Nom die)
      tree
  in
  Alcotest.(check (float 1e-6))
    "sampled optimum = deterministic optimum"
    (Linform.mean det.Bufins.Engine.root_rat)
    r.Sample.Engine.sampled_mean

let test_wid_tracks_canonical_yield () =
  (* Under WID the sampled quantile and the canonical (linearised,
     Clark-merged) prediction are different approximations of the same
     quantity; on a small net they must agree to a few percent. *)
  let setup = Experiments.Common.default_setup in
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:5 ~sinks:12 ~die_um:die () in
  let spatial = Varmodel.Model.default_heterogeneous in
  let grid = grid die in
  let r =
    Experiments.Common.run_sampled setup ~samples:256 ~spatial ~grid
      Experiments.Common.Wid tree
  in
  let form =
    Experiments.Common.evaluate setup ~spatial ~grid tree
      ~widths:r.Sample.Engine.widths r.Sample.Engine.buffers
  in
  let close what a b =
    let tol = 0.05 *. Float.max (Float.abs a) (Float.abs b) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: sampled %.1f vs canonical %.1f" what a b)
      true
      (Float.abs (a -. b) <= tol)
  in
  close "mean" r.Sample.Engine.sampled_mean (Linform.mean form);
  close "95%-yield RAT" r.Sample.Engine.rat_at_yield
    (Sta.Yield.rat_at_yield form ~yield:0.95)

(* ---------- wire codecs ---------- *)

let small_tree =
  lazy (Rctree.Generate.random_steiner ~seed:3 ~sinks:4 ~die_um:4000.0 ())

let test_v1_request_fields () =
  let tree = Lazy.force small_tree in
  let plain = Serve.Protocol.default_request ~tree in
  let b = Serve.Protocol.encode_request plain in
  (* The defaults are omitted, so pre-sample requests (and their cache
     keys) keep their exact historical bytes. *)
  List.iter
    (fun line ->
      let k = String.length line in
      let rec occurs i =
        i + k <= String.length b && (String.sub b i k = line || occurs (i + 1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S absent from default encoding" line)
        false (occurs 0))
    [ "samples"; "relax" ];
  let req = { plain with Serve.Protocol.samples = 512; relax = 1.5 } in
  let b = Serve.Protocol.encode_request req in
  let req' = Serve.Protocol.decode_request b in
  Alcotest.(check int) "samples round-trips" 512 req'.Serve.Protocol.samples;
  Alcotest.(check (float 0.0)) "relax round-trips" 1.5
    req'.Serve.Protocol.relax;
  Alcotest.(check string) "re-encoding is stable" b
    (Serve.Protocol.encode_request req')

let sampled_response sampled =
  {
    Serve.Protocol.r_id = 9;
    nodes = 17;
    peak_candidates = 23;
    total_candidates = 99;
    root_mean = -1234.5;
    root_std = 45.6;
    root_yield95 = -1309.8;
    sampled;
    mc = None;
    r_power = None;
    assignment = { Bufins.Assignment.buffers = []; widths = [] };
  }

let test_sampled_response_roundtrips () =
  let some =
    Some
      {
        Serve.Protocol.s_k = 256;
        s_mean = -1230.25;
        s_std = 44.125;
        s_rat_at_yield = -1301.5;
      }
  in
  List.iter
    (fun sampled ->
      let r = sampled_response sampled in
      (* v1 text. *)
      let b = Serve.Protocol.encode_response r in
      let r' = Serve.Protocol.decode_response b in
      Alcotest.(check bool) "v1 sampled block round-trips" true
        (r'.Serve.Protocol.sampled = sampled);
      Alcotest.(check string) "v1 re-encoding is stable" b
        (Serve.Protocol.encode_response r');
      (* v2 binary. *)
      let bb = Serve.Codec_bin.encode_response r in
      let rb = Serve.Codec_bin.decode_response bb in
      Alcotest.(check bool) "v2 sampled block round-trips" true
        (rb.Serve.Protocol.sampled = sampled);
      Alcotest.(check string) "v2 re-encoding is bit-exact" bb
        (Serve.Codec_bin.encode_response rb))
    [ None; some ]

let test_v2_request_fields () =
  let tree = Lazy.force small_tree in
  let req =
    {
      (Serve.Protocol.default_request ~tree) with
      Serve.Protocol.id = 77;
      samples = 1024;
      relax = 0.75;
    }
  in
  let b = Serve.Codec_bin.encode_request req in
  let req' = Serve.Codec_bin.decode_request b in
  Alcotest.(check int) "samples round-trips" 1024 req'.Serve.Protocol.samples;
  Alcotest.(check (float 0.0)) "relax round-trips" 0.75
    req'.Serve.Protocol.relax;
  Alcotest.(check string) "re-encoding is bit-exact" b
    (Serve.Codec_bin.encode_request req');
  (* The router helpers must keep working with the new head fields. *)
  let b' = Serve.Codec_bin.with_request_id b 5 in
  Alcotest.(check int) "id rewrite" 5 (Serve.Codec_bin.request_id b');
  Alcotest.(check int) "samples survive id rewrite" 1024
    (Serve.Codec_bin.decode_request b').Serve.Protocol.samples;
  let off, len = Serve.Codec_bin.request_tree_span b in
  Alcotest.(check int) "tree is the payload tail" (String.length b) (off + len)

(* ---------- the deadline inside a prune sweep ---------- *)

(* [n] rows of [k] samples where load and RAT rise together, so no row
   dominates another in any sample: the sweep keeps every row and
   visits all [n] candidates. *)
let incomparable_rows ~k n =
  let load =
    Array.init (n * k) (fun i ->
        float_of_int (i / k) +. (0.001 *. float_of_int (i mod k)))
  in
  let rat = Array.init (n * k) (fun i -> float_of_int (i / k)) in
  (load, rat, Array.make n 0.0)

let sweep_incomparable ~k ~need ~check_time n =
  let load, rat, power = incomparable_rows ~k n in
  Sample.Engine.sweep_rows ~k ~need ~power_aware:false ~eps:0.0 ~check_time
    ~load ~rat ~power

let test_sweep_reads_clock () =
  (* A sweep reads the deadline once per 1024 candidates it visits, at
     need = K (mean-RAT index) and below it (kept scan) alike. *)
  let k = 8 and n = 5000 in
  List.iter
    (fun need ->
      let calls = ref 0 in
      let kept =
        sweep_incomparable ~k ~need ~check_time:(fun () -> incr calls) n
      in
      Alcotest.(check int) (Printf.sprintf "need=%d keeps every row" need) n
        (Array.length kept);
      Alcotest.(check int)
        (Printf.sprintf "need=%d clock reads" need)
        (n / 1024) !calls)
    [ k; k - 1 ]

let test_tripped_sweep_leaves_arena_reusable () =
  (* A deadline raised mid-sweep leaves the domain's scratch arena with
     a half-built kept block; the next sweep and the next engine run on
     the same domain must not see it. *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks:16 ~die_um:die () in
  let run () = strip (Sample.Engine.run (config ()) ~model:(model die) tree) in
  let before = run () in
  let k = 8 and n = 5000 in
  let whole = sweep_incomparable ~k ~need:k ~check_time:ignore n in
  let calls = ref 0 in
  (match
     sweep_incomparable ~k ~need:k
       ~check_time:(fun () ->
         incr calls;
         raise Exit)
       n
   with
  | _ -> Alcotest.fail "the sweep never read the deadline"
  | exception Exit -> ());
  Alcotest.(check int) "tripped at the first clock read" 1 !calls;
  Alcotest.(check bool) "engine run after the trip = before" true
    (run () = before);
  Alcotest.(check bool) "sweep after the trip = before" true
    (sweep_incomparable ~k ~need:k ~check_time:ignore n = whole)

let suite =
  [
    Alcotest.test_case "sample matrix is draw-order independent" `Quick
      test_matrix_order_independent;
    Alcotest.test_case "engine identical across jobs and obs" `Quick
      test_jobs_and_obs_identical;
    qcheck prop_pruning_preserves_per_sample_optimum;
    qcheck prop_kernel_matches_reference;
    Alcotest.test_case "obs counters balance on a live run" `Quick
      test_counters_balance;
    Alcotest.test_case "candidate budget trips inside a lazy merge" `Quick
      test_merge_budget_trips;
    Alcotest.test_case "Nom model reproduces the deterministic optimum" `Quick
      test_nom_model_matches_deterministic_optimum;
    Alcotest.test_case "WID sampled yield tracks the canonical prediction"
      `Quick test_wid_tracks_canonical_yield;
    Alcotest.test_case "v1 request sample fields" `Quick test_v1_request_fields;
    Alcotest.test_case "sampled response round-trips (v1 and v2)" `Quick
      test_sampled_response_roundtrips;
    Alcotest.test_case "v2 request sample fields" `Quick test_v2_request_fields;
    qcheck prop_merge_matches_cross_product;
    Alcotest.test_case "merge pair filter hand cases" `Quick
      test_merge_filter_cases;
    Alcotest.test_case "prune sweep reads the deadline every 1024" `Quick
      test_sweep_reads_clock;
    Alcotest.test_case "tripped sweep leaves the arena reusable" `Quick
      test_tripped_sweep_leaves_arena_reusable;
  ]
