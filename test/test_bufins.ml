(* Tests for the core DP: pruning rules, linear merge, the engine, and
   cross-validation against both an independent reference
   implementation and brute-force enumeration. *)

let tech = Device.Tech.default_65nm
let library = Device.Buffer.default_library

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0 ~range_um:2000.0

let model ?(mode = Varmodel.Model.Nom) die =
  Varmodel.Model.create ~mode ~spatial:Varmodel.Model.default_heterogeneous
    ~grid:(grid die) ()

let config ?(rule = Bufins.Prune.two_param ()) ?budget () =
  {
    (Bufins.Engine.default_config ~rule ()) with
    Bufins.Engine.tech;
    library;
    budget = Option.value budget ~default:Bufins.Engine.no_budget;
  }

let mk_sol ?(sens_l = []) ?(sens_t = []) l t =
  {
    Bufins.Sol.load = Linform.make ~nominal:l ~sens:sens_l;
    rat = Linform.make ~nominal:t ~sens:sens_t;
    power = 0.0;
    choice = Bufins.Sol.At_sink 0;
  }

let frontier sols =
  List.map (fun s -> (Bufins.Sol.mean_load s, Bufins.Sol.mean_rat s)) sols

(* The production API works on array frontiers; lists stay nicer to
   write test fixtures and expectations in. *)
let prune_list rule sols =
  Array.to_list (Bufins.Prune.prune rule (Array.of_list sols))

let merge_list ~node a b =
  Array.to_list
    (Bufins.Engine.merge_frontiers ~node (Array.of_list a) (Array.of_list b))

(* ---------- pruning rules ---------- *)

let test_det_prune () =
  let sols = [ mk_sol 10.0 100.0; mk_sol 12.0 90.0; mk_sol 11.0 105.0; mk_sol 20.0 120.0 ] in
  let kept = prune_list Bufins.Prune.deterministic sols in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "frontier"
    [ (10.0, 100.0); (11.0, 105.0); (20.0, 120.0) ]
    (frontier kept)

let test_det_prune_duplicates () =
  let sols = [ mk_sol 10.0 100.0; mk_sol 10.0 100.0; mk_sol 10.0 100.0 ] in
  Alcotest.(check int) "dedup" 1
    (List.length (prune_list Bufins.Prune.deterministic sols))

let test_2p_half_equals_det () =
  let sols =
    [
      mk_sol ~sens_l:[ (1, 1.0) ] ~sens_t:[ (2, 5.0) ] 10.0 100.0;
      mk_sol ~sens_l:[ (3, 2.0) ] ~sens_t:[ (4, 3.0) ] 12.0 90.0;
      mk_sol ~sens_l:[ (5, 1.5) ] ~sens_t:[ (6, 4.0) ] 11.0 105.0;
      mk_sol 20.0 120.0;
    ]
  in
  let det = frontier (prune_list Bufins.Prune.deterministic sols) in
  let tp = frontier (prune_list (Bufins.Prune.two_param ()) sols) in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "2P(0.5) = deterministic on means" det tp

let test_2p_stricter_threshold_prunes_less () =
  (* With p = 0.9 the mean gap must exceed ~1.28 sigma of the diff, so
     close-mean candidates survive. *)
  let sols =
    [
      mk_sol ~sens_l:[ (1, 1.0) ] ~sens_t:[ (2, 10.0) ] 10.0 100.0;
      mk_sol ~sens_l:[ (3, 1.0) ] ~sens_t:[ (4, 10.0) ] 10.5 99.0;
    ]
  in
  Alcotest.(check int) "p=0.5 prunes" 1
    (List.length (prune_list (Bufins.Prune.two_param ()) sols));
  Alcotest.(check int) "p=0.9 keeps both" 2
    (List.length
       (prune_list (Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ()) sols))

let test_2p_dominance_eq67 () =
  (* Eq. 6-7 directly: P(L1<L2) and P(T1>T2) must both clear the bar. *)
  let a = mk_sol ~sens_l:[ (1, 0.1) ] ~sens_t:[ (2, 1.0) ] 10.0 110.0 in
  let b = mk_sol ~sens_l:[ (3, 0.1) ] ~sens_t:[ (4, 1.0) ] 15.0 100.0 in
  let rule = Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 () in
  Alcotest.(check bool) "a dominates b" true (Bufins.Prune.dominates rule a b);
  Alcotest.(check bool) "b does not dominate a" false (Bufins.Prune.dominates rule b a)

let test_1p_prune () =
  (* 1P orders by the alpha-percentiles; a high-variance candidate with
     a slightly better mean can lose at alpha = 0.95. *)
  let a = mk_sol ~sens_l:[ (1, 5.0) ] 10.0 100.0 in
  let b = mk_sol ~sens_l:[ (2, 0.1) ] 11.0 100.0 in
  let rule = Bufins.Prune.one_param ~alpha:0.95 in
  (* pi_95(L_a) = 10 + 1.645*5 > pi_95(L_b) = 11 + 0.16: b dominates a. *)
  Alcotest.(check bool) "b dominates a on percentiles" true
    (Bufins.Prune.dominates rule b a);
  Alcotest.(check int) "prune keeps one" 1
    (List.length (prune_list rule [ a; b ]))

let test_4p_interval_dominance () =
  let rule = Bufins.Prune.four_param ~alpha_l:0.05 ~alpha_u:0.95 ~beta_l:0.05 ~beta_u:0.95 () in
  (* Clearly separated intervals: dominance holds. *)
  let a = mk_sol ~sens_l:[ (1, 0.5) ] ~sens_t:[ (2, 1.0) ] 10.0 150.0 in
  let b = mk_sol ~sens_l:[ (3, 0.5) ] ~sens_t:[ (4, 1.0) ] 20.0 100.0 in
  Alcotest.(check bool) "separated intervals dominate" true
    (Bufins.Prune.dominates rule a b);
  (* Overlapping intervals: no dominance either way. *)
  let c = mk_sol ~sens_l:[ (5, 5.0) ] ~sens_t:[ (6, 1.0) ] 11.0 100.0 in
  Alcotest.(check bool) "overlap -> no dominance" false
    (Bufins.Prune.dominates rule a c && Bufins.Prune.dominates rule c a)

let test_4p_prune_same_load_group () =
  (* Same load distribution, clearly ordered rats: the group rule must
     collapse them (cf. the equal-load special case). *)
  let same_load t = mk_sol ~sens_l:[ (1, 1.0) ] ~sens_t:[ (2, 1.0) ] 10.0 t in
  let sols = [ same_load 100.0; same_load 150.0; same_load 50.0 ] in
  let kept = prune_list (Bufins.Prune.four_param ()) sols in
  Alcotest.(check int) "one survivor" 1 (List.length kept);
  Alcotest.(check (float 1e-9)) "best rat survives" 150.0
    (Bufins.Sol.mean_rat (List.hd kept))

let test_prune_parameter_validation () =
  Alcotest.check_raises "2P below 0.5"
    (Invalid_argument "Prune.two_param: parameters must lie in [0.5, 1]")
    (fun () -> ignore (Bufins.Prune.two_param ~p_l:0.4 ()));
  Alcotest.check_raises "1P range"
    (Invalid_argument "Prune.one_param: alpha must lie in (0, 1)") (fun () ->
      ignore (Bufins.Prune.one_param ~alpha:1.0));
  Alcotest.check_raises "4P order"
    (Invalid_argument "Prune.four_param: need 0 <= alpha_l < alpha_u <= 1")
    (fun () -> ignore (Bufins.Prune.four_param ~alpha_l:0.9 ~alpha_u:0.1 ()))

let prop_prune_keeps_best_rat =
  (* Whatever the rule, pruning must keep a candidate achieving the
     maximal mean RAT (it is non-dominated under every rule). *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair (float_range 1.0 100.0) (float_range 0.0 200.0)))
  in
  QCheck.Test.make ~name:"pruning keeps a max-RAT candidate" ~count:200
    (QCheck.make gen) (fun pts ->
      let sols = List.map (fun (l, t) -> mk_sol l t) pts in
      let best = List.fold_left (fun acc (_, t) -> Float.max acc t) neg_infinity pts in
      List.for_all
        (fun rule ->
          let kept = prune_list rule sols in
          List.exists (fun s -> Bufins.Sol.mean_rat s >= best -. 1e-9) kept)
        [
          Bufins.Prune.deterministic;
          Bufins.Prune.two_param ();
          Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ();
          Bufins.Prune.one_param ~alpha:0.95;
          Bufins.Prune.four_param ();
        ])

let prop_prune_output_sorted_nondominated =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (pair (float_range 1.0 100.0) (float_range 0.0 200.0)))
  in
  QCheck.Test.make ~name:"2P prune output is a strict frontier" ~count:200
    (QCheck.make gen) (fun pts ->
      let sols = List.map (fun (l, t) -> mk_sol l t) pts in
      let kept = frontier (prune_list (Bufins.Prune.two_param ()) sols) in
      let rec strictly_increasing = function
        | (l1, t1) :: ((l2, t2) :: _ as rest) ->
          l1 < l2 && t1 < t2 && strictly_increasing rest
        | _ -> true
      in
      strictly_increasing kept)

(* ---------- array prune vs list-based reference ---------- *)

(* Solutions drawn from small integer grids so exact duplicates and
   mean ties are common — the cases where sort stability and the
   duplicate-collapse clause decide which candidate survives. *)
let prune_sols_gen =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (let* l = int_range 1 25 in
       let* t = int_range 0 30 in
       let* sl = int_range 0 4 in
       let* st = int_range 0 4 in
       return
         (mk_sol
            ~sens_l:(if sl = 0 then [] else [ (1, float_of_int sl) ])
            ~sens_t:(if st = 0 then [] else [ (2, float_of_int st) ])
            (float_of_int l) (float_of_int t))))

(* The pre-rewrite sweep: sort by the rule's load key (RAT key
   descending on ties), then drop a candidate iff some already-kept
   solution dominates it.  No running-maximum fast path, no mean
   prefilter — this is the executable spec the array sweep's
   monotone-frontier shortcuts must not deviate from. *)
let reference_prune_linear ~load_key ~rat_key rule sols =
  let sorted =
    List.stable_sort
      (fun a b ->
        let c = Float.compare (load_key a) (load_key b) in
        if c <> 0 then c else Float.compare (rat_key b) (rat_key a))
      sols
  in
  List.rev
    (List.fold_left
       (fun kept s ->
         if List.exists (fun k -> Bufins.Prune.dominates rule k s) kept then kept
         else s :: kept)
       [] sorted)

let prop_prune_matches_list_reference =
  QCheck.Test.make ~name:"array prune = list reference (det/2P/1P)" ~count:300
    (QCheck.make prune_sols_gen) (fun sols ->
      let mean_l = Bufins.Sol.mean_load and mean_r = Bufins.Sol.mean_rat in
      let pctl_l s = Linform.percentile s.Bufins.Sol.load 0.95 in
      let pctl_r s = Linform.percentile s.Bufins.Sol.rat 0.95 in
      List.for_all
        (fun (rule, load_key, rat_key) ->
          let expect = reference_prune_linear ~load_key ~rat_key rule sols in
          let got = prune_list rule sols in
          (* Physically the same solutions, in the same order. *)
          List.length expect = List.length got
          && List.for_all2 (fun a b -> a == b) expect got)
        [
          (Bufins.Prune.deterministic, mean_l, mean_r);
          (Bufins.Prune.two_param (), mean_l, mean_r);
          (Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 (), mean_l, mean_r);
          (Bufins.Prune.two_param ~p_l:0.7 ~p_t:0.95 (), mean_l, mean_r);
          (Bufins.Prune.one_param ~alpha:0.95, pctl_l, pctl_r);
        ])

(* 4P reference: the same quantum dedup and equal-load group collapse
   the production rule applies (both predate the array rewrite), then a
   naive quadratic all-pairs dominance filter in place of the
   two-pointer sweep.  Output order is implementation-defined, so the
   comparison is as a set of physical solutions. *)
let reference_prune_4p rule sols =
  let q x = Float.round (x /. 0.01) in
  let seen = Hashtbl.create 16 in
  let deduped =
    List.filter
      (fun (s : Bufins.Sol.t) ->
        let key =
          ( q (Bufins.Sol.mean_load s),
            q (Bufins.Sol.mean_rat s),
            q (Linform.std s.Bufins.Sol.load),
            q (Linform.std s.Bufins.Sol.rat) )
        in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      sols
  in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (s : Bufins.Sol.t) ->
      let key = (q (Bufins.Sol.mean_load s), q (Linform.std s.Bufins.Sol.load)) in
      Hashtbl.replace groups key
        (s :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
    deduped;
  let survivors =
    Hashtbl.fold
      (fun _ group acc ->
        let sorted =
          List.sort
            (fun a b -> compare (Bufins.Sol.mean_rat b) (Bufins.Sol.mean_rat a))
            group
        in
        let kept, _ =
          List.fold_left
            (fun (kept, best_lo) (s : Bufins.Sol.t) ->
              if best_lo > Linform.percentile s.Bufins.Sol.rat 0.55 then
                (kept, best_lo)
              else
                ( s :: kept,
                  Float.max best_lo (Linform.percentile s.Bufins.Sol.rat 0.45) ))
            ([], neg_infinity) sorted
        in
        List.rev_append kept acc)
      groups []
  in
  List.filter
    (fun s ->
      not
        (List.exists
           (fun k -> k != s && Bufins.Prune.dominates rule k s)
           survivors))
    survivors

let prop_prune_4p_matches_quadratic_reference =
  QCheck.Test.make ~name:"4P prune = quadratic reference (as a set)" ~count:200
    (QCheck.make prune_sols_gen) (fun sols ->
      let rule = Bufins.Prune.four_param () in
      let expect = reference_prune_4p rule sols in
      let got = prune_list rule sols in
      List.length expect = List.length got
      && List.for_all (fun s -> List.memq s expect) got)

(* ---------- linear merge ---------- *)

let test_merge_frontiers_count_and_order () =
  let a = [ mk_sol 10.0 100.0; mk_sol 20.0 140.0; mk_sol 40.0 200.0 ] in
  let b = [ mk_sol 12.0 110.0; mk_sol 25.0 160.0; mk_sol 50.0 230.0 ] in
  let merged = merge_list ~node:0 a b in
  Alcotest.(check bool) "at most n+m-1" true (List.length merged <= 5);
  let f = frontier merged in
  Alcotest.(check (list (pair (float 1e-6) (float 1e-6))))
    "figure-1 frontier"
    [ (22.0, 100.0); (32.0, 110.0); (45.0, 140.0); (65.0, 160.0); (90.0, 200.0) ]
    f

let test_merge_frontiers_load_adds () =
  let a = [ mk_sol 10.0 100.0 ] and b = [ mk_sol 7.0 50.0 ] in
  match merge_list ~node:3 a b with
  | [ m ] ->
    Alcotest.(check (float 1e-9)) "load sum" 17.0 (Bufins.Sol.mean_load m);
    Alcotest.(check (float 1e-9)) "rat min" 50.0 (Bufins.Sol.mean_rat m);
    (match m.Bufins.Sol.choice with
    | Bufins.Sol.Merged { node = 3; _ } -> ()
    | _ -> Alcotest.fail "merge choice recorded")
  | other -> Alcotest.failf "expected 1 merged, got %d" (List.length other)

(* ---------- engine vs reference vs brute force ---------- *)

let test_engine_nom_matches_reference () =
  List.iter
    (fun (sinks, seed) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let det = Bufins.Det.run ~tech ~library tree in
      let eng =
        Bufins.Engine.run (config ~rule:Bufins.Prune.deterministic ())
          ~model:(model die) tree
      in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "RAT matches (n=%d seed=%d)" sinks seed)
        det.Bufins.Det.root_rat
        (Linform.mean eng.Bufins.Engine.root_rat);
      Alcotest.(check int) "buffer count matches"
        (List.length det.Bufins.Det.buffers)
        (List.length eng.Bufins.Engine.buffers))
    [ (5, 1); (20, 2); (20, 3); (100, 4); (137, 5) ]

(* Exhaustive enumeration of every buffer (and optionally wire-width)
   assignment on a tiny tree; the DP must achieve exactly the
   optimum. *)
let brute_force_best ?wires tree =
  let n = Rctree.Tree.node_count tree in
  let sites = List.init (n - 1) (fun i -> i + 1) in
  let best = ref neg_infinity in
  let buffer_options =
    None :: List.init (Array.length library) (fun i -> Some library.(i))
  in
  let width_options =
    match wires with
    | None -> [ None ]
    | Some ws -> List.init (Array.length ws) (fun i -> if i = 0 then None else Some ws.(i))
  in
  let options =
    List.concat_map
      (fun b -> List.map (fun w -> (b, w)) width_options)
      buffer_options
  in
  let rec go sites assignment =
    match sites with
    | [] ->
      let buffers =
        List.filter_map (fun (v, (b, _)) -> Option.map (fun b -> (v, b)) b) assignment
      in
      let widths =
        List.filter_map (fun (v, (_, w)) -> Option.map (fun w -> (v, w)) w) assignment
      in
      let buffered = Sta.Buffered.make ~tech ~widths tree buffers in
      let inst = Sta.Buffered.instantiate ~model:(model 4000.0) buffered in
      let rat = Sta.Buffered.sample_rat inst ~lookup:(fun _ -> 0.0) in
      if rat > !best then best := rat
    | site :: rest ->
      List.iter (fun opt -> go rest ((site, opt) :: assignment)) options
  in
  go sites [];
  !best

let test_engine_matches_brute_force () =
  List.iter
    (fun (sinks, seed) ->
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:2000.0 () in
      let opt = brute_force_best tree in
      let eng =
        Bufins.Engine.run (config ~rule:Bufins.Prune.deterministic ())
          ~model:(model 2000.0) tree
      in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "optimal (n=%d seed=%d)" sinks seed)
        opt
        (Linform.mean eng.Bufins.Engine.root_rat))
    [ (2, 1); (3, 2); (3, 3); (4, 4) ]

let test_wire_sizing_matches_brute_force () =
  let wires = Device.Wire_lib.default_library tech in
  List.iter
    (fun (sinks, seed) ->
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:2000.0 () in
      let opt = brute_force_best ~wires tree in
      let cfg =
        { (config ~rule:Bufins.Prune.deterministic ()) with Bufins.Engine.wires }
      in
      let eng = Bufins.Engine.run cfg ~model:(model 2000.0) tree in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "optimal with sizing (n=%d seed=%d)" sinks seed)
        opt
        (Linform.mean eng.Bufins.Engine.root_rat))
    [ (2, 1); (3, 2) ]

let test_wire_sizing_never_hurts () =
  (* The singleton-width frontier is a subset of the sized one. *)
  let die = 6000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:81 ~sinks:40 ~die_um:die () in
  let base =
    Bufins.Engine.run (config ~rule:Bufins.Prune.deterministic ()) ~model:(model die)
      tree
  in
  let sized =
    Bufins.Engine.run
      { (config ~rule:Bufins.Prune.deterministic ()) with
        Bufins.Engine.wires = Device.Wire_lib.default_library tech }
      ~model:(model die) tree
  in
  Alcotest.(check bool) "sized >= base" true
    (Linform.mean sized.Bufins.Engine.root_rat
    >= Linform.mean base.Bufins.Engine.root_rat -. 1e-9)

let test_wire_sizing_backtracking_consistency () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:82 ~sinks:30 ~die_um:die () in
  let cfg =
    { (config ~rule:Bufins.Prune.deterministic ()) with
      Bufins.Engine.wires = Device.Wire_lib.default_library tech }
  in
  let eng = Bufins.Engine.run cfg ~model:(model die) tree in
  let buffered =
    Sta.Buffered.make ~tech ~widths:eng.Bufins.Engine.widths tree
      eng.Bufins.Engine.buffers
  in
  let inst = Sta.Buffered.instantiate ~model:(model die) buffered in
  let rat = Sta.Buffered.sample_rat inst ~lookup:(fun _ -> 0.0) in
  Alcotest.(check (float 1e-6)) "replayed sized RAT"
    (Linform.mean eng.Bufins.Engine.root_rat)
    rat

let test_backtracking_consistency () =
  (* Re-evaluating the engine's chosen buffering must reproduce the
     engine's own root RAT (deterministic mode). *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:11 ~sinks:60 ~die_um:die () in
  let eng =
    Bufins.Engine.run (config ~rule:Bufins.Prune.deterministic ()) ~model:(model die)
      tree
  in
  let buffered = Sta.Buffered.make ~tech tree eng.Bufins.Engine.buffers in
  let inst = Sta.Buffered.instantiate ~model:(model die) buffered in
  let rat = Sta.Buffered.sample_rat inst ~lookup:(fun _ -> 0.0) in
  Alcotest.(check (float 1e-6)) "replayed RAT" (Linform.mean eng.Bufins.Engine.root_rat) rat

let test_statistical_backtracking_consistency () =
  (* Same replay in full WID mode: canonical re-evaluation of the
     chosen buffering must reproduce the engine's root RAT form. *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:12 ~sinks:40 ~die_um:die () in
  let m = model ~mode:Varmodel.Model.Wid die in
  let eng = Bufins.Engine.run (config ()) ~model:m tree in
  let buffered = Sta.Buffered.make ~tech tree eng.Bufins.Engine.buffers in
  let m2 = model ~mode:Varmodel.Model.Wid die in
  let inst = Sta.Buffered.instantiate ~model:m2 buffered in
  let form = Sta.Buffered.canonical_rat inst in
  Alcotest.(check (float 1e-6)) "replayed mean"
    (Linform.mean eng.Bufins.Engine.root_rat)
    (Linform.mean form);
  Alcotest.(check (float 1e-6)) "replayed sigma"
    (Linform.std eng.Bufins.Engine.root_rat)
    (Linform.std form)

let test_buffers_improve_rat () =
  (* On a long 2-sink net the buffered optimum must beat the unbuffered
     tree. *)
  let tree = Rctree.Generate.random_steiner ~seed:21 ~sinks:2 ~die_um:8000.0 () in
  let unbuffered =
    let inst =
      Sta.Buffered.instantiate ~model:(model 8000.0) (Sta.Buffered.make ~tech tree [])
    in
    Sta.Buffered.sample_rat inst ~lookup:(fun _ -> 0.0)
  in
  let eng =
    Bufins.Engine.run (config ~rule:Bufins.Prune.deterministic ()) ~model:(model 8000.0)
      tree
  in
  Alcotest.(check bool) "buffering helps" true
    (Linform.mean eng.Bufins.Engine.root_rat > unbuffered);
  Alcotest.(check bool) "some buffer inserted" true
    (List.length eng.Bufins.Engine.buffers > 0)

let test_rules_agree_on_deterministic_input () =
  (* In NOM mode all four rules must find the same optimal RAT. *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:31 ~sinks:50 ~die_um:die () in
  let rat rule =
    Linform.mean
      (Bufins.Engine.run (config ~rule ()) ~model:(model die) tree).Bufins.Engine
        .root_rat
  in
  let reference = rat Bufins.Prune.deterministic in
  List.iter
    (fun rule ->
      Alcotest.(check (float 1e-6))
        (Bufins.Prune.name rule ^ " matches det")
        reference (rat rule))
    [
      Bufins.Prune.two_param ();
      Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ();
      Bufins.Prune.one_param ~alpha:0.95;
      Bufins.Prune.four_param ();
    ]

let test_wid_rules_agree_on_small_tree () =
  (* 4P keeps a superset of 2P's frontier, so on instances it can
     finish both must reach the same optimum (mean objective). *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:41 ~sinks:24 ~die_um:die () in
  let run rule =
    Bufins.Engine.run
      { (config ~rule ()) with Bufins.Engine.objective = Bufins.Engine.Max_mean }
      ~model:(model ~mode:Varmodel.Model.Wid die) tree
  in
  let two = run (Bufins.Prune.two_param ()) in
  let four = run (Bufins.Prune.four_param ()) in
  let m2 = Linform.mean two.Bufins.Engine.root_rat in
  let m4 = Linform.mean four.Bufins.Engine.root_rat in
  Alcotest.(check bool)
    (Printf.sprintf "4P (%.2f) >= 2P (%.2f) - eps" m4 m2)
    true
    (m4 >= m2 -. 0.5)

let test_budget_candidates () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:51 ~sinks:100 ~die_um:die () in
  let budget = { Bufins.Engine.max_candidates = Some 3; max_seconds = None } in
  Alcotest.(check bool) "raises Budget_exceeded" true
    (try
       ignore
         (Bufins.Engine.run (config ~budget ()) ~model:(model die) tree);
       false
     with Bufins.Engine.Budget_exceeded _ -> true)

let test_budget_time () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:52 ~sinks:500 ~die_um:die () in
  let budget = { Bufins.Engine.max_candidates = None; max_seconds = Some 0.0 } in
  Alcotest.(check bool) "raises Budget_exceeded" true
    (try
       ignore (Bufins.Engine.run (config ~budget ()) ~model:(model die) tree);
       false
     with Bufins.Engine.Budget_exceeded _ -> true)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_merge_cross_check_abort () =
  (* The quadratic merge calls [check] before storing each combination;
     an exception at count 1024 — the engine's in-loop deadline cadence
     — must abort the merge mid-loop rather than after it. *)
  let mk n =
    Array.init n (fun i ->
        mk_sol (10.0 +. float_of_int i) (100.0 +. float_of_int i))
  in
  let a = mk 40 and b = mk 40 in
  let seen = ref 0 in
  Alcotest.check_raises "check aborts the merge" (Failure "deadline")
    (fun () ->
      ignore
        (Bufins.Engine.merge_cross ~node:0
           ~check:(fun c ->
             seen := c;
             if c = 1024 then failwith "deadline")
           a b));
  Alcotest.(check int) "no combination ran past the abort" 1024 !seen;
  let full = Bufins.Engine.merge_cross ~node:0 ~check:(fun _ -> ()) a b in
  Alcotest.(check int) "full cross product without an abort" 1600
    (Array.length full)

let test_budget_trips_inside_4p_merge () =
  (* A candidate budget sized above every pruned frontier but below a
     4P cross product: the abort must come from the in-merge check,
     not from a post-prune node count. *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:53 ~sinks:40 ~die_um:die () in
  let budget =
    { Bufins.Engine.max_candidates = Some 500; max_seconds = None }
  in
  let cfg = config ~rule:(Bufins.Prune.four_param ()) ~budget () in
  match Bufins.Engine.run cfg ~model:(model ~mode:Varmodel.Model.Wid die) tree with
  | _ -> Alcotest.fail "the 4P cross product must exhaust the budget"
  | exception Bufins.Engine.Budget_exceeded msg ->
    Alcotest.(check bool)
      (Printf.sprintf "tripped inside the merge loop: %s" msg)
      true
      (contains msg "merge at node")

let test_probabilistic_time_budget () =
  (* The wall-clock deadline must also be checked inside [6]'s merge
     loop (every 1024 combinations), so an expired deadline aborts a
     large net promptly with the time message, not the candidate one. *)
  let tree = Rctree.Generate.random_steiner ~seed:54 ~sinks:100 ~die_um:4000.0 () in
  let cfg =
    {
      (Bufins.Probabilistic.default_config ()) with
      Bufins.Probabilistic.budget =
        { Bufins.Engine.max_candidates = None; max_seconds = Some 0.0 };
    }
  in
  match Bufins.Probabilistic.run cfg tree with
  | _ -> Alcotest.fail "an expired deadline must raise Budget_exceeded"
  | exception Bufins.Engine.Budget_exceeded msg ->
    Alcotest.(check bool)
      (Printf.sprintf "time limit message: %s" msg)
      true (contains msg "time limit")

let test_objective_yield_vs_mean () =
  (* Max_yield must never beat Max_mean on the mean, and vice versa on
     the 95%-yield score. *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:61 ~sinks:80 ~die_um:die () in
  let run objective =
    (Bufins.Engine.run
       { (config ()) with Bufins.Engine.objective }
       ~model:(model ~mode:Varmodel.Model.Wid die) tree).Bufins.Engine.root_rat
  in
  let by_mean = run Bufins.Engine.Max_mean in
  let by_yield = run (Bufins.Engine.Max_yield 0.95) in
  Alcotest.(check bool) "mean objective wins on mean" true
    (Linform.mean by_mean >= Linform.mean by_yield -. 1e-9);
  let y95 f = Linform.percentile f 0.05 in
  Alcotest.(check bool) "yield objective wins on y95" true
    (y95 by_yield >= y95 by_mean -. 1e-9)

let test_stats_reported () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:71 ~sinks:30 ~die_um:die () in
  let r = Bufins.Engine.run (config ()) ~model:(model die) tree in
  let s = r.Bufins.Engine.stats in
  Alcotest.(check int) "nodes" (Rctree.Tree.node_count tree) s.Bufins.Engine.nodes;
  Alcotest.(check bool) "peak >= 1" true (s.Bufins.Engine.peak_candidates >= 1);
  Alcotest.(check bool) "total >= nodes" true
    (s.Bufins.Engine.total_candidates >= s.Bufins.Engine.nodes)

let test_load_limit () =
  let die = 6000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:95 ~sinks:40 ~die_um:die () in
  let limit = 500.0 in
  let cfg =
    { (config ~rule:Bufins.Prune.deterministic ()) with
      Bufins.Engine.load_limit = Some limit }
  in
  let r = Bufins.Engine.run cfg ~model:(model die) tree in
  Alcotest.(check bool) "limit met" true r.Bufins.Engine.load_limit_met;
  (* Replay the solution and verify every buffer and the driver see at
     most [limit] fF. *)
  let buffered = Sta.Buffered.make ~tech tree r.Bufins.Engine.buffers in
  let inst = Sta.Buffered.instantiate ~model:(model die) buffered in
  ignore inst;
  (* Walk the tree accumulating the load seen from each driving point;
     easiest check: the root load of the chosen candidate is bounded. *)
  Alcotest.(check bool) "driver load bounded" true
    (Bufins.Sol.mean_load r.Bufins.Engine.best <= limit +. 1e-9);
  (* A constrained optimum can never beat the unconstrained one. *)
  let unconstrained =
    Bufins.Engine.run (config ~rule:Bufins.Prune.deterministic ())
      ~model:(model die) tree
  in
  Alcotest.(check bool) "constraint costs RAT" true
    (Linform.mean r.Bufins.Engine.root_rat
    <= Linform.mean unconstrained.Bufins.Engine.root_rat +. 1e-9)

let test_load_limit_infeasible () =
  (* A limit below every sink cap cannot be met; the engine reports it
     and still returns a solution. *)
  let tree = Rctree.Generate.random_steiner ~seed:96 ~sinks:5 ~die_um:4000.0 () in
  let cfg =
    { (config ~rule:Bufins.Prune.deterministic ()) with
      Bufins.Engine.load_limit = Some 0.1 }
  in
  let r = Bufins.Engine.run cfg ~model:(model 4000.0) tree in
  Alcotest.(check bool) "reported infeasible" false r.Bufins.Engine.load_limit_met

let test_assignment_roundtrip () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:91 ~sinks:25 ~die_um:die () in
  let cfg =
    { (config ()) with Bufins.Engine.wires = Device.Wire_lib.default_library tech }
  in
  let r = Bufins.Engine.run cfg ~model:(model ~mode:Varmodel.Model.Wid die) tree in
  let a = Bufins.Assignment.of_result r in
  let a' = Bufins.Assignment.of_string (Bufins.Assignment.to_string a) in
  Alcotest.(check int) "buffer count"
    (List.length a.Bufins.Assignment.buffers)
    (List.length a'.Bufins.Assignment.buffers);
  Alcotest.(check int) "width count"
    (List.length a.Bufins.Assignment.widths)
    (List.length a'.Bufins.Assignment.widths);
  (* Evaluation through the roundtripped assignment is bit-identical. *)
  let eval (asg : Bufins.Assignment.t) =
    let buffered =
      Sta.Buffered.make ~tech ~widths:asg.Bufins.Assignment.widths tree
        asg.Bufins.Assignment.buffers
    in
    let inst =
      Sta.Buffered.instantiate ~model:(model ~mode:Varmodel.Model.Wid die) buffered
    in
    Sta.Buffered.sample_rat inst ~lookup:(fun _ -> 0.0)
  in
  Alcotest.(check (float 0.0)) "same evaluation" (eval a) (eval a')

let test_assignment_parse_errors () =
  let expect_failure text =
    match Bufins.Assignment.of_string text with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected parse failure"
  in
  expect_failure "frob 1 name x cap 1 delay 1 res 1";
  expect_failure "buffer 1 name x cap oops delay 1 res 1";
  expect_failure "buffer 1 name x cap 1 delay 1";
  expect_failure "width 1 name w r 1";
  expect_failure "buffer one name x cap 1 delay 1 res 1"

let test_buffers_of_choice () =
  let c =
    Bufins.Sol.Merged
      {
        node = 5;
        left = Bufins.Sol.Buffered { node = 3; buffer = 1; from = Bufins.Sol.At_sink 1 };
        right =
          Bufins.Sol.Wire
            {
              node = 4;
              width = 0;
              from = Bufins.Sol.Buffered { node = 4; buffer = 0; from = Bufins.Sol.At_sink 2 };
            };
      }
  in
  let buffers = List.sort compare (Bufins.Sol.buffers_of_choice c) in
  Alcotest.(check (list (pair int int))) "collected" [ (3, 1); (4, 0) ] buffers

let test_single_sink_tree () =
  (* Smallest legal instance: driver -> one sink over one edge. *)
  let tree = Rctree.Generate.random_steiner ~seed:99 ~sinks:1 ~die_um:4000.0 () in
  Alcotest.(check int) "one edge" 1 (Rctree.Tree.edge_count tree);
  let det = Bufins.Det.run ~tech ~library tree in
  let eng =
    Bufins.Engine.run (config ~rule:Bufins.Prune.deterministic ())
      ~model:(model 4000.0) tree
  in
  Alcotest.(check (float 1e-9)) "engine = det" det.Bufins.Det.root_rat
    (Linform.mean eng.Bufins.Engine.root_rat)

let test_engine_deterministic_replay () =
  (* Same tree, same model parameters -> bit-identical results. *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:97 ~sinks:50 ~die_um:die () in
  let run () =
    let r =
      Bufins.Engine.run (config ()) ~model:(model ~mode:Varmodel.Model.Wid die) tree
    in
    (Linform.mean r.Bufins.Engine.root_rat,
     Linform.std r.Bufins.Engine.root_rat,
     List.length r.Bufins.Engine.buffers)
  in
  Alcotest.(check (triple (float 0.0) (float 0.0) int)) "reproducible" (run ()) (run ())

let test_generous_budget_is_identity () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:98 ~sinks:60 ~die_um:die () in
  let free = Bufins.Engine.run (config ()) ~model:(model die) tree in
  let budget =
    { Bufins.Engine.max_candidates = Some 1_000_000; max_seconds = Some 600.0 }
  in
  let bounded = Bufins.Engine.run (config ~budget ()) ~model:(model die) tree in
  Alcotest.(check (float 0.0)) "same optimum"
    (Linform.mean free.Bufins.Engine.root_rat)
    (Linform.mean bounded.Bufins.Engine.root_rat)

let test_merge_frontiers_degenerate () =
  let s = [ mk_sol 10.0 100.0 ] in
  Alcotest.(check int) "empty left" 0
    (List.length (merge_list ~node:0 [] s));
  Alcotest.(check int) "empty right" 0
    (List.length (merge_list ~node:0 s []));
  Alcotest.(check int) "prune empty" 0
    (List.length (prune_list (Bufins.Prune.two_param ()) []))

(* ---------- the [6]-style probabilistic baseline ---------- *)

let test_probabilistic_zero_variation_matches_det () =
  List.iter
    (fun (sinks, seed) ->
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:4000.0 () in
      let det = Bufins.Det.run ~tech ~library tree in
      List.iter
        (fun heuristic ->
          let cfg =
            Bufins.Probabilistic.default_config ~heuristic ~length_frac:0.0 ()
          in
          let r = Bufins.Probabilistic.run cfg tree in
          Alcotest.(check (float 1e-6))
            (Bufins.Probabilistic.heuristic_name heuristic ^ " = det")
            det.Bufins.Det.root_rat r.Bufins.Probabilistic.rat_mean)
        [
          Bufins.Probabilistic.Mean_dominance;
          Bufins.Probabilistic.Percentile_dominance 0.95;
          Bufins.Probabilistic.Stochastic_dominance;
        ])
    [ (10, 1); (40, 2) ]

let test_probabilistic_variation_spreads () =
  let tree = Rctree.Generate.random_steiner ~seed:3 ~sinks:30 ~die_um:4000.0 () in
  let cfg = Bufins.Probabilistic.default_config () in
  let r = Bufins.Probabilistic.run cfg tree in
  Alcotest.(check bool) "positive std" true (r.Bufins.Probabilistic.rat_std > 0.0);
  Alcotest.(check bool) "p05 below mean" true
    (r.Bufins.Probabilistic.rat_p05 < r.Bufins.Probabilistic.rat_mean);
  Alcotest.(check bool) "buffers inserted" true
    (List.length r.Bufins.Probabilistic.buffers > 0)

let test_probabilistic_budget () =
  let tree = Rctree.Generate.random_steiner ~seed:4 ~sinks:100 ~die_um:4000.0 () in
  let cfg =
    {
      (Bufins.Probabilistic.default_config ()) with
      Bufins.Probabilistic.budget =
        { Bufins.Engine.max_candidates = Some 3; max_seconds = None };
    }
  in
  Alcotest.(check bool) "raises Budget_exceeded" true
    (try
       ignore (Bufins.Probabilistic.run cfg tree);
       false
     with Bufins.Engine.Budget_exceeded _ -> true)

let test_probabilistic_stochastic_keeps_superset () =
  (* Stochastic dominance prunes less than mean dominance, so its peak
     candidate count is at least as large. *)
  let tree = Rctree.Generate.random_steiner ~seed:5 ~sinks:60 ~die_um:4000.0 () in
  let peak heuristic =
    (Bufins.Probabilistic.run
       (Bufins.Probabilistic.default_config ~heuristic ())
       tree).Bufins.Probabilistic.peak_candidates
  in
  Alcotest.(check bool) "stoch >= mean" true
    (peak Bufins.Probabilistic.Stochastic_dominance
    >= peak Bufins.Probabilistic.Mean_dominance)

let prop_engine_result_invariants =
  (* Structural sanity of DP results on random instances: buffers land
     on distinct non-root nodes, the RAT is finite, and replaying the
     assignment reproduces it. *)
  QCheck.Test.make ~name:"engine result invariants" ~count:25
    QCheck.(pair (int_range 2 60) (int_range 0 1000))
    (fun (sinks, seed) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let r =
        Bufins.Engine.run (config ~rule:Bufins.Prune.deterministic ())
          ~model:(model die) tree
      in
      let nodes = List.map fst r.Bufins.Engine.buffers in
      let distinct = List.sort_uniq compare nodes in
      List.length distinct = List.length nodes
      && List.for_all
           (fun v -> v > 0 && v < Rctree.Tree.node_count tree)
           nodes
      && Float.is_finite (Linform.mean r.Bufins.Engine.root_rat)
      &&
      let buffered = Sta.Buffered.make ~tech tree r.Bufins.Engine.buffers in
      let inst = Sta.Buffered.instantiate ~model:(model die) buffered in
      Float.abs
        (Sta.Buffered.sample_rat inst ~lookup:(fun _ -> 0.0)
        -. Linform.mean r.Bufins.Engine.root_rat)
      < 1e-6)

let prop_engine_monotone_in_driver =
  (* A weaker driver can never improve the chosen RAT. *)
  QCheck.Test.make ~name:"RAT monotone in driver resistance" ~count:15
    QCheck.(pair (int_range 2 40) (int_range 0 500))
    (fun (sinks, seed) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let rat driver_r =
        let cfg = config ~rule:Bufins.Prune.deterministic () in
        let cfg =
          { cfg with Bufins.Engine.tech = { cfg.Bufins.Engine.tech with Device.Tech.driver_r } }
        in
        Linform.mean (Bufins.Engine.run cfg ~model:(model die) tree).Bufins.Engine.root_rat
      in
      rat 0.5 >= rat 2.0 -. 1e-9)

let prop_bigger_library_never_hurts =
  (* Adding buffer types can only enlarge the feasible space. *)
  QCheck.Test.make ~name:"larger buffer library never hurts" ~count:15
    QCheck.(pair (int_range 2 40) (int_range 0 500))
    (fun (sinks, seed) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let rat lib =
        let cfg = { (config ~rule:Bufins.Prune.deterministic ()) with Bufins.Engine.library = lib } in
        Linform.mean (Bufins.Engine.run cfg ~model:(model die) tree).Bufins.Engine.root_rat
      in
      rat library >= rat (Array.sub library 0 1) -. 1e-9)

(* ---------- parallel determinism ---------- *)

(* Everything but the wall clock: identical here means identical
   response bytes (the serve layer encodes exactly these fields). *)
let strip_result (r : Bufins.Engine.result) =
  ( r.Bufins.Engine.root_rat,
    r.Bufins.Engine.best,
    r.Bufins.Engine.buffers,
    r.Bufins.Engine.widths,
    r.Bufins.Engine.load_limit_met,
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates,
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates )

let with_pool jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let par_rules =
  [
    Bufins.Prune.deterministic;
    Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ();
    Bufins.Prune.one_param ~alpha:0.95;
    Bufins.Prune.four_param ();
  ]

(* The model consumes device ids as the DP runs, so every run needs a
   fresh model; determinism across job counts is exactly the claim
   under test. *)
let test_parallel_engine_deterministic () =
  let die = 4000.0 in
  List.iter
    (fun rule ->
      (* The 4P cross product is quadratic: keep its instances small. *)
      let cases =
        if Bufins.Prune.is_linear rule then [ (201, 12); (202, 30) ]
        else [ (201, 8) ]
      in
      List.iter
        (fun (seed, sinks) ->
          let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
          let cfg = config ~rule () in
          let seq =
            strip_result
              (Bufins.Engine.run cfg ~model:(model ~mode:Varmodel.Model.Wid die)
                 tree)
          in
          List.iter
            (fun jobs ->
              with_pool jobs (fun pool ->
                  let r =
                    Bufins.Engine.run ~pool ~grain:2 cfg
                      ~model:(model ~mode:Varmodel.Model.Wid die)
                      tree
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s seed=%d jobs=%d identical"
                       (Bufins.Prune.name rule) seed jobs)
                    true
                    (strip_result r = seq)))
            [ 1; 2; 4 ])
        cases)
    par_rules

let prop_parallel_engine_matches_sequential =
  QCheck.Test.make ~name:"parallel DP = sequential (random trees, jobs 1/2/4)"
    ~count:10
    QCheck.(
      quad (int_range 2 20) (int_range 0 1000) (int_range 0 3) (int_range 0 2))
    (fun (sinks, seed, rule_idx, jobs_idx) ->
      let rule = List.nth par_rules rule_idx in
      let sinks = if Bufins.Prune.is_linear rule then sinks else min sinks 8 in
      let jobs = List.nth [ 1; 2; 4 ] jobs_idx in
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let cfg = config ~rule () in
      let seq =
        strip_result
          (Bufins.Engine.run cfg ~model:(model ~mode:Varmodel.Model.Wid die) tree)
      in
      with_pool jobs (fun pool ->
          let par =
            strip_result
              (Bufins.Engine.run ~pool ~grain:2 cfg
                 ~model:(model ~mode:Varmodel.Model.Wid die)
                 tree)
          in
          par = seq))

let strip_prob (r : Bufins.Probabilistic.result) =
  (r.rat_mean, r.rat_std, r.rat_p05, r.buffers, r.peak_candidates)

let test_parallel_probabilistic_deterministic () =
  List.iter
    (fun (heuristic, sinks, seed) ->
      let tree =
        Rctree.Generate.random_steiner ~seed ~sinks ~die_um:4000.0 ()
      in
      let cfg = Bufins.Probabilistic.default_config ~heuristic () in
      let seq = strip_prob (Bufins.Probabilistic.run cfg tree) in
      List.iter
        (fun jobs ->
          with_pool jobs (fun pool ->
              let r = Bufins.Probabilistic.run ~pool ~grain:2 cfg tree in
              Alcotest.(check bool)
                (Printf.sprintf "%s jobs=%d identical"
                   (Bufins.Probabilistic.heuristic_name heuristic) jobs)
                true
                (strip_prob r = seq)))
        [ 2; 4 ])
    [
      (Bufins.Probabilistic.Mean_dominance, 30, 303);
      (Bufins.Probabilistic.Stochastic_dominance, 12, 304);
    ]

(* The arena is a pure allocation optimisation: disabling it (fresh
   buffers per node) must not change a byte of the result. *)
let test_arena_off_identical () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:204 ~sinks:25 ~die_um:die () in
  let cfg = config () in
  let on =
    strip_result
      (Bufins.Engine.run cfg ~model:(model ~mode:Varmodel.Model.Wid die) tree)
  in
  Bufins.Arena.enabled := false;
  let off =
    Fun.protect ~finally:(fun () -> Bufins.Arena.enabled := true) (fun () ->
        strip_result
          (Bufins.Engine.run cfg ~model:(model ~mode:Varmodel.Model.Wid die) tree))
  in
  Alcotest.(check bool) "arena on/off identical" true (on = off)

let qcheck = Qseed.to_alcotest

let suite =
  [
    Alcotest.test_case "deterministic prune" `Quick test_det_prune;
    Alcotest.test_case "deterministic prune dedups" `Quick test_det_prune_duplicates;
    Alcotest.test_case "2P(0.5) = det on means (Lemma 4)" `Quick
      test_2p_half_equals_det;
    Alcotest.test_case "2P threshold effect" `Quick
      test_2p_stricter_threshold_prunes_less;
    Alcotest.test_case "2P dominance Eq. 6-7" `Quick test_2p_dominance_eq67;
    Alcotest.test_case "1P percentile dominance" `Quick test_1p_prune;
    Alcotest.test_case "4P interval dominance" `Quick test_4p_interval_dominance;
    Alcotest.test_case "4P same-load group prune" `Quick test_4p_prune_same_load_group;
    Alcotest.test_case "rule parameter validation" `Quick
      test_prune_parameter_validation;
    qcheck prop_prune_keeps_best_rat;
    qcheck prop_prune_output_sorted_nondominated;
    qcheck prop_prune_matches_list_reference;
    qcheck prop_prune_4p_matches_quadratic_reference;
    Alcotest.test_case "merge: figure-1 example" `Quick
      test_merge_frontiers_count_and_order;
    Alcotest.test_case "merge: load adds, rat mins" `Quick
      test_merge_frontiers_load_adds;
    Alcotest.test_case "engine NOM = reference van Ginneken" `Quick
      test_engine_nom_matches_reference;
    Alcotest.test_case "engine = brute force on tiny trees" `Slow
      test_engine_matches_brute_force;
    Alcotest.test_case "wire sizing = brute force on tiny trees" `Slow
      test_wire_sizing_matches_brute_force;
    Alcotest.test_case "wire sizing never hurts" `Quick test_wire_sizing_never_hurts;
    Alcotest.test_case "wire sizing backtracking" `Quick
      test_wire_sizing_backtracking_consistency;
    Alcotest.test_case "backtracking consistency (NOM)" `Quick
      test_backtracking_consistency;
    Alcotest.test_case "backtracking consistency (WID)" `Quick
      test_statistical_backtracking_consistency;
    Alcotest.test_case "buffers improve RAT" `Quick test_buffers_improve_rat;
    Alcotest.test_case "all rules agree in NOM mode" `Quick
      test_rules_agree_on_deterministic_input;
    Alcotest.test_case "4P >= 2P on finishable WID instance" `Quick
      test_wid_rules_agree_on_small_tree;
    Alcotest.test_case "budget: candidates" `Quick test_budget_candidates;
    Alcotest.test_case "budget: time" `Quick test_budget_time;
    Alcotest.test_case "merge_cross: check aborts mid-loop" `Quick
      test_merge_cross_check_abort;
    Alcotest.test_case "budget: trips inside a 4P merge" `Quick
      test_budget_trips_inside_4p_merge;
    Alcotest.test_case "budget: [6] time limit" `Quick
      test_probabilistic_time_budget;
    Alcotest.test_case "objective: yield vs mean" `Quick test_objective_yield_vs_mean;
    Alcotest.test_case "stats reported" `Quick test_stats_reported;
    Alcotest.test_case "buffers_of_choice" `Quick test_buffers_of_choice;
    Alcotest.test_case "load limit honoured" `Quick test_load_limit;
    Alcotest.test_case "load limit infeasible" `Quick test_load_limit_infeasible;
    Alcotest.test_case "assignment roundtrip" `Quick test_assignment_roundtrip;
    Alcotest.test_case "assignment parse errors" `Quick
      test_assignment_parse_errors;
    qcheck prop_engine_result_invariants;
    qcheck prop_engine_monotone_in_driver;
    qcheck prop_bigger_library_never_hurts;
    Alcotest.test_case "[6] zero variation = det" `Quick
      test_probabilistic_zero_variation_matches_det;
    Alcotest.test_case "[6] variation spreads" `Quick
      test_probabilistic_variation_spreads;
    Alcotest.test_case "[6] budget" `Quick test_probabilistic_budget;
    Alcotest.test_case "[6] stochastic keeps superset" `Quick
      test_probabilistic_stochastic_keeps_superset;
    Alcotest.test_case "single-sink tree" `Quick test_single_sink_tree;
    Alcotest.test_case "engine deterministic replay" `Quick
      test_engine_deterministic_replay;
    Alcotest.test_case "generous budget = no budget" `Quick
      test_generous_budget_is_identity;
    Alcotest.test_case "merge/prune degenerate inputs" `Quick
      test_merge_frontiers_degenerate;
    Alcotest.test_case "parallel DP deterministic (all rules)" `Quick
      test_parallel_engine_deterministic;
    qcheck prop_parallel_engine_matches_sequential;
    Alcotest.test_case "parallel [6] deterministic" `Quick
      test_parallel_probabilistic_deterministic;
    Alcotest.test_case "arena off = arena on" `Quick test_arena_off_identical;
  ]
