(* Tests for the variation model: spatial grid geometry, weight
   normalisation, mode filtering and source-id layout. *)

let check_close ?(eps = 1e-9) what expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.9g - %.9g| <= %g" what expected got eps)
    true
    (Float.abs (expected -. got) <= eps)

let grid () =
  Varmodel.Grid.create ~width_um:4000.0 ~height_um:3000.0 ~pitch_um:500.0
    ~range_um:2000.0

(* ---------- grid ---------- *)

let test_grid_shape () =
  let g = grid () in
  Alcotest.(check int) "cols" 8 (Varmodel.Grid.cols g);
  Alcotest.(check int) "rows" 6 (Varmodel.Grid.rows g);
  Alcotest.(check int) "regions" 48 (Varmodel.Grid.regions g)

let test_grid_region_mapping () =
  let g = grid () in
  Alcotest.(check int) "origin" 0 (Varmodel.Grid.region_of g ~x:10.0 ~y:10.0);
  Alcotest.(check int) "second column" 1 (Varmodel.Grid.region_of g ~x:600.0 ~y:10.0);
  Alcotest.(check int) "second row" 8 (Varmodel.Grid.region_of g ~x:10.0 ~y:600.0);
  (* Off-die coordinates clamp to border regions. *)
  Alcotest.(check int) "clamp left" 0 (Varmodel.Grid.region_of g ~x:(-50.0) ~y:0.0);
  Alcotest.(check int) "clamp corner" 47
    (Varmodel.Grid.region_of g ~x:99999.0 ~y:99999.0)

let test_grid_region_center_roundtrip () =
  let g = grid () in
  for r = 0 to Varmodel.Grid.regions g - 1 do
    let x, y = Varmodel.Grid.region_center g r in
    Alcotest.(check int) "center maps back" r (Varmodel.Grid.region_of g ~x ~y)
  done

let test_grid_validation () =
  Alcotest.check_raises "bad pitch"
    (Invalid_argument "Grid.create: pitch must be positive") (fun () ->
      ignore
        (Varmodel.Grid.create ~width_um:100.0 ~height_um:100.0 ~pitch_um:0.0
           ~range_um:10.0))

let test_weights_normalised () =
  let g = grid () in
  List.iter
    (fun (x, y) ->
      let ws = Varmodel.Grid.weights_at g ~x ~y in
      let sum_sq = List.fold_left (fun acc (_, w) -> acc +. (w *. w)) 0.0 ws in
      check_close (Printf.sprintf "sum w^2 at (%.0f,%.0f)" x y) 1.0 sum_sq ~eps:1e-12;
      List.iter
        (fun (r, w) ->
          Alcotest.(check bool) "region in range" true
            (r >= 0 && r < Varmodel.Grid.regions g);
          Alcotest.(check bool) "weight positive" true (w > 0.0))
        ws)
    [ (10.0, 10.0); (2000.0, 1500.0); (3990.0, 2990.0) ]

let test_weights_taper_with_distance () =
  let g = grid () in
  let x, y = (2250.0, 1250.0) in
  let ws = Varmodel.Grid.weights_at g ~x ~y in
  let here = Varmodel.Grid.region_of g ~x ~y in
  let w_here = List.assoc here ws in
  List.iter
    (fun (r, w) ->
      if r <> here then
        Alcotest.(check bool) "containing region has the largest weight" true
          (w <= w_here))
    ws

let test_nearby_devices_share_regions () =
  let g = grid () in
  let ws1 = Varmodel.Grid.weights_at g ~x:1000.0 ~y:1000.0 in
  let ws2 = Varmodel.Grid.weights_at g ~x:1300.0 ~y:1000.0 in
  let ws3 = Varmodel.Grid.weights_at g ~x:3900.0 ~y:2900.0 in
  let shared a b =
    List.length (List.filter (fun (r, _) -> List.mem_assoc r b) a)
  in
  Alcotest.(check bool) "close devices share many regions" true
    (shared ws1 ws2 > shared ws1 ws3)

(* ---------- model ---------- *)

let model ?(mode = Varmodel.Model.Wid) ?(spatial = Varmodel.Model.Homogeneous) () =
  Varmodel.Model.create ~mode ~spatial ~grid:(grid ()) ()

let test_source_id_layout () =
  let m = model () in
  Alcotest.(check int) "inter-die id" 0 (Varmodel.Model.inter_die_id m);
  Alcotest.(check int) "first spatial id" 1 (Varmodel.Model.spatial_source_id m 0);
  let d1 = Varmodel.Model.fresh_device_id m in
  let d2 = Varmodel.Model.fresh_device_id m in
  Alcotest.(check bool) "device ids after regions" true (d1 > 48);
  Alcotest.(check int) "sequential" (d1 + 1) d2;
  Alcotest.(check int) "device count" 2 (Varmodel.Model.device_count m);
  Alcotest.(check bool) "kind inter-die" true
    (Varmodel.Model.source_kind m 0 = Varmodel.Model.Inter_die);
  Alcotest.(check bool) "kind spatial" true
    (Varmodel.Model.source_kind m 5 = Varmodel.Model.Spatial_region 4);
  Alcotest.(check bool) "kind device" true
    (Varmodel.Model.source_kind m d1 = Varmodel.Model.Device_random)

let test_mode_filtering () =
  let count_kinds m sens =
    List.fold_left
      (fun (r, g, s) (id, _) ->
        match Varmodel.Model.source_kind m id with
        | Varmodel.Model.Device_random -> (r + 1, g, s)
        | Varmodel.Model.Inter_die -> (r, g + 1, s)
        | Varmodel.Model.Spatial_region _ -> (r, g, s + 1))
      (0, 0, 0) sens
  in
  let sens_of m =
    let id = Varmodel.Model.fresh_device_id m in
    Varmodel.Model.device_sens m ~device_id:id ~x:1000.0 ~y:1000.0 ~nominal:100.0
  in
  let m_nom = model ~mode:Varmodel.Model.Nom () in
  Alcotest.(check int) "NOM has no sources" 0 (List.length (sens_of m_nom));
  let m_d2d = model ~mode:Varmodel.Model.D2d () in
  let r, g, s = count_kinds m_d2d (sens_of m_d2d) in
  Alcotest.(check (triple int int int)) "D2D = random + inter-die" (1, 1, 0) (r, g, s);
  let m_wid = model ~mode:Varmodel.Model.Wid () in
  let r, g, s = count_kinds m_wid (sens_of m_wid) in
  Alcotest.(check int) "WID random" 1 r;
  Alcotest.(check int) "WID inter-die" 1 g;
  Alcotest.(check bool) "WID has spatial regions" true (s > 1)

let test_budgeted_sigmas () =
  (* With the 5% budget, each category contributes exactly 5% of the
     nominal in sigma (the spatial weights have unit sum of squares). *)
  let m = model () in
  let id = Varmodel.Model.fresh_device_id m in
  let f = Varmodel.Model.device_form m ~device_id:id ~x:1000.0 ~y:1000.0 ~nominal:100.0 in
  check_close "mean is nominal" 100.0 (Linform.mean f);
  check_close "total sigma = sqrt 3 * 5" (sqrt 3.0 *. 5.0) (Linform.std f) ~eps:1e-9

let test_heterogeneous_ramp () =
  let m =
    model ~spatial:(Varmodel.Model.Heterogeneous { lo = 0.2; hi = 1.8 }) ()
  in
  check_close "SW corner" 0.2 (Varmodel.Model.spatial_scale m ~x:0.0 ~y:0.0);
  check_close "NE corner" 1.8 (Varmodel.Model.spatial_scale m ~x:4000.0 ~y:3000.0);
  check_close "center" 1.0 (Varmodel.Model.spatial_scale m ~x:2000.0 ~y:1500.0);
  let m_h = model () in
  check_close "homogeneous everywhere" 1.0
    (Varmodel.Model.spatial_scale m_h ~x:3000.0 ~y:100.0)

let test_same_device_correlates_c_and_t () =
  (* C_b and T_b of one device share its random source; two devices at
     the same spot share only spatial + global sources. *)
  let m = model () in
  let d1 = Varmodel.Model.fresh_device_id m in
  let d2 = Varmodel.Model.fresh_device_id m in
  let c1 = Varmodel.Model.device_form m ~device_id:d1 ~x:500.0 ~y:500.0 ~nominal:10.0 in
  let t1 = Varmodel.Model.device_form m ~device_id:d1 ~x:500.0 ~y:500.0 ~nominal:100.0 in
  let t2 = Varmodel.Model.device_form m ~device_id:d2 ~x:500.0 ~y:500.0 ~nominal:100.0 in
  let rho_same = Linform.correlation c1 t1 in
  let rho_cross = Linform.correlation t1 t2 in
  Alcotest.(check bool) "same-device correlation is 1" true (rho_same > 0.999);
  Alcotest.(check bool) "cross-device correlation is partial" true
    (rho_cross > 0.2 && rho_cross < 0.9)

let test_ramp_clamps_off_die () =
  let m =
    model ~spatial:(Varmodel.Model.Heterogeneous { lo = 0.2; hi = 1.8 }) ()
  in
  check_close "below SW clamps to lo" 0.2
    (Varmodel.Model.spatial_scale m ~x:(-500.0) ~y:(-500.0));
  check_close "beyond NE clamps to hi" 1.8
    (Varmodel.Model.spatial_scale m ~x:99999.0 ~y:99999.0)

let test_spatial_source_id_range () =
  let m = model () in
  Alcotest.check_raises "region out of range"
    (Invalid_argument "Model.spatial_source_id: region out of range") (fun () ->
      ignore (Varmodel.Model.spatial_source_id m 48));
  Alcotest.check_raises "negative region"
    (Invalid_argument "Model.spatial_source_id: region out of range") (fun () ->
      ignore (Varmodel.Model.spatial_source_id m (-1)))

let test_wire_forms () =
  let g = grid () in
  (* Default: wires are nominal. *)
  let m0 = Varmodel.Model.create ~spatial:Varmodel.Model.Homogeneous ~grid:g () in
  Alcotest.(check (float 0.0)) "default wire_frac" 0.0 (Varmodel.Model.wire_frac m0);
  let e0 = Varmodel.Model.fresh_device_id m0 in
  let r0, c0 = Varmodel.Model.wire_forms m0 ~edge_id:e0 ~x:500.0 ~y:500.0 ~r0:3e-4 ~c0:0.2 in
  Alcotest.(check bool) "nominal wires deterministic" true
    (Linform.is_deterministic r0 && Linform.is_deterministic c0);
  (* With a CMP budget: anti-correlated r and c with budgeted sigmas. *)
  let m =
    Varmodel.Model.create ~wire_frac:0.05 ~spatial:Varmodel.Model.Homogeneous
      ~grid:g ()
  in
  let e = Varmodel.Model.fresh_device_id m in
  let r, c = Varmodel.Model.wire_forms m ~edge_id:e ~x:500.0 ~y:500.0 ~r0:3e-4 ~c0:0.2 in
  check_close "r mean" 3e-4 (Linform.mean r);
  check_close "c mean" 0.2 (Linform.mean c);
  check_close "r sigma budget" (sqrt 3.0 *. 0.05 *. 3e-4) (Linform.std r) ~eps:1e-12;
  check_close "c sigma budget" (sqrt 3.0 *. 0.05 *. 0.2) (Linform.std c) ~eps:1e-12;
  check_close "thickness anti-correlation" (-1.0) (Linform.correlation r c)
    ~eps:1e-9;
  (* NOM mode: deterministic regardless of the budget. *)
  let m_nom =
    Varmodel.Model.create ~mode:Varmodel.Model.Nom ~wire_frac:0.05
      ~spatial:Varmodel.Model.Homogeneous ~grid:g ()
  in
  let e2 = Varmodel.Model.fresh_device_id m_nom in
  let rn, _ = Varmodel.Model.wire_forms m_nom ~edge_id:e2 ~x:0.0 ~y:0.0 ~r0:3e-4 ~c0:0.2 in
  Alcotest.(check bool) "NOM wires deterministic" true (Linform.is_deterministic rn)

let test_distant_devices_less_correlated () =
  let m = model () in
  let d1 = Varmodel.Model.fresh_device_id m in
  let d2 = Varmodel.Model.fresh_device_id m in
  let d3 = Varmodel.Model.fresh_device_id m in
  let t1 = Varmodel.Model.device_form m ~device_id:d1 ~x:500.0 ~y:500.0 ~nominal:100.0 in
  let t2 = Varmodel.Model.device_form m ~device_id:d2 ~x:800.0 ~y:500.0 ~nominal:100.0 in
  let t3 = Varmodel.Model.device_form m ~device_id:d3 ~x:3900.0 ~y:2900.0 ~nominal:100.0 in
  Alcotest.(check bool) "near > far correlation" true
    (Linform.correlation t1 t2 > Linform.correlation t1 t3)

(* ---------- array-built site templates ---------- *)

(* The list construction [Grid.weights_at] used before the weights were
   built as arrays, copied here verbatim (with the grid's private
   [col_of]/[row_of] spelled out) as the bit-for-bit reference. *)
let list_weights g ~x ~y =
  let module G = Varmodel.Grid in
  let clamp v lo hi = if v < lo then lo else if v > hi then hi else v in
  let pitch = G.pitch_um g and range = G.range_um g in
  let col_of x = clamp (int_of_float (floor (x /. pitch))) 0 (G.cols g - 1) in
  let row_of y = clamp (int_of_float (floor (y /. pitch))) 0 (G.rows g - 1) in
  let lambda = range /. 2.0 in
  let span = int_of_float (ceil (range /. pitch)) in
  let c0 = col_of x and r0 = row_of y in
  let raw = ref [] in
  for row = max 0 (r0 - span) to min (G.rows g - 1) (r0 + span) do
    for col = max 0 (c0 - span) to min (G.cols g - 1) (c0 + span) do
      let idx = (row * G.cols g) + col in
      let cx, cy = G.region_center g idx in
      let d = Float.hypot (cx -. x) (cy -. y) in
      if d <= range then begin
        let w = exp (-.(d /. lambda) *. (d /. lambda)) in
        raw := (idx, w) :: !raw
      end
    done
  done;
  let norm =
    sqrt (List.fold_left (fun acc (_, w) -> acc +. (w *. w)) 0.0 !raw)
  in
  List.rev_map (fun (idx, w) -> (idx, w /. norm)) !raw

let bits = Int64.bits_of_float

let prop_weights_match_list_construction =
  let gen =
    QCheck.Gen.(
      let* width = float_range 300.0 6000.0 in
      let* height = float_range 300.0 6000.0 in
      let* pitch = float_range 100.0 1000.0 in
      let* range = float_range 100.0 3000.0 in
      let g =
        Varmodel.Grid.create ~width_um:width ~height_um:height ~pitch_um:pitch
          ~range_um:range
      in
      (* Die corners, region-edge multiples of the pitch and points up
         to half a die off every side. *)
      let coord extent =
        oneof
          [
            oneofl [ 0.0; extent; -.extent /. 2.0; 1.5 *. extent ];
            map (fun k -> float_of_int k *. pitch) (int_range (-2) 14);
            float_range (-.extent /. 2.0) (1.5 *. extent);
          ]
      in
      let* x = coord width and* y = coord height in
      return (g, x, y))
  in
  let print (g, x, y) =
    Printf.sprintf "die %gx%g pitch %g range %g at (%h, %h)"
      (Varmodel.Grid.width_um g) (Varmodel.Grid.height_um g)
      (Varmodel.Grid.pitch_um g) (Varmodel.Grid.range_um g) x y
  in
  QCheck.Test.make ~name:"array weights = list construction bit for bit"
    ~count:300 (QCheck.make ~print gen) (fun (g, x, y) ->
      let expected = list_weights g ~x ~y in
      let idx, w = Varmodel.Grid.weights g ~x ~y in
      let arrays = List.init (Array.length idx) (fun k -> (idx.(k), w.(k))) in
      let as_list = Varmodel.Grid.weights_at g ~x ~y in
      let same (r, a) (r', b) = r = r' && bits a = bits b in
      List.length arrays = List.length expected
      && List.length as_list = List.length expected
      && List.for_all2 same expected arrays
      && List.for_all2 same expected as_list)

let prop_site_form_is_device_form =
  (* [site_device_form] documents itself as exactly [device_form] at
     the site's location: same ids, same coefficient bits. *)
  let gen =
    QCheck.Gen.(
      let* mode = oneofl Varmodel.Model.[ Nom; D2d; Wid ] in
      let* hetero = bool in
      let* x = float_range (-2000.0) 6000.0
      and* y = float_range (-1500.0) 4500.0 in
      let* nominal = float_range 0.1 500.0 in
      return (mode, hetero, x, y, nominal))
  in
  QCheck.Test.make ~name:"site_device_form = device_form exactly" ~count:300
    (QCheck.make gen) (fun (mode, hetero, x, y, nominal) ->
      let spatial =
        if hetero then Varmodel.Model.Heterogeneous { lo = 0.2; hi = 1.8 }
        else Varmodel.Model.Homogeneous
      in
      let m = model ~mode ~spatial () in
      let device_id = Varmodel.Model.fresh_device_id m in
      let a =
        Varmodel.Model.site_device_form m (Varmodel.Model.site m ~x ~y)
          ~device_id ~nominal
      in
      let b = Varmodel.Model.device_form m ~device_id ~x ~y ~nominal in
      let sens f =
        Array.map (fun (i, c) -> (i, bits c)) (Linform.sensitivities f)
      in
      bits (Linform.mean a) = bits (Linform.mean b)
      && bits (Linform.variance a) = bits (Linform.variance b)
      && sens a = sens b)

let test_site_allocates_results_only () =
  (* About 50 spatial regions per site on this grid, so every array is
     far below Max_young_wosize and is counted in the minor words.  A
     site costs its two arrays, a form its two arrays (two entries
     longer: inter-die and device), each plus a header word; records,
     boxed floats and the weights' pair fit in the constant. *)
  let m =
    model ~spatial:(Varmodel.Model.Heterogeneous { lo = 0.2; hi = 1.8 }) ()
  in
  let device_id = Varmodel.Model.fresh_device_id m in
  let reps = 200 in
  List.iter
    (fun (x, y) ->
      let build () =
        let site = Varmodel.Model.site m ~x ~y in
        Varmodel.Model.site_device_form m site ~device_id ~nominal:50.0
      in
      ignore (Sys.opaque_identity (build ()));
      let w0 = Gc.minor_words () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (build ()))
      done;
      let got = (Gc.minor_words () -. w0) /. float_of_int reps in
      let ns = Linform.support_size (build ()) - 2 in
      let budget = (2 * (ns + 1)) + (2 * (ns + 3)) + 48 in
      Alcotest.(check bool)
        (Printf.sprintf "site at (%g, %g): %.1f words/call <= %d (%d regions)"
           x y got budget ns)
        true
        (got <= float_of_int budget))
    [ (2000.0, 1500.0); (10.0, 10.0); (3990.0, 2990.0); (-300.0, 3200.0) ]

let qcheck = Qseed.to_alcotest

let suite =
  [
    Alcotest.test_case "grid shape" `Quick test_grid_shape;
    Alcotest.test_case "grid region mapping" `Quick test_grid_region_mapping;
    Alcotest.test_case "grid center roundtrip" `Quick test_grid_region_center_roundtrip;
    Alcotest.test_case "grid validation" `Quick test_grid_validation;
    Alcotest.test_case "weights normalised" `Quick test_weights_normalised;
    Alcotest.test_case "weights taper" `Quick test_weights_taper_with_distance;
    Alcotest.test_case "nearby devices share regions" `Quick
      test_nearby_devices_share_regions;
    Alcotest.test_case "source id layout" `Quick test_source_id_layout;
    Alcotest.test_case "mode filtering" `Quick test_mode_filtering;
    Alcotest.test_case "budgeted sigmas" `Quick test_budgeted_sigmas;
    Alcotest.test_case "heterogeneous ramp" `Quick test_heterogeneous_ramp;
    Alcotest.test_case "device correlation structure" `Quick
      test_same_device_correlates_c_and_t;
    Alcotest.test_case "distance decorrelates" `Quick
      test_distant_devices_less_correlated;
    Alcotest.test_case "wire forms (CMP variation)" `Quick test_wire_forms;
    Alcotest.test_case "ramp clamps off-die" `Quick test_ramp_clamps_off_die;
    Alcotest.test_case "spatial source id range" `Quick
      test_spatial_source_id_range;
    qcheck prop_weights_match_list_construction;
    qcheck prop_site_form_is_device_form;
    Alcotest.test_case "site templates allocate only their results" `Quick
      test_site_allocates_results_only;
  ]
