type mode = Nom | D2d | Wid

type spatial_kind =
  | Homogeneous
  | Heterogeneous of { lo : float; hi : float }

type budget = {
  random_frac : float;
  inter_die_frac : float;
  spatial_frac : float;
}

let paper_budget = { random_frac = 0.05; inter_die_frac = 0.05; spatial_frac = 0.05 }
let default_heterogeneous = Heterogeneous { lo = 0.2; hi = 1.8 }

type t = {
  mode : mode;
  budget : budget;
  wire_frac : float;
  spatial : spatial_kind;
  grid : Grid.t;
  mutable next_device : int;
}

let create ?(mode = Wid) ?(budget = paper_budget) ?(wire_frac = 0.0) ~spatial
    ~grid () =
  if wire_frac < 0.0 then invalid_arg "Model.create: wire_frac must be >= 0";
  { mode; budget; wire_frac; spatial; grid; next_device = Grid.regions grid + 1 }

let mode m = m.mode
let grid m = m.grid
let budget m = m.budget
let inter_die_id _ = 0

let spatial_source_id m r =
  if r < 0 || r >= Grid.regions m.grid then
    invalid_arg "Model.spatial_source_id: region out of range";
  1 + r

let fresh_device_id m =
  let id = m.next_device in
  m.next_device <- id + 1;
  id

let device_count m = m.next_device - Grid.regions m.grid - 1

let spatial_scale m ~x ~y =
  match m.spatial with
  | Homogeneous -> 1.0
  | Heterogeneous { lo; hi } ->
    let w = Grid.width_um m.grid and h = Grid.height_um m.grid in
    let frac = (x +. y) /. (w +. h) in
    let frac = if frac < 0.0 then 0.0 else if frac > 1.0 then 1.0 else frac in
    lo +. ((hi -. lo) *. frac)

let device_sens m ~device_id ~x ~y ~nominal =
  match m.mode with
  | Nom -> []
  | D2d ->
    [ (device_id, m.budget.random_frac *. nominal);
      (inter_die_id m, m.budget.inter_die_frac *. nominal) ]
  | Wid ->
    let scale = spatial_scale m ~x ~y in
    let sigma_sp = m.budget.spatial_frac *. nominal *. scale in
    let spatial =
      List.map
        (fun (r, w) -> (spatial_source_id m r, sigma_sp *. w))
        (Grid.weights_at m.grid ~x ~y)
    in
    (device_id, m.budget.random_frac *. nominal)
    :: (inter_die_id m, m.budget.inter_die_frac *. nominal)
    :: spatial

let device_form m ~device_id ~x ~y ~nominal =
  Linform.make ~nominal ~sens:(device_sens m ~device_id ~x ~y ~nominal)

(* Location-dependent part of a device form, precomputed once per
   buffer site: the heterogeneity ramp and the normalised spatial
   weights.  Building a form from it is a single pass writing the
   sorted layout [inter-die(0); spatial ids ascending; device id]
   directly — no list, no sort.  [Grid.weights] returns regions in
   ascending index order, so the spatial ids come out sorted; device
   ids are allocated above every spatial id by construction. *)
type site = {
  s_scale : float;
  s_spatial_ids : int array;
  s_weights : float array;
}

let site m ~x ~y =
  match m.mode with
  | Nom | D2d -> { s_scale = 1.0; s_spatial_ids = [||]; s_weights = [||] }
  | Wid ->
    (* The region array is fresh, so it becomes the id array in place. *)
    let ids, weights = Grid.weights m.grid ~x ~y in
    for k = 0 to Array.length ids - 1 do
      ids.(k) <- spatial_source_id m ids.(k)
    done;
    { s_scale = spatial_scale m ~x ~y; s_spatial_ids = ids; s_weights = weights }

let site_device_form m site ~device_id ~nominal =
  match m.mode with
  | Nom -> Linform.const nominal
  | D2d ->
    Linform.of_sorted_arrays ~nominal
      ~ids:[| inter_die_id m; device_id |]
      ~coefs:
        [|
          m.budget.inter_die_frac *. nominal; m.budget.random_frac *. nominal;
        |]
  | Wid ->
    let ns = Array.length site.s_spatial_ids in
    let sigma_sp = m.budget.spatial_frac *. nominal *. site.s_scale in
    let ids = Array.make (ns + 2) 0 and coefs = Array.make (ns + 2) 0.0 in
    ids.(0) <- inter_die_id m;
    coefs.(0) <- m.budget.inter_die_frac *. nominal;
    for k = 0 to ns - 1 do
      ids.(k + 1) <- site.s_spatial_ids.(k);
      coefs.(k + 1) <- sigma_sp *. site.s_weights.(k)
    done;
    ids.(ns + 1) <- device_id;
    coefs.(ns + 1) <- m.budget.random_frac *. nominal;
    Linform.of_sorted_arrays ~nominal ~ids ~coefs

let wire_frac m = m.wire_frac

let wire_forms m ~edge_id ~x ~y ~r0 ~c0 =
  if m.wire_frac = 0.0 || m.mode = Nom then (Linform.const r0, Linform.const c0)
  else begin
    (* Reuse the device sensitivity machinery with the wire budget, then
       flip the signs for resistance: the same thickness excursion that
       raises c lowers r. *)
    let scaled_budget =
      {
        random_frac = m.wire_frac;
        inter_die_frac = m.wire_frac;
        spatial_frac = m.wire_frac;
      }
    in
    let m' = { m with budget = scaled_budget } in
    let c_sens = device_sens m' ~device_id:edge_id ~x ~y ~nominal:c0 in
    let scale_r = -.r0 /. c0 in
    let r_sens = List.map (fun (i, a) -> (i, scale_r *. a)) c_sens in
    (Linform.make ~nominal:r0 ~sens:r_sens, Linform.make ~nominal:c0 ~sens:c_sens)
  end

type source_kind = Inter_die | Spatial_region of int | Device_random

let source_kind m id =
  if id < 0 then invalid_arg "Model.source_kind: negative id"
  else if id = 0 then Inter_die
  else if id <= Grid.regions m.grid then Spatial_region (id - 1)
  else Device_random
