type setup = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  budget : Varmodel.Model.budget;
  pitch_um : float;
  range_um : float;
  mc_trials : int;
  pool : Exec.Pool.t option;
  par_grain : int option;
}

let default_setup =
  {
    tech = Device.Tech.default_65nm;
    library = Device.Buffer.default_library;
    budget = Varmodel.Model.paper_budget;
    pitch_um = 500.0;
    range_um = 2000.0;
    mc_trials = 2000;
    pool = None;
    par_grain = None;
  }

let map_cells setup ~f xs =
  match setup.pool with
  | Some pool when Exec.Pool.jobs pool > 1 ->
    (* Cells are few and heavy: one pool task each. *)
    Exec.Pool.parallel_map ~chunk:1 pool ~f xs
  | _ -> List.map f xs

let mc_samples setup inst ~seed ~trials =
  Sta.Buffered.monte_carlo ?pool:setup.pool inst
    ~rng:(Numeric.Rng.create ~seed) ~trials

let grid_for setup ~die_um =
  Varmodel.Grid.create ~width_um:die_um ~height_um:die_um ~pitch_um:setup.pitch_um
    ~range_um:setup.range_um

type algo = Nom | D2d | Wid

let algo_name = function Nom -> "NOM" | D2d -> "D2D" | Wid -> "WID"

let model_mode = function
  | Nom -> Varmodel.Model.Nom
  | D2d -> Varmodel.Model.D2d
  | Wid -> Varmodel.Model.Wid

let run_algo setup ?rule ?budget ?(wire_sizing = false) ?load_limit
    ?(objective = Bufins.Dominance.default) ?(eps_power = 0.0) ?tape ~spatial
    ~grid algo tree =
  let rule =
    match rule with
    | Some r -> r
    | None -> (
      match algo with
      | Nom -> Bufins.Prune.deterministic
      | D2d | Wid -> Bufins.Prune.two_param ())
  in
  let model =
    Varmodel.Model.create ~mode:(model_mode algo) ~budget:setup.budget ~spatial
      ~grid ()
  in
  let config =
    {
      (Bufins.Engine.default_config ~rule ~wire_sizing ()) with
      Bufins.Engine.tech = setup.tech;
      library = setup.library;
      budget = Option.value budget ~default:Bufins.Engine.no_budget;
      load_limit;
      power_objective = objective;
      eps_power;
    }
  in
  let tape =
    match tape with Some t -> t | None -> Compile.Tape.compile tree
  in
  Bufins.Engine.run_tape ?pool:setup.pool ?grain:setup.par_grain config ~model
    tape

let run_sampled setup ?budget ?(wire_sizing = false) ?load_limit ~samples
    ?(relax = 1.0) ?(seed = 1) ?(yield = 0.95)
    ?(objective = Bufins.Dominance.default) ?(eps_power = 0.0) ?tape ~spatial
    ~grid algo tree =
  let model =
    Varmodel.Model.create ~mode:(model_mode algo) ~budget:setup.budget ~spatial
      ~grid ()
  in
  let config =
    {
      (Sample.Engine.default_config ~samples ~seed ~relax ~yield ~wire_sizing
         ()) with
      Sample.Engine.tech = setup.tech;
      library = setup.library;
      budget = Option.value budget ~default:Bufins.Engine.no_budget;
      load_limit;
      power_objective = objective;
      eps_power;
    }
  in
  let tape =
    match tape with Some t -> t | None -> Compile.Tape.compile tree
  in
  Sample.Engine.run_tape ?pool:setup.pool ?grain:setup.par_grain config ~model
    tape

let instance_for setup ~spatial ~grid tree ?(widths = []) buffers =
  let model =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid ~budget:setup.budget ~spatial
      ~grid ()
  in
  let buffered = Sta.Buffered.make ~tech:setup.tech ~widths tree buffers in
  Sta.Buffered.instantiate ~model buffered

let evaluate setup ~spatial ~grid tree ?(widths = []) buffers =
  Sta.Buffered.canonical_rat (instance_for setup ~spatial ~grid tree ~widths buffers)

let type_histogram setup buffers =
  let n = Array.length setup.library in
  let counts = Array.make n 0 in
  List.iter
    (fun ((_ : int), (b : Device.Buffer.t)) ->
      Array.iteri
        (fun i (lb : Device.Buffer.t) ->
          if lb.Device.Buffer.name = b.Device.Buffer.name then
            counts.(i) <- counts.(i) + 1)
        setup.library)
    buffers;
  Array.to_list (Array.mapi (fun i c -> (setup.library.(i), c)) counts)

let mix_string setup buffers =
  type_histogram setup buffers
  |> List.map (fun ((b : Device.Buffer.t), c) ->
         Printf.sprintf "%s:%d" b.Device.Buffer.name c)
  |> String.concat " "

let pp_row ppf cells =
  List.iteri
    (fun i cell ->
      if i = 0 then Format.fprintf ppf "%-8s" cell
      else Format.fprintf ppf " %14s" cell)
    cells;
  Format.fprintf ppf "@."
