type t = {
  width_um : float;
  height_um : float;
  pitch_um : float;
  range_um : float;
  cols : int;
  rows : int;
}

let create ~width_um ~height_um ~pitch_um ~range_um =
  if width_um <= 0.0 || height_um <= 0.0 then
    invalid_arg "Grid.create: die dimensions must be positive";
  if pitch_um <= 0.0 then invalid_arg "Grid.create: pitch must be positive";
  if range_um <= 0.0 then invalid_arg "Grid.create: range must be positive";
  let cols = max 1 (int_of_float (ceil (width_um /. pitch_um))) in
  let rows = max 1 (int_of_float (ceil (height_um /. pitch_um))) in
  { width_um; height_um; pitch_um; range_um; cols; rows }

let width_um g = g.width_um
let height_um g = g.height_um
let pitch_um g = g.pitch_um
let range_um g = g.range_um
let regions g = g.cols * g.rows
let cols g = g.cols
let rows g = g.rows

let clamp v lo hi = if v < lo then lo else if v > hi then hi else v

let col_of g x =
  clamp (int_of_float (floor (x /. g.pitch_um))) 0 (g.cols - 1)

let row_of g y =
  clamp (int_of_float (floor (y /. g.pitch_um))) 0 (g.rows - 1)

let region_of g ~x ~y = (row_of g y * g.cols) + col_of g x

let region_center g idx =
  if idx < 0 || idx >= regions g then
    invalid_arg "Grid.region_center: index out of range";
  let row = idx / g.cols and col = idx mod g.cols in
  ( (float_of_int col +. 0.5) *. g.pitch_um,
    (float_of_int row +. 0.5) *. g.pitch_um )

(* Per-domain scratch for the cells [weights] scans, grown to the
   largest window seen.  A call borrows it from its first write to its
   final copy and calls nothing that could re-enter it; like
   [Linform]'s merge scratch, it assumes no two systhreads of one
   domain run [weights] at once. *)
type scratch = { mutable s_idx : int array; mutable s_w : float array }

let scratch_key = Domain.DLS.new_key (fun () -> { s_idx = [||]; s_w = [||] })

let weights g ~x ~y =
  (* Gaussian taper exp(-(d/lambda)^2) with lambda = range/2, so the
     weight at [range_um] is e^-4, effectively zero — "tapers off at a
     distance about 2 mm" for the default 2 mm range. *)
  let lambda = g.range_um /. 2.0 in
  let span = int_of_float (ceil (g.range_um /. g.pitch_um)) in
  let c0 = col_of g x and r0 = row_of g y in
  let rlo = max 0 (r0 - span) and rhi = min (g.rows - 1) (r0 + span) in
  let clo = max 0 (c0 - span) and chi = min (g.cols - 1) (c0 + span) in
  let cells = (rhi - rlo + 1) * (chi - clo + 1) in
  let s = Domain.DLS.get scratch_key in
  if Array.length s.s_idx < cells then begin
    s.s_idx <- Array.make cells 0;
    s.s_w <- Array.make cells 0.0
  end;
  let idx = s.s_idx and raw = s.s_w in
  let n = ref 0 in
  for row = rlo to rhi do
    for col = clo to chi do
      (* [region_center]'s arithmetic, inlined so no tuple is built. *)
      let cx = (float_of_int col +. 0.5) *. g.pitch_um in
      let cy = (float_of_int row +. 0.5) *. g.pitch_um in
      let d = Float.hypot (cx -. x) (cy -. y) in
      if d <= g.range_um then begin
        idx.(!n) <- (row * g.cols) + col;
        raw.(!n) <- exp (-.(d /. lambda) *. (d /. lambda));
        incr n
      end
    done
  done;
  let n = !n in
  (* Summed from the last cell scanned to the first. *)
  let sq = ref 0.0 in
  for k = n - 1 downto 0 do
    let w = raw.(k) in
    sq := !sq +. (w *. w)
  done;
  (* On the die the containing region is always within range, so
     norm > 0; a point far off the die may have no region in range, and
     then there is nothing to divide. *)
  let norm = sqrt !sq in
  let w = Array.make n 0.0 in
  for k = 0 to n - 1 do
    w.(k) <- raw.(k) /. norm
  done;
  (Array.sub idx 0 n, w)

let weights_at g ~x ~y =
  let idx, w = weights g ~x ~y in
  List.init (Array.length idx) (fun k -> (idx.(k), w.(k)))
