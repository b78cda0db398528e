type summary = {
  count : int;
  mean : float;
  variance : float;
  std : float;
  min : float;
  max : float;
}

type accumulator = {
  mutable n : int;
  mutable m : float;       (* running mean *)
  mutable m2 : float;      (* sum of squared deviations *)
  mutable lo : float;
  mutable hi : float;
}

let create () =
  { n = 0; m = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity }

let add acc x =
  acc.n <- acc.n + 1;
  let delta = x -. acc.m in
  acc.m <- acc.m +. (delta /. float_of_int acc.n);
  acc.m2 <- acc.m2 +. (delta *. (x -. acc.m));
  if x < acc.lo then acc.lo <- x;
  if x > acc.hi then acc.hi <- x

let acc_count acc = acc.n
let acc_mean acc = acc.m

let acc_variance acc =
  if acc.n <= 1 then 0.0 else acc.m2 /. float_of_int (acc.n - 1)

let acc_std acc = sqrt (acc_variance acc)

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty sample";
  let acc = create () in
  Array.iter (add acc) xs;
  {
    count = acc.n;
    mean = acc_mean acc;
    variance = acc_variance acc;
    std = acc_std acc;
    min = acc.lo;
    max = acc.hi;
  }

let mean xs = (summarize xs).mean
let variance xs = (summarize xs).variance
let std xs = (summarize xs).std

(* Rearrange [a] so that [a.(k)] holds its k-th smallest element under
   [Float.compare], with nothing greater before it and nothing smaller
   after it: Hoare's FIND with a median-of-three pivot and a three-way
   partition, falling back to a full sort after a logarithmic number of
   rounds so the worst case stays O(n log n). *)
let select a k =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let rounds =
    ref (2 * (1 + int_of_float (Float.log2 (float_of_int (Array.length a)))))
  in
  while !lo < !hi do
    if !rounds = 0 then begin
      Array.sort Float.compare a;
      lo := k;
      hi := k
    end
    else begin
      decr rounds;
      let x = a.(!lo) and y = a.((!lo + !hi) / 2) and z = a.(!hi) in
      let p =
        if Float.compare x y <= 0 then
          if Float.compare y z <= 0 then y
          else if Float.compare x z <= 0 then z
          else x
        else if Float.compare x z <= 0 then x
        else if Float.compare y z <= 0 then z
        else y
      in
      (* [lo, lt) < p, [lt, i) = p, (gt, hi] > p *)
      let lt = ref !lo and i = ref !lo and gt = ref !hi in
      while !i <= !gt do
        let c = Float.compare a.(!i) p in
        if c < 0 then begin
          swap !lt !i;
          incr lt;
          incr i
        end
        else if c > 0 then begin
          swap !i !gt;
          decr gt
        end
        else incr i
      done;
      if k < !lt then hi := !lt - 1
      else if k > !gt then lo := !gt + 1
      else begin
        lo := k;
        hi := k
      end
    end
  done

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Stats.percentile: p must lie in [0, 1]";
  let pos = p *. float_of_int (n - 1) in
  let i = int_of_float (floor pos) in
  let frac = pos -. float_of_int i in
  let by_sort () =
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    if n = 1 then sorted.(0)
    else if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  in
  (* The two order statistics by selection.  Values that compare equal
     under [Float.compare] but differ in bits (±0.0, NaN payloads) make
     the sort's pick depend on the input order, so those fall back to
     the sort. *)
  let plain x = x = x && x <> 0.0 in
  if n = 1 || i < 0 || i > n - 1 then by_sort ()
  else begin
    let a = Array.copy xs in
    select a i;
    let lo = a.(i) in
    if i = n - 1 then if plain lo then lo else by_sort ()
    else begin
      let hi = ref a.(i + 1) in
      for j = i + 2 to n - 1 do
        if Float.compare a.(j) !hi < 0 then hi := a.(j)
      done;
      let hi = !hi in
      if plain lo && plain hi then lo +. (frac *. (hi -. lo)) else by_sort ()
    end
  end

let covariance xs ys =
  let n = Array.length xs in
  if n = 0 || n <> Array.length ys then
    invalid_arg "Stats.covariance: empty or mismatched samples";
  if n = 1 then 0.0
  else
    let mx = mean xs and my = mean ys in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. ((xs.(i) -. mx) *. (ys.(i) -. my))
    done;
    !acc /. float_of_int (n - 1)

let correlation xs ys =
  let sx = std xs and sy = std ys in
  if sx = 0.0 || sy = 0.0 then 0.0 else covariance xs ys /. (sx *. sy)
