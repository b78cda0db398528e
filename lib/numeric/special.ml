(* Cody's rational Chebyshev approximations for erf/erfc.  Three regimes:
   |x| <= 0.46875 uses erf directly; 0.46875 < x <= 4 and x > 4 use erfc
   with exp(-x^2) factored out so that the tail does not underflow until
   erfc itself does. *)

let sqrt2 = sqrt 2.0
let sqrt_pi = sqrt (4.0 *. atan 1.0)
let inv_sqrt_2pi = 1.0 /. sqrt (8.0 *. atan 1.0)

(* Horner's rule as a plain loop: a fold's closure would box the
   accumulator once per coefficient on every erfc call. *)
let polynomial coeffs x =
  let acc = ref 0.0 in
  for k = 0 to Array.length coeffs - 1 do
    acc := (!acc *. x) +. coeffs.(k)
  done;
  !acc

(* Coefficients for erf(x), |x| <= 0.46875: erf x = x * p1(x^2)/q1(x^2). *)
let p1 =
  [| 1.857777061846031526730e-1; 3.161123743870565596947e0;
     1.138641541510501556495e2; 3.774852376853020208137e2;
     3.209377589138469472562e3 |]

let q1 =
  [| 1.0; 2.360129095234412093499e1; 2.440246379344441733056e2;
     1.282616526077372275645e3; 2.844236833439170622273e3 |]

(* Coefficients for erfc(x), 0.46875 <= x <= 4:
   erfc x = exp(-x^2) * p2(x)/q2(x). *)
let p2 =
  [| 2.15311535474403846343e-8; 5.64188496988670089180e-1;
     8.88314979438837594118e0; 6.61191906371416294775e1;
     2.98635138197400131132e2; 8.81952221241769090411e2;
     1.71204761263407058314e3; 2.05107837782607146532e3;
     1.23033935479799725272e3 |]

let q2 =
  [| 1.0; 1.57449261107098347253e1; 1.17693950891312499305e2;
     5.37181101862009857509e2; 1.62138957456669018874e3;
     3.29079923573345962678e3; 4.36261909014324715820e3;
     3.43936767414372163696e3; 1.23033935480374942043e3 |]

(* Coefficients for erfc(x), x > 4:
   erfc x = exp(-x^2)/x * (1/sqrt pi + z*p3(z)/q3(z)) with z = 1/x^2. *)
let p3 =
  [| 1.63153871373020978498e-2; 3.05326634961232344035e-1;
     3.60344899949804439429e-1; 1.25781726111229246204e-1;
     1.60837851487422766278e-2; 6.58749161529837803157e-4 |]

let q3 =
  [| 1.0; 2.56852019228982242072e0; 1.87295284992346047209e0;
     5.27905102951428412248e-1; 6.05183413124413191178e-2;
     2.33520497626869185443e-3 |]

let erf_small x =
  let z = x *. x in
  x *. polynomial p1 z /. polynomial q1 z

let erfc_mid x =
  exp (-.x *. x) *. polynomial p2 x /. polynomial q2 x

let erfc_large x =
  let z = 1.0 /. (x *. x) in
  let r = z *. polynomial p3 z /. polynomial q3 z in
  exp (-.x *. x) /. x *. ((1.0 /. sqrt_pi) -. r)

let erfc_pos x =
  if x <= 0.46875 then 1.0 -. erf_small x
  else if x <= 4.0 then erfc_mid x
  else if x < 26.6 then erfc_large x
  else 0.0

let erfc x = if x >= 0.0 then erfc_pos x else 2.0 -. erfc_pos (-.x)

let erf x =
  let ax = Float.abs x in
  if ax <= 0.46875 then erf_small x
  else
    let v = 1.0 -. erfc_pos ax in
    if x >= 0.0 then v else -.v
