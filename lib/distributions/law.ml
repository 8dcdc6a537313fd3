module Rng = Ckpt_prng.Rng
module Special = Ckpt_stats.Special
module Normal = Ckpt_stats.Normal

type t =
  | Deterministic of float
  | Exponential of { rate : float }
  | Weibull of { shape : float; scale : float }
  | Log_normal of { mu : float; sigma : float }
  | Uniform of { lo : float; hi : float }
  | Gamma of { shape : float; scale : float }

(* Every guard is written [not (ok)], so that NaN, which fails every
   comparison, is rejected with the out-of-range values. *)
let positive_finite x = x > 0.0 && Float.is_finite x

let validate law =
  match law with
  | Deterministic v when not (positive_finite v) ->
      Error "Deterministic: value must be positive and finite"
  | Exponential { rate } when not (positive_finite rate) ->
      Error "Exponential: rate must be positive and finite"
  | Weibull { shape; scale } when not (positive_finite shape && positive_finite scale) ->
      Error "Weibull: shape and scale must be positive and finite"
  | Log_normal { mu; sigma } when not (Float.is_finite mu && positive_finite sigma) ->
      Error "Log_normal: mu must be finite and sigma positive and finite"
  | Uniform { lo; hi } when not (0.0 <= lo && lo < hi && Float.is_finite hi) ->
      Error "Uniform: requires 0 <= lo < hi < infinity"
  | Gamma { shape; scale } when not (positive_finite shape && positive_finite scale) ->
      Error "Gamma: shape and scale must be positive and finite"
  | law -> Ok law

let checked law =
  match validate law with Ok law -> law | Error msg -> invalid_arg ("Law." ^ msg)

let exponential ~rate = checked (Exponential { rate })
let weibull ~shape ~scale = checked (Weibull { shape; scale })
let log_normal ~mu ~sigma = checked (Log_normal { mu; sigma })
let uniform ~lo ~hi = checked (Uniform { lo; hi })
let gamma ~shape ~scale = checked (Gamma { shape; scale })
let deterministic v = checked (Deterministic v)

let gamma_fn x = exp (Special.ln_gamma x)

let weibull_of_mean ~shape ~mean =
  (* The shape is checked before the gamma function sees it. *)
  if not (positive_finite shape && positive_finite mean) then
    invalid_arg "Law.weibull_of_mean: shape and mean must be positive and finite";
  weibull ~shape ~scale:(mean /. gamma_fn (1.0 +. (1.0 /. shape)))

let log_normal_of_mean ~sigma ~mean =
  if not (positive_finite mean) then
    invalid_arg "Law.log_normal_of_mean: mean must be positive and finite";
  log_normal ~mu:(log mean -. (0.5 *. sigma *. sigma)) ~sigma

let mean law =
  match law with
  | Deterministic v -> v
  | Exponential { rate } -> 1.0 /. rate
  | Weibull { shape; scale } -> scale *. gamma_fn (1.0 +. (1.0 /. shape))
  | Log_normal { mu; sigma } -> exp (mu +. (0.5 *. sigma *. sigma))
  | Uniform { lo; hi } -> 0.5 *. (lo +. hi)
  | Gamma { shape; scale } -> shape *. scale

let variance law =
  match law with
  | Deterministic _ -> 0.0
  | Exponential { rate } -> 1.0 /. (rate *. rate)
  | Weibull { shape; scale } ->
      let g1 = gamma_fn (1.0 +. (1.0 /. shape)) in
      let g2 = gamma_fn (1.0 +. (2.0 /. shape)) in
      scale *. scale *. (g2 -. (g1 *. g1))
  | Log_normal { mu; sigma } ->
      let s2 = sigma *. sigma in
      (exp s2 -. 1.0) *. exp ((2.0 *. mu) +. s2)
  | Uniform { lo; hi } -> (hi -. lo) *. (hi -. lo) /. 12.0
  | Gamma { shape; scale } -> shape *. scale *. scale

let pdf law x =
  match law with
  | Deterministic _ -> 0.0 (* the density is a Dirac mass; callers use [cdf] *)
  | Exponential { rate } -> if x < 0.0 then 0.0 else rate *. exp (-.rate *. x)
  | Weibull { shape; scale } ->
      if x < 0.0 then 0.0
      else if Float.equal x 0.0 then
        (if shape < 1.0 then infinity
         else if Float.equal shape 1.0 then 1.0 /. scale
         else 0.0)
      else begin
        let z = x /. scale in
        shape /. scale *. (z ** (shape -. 1.0)) *. exp (-.(z ** shape))
      end
  | Log_normal { mu; sigma } ->
      if x <= 0.0 then 0.0
      else begin
        let z = (log x -. mu) /. sigma in
        exp (-0.5 *. z *. z) /. (x *. sigma *. sqrt (2.0 *. Float.pi))
      end
  | Uniform { lo; hi } -> if x < lo || x >= hi then 0.0 else 1.0 /. (hi -. lo)
  | Gamma { shape; scale } ->
      if x < 0.0 then 0.0
      else if Float.equal x 0.0 then
        (if shape < 1.0 then infinity
         else if Float.equal shape 1.0 then 1.0 /. scale
         else 0.0)
      else
        exp (((shape -. 1.0) *. log (x /. scale)) -. (x /. scale) -. Special.ln_gamma shape)
        /. scale

let cdf law x =
  match law with
  | Deterministic v -> if x >= v then 1.0 else 0.0
  | Exponential { rate } -> if x <= 0.0 then 0.0 else -.Float.expm1 (-.rate *. x)
  | Weibull { shape; scale } ->
      if x <= 0.0 then 0.0 else -.Float.expm1 (-.((x /. scale) ** shape))
  | Log_normal { mu; sigma } ->
      if x <= 0.0 then 0.0 else Normal.cdf ((log x -. mu) /. sigma)
  | Uniform { lo; hi } ->
      if x <= lo then 0.0 else if x >= hi then 1.0 else (x -. lo) /. (hi -. lo)
  | Gamma { shape; scale } -> if x <= 0.0 then 0.0 else Special.gamma_p shape (x /. scale)

let survival law x =
  match law with
  | Deterministic v -> if x >= v then 0.0 else 1.0
  | Exponential { rate } -> if x <= 0.0 then 1.0 else exp (-.rate *. x)
  | Weibull { shape; scale } ->
      if x <= 0.0 then 1.0 else exp (-.((x /. scale) ** shape))
  | Log_normal { mu; sigma } ->
      if x <= 0.0 then 1.0 else Normal.cdf (-.(log x -. mu) /. sigma)
  | Uniform _ | Gamma _ -> 1.0 -. cdf law x

let hazard law x =
  let s = survival law x in
  if Float.equal s 0.0 then infinity else pdf law x /. s

let quantile law p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Law.quantile: p must lie in [0,1)";
  match law with
  | Deterministic v -> v
  | Exponential { rate } -> -.Float.log1p (-.p) /. rate
  | Weibull { shape; scale } -> scale *. ((-.Float.log1p (-.p)) ** (1.0 /. shape))
  | Log_normal { mu; sigma } ->
      if Float.equal p 0.0 then 0.0 else exp (mu +. (sigma *. Normal.quantile p))
  | Uniform { lo; hi } -> lo +. (p *. (hi -. lo))
  | Gamma { shape; scale } ->
      if Float.equal p 0.0 then 0.0
      else begin
        (* Bisection on the regularized incomplete gamma; the bracket is
           grown geometrically from the mean. *)
        let target = p in
        let hi = ref (Float.max 1.0 (shape *. 2.0)) in
        while Special.gamma_p shape !hi < target do
          hi := !hi *. 2.0
        done;
        let lo = ref 0.0 in
        for _ = 1 to 200 do
          let mid = 0.5 *. (!lo +. !hi) in
          if Special.gamma_p shape mid < target then lo := mid else hi := mid
        done;
        scale *. 0.5 *. (!lo +. !hi)
      end

let box_muller rng =
  let u1 = Rng.float_pos rng in
  let u2 = Rng.float rng in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* Marsaglia & Tsang (2000) squeeze method, shape >= 1. *)
let rec sample_gamma_mt rng shape =
  let d = shape -. (1.0 /. 3.0) in
  let c = 1.0 /. sqrt (9.0 *. d) in
  let rec attempt () =
    let x = box_muller rng in
    let v = 1.0 +. (c *. x) in
    if v <= 0.0 then attempt ()
    else begin
      let v3 = v *. v *. v in
      let u = Rng.float_pos rng in
      let x2 = x *. x in
      if u < 1.0 -. (0.0331 *. x2 *. x2) then d *. v3
      else if log u < (0.5 *. x2) +. (d *. (1.0 -. v3 +. log v3)) then d *. v3
      else attempt ()
    end
  in
  attempt ()

and sample_gamma rng ~shape ~scale =
  if shape >= 1.0 then scale *. sample_gamma_mt rng shape
  else begin
    (* Boost for shape < 1: Gamma(a) = Gamma(a+1) * U^(1/a). *)
    let g = sample_gamma_mt rng (shape +. 1.0) in
    let u = Rng.float_pos rng in
    scale *. g *. (u ** (1.0 /. shape))
  end

let sample law rng =
  match law with
  | Deterministic v -> v
  | Exponential { rate } -> -.log (Rng.float_pos rng) /. rate
  | Weibull { shape; scale } -> scale *. ((-.log (Rng.float_pos rng)) ** (1.0 /. shape))
  | Log_normal { mu; sigma } -> exp (mu +. (sigma *. box_muller rng))
  | Uniform { lo; hi } -> Rng.float_range rng lo hi
  | Gamma { shape; scale } -> sample_gamma rng ~shape ~scale

let conditional_remaining_sample law ~elapsed rng =
  if elapsed < 0.0 then invalid_arg "Law.conditional_remaining_sample: negative elapsed";
  match law with
  | Exponential _ -> sample law rng (* memoryless *)
  | Deterministic v ->
      if elapsed >= v then 0.0 else v -. elapsed
  | law ->
      (* Inverse-CDF sampling of the residual law:
         x = F^{-1}(F(t0) + u (1 - F(t0))) - t0. *)
      let f0 = cdf law elapsed in
      let u = Rng.float rng in
      let p = f0 +. (u *. (1.0 -. f0)) in
      let p = Float.min p (1.0 -. 1e-16) in
      Float.max 0.0 (quantile law p -. elapsed)

(* Composite Simpson on [a, b]. *)
let simpson f a b n =
  let n = if n mod 2 = 1 then n + 1 else n in
  let h = (b -. a) /. float_of_int n in
  let acc = ref (f a +. f b) in
  for i = 1 to n - 1 do
    let weight = if i mod 2 = 1 then 4.0 else 2.0 in
    acc := !acc +. (weight *. f (a +. (float_of_int i *. h)))
  done;
  !acc *. h /. 3.0

let expected_min law ~upto =
  if upto < 0.0 then invalid_arg "Law.expected_min: negative window";
  if Float.equal upto 0.0 then 0.0
  else begin
    match law with
    | Exponential { rate } -> -.Float.expm1 (-.rate *. upto) /. rate
    | Deterministic v -> Float.min upto v
    | Uniform { lo; hi } ->
        if upto <= lo then upto
        else if upto >= hi then (lo +. hi) /. 2.0
        else begin
          (* ∫_0^a S = lo + ∫_lo^a (hi - x)/(hi - lo) dx *)
          let width = hi -. lo in
          lo +. (((hi *. (upto -. lo)) -. (0.5 *. ((upto *. upto) -. (lo *. lo)))) /. width)
        end
    | (Weibull _ | Log_normal _ | Gamma _) as law ->
        let f x = survival law x in
        (* First panel sized to the law, growing geometrically: covers
           any window in O(log(upto/mean)) panels without starving the
           resolution near 0 where S varies fastest. *)
        let rec panels acc a width =
          if a >= upto then acc
          else begin
            let b = Float.min upto (a +. width) in
            panels (acc +. simpson f a b 128) b (2.0 *. width)
          end
        in
        panels 0.0 0.0 (Float.min upto (mean law /. 8.0))
  end

let mean_residual_life law ~elapsed =
  if elapsed < 0.0 then invalid_arg "Law.mean_residual_life: negative elapsed";
  match law with
  | Exponential { rate } -> 1.0 /. rate
  | Deterministic v ->
      if elapsed >= v then 0.0 else v -. elapsed
  | Uniform { lo; hi } ->
      if elapsed >= hi then 0.0
      else begin
        let t = Float.max elapsed lo in
        (* E[X − elapsed | X > elapsed]: X uniform on [t, hi). *)
        ((t +. hi) /. 2.0) -. elapsed
      end
  | (Weibull _ | Log_normal _ | Gamma _) as law ->
      let s_t = survival law elapsed in
      if s_t <= 0.0 then 0.0
      else begin
        (* Integrate S over [t, t_max] where t_max covers all but 1e-12
           of the conditional tail mass. Heavy-tailed laws make that
           range span many orders of magnitude, so it is cut into
           geometrically growing panels, each handled by Simpson. *)
        let p_target = Float.min (1.0 -. 1e-15) (1.0 -. (1e-12 *. s_t)) in
        let t_max = Float.max (elapsed +. mean law) (quantile law p_target) in
        let f x = survival law x in
        let rec panels acc a width =
          if a >= t_max then acc
          else begin
            let b = Float.min t_max (a +. width) in
            panels (acc +. simpson f a b 128) b (2.0 *. width)
          end
        in
        let bulk = panels 0.0 elapsed (mean law /. 8.0) in
        bulk /. s_t
      end

let to_string law =
  match law with
  | Deterministic v -> Printf.sprintf "Deterministic(%g)" v
  | Exponential { rate } -> Printf.sprintf "Exponential(rate=%g)" rate
  | Weibull { shape; scale } -> Printf.sprintf "Weibull(shape=%g, scale=%g)" shape scale
  | Log_normal { mu; sigma } -> Printf.sprintf "LogNormal(mu=%g, sigma=%g)" mu sigma
  | Uniform { lo; hi } -> Printf.sprintf "Uniform(%g, %g)" lo hi
  | Gamma { shape; scale } -> Printf.sprintf "Gamma(shape=%g, scale=%g)" shape scale

let pp fmt law = Format.pp_print_string fmt (to_string law)
