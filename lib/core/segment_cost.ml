(* Precomputed segment-cost kernel (see the mli for the factorization
   and the accuracy guards). All tables are built once per chain.

   The transition cost is defined once, in [cost_unsafe], and the loops
   that evaluate it in bulk — the leftmost row scan and the SMAWK row
   minima — live here, in the same compilation unit, so the expression
   is inlined into them and its float never leaves a register. Callers
   in other modules get one out-of-line call per row or per combine,
   never one per transition: builds that pass -opaque (dune's dev
   profile) inline nothing across modules. *)

module T = Dp_tables

type t = {
  lambda : float;
  downtime : float;
  prefix_work : float array;  (* n+1, raw durations for the reference path *)
  checkpoint_costs : float array;  (* n *)
  recovery_costs : float array;  (* n; index i = recovery of a segment starting at i *)
  lam_prefix : float array;  (* n+1: λ·prefix_work *)
  lam_ckpt : float array;  (* n: λ·C_j *)
  e_col : float array;  (* n: e^(λ·prefix_work(j+1))·e^(λ·C_j); empty in reference mode *)
  inv_e_prefix : float array;  (* n+1: e^(−λ·prefix_work); empty in reference mode *)
  pre : float array;  (* n: e^(λ·R_i)·(1/λ + D) *)
  tables : bool;
  small_threshold : float;
}

let overflow_cutoff = 690.0

(* The tables are filled by plain loops: [Array.map] with a
   float-returning closure boxes every element on its way in. An
   exponent λ·C_j or λ·R_j equal to its predecessor's (by [=], so a NaN
   never matches) reuses the predecessor's exponential: chains with
   runs of equal C or R pay one [exp] per run. *)
let create ~lambda ~downtime ~prefix_work ~checkpoint_costs ~recovery_costs =
  let n = Array.length checkpoint_costs in
  if n = 0 then invalid_arg "Segment_cost.create: empty chain";
  if Array.length prefix_work <> n + 1 then
    invalid_arg "Segment_cost.create: prefix_work must have length n + 1";
  if Array.length recovery_costs <> n then
    invalid_arg "Segment_cost.create: recovery_costs must have length n";
  let lam_prefix = Array.create_float (n + 1) in
  for i = 0 to n do
    lam_prefix.(i) <- lambda *. prefix_work.(i)
  done;
  let lam_ckpt = Array.create_float n in
  let pre = Array.create_float n in
  let inv_lambda_plus_d = (1.0 /. lambda) +. downtime in
  (* NaN-propagating running maximum, as [Float.max]. *)
  let max_lam_ckpt = ref 0.0 in
  let lam_r = ref Float.nan and p = ref Float.nan in
  for j = 0 to n - 1 do
    let c = lambda *. checkpoint_costs.(j) in
    lam_ckpt.(j) <- c;
    if c > !max_lam_ckpt || Float.is_nan c then max_lam_ckpt := c;
    let r = lambda *. recovery_costs.(j) in
    if not (r = !lam_r) then begin
      lam_r := r;
      p := exp r *. inv_lambda_plus_d
    end;
    pre.(j) <- !p
  done;
  let lam_span = lam_prefix.(n) +. !max_lam_ckpt in
  let tables = lam_span <= overflow_cutoff in
  (* The product form computes e^a − 1 from table entries whose
     combined relative error is O(lam_span·ε); dividing by a bounds the
     relative error of the difference, so a cutoff proportional to
     lam_span keeps the kernel within ~1e-10 of the expm1 reference
     (floored at 1e-6 so tiny chains still take the cheap path only
     where it is exact enough). *)
  let small_threshold = Float.max 1e-6 (lam_span *. 1e-5) in
  let e_col, inv_e_prefix =
    if not tables then ([||], [||])
    else begin
      let e_col = Array.create_float n in
      let inv_e_prefix = Array.create_float (n + 1) in
      inv_e_prefix.(0) <- exp (-.lam_prefix.(0));
      let lam_c = ref Float.nan and e_c = ref Float.nan in
      for j = 0 to n - 1 do
        let c = lam_ckpt.(j) in
        if not (c = !lam_c) then begin
          lam_c := c;
          e_c := exp c
        end;
        let lp = lam_prefix.(j + 1) in
        e_col.(j) <- exp lp *. !e_c;
        inv_e_prefix.(j + 1) <- exp (-.lp)
      done;
      (e_col, inv_e_prefix)
    end
  in
  {
    lambda;
    downtime;
    prefix_work;
    checkpoint_costs;
    recovery_costs;
    lam_prefix;
    lam_ckpt;
    e_col;
    inv_e_prefix;
    pre;
    tables;
    small_threshold;
  }

let size t = Array.length t.checkpoint_costs
let uses_tables t = t.tables
let small_threshold t = t.small_threshold

(* The transition cost, defined once. Unchecked: every caller below
   establishes 0 <= first <= last < n by its loop structure, and the
   checked [cost] validates first. The solvers' bit-for-bit agreement
   contract rests on every path evaluating exactly this expression. *)
let[@inline] growth_unsafe t ~first ~last =
  let a =
    Array.unsafe_get t.lam_prefix (last + 1)
    -. Array.unsafe_get t.lam_prefix first
    +. Array.unsafe_get t.lam_ckpt last
  in
  if t.tables && a >= t.small_threshold then
    (Array.unsafe_get t.e_col last *. Array.unsafe_get t.inv_e_prefix first) -. 1.0
  else Float.expm1 a

let[@inline] cost_unsafe t ~first ~last =
  Array.unsafe_get t.pre first *. growth_unsafe t ~first ~last

let cost t ~first ~last =
  if first < 0 || last < first || last >= size t then
    invalid_arg "Segment_cost.cost: bad segment bounds";
  cost_unsafe t ~first ~last

let reference_cost t ~first ~last =
  Expected_time.expected_unchecked
    ~work:(t.prefix_work.(last + 1) -. t.prefix_work.(first))
    ~checkpoint:t.checkpoint_costs.(last) ~downtime:t.downtime
    ~recovery:t.recovery_costs.(first) ~lambda:t.lambda

(* Index i fails when a(x) grows from row i to i + 1 (R_(i+1) − R_i >
   w_i) or E(j) shrinks from column i to i + 1 (C_(i+1) − C_i <
   −w_(i+1)). Scanning down, the first failure is the last index. *)
let certified_from t =
  let n = size t in
  let fails i =
    t.recovery_costs.(i + 1) -. t.recovery_costs.(i)
    > t.prefix_work.(i + 1) -. t.prefix_work.(i)
    || t.checkpoint_costs.(i + 1) -. t.checkpoint_costs.(i)
       < -.(t.prefix_work.(i + 2) -. t.prefix_work.(i + 1))
  in
  let rec down i = if i < 0 then 0 else if fails i then i + 1 else down (i - 1) in
  if t.tables then down (n - 2) else n

let supports_monotone_dc t = certified_from t = 0

(* --- Bulk evaluation: the DP transition in its loops ----------------- *)

(* f(x, j) = E(x, j) + next(j+1): the chain DP's transition. *)
let[@inline] transition t next x j =
  cost_unsafe t ~first:x ~last:j +. T.fget next (j + 1)

let row_min t ~next ~row ~lo ~hi ~into ~at =
  let best = ref infinity and best_j = ref lo in
  for j = lo to hi do
    let cur = transition t next row j in
    if cur < !best then begin
      best := cur;
      best_j := j
    end
  done;
  T.fset into at !best;
  !best_j

(* SMAWK workspace. Results are indexed by row position within the
   call (row first + i at i); [survivors] holds each recursion level's
   surviving columns back to back. A level with r rows keeps at most r
   columns and the next level has ⌊r/2⌋ rows, so the levels of a call
   with [rows] rows fit in 2·rows slots. *)
type workspace = {
  survivors : T.ints;
  minima : T.floats;
  argmins : T.ints;
  mutable evaluations : int;
}

let workspace ~rows =
  if rows < 1 then invalid_arg "Segment_cost.workspace: rows must be >= 1";
  {
    survivors = T.ints (2 * rows);
    minima = T.floats rows;
    argmins = T.ints rows;
    evaluations = 0;
  }

let minima ws = ws.minima
let argmins ws = ws.argmins
let evaluations ws = ws.evaluations

(* One SMAWK level. Rows are the progression of positions
   p = pfirst + i·pstride (i < nr), global row base + p; columns are
   the range [cin, cin + nc) when [range], else survivors.{cin ..
   cin + nc − 1}; this level's survivors go to survivors.{sout ..}.

   Tie discipline, load-bearing for the bit-for-bit contract with the
   row scan: REDUCE pops a stacked column only when the new (larger)
   column is {e strictly} better at the stack-depth row — on an exact
   float tie the earlier column survives — and a column arriving at a
   full stack is dropped (it cannot be a leftmost minimum anywhere);
   INTERPOLATE scans its window left to right with strict <. Under the
   total-monotonicity certificate both rules preserve the leftmost
   argmin of every row exactly. *)
let rec smawk t ws next base pfirst pstride nr range cin nc sout =
  if nr > 0 && nc > 0 then begin
    let surv = ws.survivors in
    let evals = ref 0 in
    (* REDUCE: keep at most nr columns that can still carry a minimum. *)
    let top = ref 0 in
    for ci = 0 to nc - 1 do
      let c = if range then cin + ci else T.iget surv (cin + ci) in
      let popping = ref true in
      while !popping && !top > 0 do
        let r = base + pfirst + ((!top - 1) * pstride) in
        evals := !evals + 2;
        if transition t next r c < transition t next r (T.iget surv (sout + !top - 1))
        then decr top
        else popping := false
      done;
      if !top < nr then begin
        T.iset surv (sout + !top) c;
        incr top
      end
    done;
    let nc = !top in
    (* Recurse on the odd-position rows with the surviving columns,
       then interpolate the even-position rows: each minimum lies
       between the neighbouring odd rows' argmins (inclusive), and
       those argmins are survivors, so one monotone pointer covers all
       even rows in O(nr + nc). *)
    smawk t ws next base (pfirst + pstride) (2 * pstride) (nr / 2) false sout nc (sout + nc);
    let k = ref 0 and i = ref 0 in
    while !i < nr do
      let p = pfirst + (!i * pstride) in
      let r = base + p in
      let stop =
        if !i + 1 < nr then T.iget ws.argmins (p + pstride) else T.iget surv (sout + nc - 1)
      in
      let c = T.iget surv (sout + !k) in
      let best = ref (transition t next r c) and best_j = ref c in
      evals := !evals + 1;
      let j = ref (!k + 1) in
      while !j < nc && T.iget surv (sout + !j) <= stop do
        let c = T.iget surv (sout + !j) in
        let v = transition t next r c in
        evals := !evals + 1;
        if v < !best then begin
          best := v;
          best_j := c
        end;
        incr j
      done;
      T.fset ws.minima p !best;
      T.iset ws.argmins p !best_j;
      k := !j - 1;
      i := !i + 2
    done;
    ws.evaluations <- ws.evaluations + !evals
  end

let row_minima t ws ~next ~first ~rows ~lo ~hi =
  if rows > Bigarray.Array1.dim ws.minima then
    invalid_arg "Segment_cost.row_minima: more rows than the workspace holds";
  smawk t ws next first 0 1 rows true lo (hi - lo + 1) 0
