(** Diff of two {!Ckpt_obs.Metrics} snapshots — the engine behind
    [ckpt-obs diff].

    Accepts any JSON file carrying a snapshot: bare [--metrics json]
    output, the same beside other top-level keys, or a full
    [BENCH_<n>.json] (snapshot under the top-level [metrics] key).

    Gating mirrors [ckpt-bench diff]'s noise-aware rule restricted to
    what a snapshot carries: with no per-sample stddev the pooled-noise
    term vanishes, so an Engine row fails when it moves by more than
    [max_change * |base|], turns null or non-numeric, or disappears.
    Timing rows and new rows are informational. Histograms compare by
    observation count; a gauge never set in the baseline never gates. *)

type verdict = Match | Drift | Removed | Added | Info

val verdict_to_string : verdict -> string

type row = {
  name : string;
  section : [ `Engine | `Timing ];
  base : float option;
  cand : float option;
  delta_rel : float option;  (** [(cand - base) / |base|] when both sides are numeric. *)
  verdict : verdict;
}

type report = {
  rows : row list;  (** Engine section first, base order, then added rows. *)
  drifted : int;
  removed : int;
  added : int;
  max_change : float;
}

val ok : report -> bool
(** True iff no engine drift and no removed engine metrics. *)

type snapshot_doc = {
  engine : (string * Ckpt_json.Json.t) list;
  timing : (string * Ckpt_json.Json.t) list;
}

val load : string -> snapshot_doc
(** Raises {!Ckpt_json.Json.Parse_error} on malformed JSON or a file with no
    snapshot, [Sys_error] on unreadable paths. *)

val default_max_change : float
(** 0.10 — engine metrics are deterministic, so even this band is
    generous; pass the bench.toml [max_regression] to align with the
    timing gate instead. *)

val diff : ?max_change:float -> base:snapshot_doc -> snapshot_doc -> report

val render : ?all:bool -> report -> string
(** Verdict table (only gate-relevant and added rows unless [all]) plus
    a one-line summary. *)
