(** The versioned, machine-readable benchmark-results schema
    ([BENCH_<n>.json]; see docs/BENCHMARKS.md).

    A run file is a single JSON object:

    {v
    { "schema_version": 1,
      "meta": { "git_sha": "...", "ocaml_version": "5.1.1",
                "domains": 8, "mode": "quick" },
      "cases": [ { "name": "chain-dp-200", "tags": ["dp","scaling"],
                   "unit": "s/call", "samples": 12, "mean": ...,
                   "stddev": ..., "ci99_lo": ..., "ci99_hi": ...,
                   "wall_s": ... }, ... ],
      "metrics": { "metrics": {...}, "timings": {...} } }
    v}

    [mean]/[stddev]/[ci99_*] are over per-iteration (micro) or
    per-invocation (macro) monotonic-clock timings in seconds; [wall_s]
    is the total monotonic wall time the case consumed, measurement
    overhead included. [metrics] embeds the {!Ckpt_obs.Metrics}
    snapshot taken at the end of the run (exactly
    {!Ckpt_obs.Metrics.to_json}), so a bench file also records engine
    counters — the basis of the typed required-keys CI check. *)

val version : int
(** Current schema version (readers reject newer files). *)

type case_result = {
  name : string;
  tags : string list;
  unit_ : string;  (** ["s/iter"] (micro) or ["s/call"] (macro). *)
  samples : int;  (** Number of timing samples behind the stats. *)
  mean : float;
  stddev : float;  (** Sample standard deviation of the timings. *)
  ci99 : float * float;  (** Normal-approximation 99% CI for the mean. *)
  wall_s : float;  (** Total monotonic wall time spent on the case. *)
}

type mode = Quick | Full

type meta = {
  git_sha : string;  (** ["unknown"] when not resolvable. *)
  ocaml_version : string;
  domains : int;  (** [Domain.recommended_domain_count] at run time. *)
  mode : mode;
}

type run = {
  meta : meta;
  cases : case_result list;
  metrics : Ckpt_json.Json.t;
      (** Embedded snapshot; [Ckpt_json.Json.Obj] with [metrics]/[timings]. *)
}

val make_meta : mode:mode -> meta
(** Fill [git_sha] (env [CKPT_BENCH_GIT_SHA], else [.git] of the current
    or an enclosing directory, else ["unknown"]), [ocaml_version] and
    [domains] from the running process. *)

val to_json : run -> Ckpt_json.Json.t
val of_json : Ckpt_json.Json.t -> (run, string) result
(** Strict: missing fields, wrong shapes, or a newer [schema_version]
    are errors; unknown extra fields are ignored for forward
    compatibility of readers. *)

val write : path:string -> run -> unit
val read : path:string -> (run, string) result
(** File-level wrappers; [read] turns I/O and parse failures into
    [Error] with the path in the message. *)

val find_case : run -> string -> case_result option

val has_metric : run -> string -> bool
(** [has_metric run key] is true when [key] is a {e field name} of the
    embedded [metrics] or [timings] object — a typed containment check;
    the key occurring inside some string {e value} does not count
    (unlike the shell [grep] this replaces in CI). *)

val metric_names : run -> string list
(** All field names of the embedded [metrics] and [timings] objects. *)

val equal_run : run -> run -> bool
(** Structural equality (floats via [Float.equal]) — round-trip tests. *)
