(** Request handling: parse method params, solve through the existing
    planners, build the response object. Pure with respect to I/O — the
    engine never touches a socket, which is what makes the protocol
    semantics unit-testable without a server.

    Methods (grammar in docs/SERVING.md):
    - [ping] — liveness probe, returns ["pong"].
    - [plan_chain] — Algorithm 1 on a linear chain via
      {!Ckpt_core.Chain_dp.plan} behind the canonicalizing
      {!Plan_cache}; responses carry a ["cache"] field ([hit]/[miss]).
    - [plan_independent] — the order-then-place heuristic family of
      Proposition 2 ({!Ckpt_core.Independent.best_ordered} over
      as-given / shortest-first / longest-first).
    - [plan_moldable] — the moldable-chain DP
      ({!Ckpt_core.Moldable_chain.solve}); out-of-range model
      parameters (see {!Ckpt_core.Moldable.check_models}) are
      [bad_request]. *)

type t

val create : cache_capacity:int -> t
val cache : t -> Plan_cache.t

val handle : t -> Protocol.request -> Ckpt_json.Json.t
(** The complete response object for one request. Never raises:
    validation failures become [bad_request], unknown methods
    [unknown_method], unexpected exceptions [internal]. Counts
    [serve.requests] / [serve.errors] and wraps the work in a
    [serve.<method>] span. *)
