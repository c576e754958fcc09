(** The Eve/Adam certificate game (Section 4). Eve (existential) and
    Adam (universal) alternately choose certificate assignments; after
    ℓ moves the arbiter decides. A graph has the Σℓ-property arbitrated
    by M iff Eve wins the game in which she moves first; Πℓ when Adam
    moves first.

    The solver is exact over explicit finite certificate universes:
    either all (r,p)-bounded bit strings up to a cap, or a semantic
    per-node universe (the restrictive-arbiter view of Lemma 8, which
    licenses restricting quantifiers as long as the restrictors are
    locally repairable — the responsibility of the caller).

    Three engines compute the game value. The exhaustive engine
    ({!solve}) enumerates whole certificate assignments; its cost is
    [Π_u |universe u|] per level. The pruned engine
    ({!solve_pruned}) exploits arbiter {e locality}
    ({!Arbiter.locality}): the final quantifier level is assigned node
    by node in BFS order and a subtree is cut (or, for Adam, a
    rejecting witness returned) as soon as one fully-assigned radius-r
    ball rejects, with ball verdicts memoised on ball contents and the
    top-level branching fanned out over domains ({!Lph_util.Parallel}).
    The compiled engine ({!solve_sat}) answers the game on one CNF:
    a leaf solve at one level, a refinement duel at two or more. All
    three agree on every input; the pruned one silently falls back to
    exhaustive search for [Opaque] arbiters, the compiled one to pruned
    search whenever it cannot decide. *)

type player = Eve | Adam

val opponent : player -> player

type universe = int -> string list
(** Per-node certificate candidates (node index -> choices). *)

val bitstring_universe : max_len:int -> universe
(** All bit strings of length at most [max_len], for every node. *)

val bounded_universe :
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  Lph_graph.Certificates.bound ->
  cap:int ->
  universe
(** All (r,p)-bounded bit strings per node, additionally capped at
    length [cap]. *)

val of_choices : string list -> universe
(** The same candidate list for every node. *)

val assignments : n:int -> universe -> Lph_graph.Certificates.t Seq.t
(** All certificate assignments over [n] nodes. *)

val solve :
  first:player ->
  n:int ->
  universes:universe list ->
  arbiter:(Lph_graph.Certificates.t list -> bool) ->
  bool
(** Exact game value by exhaustive enumeration: [universes] has one
    entry per level, in move order. With [first = Eve] this computes
    ∃k1 ∀k2 ... : arbiter [k1; k2; ...]. *)

type engine = [ `Auto | `Exhaustive | `Pruned | `Sat | `Cegar ]
(** [`Auto] (the default everywhere) defers to the [LPH_ENGINE]
    environment variable — ["exhaustive"], ["pruned"], ["sat"] or
    ["cegar"], anything else raises [Invalid_argument], unset means
    pruned — read at each call like [LPH_JOBS]. [`Exhaustive] forces
    enumeration (with incremental dirty-set re-verification when the
    arbiter is ball-local: only verifiers whose r-ball meets the
    certificate bits changed since the previous candidate are re-run,
    via {!Lph_graph.Neighborhood.touched}). [`Pruned] requests
    locality-pruned search but still falls back to exhaustive on opaque
    arbiters. [`Sat] is the compiled engine ({!solve_sat}): one leaf
    solve on the shared CNF at one level, the {!Game_cegar} refinement
    duel at two or more, and pruned search whenever that path cannot
    decide the game. [`Cegar] is a synonym of [`Sat], kept so that
    existing callers, [LPH_ENGINE=cegar] and the wire's engine byte
    stay valid. *)

val resolve : engine -> engine
(** Resolve [`Auto] against the [LPH_ENGINE] environment variable (see
    {!type:engine}); concrete engines pass through unchanged. Useful to
    pin the engine once before fanning work out over domains. *)

val solve_pruned :
  first:player ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  bool
(** Locality-pruned game value; agrees with {!solve} on the same
    arbiter for every input. Earlier levels are enumerated
    exhaustively; the last level is a backtracking search over nodes in
    BFS order that stops descending as soon as a fully-assigned ball's
    verdict is decisive. Falls back to {!solve} when the arbiter is
    [Opaque] or carries no per-node verdict function. *)

val solve_sat :
  first:player ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  bool
(** Compiled game value, the engine behind [`Sat] and [`Cegar]; agrees
    with {!solve} and {!solve_pruned} on every input. The game is
    compiled once to CNF ({!Game_sat.compile}). A one-level game is one
    assumption-based leaf solve on that shared instance; a game of two
    or more levels runs {!Game_cegar}'s propose/refute/generalise duel,
    so no outer certificate block is enumerated. One fallback: when the
    compiled path cannot decide the game (opaque arbiter, over-budget
    compile, an empty candidate slot at two or more levels, or an
    [LPH_CEGAR_MAX_ITERS] overrun) the value comes from
    {!solve_pruned}. *)

val sigma_accepts :
  ?engine:engine ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  bool
(** Does the graph satisfy the Σℓ-condition of the given arbiter
    (ℓ = [Arbiter.levels], Eve first)? *)

val pi_accepts :
  ?engine:engine ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  bool

val eve_witness :
  ?engine:engine ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  Lph_graph.Certificates.t option
(** For a 1-level arbiter: a certificate assignment making it accept,
    if one exists (the NLP witness). The pruned engine may return a
    different — still valid — witness than exhaustive lexicographic
    enumeration. *)
