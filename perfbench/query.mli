(** One batch query — a Σℓ question about a catalogue graph under a
    pinned engine — run cold, either as the single public call a user
    makes or split into the public calls that call is made of. *)

type property =
  | Colouring of int  (** Σ1 k-colouring, the catalogue's colour verifier *)
  | Robust  (** Σ2 {!Lph_core.Candidates.robust_two_col_verifier} *)
  | Refining  (** Σ2 {!Refining.verifier} *)

type engine = [ `Sat | `Cegar | `Pruned ]

type t = { spec : Lph_core.Serve_protocol.graph_spec; property : property; engine : engine }

val name : t -> string

val engine_name : engine -> string

val catalogue : property -> Lph_core.Serve_protocol.property option
(** The daemon's name for the property, if it serves it. *)

val arbiter : property -> Lph_core.Arbiter.t
(** A fresh arbiter (its ball memos start empty). *)

val universes : property -> Lph_core.Game.universe list

val reference : t -> Lph_core.Graph.t -> bool
(** The engine-free reference verdict ({!Oracle}). *)

(** {1 Cold hygiene} *)

type baseline

val baseline : unit -> baseline
(** The current sizes of the SAT and CEGAR instance caches. *)

val evict : Lph_core.Graph.t -> unit
(** Drop every engine cache entry and neighbourhood memo of a graph. *)

val at_baseline : baseline -> string option
(** [None] when both instance caches are back at the baseline sizes,
    otherwise what differs. *)

(** {1 Running} *)

type cold = {
  verdict : bool;
  ms : float;  (** graph build to verdict, the fallback check excluded *)
  graph : Lph_core.Graph.t;  (** for {!evict} *)
  failure : string option;  (** an engine fallback, if one happened *)
}

val direct : t -> cold
(** Build the graph, identifiers and arbiter fresh and answer with one
    {!Lph_core.Game.sigma_accepts} call under the pinned engine — then,
    off the answer path, confirm on the warm caches that the engine
    compiled the game (and built a duel under [`Cegar]) instead of
    silently falling back. *)

type layers = {
  mutable compile_entries : int;
  mutable refused : int;
  mutable balls : int;  (** {!Lph_core.Neighborhood.ball} queries *)
  mutable cegar : Lph_core.Game_cegar.stats list;  (** one per duel *)
  mutable solver : Lph_core.Sat_solver.stats list;  (** one per solver *)
  mutable checks : int;  (** witnesses re-checked on the arbiter *)
}

val layers : unit -> layers

val split : Spans.t -> layers -> t -> (bool, string) result * Lph_core.Graph.t
(** The same query split into the calls {!direct} makes internally,
    each in its own span: [graph.build] (build + identifiers),
    [neighborhood.ball] (every node's ball), [compile]
    ({!Lph_core.Game_sat.compile_explain}), then [cegar.setup] and
    [cegar.duel] ({!Lph_core.Game_cegar.instance}/[value]) under
    [`Cegar] or [sat.leaf] ({!Lph_core.Game_sat.eve_leaf}) otherwise,
    all under one [query] span. A yes verdict's witness is re-checked
    in a [runner.check] span ({!Lph_core.Arbiter.t}'s [accepts]) and by
    {!Oracle.proper_colouring}. Only Σ1 queries may pin [`Pruned] or
    [`Sat] here. Fresh instances, so every solver and duel counter
    recorded in [layers] is this query's own delta. *)
