(** The canonical building block of constant-round algorithms: gather
    the full r-neighbourhood. After [radius + 2] rounds of flooding,
    every node knows the induced subgraph N_r(u) together with all
    labels, identifiers and certificate lists therein — exactly the
    information the compiled arbiters of Theorem 12 evaluate their BF
    matrix against.

    Requires the identifier assignment to be [radius + 1]-locally
    unique: adjacency lists of ball-boundary nodes mention identifiers
    of nodes at distance [radius + 1], which must not collide with the
    identifier of any ball member (two such nodes can lie at distance
    [2 * radius + 1], beyond what [radius]-local uniqueness covers).
    Like every machine in the paper, the algorithm simply presupposes
    an [r_id] of its own choosing; under weaker assignments boundary
    aliasing can produce phantom edges in the reconstructed ball. All
    knowledge travels through explicit wire-encoded messages
    ({!Lph_util.Codec}); charges are proportional to the bytes
    processed, which keeps the step time of gathering polynomial in the
    local input size. *)

type entry = {
  ident : string;
  label : string;
  cert : string;  (** the raw certificate-list string of that node *)
  adj : string list option;  (** identifiers of its neighbours, once known *)
  dist : int;  (** distance from the gathering node *)
}

type ball = { centre : string; radius : int; entries : entry list }

val rounds_needed : int -> int
(** [radius + 2]. *)

val reconstruct :
  ball ->
  Lph_graph.Labeled_graph.t * Lph_graph.Identifiers.t * string array * int
(** Rebuild [N_r(centre)] as a labelled graph from a completed ball:
    returns the subgraph, the identifier assignment, the raw
    certificate-list strings, and the index of the centre node. Entries
    with unknown adjacency contribute only the edges reported by their
    neighbours. Raises [Error.Error (Protocol_error _)] on inconsistent
    balls (duplicate identifiers, centre missing). *)

val algo :
  name:string ->
  radius:int ->
  levels:int ->
  decide:(Local_algo.ctx -> ball -> bool) ->
  Local_algo.packed
(** A local algorithm that gathers the [radius]-ball and then applies
    [decide] to reach its verdict.

    It carries a {!type:Local_algo.view}: the flood forwards each entry's
    [cert] verbatim and never reads it (the first entry to arrive wins
    on identifier, distance and adjacency), so a flood run on per-node
    tags gathers the ball of any run, tag for certificate list. The
    view's [refill] keeps only the node's gathered ball; per call it
    puts the certificate list of each entry's origin into that entry
    and applies [decide] once, for that node alone. Filling by origin
    rather than by identifier keeps this exact when identifiers
    collide inside the ball. {!Runner.stage} runs it. *)

val map_algo :
  name:string ->
  radius:int ->
  levels:int ->
  f:(Local_algo.ctx -> ball -> string) ->
  Local_algo.packed
(** Like {!algo} but with an arbitrary output label (must be a bit
    string): the shape of graph-transformation machines, whose output
    labels encode clusters (Section 8). It has no
    {!type:Local_algo.view}. *)

(** {1 Re-usable gathering phase}

    For machines that gather a ball and then enter further phases
    (e.g. the cluster simulation of Section 8), the flooding rounds are
    exposed directly. *)

type gather_state

val init_gather : Local_algo.ctx -> gather_state

val step_gather :
  radius:int ->
  Local_algo.ctx ->
  int ->
  gather_state ->
  inbox:Local_algo.msg list ->
  Local_algo.msg list * bool
(** One round of flooding ([int] is the global round number, starting
    at 1); returns the outbox and whether the ball is complete. Under
    the packed wire mode ({!Lph_util.Codec.wire_mode}) each round ships
    only the {e delta} — entries learned or completed while processing
    this round's inbox — but every message is costed at the bit-string
    length of the full-table broadcast of the paper's protocol, so all
    {!Runner} statistics are mode-independent. *)

val completed_ball : gather_state -> ball
(** The gathered ball; raises [Error.Error (Protocol_error _)] before
    completion. *)

val collect :
  radius:int ->
  ?faults:Lph_faults.Fault_plan.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  ?cert_list:string array ->
  unit ->
  ball array
(** Convenience: run the gathering algorithm and return every node's
    completed ball (used by tests to compare against direct BFS).
    [faults] threads a fault plan into the underlying {!Runner.run} —
    the transport hook then tampers with the flooding messages. *)
