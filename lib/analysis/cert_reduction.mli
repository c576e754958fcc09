(** Certification-to-certification reductions between the shipped
    properties (Section 8 read through the Feuilloley–Paul–Paz lens):
    each local reduction [source ≤ target] is paired with a {e budget
    transfer} function — an upper bound on the source's minimal
    certificate budget in terms of the target's on the reduction
    image. Every entry is cross-checked against direct search
    ({!Optimum.search_graph}) on both sides of its probe instances:

    - source [Optimum s] and image [Optimum t] must satisfy
      [s <= transfer t];
    - a certifiable source whose image is rejected at every budget (or
      the converse) breaks the YES/NO equivalence the reduction claims;
    - an instance either search cannot decide (no universes, CNF over
      [LPH_SAT_BUDGET]) is skipped, never silently passed off as
      verified — the detail string says so.

    The [budget/reduction-consistency] lint rule is exactly
    {!check} over {!builtin} with inconsistencies raised as errors. *)

(** One side of a reduction: a named arbiter plus its certificate
    universes (as in {!Registry.arbiter_spec}; [None] for level-0
    deciders). *)
type spec = {
  cs_name : string;
  cs_arbiter : Lph_hierarchy.Arbiter.t;
  cs_universes :
    (Lph_graph.Labeled_graph.t ->
    Lph_graph.Identifiers.t ->
    Lph_hierarchy.Game.universe list)
    option;
}

type t = {
  cr_name : string;  (** "source<=target" *)
  cr_source : spec;
  cr_target : spec;
  cr_via : Lph_reductions.Cluster.reduction;
  cr_transfer : int -> int;
      (** target budget on the image -> claimed source budget bound *)
  cr_transfer_doc : string;  (** why the transfer is an upper bound *)
  cr_instances : (string * Lph_graph.Labeled_graph.t) list;
      (** named probe instances, YES and NO *)
}

(** The outcome of cross-checking one reduction on one instance. *)
type check = {
  ck_reduction : string;
  ck_instance : string;
  ck_source_bits : int option;  (** direct optimum on the instance *)
  ck_target_bits : int option;  (** direct optimum on the image *)
  ck_transferred : int option;  (** [transfer target_bits] *)
  ck_consistent : bool;
  ck_detail : string;
}

val check : t -> check list
(** Apply the reduction to every probe instance, search both sides,
    and compare against the transfer function. Results are memoised
    through {!Optimum}'s cache, so repeated checks are cheap. *)

val builtin : unit -> t list
(** The shipped reductions, budget transfers attached:
    ALL-SELECTED ≤ EULERIAN ({!Lph_reductions.Eulerian_red}),
    EULERIAN ≤ ALL-SELECTED ({!Lph_reductions.To_all_selected}),
    SAT-GRAPH ≤ 3SAT-GRAPH and 3SAT-GRAPH ≤ 3-COLORABLE
    ({!Lph_reductions.Three_col_red}), and
    ALL-SELECTED ≤ HAMILTONIAN ({!Lph_reductions.Hamiltonian_red},
    certified on the 2-FACTOR side). *)
