(** The ground-level separation experiments of Section 9.1, mechanised.

    Proposition 21 (LP ⊊ NLP): a deterministic constant-round machine
    cannot distinguish an odd cycle from the even cycle obtained by
    gluing two copies of it, because under the duplicated identifier
    assignment every node has exactly the same view. We reproduce the
    construction and verify the indistinguishability — node by node,
    for any candidate decider — while 2-COLORABLE separates the two
    graphs and is verified by a one-certificate game.

    Proposition 23 (coLP ≹ NLP): any NLP verifier for NOT-ALL-SELECTED
    that stays complete on long labelled cycles must, by the pigeonhole
    principle, accept two indistinguishable configurations that can be
    cut and spliced into an accepted all-selected cycle. We reproduce
    this with the modulo counter verifier: honest acceptance on the
    yes-cycle, explicit view-equal pair, splice, and unsound acceptance
    of the resulting no-instance. *)

type prop21_outcome = {
  odd_cycle : Lph_graph.Labeled_graph.t;  (** G: odd cycle, not 2-colourable *)
  glued : Lph_graph.Labeled_graph.t;  (** G': even cycle, 2-colourable *)
  ids : Lph_graph.Identifiers.t;
  ids_glued : Lph_graph.Identifiers.t;  (** the duplicated assignment *)
  verdicts_odd : string array;
  verdicts_glued : string array;
  indistinguishable : bool;
      (** verdict(u_i in G) = verdict(u_i in G') = verdict(u'_i in G') for
          all i — forced for every decider, fatal for a 2-COLORABLE one *)
}

val prop21 : decider:Lph_machine.Local_algo.packed -> n:int -> id_period:int -> prop21_outcome
(** [n] odd, [id_period] an odd divisor of [n] (≥ 5 keeps the cyclic
    identifiers 1-locally unique for radius-1 algorithms). *)

type prop23_outcome = {
  yes_cycle : Lph_graph.Labeled_graph.t;  (** one unselected node *)
  yes_accepted : bool;  (** honest certificates accepted? *)
  view_pair : int * int;  (** the pigeonhole pair v, v' *)
  spliced : Lph_graph.Labeled_graph.t;  (** all-selected cycle *)
  spliced_accepted : bool;  (** the unsound acceptance *)
  verdicts_preserved : bool;
      (** every node of the spliced cycle reaches the same verdict as
          its counterpart in the yes-cycle *)
}

val prop23 : period:int -> id_period:int -> n:int -> prop23_outcome
(** Run the pigeonhole experiment with {!Candidates.mod_counter_verifier}.
    Requirements: [id_period >= 5], [lcm period id_period < n - 1], and
    both periods dividing [n] so that views repeat. *)

val two_col_game_separation :
  ?engine:Game.engine -> n:int -> unit -> bool * bool * bool * bool
(** The NLP side of Proposition 21 on the two cycles: returns
    (odd ∈ 2COL ground truth, odd accepted by the certificate game,
     glued ∈ 2COL ground truth, glued accepted by the game) using
    {!Candidates.color_verifier} 2 — expected (false, false, true, true).
    [engine] selects the game engine (default [`Auto]: [LPH_ENGINE]). *)

val sigma2_game_separation :
  ?engine:Game.engine -> n:int -> unit -> bool * bool * bool * bool
(** The same separation one alternation level up: the Σ2 game of
    {!Candidates.robust_two_col_verifier} (value: 2-COLORABLE, but with
    a full universal challenge block behind every Eve claim) on the odd
    cycle and its glued even double — expected
    (false, false, true, true). Enumerating engines pay [2^n]
    challenges per claim here, the compiled engine's refinement duel
    one refutation query; this family is the duel's scaling probe. *)

val prop21_sweep :
  decider:Lph_machine.Local_algo.packed ->
  id_period:int ->
  int list ->
  (int * prop21_outcome) list
(** Run {!prop21} for each [n], fanned out over domains
    ({!Lph_util.Parallel.map}); results in input order. Every [n] must
    satisfy {!prop21}'s preconditions. *)

val prop23_sweep :
  period:int -> id_period:int -> int list -> (int * prop23_outcome) list

val two_col_game_sweep :
  ?engine:Game.engine -> int list -> (int * (bool * bool * bool * bool)) list
(** {!two_col_game_separation} per instance size, in parallel; the game
    solves inside each task run sequentially (nested pools do not
    oversubscribe). [`Auto] is resolved against [LPH_ENGINE] once,
    before the fan-out. *)

val sigma2_game_sweep :
  ?engine:Game.engine -> int list -> (int * (bool * bool * bool * bool)) list
(** {!sigma2_game_separation} per instance size, in parallel, with the
    same engine-resolution and pool discipline as
    {!two_col_game_sweep}. *)
