(** A Σ2 verifier on which the CEGAR duel really refines. Radius 1,
    two levels: Eve claims a colouring from
    {!Lph_core.Candidates.color_universe}[ 3]; Adam may flag any node
    ({!Lph_core.Candidates.color_universe}[ 2], ["1"] = flagged). A
    node accepts iff Eve's colour is proper at it and the node is not
    both flagged and coloured 2. Eve wins iff she can avoid colour 2
    altogether, so the game value is 2-COLOURABLE; on odd cycles every
    proper 3-colouring is refuted separately, which is what makes the
    duel iterate (the shipped Σ2 probes all finish in one iteration). *)

val verifier : Lph_core.Local_algo.packed

val universes : Lph_core.Game.universe list
(** Eve's and Adam's certificate universes, in move order. *)
