(** Reference answers that never run a game engine: closed forms per
    catalogue family, {!Lph_core.Properties} where no closed form
    exists, and a direct adjacency test for explicit certificates. *)

val colourable : int -> Lph_core.Serve_protocol.graph_spec -> Lph_core.Graph.t -> bool
(** [colourable k spec g]: is the graph [g] built from [spec]
    properly [k]-colourable? Cycles by parity; paths, stars and grids
    are bipartite; [K_n] needs [n] colours; the torus [C_r□C_c] is
    2-colourable iff [r] and [c] are both even and always
    3-colourable; expanders go to {!Lph_core.Properties.k_colorable}.
    Both Σ2 probes of the benchmark are true iff [colourable 2]. *)

val proper_colouring : int -> Lph_core.Graph.t -> Lph_core.Certificates.t -> bool
(** Does the certificate assignment name, at every node, one of the
    [k] colour encodings ({!Lph_core.Candidates.color_universe}) and
    differ across every edge? *)
