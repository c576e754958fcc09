module P = Lph_core.Serve_protocol
module G = Lph_core.Graph

let colourable k spec g =
  k >= 1
  &&
  match spec with
  | P.Cycle n -> k >= 3 || (k = 2 && n mod 2 = 0)
  | P.Path n | P.Star n -> n = 1 || k >= 2
  | P.Complete n -> k >= n
  | P.Grid (r, c) -> r * c = 1 || k >= 2
  | P.Torus (r, c) -> k >= 3 || (k = 2 && r mod 2 = 0 && c mod 2 = 0)
  | P.Expander _ -> Lph_core.Properties.k_colorable k g

let colour_of k cert =
  let rec find c = if c >= k then None else if Lph_core.Bitstring.of_int c = cert then Some c else find (c + 1) in
  find 0

let proper_colouring k g certs =
  Array.length certs = G.card g
  && Array.for_all (fun c -> colour_of k c <> None) certs
  &&
  let ok = ref true in
  G.iter_edges g (fun u v -> if certs.(u) = certs.(v) then ok := false);
  !ok
