module G = Lph_graph.Labeled_graph
module Gen = Lph_graph.Generators
module Ids = Lph_graph.Identifiers
module Runner = Lph_machine.Runner

type prop21_outcome = {
  odd_cycle : G.t;
  glued : G.t;
  ids : Ids.t;
  ids_glued : Ids.t;
  verdicts_odd : string array;
  verdicts_glued : string array;
  indistinguishable : bool;
}

let verdicts result g = Array.of_list (List.map (Runner.verdict result) (G.nodes g))

let prop21 ~decider ~n ~id_period =
  if n < 3 || n mod 2 = 0 then invalid_arg "Separations.prop21: n must be odd and >= 3";
  if n mod id_period <> 0 then invalid_arg "Separations.prop21: id_period must divide n";
  let odd_cycle, glued = Gen.glued_even_cycle n in
  let ids = Ids.cyclic odd_cycle ~period:id_period in
  let ids_glued = Ids.duplicate ids in
  let r = Runner.run decider odd_cycle ~ids () in
  let r' = Runner.run decider glued ~ids:ids_glued () in
  let verdicts_odd = verdicts r odd_cycle in
  let verdicts_glued = verdicts r' glued in
  let indistinguishable =
    List.for_all
      (fun i -> verdicts_odd.(i) = verdicts_glued.(i) && verdicts_odd.(i) = verdicts_glued.(n + i))
      (List.init n Fun.id)
  in
  { odd_cycle; glued; ids; ids_glued; verdicts_odd; verdicts_glued; indistinguishable }

type prop23_outcome = {
  yes_cycle : G.t;
  yes_accepted : bool;
  view_pair : int * int;
  spliced : G.t;
  spliced_accepted : bool;
  verdicts_preserved : bool;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm a b = a / gcd a b * b

let prop23 ~period ~id_period ~n =
  if id_period < 5 then invalid_arg "Separations.prop23: id_period must be >= 5";
  if n mod period <> 0 || n mod id_period <> 0 then
    invalid_arg "Separations.prop23: period and id_period must divide n";
  let l = lcm period id_period in
  if l + 2 > n - 1 then invalid_arg "Separations.prop23: lcm of periods too large for n";
  let labels = Array.init n (fun i -> if i = 0 then "0" else "1") in
  let yes_cycle = Gen.cycle ~labels n in
  let ids = Ids.cyclic yes_cycle ~period:id_period in
  let verifier = Candidates.mod_counter_verifier ~period in
  let certs = Candidates.honest_mod_certs ~period ~n in
  let yes_run = Runner.run verifier yes_cycle ~ids ~cert_list:certs () in
  let yes_accepted = Runner.accepts yes_run in
  (* Views repeat with period lcm(period, id_period): nodes v and v + l
     (both at distance >= 2 from the unselected node 0, so that even
     their windows avoid it) agree on label, identifier and
     certificate, and so do their whole windows. *)
  let v = 2 in
  let v' = v + l in
  (* splice: keep indices v .. v' - 1 and close the cycle *)
  let m = v' - v in
  let labels' = Array.init m (fun j -> labels.(v + j)) in
  let spliced = Gen.cycle ~labels:labels' m in
  let ids' = Array.init m (fun j -> ids.(v + j)) in
  let certs' = Array.init m (fun j -> certs.(v + j)) in
  let spliced_run = Runner.run verifier spliced ~ids:ids' ~cert_list:certs' () in
  let spliced_accepted = Runner.accepts spliced_run in
  let verdicts_preserved =
    List.for_all
      (fun j -> Runner.verdict spliced_run j = Runner.verdict yes_run (v + j))
      (List.init m Fun.id)
  in
  { yes_cycle; yes_accepted; view_pair = (v, v'); spliced; spliced_accepted; verdicts_preserved }

let two_col_game_separation ?(engine = `Auto) ~n () =
  if n < 3 || n mod 2 = 0 then invalid_arg "Separations.two_col_game_separation: n must be odd";
  let odd_cycle, glued = Gen.glued_even_cycle n in
  let verifier = Arbiter.of_local_algo ~id_radius:1 (Candidates.color_verifier 2) in
  let universes = [ Candidates.color_universe 2 ] in
  let ids = Ids.make_global odd_cycle in
  let ids' = Ids.make_global glued in
  ( Properties.two_colorable odd_cycle,
    Game.sigma_accepts ~engine verifier odd_cycle ~ids ~universes,
    Properties.two_colorable glued,
    Game.sigma_accepts ~engine verifier glued ~ids:ids' ~universes )

(* The same separation one alternation level up: the Σ2 game of
   {!Candidates.robust_two_col_verifier} has 2-COLORABLE as its value,
   so the odd cycle must lose it and the glued even double must win it
   — but now every Eve claim carries a full universal block, which an
   enumerating engine sweeps (2^n challenges per claim) and the
   compiled engine's refinement duel discharges with a single UNSAT
   refutation query. This is the scaling family for the Σ2 bench rows. *)
let sigma2_game_separation ?(engine = `Auto) ~n () =
  if n < 3 || n mod 2 = 0 then invalid_arg "Separations.sigma2_game_separation: n must be odd";
  let odd_cycle, glued = Gen.glued_even_cycle n in
  let verifier = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
  let universes = [ Candidates.color_universe 2; Candidates.color_universe 2 ] in
  let ids = Ids.make_global odd_cycle in
  let ids' = Ids.make_global glued in
  ( Properties.two_colorable odd_cycle,
    Game.sigma_accepts ~engine verifier odd_cycle ~ids ~universes,
    Properties.two_colorable glued,
    Game.sigma_accepts ~engine verifier glued ~ids:ids' ~universes )

(* Parallel sweeps: the per-instance experiments above are independent
   across instance sizes, so fan them out over domains. Results come
   back in input order ([Parallel.map] is deterministic). *)

let prop21_sweep ~decider ~id_period ns =
  Lph_util.Parallel.map (fun n -> (n, prop21 ~decider ~n ~id_period)) ns

let prop23_sweep ~period ~id_period ns =
  Lph_util.Parallel.map (fun n -> (n, prop23 ~period ~id_period ~n)) ns

let two_col_game_sweep ?(engine = `Auto) ns =
  (* resolve once: each domain would otherwise consult the environment *)
  let engine = Game.resolve engine in
  Lph_util.Parallel.map (fun n -> (n, two_col_game_separation ~engine ~n ())) ns

let sigma2_game_sweep ?(engine = `Auto) ns =
  let engine = Game.resolve engine in
  Lph_util.Parallel.map (fun n -> (n, sigma2_game_separation ~engine ~n ())) ns
