open Lph_core
module P = Serve_protocol

type property = Colouring of int | Robust | Refining
type engine = [ `Sat | `Cegar | `Pruned ]

type t = { spec : P.graph_spec; property : property; engine : engine }

let property_name = function
  | Colouring k -> Printf.sprintf "%dcol" k
  | Robust -> "robust2col"
  | Refining -> "flag3col"

let engine_name = function `Sat -> "sat" | `Cegar -> "cegar" | `Pruned -> "pruned"

let name q =
  Printf.sprintf "%s/%s/%s" (property_name q.property) (P.spec_to_string q.spec) (engine_name q.engine)

let catalogue = function
  | Colouring k -> Some (P.Coloring k)
  | Robust -> Some P.Robust_two_col
  | Refining -> None

let arbiter = function
  | Colouring k -> P.arbiter (P.Coloring k)
  | Robust -> P.arbiter P.Robust_two_col
  | Refining -> Arbiter.of_local_algo ~id_radius:1 Refining.verifier

let universes = function
  | Colouring k -> P.universes (P.Coloring k)
  | Robust -> P.universes P.Robust_two_col
  | Refining -> Refining.universes

let reference q g =
  match q.property with
  | Colouring k -> Oracle.colourable k q.spec g
  | Robust | Refining -> Oracle.colourable 2 q.spec g

(* ---- cold hygiene ---------------------------------------------------- *)

type baseline = { sat : int; cegar : int }

let baseline () = { sat = Game_sat.cached_instances (); cegar = Game_cegar.cached_instances () }

let evict g =
  let uid = Graph.uid g in
  ignore (Game_sat.evict_graph ~uid);
  ignore (Game_cegar.evict_graph ~uid);
  Neighborhood.evict g

let at_baseline b =
  let now = baseline () in
  if now = b then None
  else
    Some
      (Printf.sprintf "engine caches not back at baseline: sat %d (was %d), cegar %d (was %d)" now.sat
         b.sat now.cegar b.cegar)

(* The engine really decided the query: [Game.sigma_accepts] falls back
   (CEGAR to SAT to pruned search) without saying so, so after the fact
   the compile must have succeeded and, for CEGAR, a duel must exist.
   Both calls hit the caches the answered query left behind. *)
let fallback q g ~ids a =
  let universes = universes q.property in
  match Game_sat.compile_explain a g ~ids ~universes with
  | Error e -> Some ("compile refused: " ^ Error.to_string e)
  | Ok _ -> (
      match q.engine with
      | `Cegar when Game_cegar.instance ~eve_first:true a g ~ids ~universes = None ->
          Some "no CEGAR instance"
      | _ -> None)

type cold = { verdict : bool; ms : float; graph : Graph.t; failure : string option }

let direct q =
  let t0 = Clock.now_ns () in
  let g = P.build_graph q.spec in
  let ids = Identifiers.make_global g in
  let a = arbiter q.property in
  let verdict =
    Game.sigma_accepts ~engine:(q.engine :> Game.engine) a g ~ids ~universes:(universes q.property)
  in
  let ms = Clock.ms_since t0 in
  { verdict; ms; graph = g; failure = fallback q g ~ids a }

(* ---- the split-up query of the traced run --------------------------- *)

type layers = {
  mutable compile_entries : int;
  mutable refused : int;
  mutable balls : int;
  mutable cegar : Game_cegar.stats list;
  mutable solver : Sat_solver.stats list;
  mutable checks : int;
}

let layers () = { compile_entries = 0; refused = 0; balls = 0; cegar = []; solver = []; checks = 0 }

let radius (a : Arbiter.t) = match a.Arbiter.locality with Arbiter.Ball r -> max r 1 | Arbiter.Opaque -> 1

(* Eve's full certificate list for a yes-instance witness: Adam's
   reply is one both Σ2 verifiers accept whenever Eve's claim is a
   proper 2-colouring (the robust verifier accepts its own colouring as
   an aligned challenge; the flag verifier accepts "no flags"). *)
let witness_certs q first =
  match q.property with
  | Colouring _ -> [ first ]
  | Robust -> [ first; first ]
  | Refining -> [ first; Array.make (Array.length first) "0" ]

let witness_colours = function Colouring k -> k | Robust | Refining -> 2

let split spans lay q =
  let span name f = Spans.with_span spans name f in
  span "query" (fun () ->
      let g, ids = span "graph.build" (fun () ->
          let g = P.build_graph q.spec in
          (g, Identifiers.make_global g))
      in
      let a = arbiter q.property in
      let r = radius a in
      span "neighborhood.ball" (fun () ->
          Graph.iter_nodes g (fun u -> ignore (Neighborhood.ball g ~radius:r u)));
      lay.balls <- lay.balls + Graph.card g;
      let universes = universes q.property in
      let outcome =
        match span "compile" (fun () -> Game_sat.compile_explain a g ~ids ~universes) with
        | Error e ->
            lay.refused <- lay.refused + 1;
            Error ("compile refused: " ^ Error.to_string e)
        | Ok inst -> (
            lay.compile_entries <- lay.compile_entries + Game_sat.table_entries inst;
            match q.engine with
            | `Sat | `Pruned ->
                let w = span "sat.leaf" (fun () -> Game_sat.eve_leaf inst ~prefix:[]) in
                lay.solver <- Game_sat.solver_stats inst :: lay.solver;
                Ok (w <> None, w)
            | `Cegar -> (
                match span "cegar.setup" (fun () -> Game_cegar.instance ~eve_first:true a g ~ids ~universes) with
                | None -> Error "no CEGAR instance"
                | Some c -> (
                    match span "cegar.duel" (fun () -> Game_cegar.value c) with
                    | None -> Error "CEGAR iteration cap"
                    | Some v ->
                        lay.cegar <- Game_cegar.stats c :: lay.cegar;
                        lay.solver <- Game_cegar.shared_stats c :: Game_cegar.proposer_stats c :: lay.solver;
                        Ok (v, if v then Game_cegar.winning_move c else None))))
      in
      let outcome =
        match outcome with
        | Ok (true, Some w) ->
            let certs = witness_certs q w in
            lay.checks <- lay.checks + 1;
            if not (span "runner.check" (fun () -> a.Arbiter.accepts g ~ids ~certs)) then
              Error "arbiter rejects the engine's own witness"
            else if not (Oracle.proper_colouring (witness_colours q.property) g w) then
              Error "witness is not a proper colouring"
            else Ok true
        | Ok (true, None) -> Error "accepted without a witness"
        | Ok (false, _) -> Ok false
        | Error _ as e -> e
      in
      (outcome, g))
