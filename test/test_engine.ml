(* The locality-aware game-solving engine: pruned search must agree
   with exhaustive enumeration on every instance, the neighbourhood
   cache must be invisible, and the Domain work-pool must be
   deterministic in the job count. *)

open Lph_core
open Helpers

let v2 () = Arbiter.of_local_algo ~id_radius:1 (Candidates.color_verifier 2)

let v3 () = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 3)

(* a two-level gather verifier with a deliberately arbitrary ball-local
   predicate: the engines must agree whatever the arbiter computes *)
let two_level_verifier =
  Gather.algo ~name:"two-level-count" ~radius:1 ~levels:2 ~decide:(fun _ctx ball ->
      let parsed =
        List.map (fun e -> Certificates.split_list ~levels:2 e.Gather.cert) ball.Gather.entries
      in
      let count k = List.length (List.filter (fun ks -> List.nth ks k = "1") parsed) in
      count 0 >= count 1)

let engine_equivalence =
  ( "engine:pruned-vs-exhaustive",
    [
      qcheck ~count:60 "sigma 3col agrees on random graphs"
        (arb_graph ~max_nodes:5 ())
        (fun g ->
          let a = v3 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 3 ] in
          Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:60 "pi 2col agrees on random graphs"
        (arb_graph ~max_nodes:5 ())
        (fun g ->
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          Game.pi_accepts ~engine:`Pruned a g ~ids ~universes
          = Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:40 "sigma counter verifier agrees on random graphs"
        (arb_graph ~max_nodes:4 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:1 (Candidates.exact_counter_verifier ~cap:4) in
          let ids = global_ids g in
          let universes = [ Candidates.counter_universe ~bound:4 ] in
          Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:25 "sigma2 and pi2 agree for a two-level arbiter"
        (arb_graph ~max_nodes:4 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let universes = [ Game.of_choices [ "0"; "1" ]; Game.of_choices [ "0"; "1" ] ] in
          Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          && Game.pi_accepts ~engine:`Pruned a g ~ids ~universes
             = Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
      quick "opaque arbiters fall back to exhaustive search" (fun () ->
          let a = v3 () in
          let opaque =
            {
              a with
              Arbiter.locality = Arbiter.Opaque;
              verdicts = None;
              checker = Arbiter.opaque_checker;
            }
          in
          let g = Generators.cycle 5 in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 3 ] in
          check_bool "pruned request = exhaustive verdict"
            (Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes)
            (Game.sigma_accepts ~engine:`Pruned opaque g ~ids ~universes));
      quick "known verdicts survive the pruned engine" (fun () ->
          let a2 = v2 () and a3 = v3 () in
          let check_cycle n k expected =
            let g = Generators.cycle n in
            let a = if k = 2 then a2 else a3 in
            check_bool
              (Printf.sprintf "C%d %d-colorable" n k)
              expected
              (Game.sigma_accepts a g ~ids:(global_ids g)
                 ~universes:[ Candidates.color_universe k ])
          in
          check_cycle 5 2 false;
          check_cycle 6 2 true;
          check_cycle 5 3 true;
          check_cycle 11 2 false;
          check_cycle 12 2 true);
    ] )

(* a single-level radius-2 verifier with an arbitrary ball predicate:
   engine agreement must not depend on the verdict's meaning *)
let parity_r2_verifier =
  Gather.algo ~name:"parity-r2" ~radius:2 ~levels:1 ~decide:(fun _ctx ball ->
      let ones = List.filter (fun e -> e.Gather.cert = "1") ball.Gather.entries in
      List.length ones mod 2 = 0)

let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:"")) f

let sat_suite =
  ( "engine:sat",
    [
      qcheck ~count:40 "sigma 2col: all three engines agree"
        (arb_graph ~max_nodes:10 ())
        (fun g ->
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          let sat = Game.sigma_accepts ~engine:`Sat a g ~ids ~universes in
          sat = Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          && sat = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:30 "pi 3col: all three engines agree"
        (arb_graph ~max_nodes:6 ())
        (fun g ->
          let a = v3 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 3 ] in
          let sat = Game.pi_accepts ~engine:`Sat a g ~ids ~universes in
          sat = Game.pi_accepts ~engine:`Pruned a g ~ids ~universes
          && sat = Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:25 "radius-2 verifier: all three engines agree"
        (arb_graph ~max_nodes:6 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:3 parity_r2_verifier in
          let ids = global_ids g in
          let universes = [ Game.of_choices [ "0"; "1" ] ] in
          let sat = Game.sigma_accepts ~engine:`Sat a g ~ids ~universes in
          sat = Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          && sat = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          && Game.pi_accepts ~engine:`Sat a g ~ids ~universes
             = Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:20 "two-level arbiter: sat agrees with exhaustive"
        (arb_graph ~max_nodes:4 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let universes = [ Game.of_choices [ "0"; "1" ]; Game.of_choices [ "0"; "1" ] ] in
          Game.sigma_accepts ~engine:`Sat a g ~ids ~universes
          = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          && Game.pi_accepts ~engine:`Sat a g ~ids ~universes
             = Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:30 "sat witness is valid and matches the game value"
        (arb_graph ~max_nodes:8 ())
        (fun g ->
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          match Game.eve_witness ~engine:`Sat a g ~ids ~universes with
          | Some w ->
              a.Arbiter.accepts g ~ids ~certs:[ w ]
              && Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          | None -> not (Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes));
      quick "known cycle verdicts survive the sat engine" (fun () ->
          List.iter
            (fun (n, k, expected) ->
              let g = Generators.cycle n in
              let a = if k = 2 then v2 () else v3 () in
              check_bool
                (Printf.sprintf "C%d %d-colorable" n k)
                expected
                (Game.sigma_accepts ~engine:`Sat a g ~ids:(global_ids g)
                   ~universes:[ Candidates.color_universe k ]))
            [ (5, 2, false); (6, 2, true); (5, 3, true); (11, 2, false); (12, 2, true) ]);
      quick "LPH_ENGINE selects the engine under `Auto" (fun () ->
          let g = Generators.cycle 7 in
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          let expected = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes in
          List.iter
            (fun e ->
              check_bool e expected (with_env "LPH_ENGINE" e (fun () -> Game.sigma_accepts a g ~ids ~universes)))
            [ "sat"; "pruned"; "exhaustive"; "SAT"; "cegar" ];
          match with_env "LPH_ENGINE" "dpll" (fun () -> Game.sigma_accepts a g ~ids ~universes) with
          | _ -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ());
      quick "over-budget compiles fall back to pruned search" (fun () ->
          with_env "LPH_SAT_BUDGET" "1" (fun () ->
              (* fresh graph: the compile cache is keyed per graph *)
              let g = Generators.cycle 6 in
              let a = v2 () in
              let ids = global_ids g in
              let universes = [ Candidates.color_universe 2 ] in
              check_bool "compile refused" true (Game_sat.compile a g ~ids ~universes = None);
              check_bool "verdict still correct" true
                (Game.sigma_accepts ~engine:`Sat a g ~ids ~universes)));
      quick "sigma2 under sat runs the refinement duel" (fun () ->
          (* fresh graph: nothing cached for it yet *)
          let g = Generators.cycle 7 in
          let a = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2; Candidates.color_universe 2 ] in
          check_bool "C7 robust-2col verdict" (Properties.two_colorable g)
            (Game.sigma_accepts ~engine:`Sat a g ~ids ~universes);
          match Game_cegar.instance ~eve_first:true a g ~ids ~universes with
          | None -> Alcotest.fail "robust game should build"
          | Some d ->
              check_bool "the duel behind the sat answer already ran" true
                ((Game_cegar.stats d).Game_cegar.iterations >= 1));
      quick "empty candidate slots fall through to pruned search" (fun () ->
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let bits = Game.of_choices [ "0"; "1" ] in
          let gap u = if u = 1 then [] else [ "0"; "1" ] in
          List.iter
            (fun (level, universes, sigma, pi) ->
              let g = Generators.path 3 in
              let ids = global_ids g in
              let name what = Printf.sprintf "empty slot at level %d: %s" level what in
              check_bool (name "duel refuses") true
                (Game_cegar.solve ~eve_first:true a g ~ids ~universes = None);
              check_bool (name "exhaustive sigma") sigma
                (Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes);
              check_bool (name "exhaustive pi") pi
                (Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
              List.iter
                (fun e ->
                  check_bool (name "sigma") sigma (Game.sigma_accepts ~engine:e a g ~ids ~universes);
                  check_bool (name "pi") pi (Game.pi_accepts ~engine:e a g ~ids ~universes))
                [ `Sat; `Cegar ])
            (* a player with an empty slot has no move: Eve loses where
               she moves into it, Adam where he does *)
            [ (0, [ gap; bits ], false, true); (1, [ bits; gap ], true, false) ]);
      quick "empty candidate slots at one level: the leaf solve is UNSAT" (fun () ->
          (* every radius-1 ball of P3 touches the empty slot at node 1,
             so no row clause is emitted and only the empty exactly-one
             clause decides: Eve has no move (sigma false), Adam has
             none either (pi true) *)
          let a = v2 () in
          let gap u = if u = 1 then [] else [ "0"; "1" ] in
          let g = Generators.path 3 in
          let ids = global_ids g in
          let universes = [ gap ] in
          (match Game_sat.compile a g ~ids ~universes with
          | None -> Alcotest.fail "one-level game with an empty slot should compile"
          | Some inst -> check_int "no table rows" 0 (Game_sat.table_entries inst));
          List.iter
            (fun e ->
              check_bool "sigma" false (Game.sigma_accepts ~engine:e a g ~ids ~universes);
              check_bool "pi" true (Game.pi_accepts ~engine:e a g ~ids ~universes))
            [ `Sat; `Cegar; `Exhaustive ]);
      quick "each ball-table row is one clause over selectors and acceptance" (fun () ->
          (* no auxiliary variables: every clause is a table row, an
             exactly-one clause or a mode clause *)
          let digits s = s <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '_') s in
          let encoding_var v =
            v = "m"
            || String.length v > 1
               && (v.[0] = 's' || v.[0] = 'a')
               && digits (String.sub v 1 (String.length v - 1))
          in
          List.iter
            (fun (name, a, universes) ->
              let g = Generators.cycle 5 in
              let n = Graph.card g in
              match Game_sat.compile a g ~ids:(global_ids g) ~universes with
              | None -> Alcotest.fail (name ^ " should compile")
              | Some inst ->
                  let cnf = Game_sat.cnf inst in
                  List.iter
                    (fun v -> check_bool (Printf.sprintf "%s: variable %s" name v) true (encoding_var v))
                    (Cnf.vars cnf);
                  let exactly_one = ref 0 in
                  for level = 0 to Game_sat.levels inst - 1 do
                    for node = 0 to n - 1 do
                      let k = List.length (Game_sat.candidates inst ~level ~node) in
                      exactly_one := !exactly_one + 1 + (k * (k - 1) / 2)
                    done
                  done;
                  check_int (name ^ ": clause count")
                    (Game_sat.table_entries inst + !exactly_one + n + 1)
                    (List.length cnf))
            [
              ("3col C5", v3 (), [ Candidates.color_universe 3 ]);
              ( "robust-2col C5",
                Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier,
                [ Candidates.color_universe 2; Candidates.color_universe 2 ] );
            ]);
      quick "compiled instance re-solves incrementally across prefixes" (fun () ->
          let g = Generators.cycle 5 in
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let universes = [ Game.of_choices [ "0"; "1" ]; Game.of_choices [ "0"; "1" ] ] in
          match Game_sat.compile a g ~ids ~universes with
          | None -> Alcotest.fail "two-level game should compile"
          | Some inst ->
              check_bool "tables tabulated" true (Game_sat.table_entries inst > 0);
              let prefixes =
                List.map Array.of_list
                  [ [ "0"; "0"; "0"; "0"; "0" ]; [ "1"; "0"; "1"; "0"; "1" ]; [ "1"; "1"; "1"; "1"; "1" ] ]
              in
              List.iter
                (fun k1 ->
                  let reference =
                    Game.solve ~first:Game.Eve ~n:5 ~universes:[ List.tl universes |> List.hd ]
                      ~arbiter:(fun certs -> a.Arbiter.accepts g ~ids ~certs:(k1 :: certs))
                  in
                  check_bool "leaf agrees with enumeration" reference
                    (Option.is_some (Game_sat.eve_leaf inst ~prefix:[ k1 ])))
                prefixes;
              check_bool "solver worked incrementally" true
                ((Game_sat.solver_stats inst).decisions > 0));
      quick "out-of-universe prefixes are rejected" (fun () ->
          let g = Generators.cycle 5 in
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let universes = [ Game.of_choices [ "0"; "1" ]; Game.of_choices [ "0"; "1" ] ] in
          match Game_sat.compile a g ~ids ~universes with
          | None -> Alcotest.fail "two-level game should compile"
          | Some inst -> (
              match Game_sat.eve_leaf inst ~prefix:[ [| "2"; "0"; "0"; "0"; "0" |] ] with
              | _ -> Alcotest.fail "expected Invalid_argument"
              | exception Invalid_argument _ -> ()));
    ] )

(* a Σ2 game that is always false but keeps an optimistic Eve proposer
   busy: accept iff the challenge echoes the claim at the node, so every
   claim has an all-accepting completion (the proposer sees 2^n models)
   while Adam refutes each one — the duel is forced through several
   refinement rounds, which the cap and stats tests rely on *)
let echo_verifier =
  Gather.algo ~name:"echo-two-level" ~radius:1 ~levels:2 ~decide:(fun _ctx ball ->
      match List.find_opt (fun e -> e.Gather.dist = 0) ball.Gather.entries with
      | None -> false
      | Some self -> (
          match Certificates.split_list ~levels:2 self.Gather.cert with
          | [ k1; k2 ] -> k1 = k2
          | _ -> false))

let bit_universes = [ Game.of_choices [ "0"; "1" ]; Game.of_choices [ "0"; "1" ] ]

let robust_universes = [ Candidates.color_universe 2; Candidates.color_universe 2 ]

let all_bit_certs n =
  List.map Array.of_list (List.of_seq (Combinat.product (List.init n (fun _ -> [ "0"; "1" ]))))

let cegar_suite =
  ( "engine:cegar",
    [
      qcheck ~count:40 "one-level games: cegar agrees with the other engines"
        (arb_graph ~max_nodes:8 ())
        (fun g ->
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          let cegar = Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes in
          cegar = Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          && cegar = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          && Game.pi_accepts ~engine:`Cegar a g ~ids ~universes
             = Game.pi_accepts ~engine:`Pruned a g ~ids ~universes);
      qcheck ~count:20 "two-level arbiter: agrees with exhaustive and pruned"
        (arb_graph ~max_nodes:4 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let cegar_s = Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes:bit_universes in
          let cegar_p = Game.pi_accepts ~engine:`Cegar a g ~ids ~universes:bit_universes in
          List.for_all
            (fun e ->
              cegar_s = Game.sigma_accepts ~engine:e a g ~ids ~universes:bit_universes
              && cegar_p = Game.pi_accepts ~engine:e a g ~ids ~universes:bit_universes)
            [ `Exhaustive; `Pruned ]);
      qcheck ~count:25 "robust-2col Σ2 value is exactly 2-COLORABLE"
        (arb_graph ~max_nodes:5 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
          Game.sigma_accepts ~engine:`Cegar a g ~ids:(global_ids g) ~universes:robust_universes
          = Properties.two_colorable g);
      quick "known verdicts survive the cegar engine" (fun () ->
          List.iter
            (fun (n, k, expected) ->
              let g = Generators.cycle n in
              let a = if k = 2 then v2 () else v3 () in
              check_bool
                (Printf.sprintf "C%d %d-colorable" n k)
                expected
                (Game.sigma_accepts ~engine:`Cegar a g ~ids:(global_ids g)
                   ~universes:[ Candidates.color_universe k ]))
            [ (5, 2, false); (6, 2, true); (5, 3, true) ];
          List.iter
            (fun (n, expected) ->
              let g = Generators.cycle n in
              let a = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
              check_bool
                (Printf.sprintf "C%d robust-2col" n)
                expected
                (Game.sigma_accepts ~engine:`Cegar a g ~ids:(global_ids g)
                   ~universes:robust_universes))
            [ (5, false); (6, true); (11, false); (12, true) ]);
      quick "cegar winning move on C6 robust-2col survives every challenge" (fun () ->
          let g = Generators.cycle 6 in
          let a = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
          let ids = global_ids g in
          match Game_cegar.instance ~eve_first:true a g ~ids ~universes:robust_universes with
          | None -> Alcotest.fail "robust game should build"
          | Some d -> (
              check_bool "C6 won" true (Game_cegar.value d = Some true);
              match Game_cegar.winning_move d with
              | None -> Alcotest.fail "a winning first move should be recorded"
              | Some w ->
                  List.iter
                    (fun (u, v) -> check_bool "claim is a proper colouring" false (w.(u) = w.(v)))
                    (Graph.edges g);
                  check_bool "no challenge defeats it" true
                    (List.for_all
                       (fun k2 -> a.Arbiter.accepts g ~ids ~certs:[ w; k2 ])
                       (all_bit_certs 6));
                  check_bool "proposals counted" true ((Game_cegar.stats d).proposals >= 1)));
      quick "echo duel takes several refinement rounds and reports them" (fun () ->
          let g = Generators.path 3 in
          let a = Arbiter.of_local_algo ~id_radius:1 echo_verifier in
          let ids = global_ids g in
          (match Game_cegar.instance ~eve_first:true a g ~ids ~universes:bit_universes with
          | None -> Alcotest.fail "echo game should build"
          | Some d ->
              check_bool "sigma2 echo is false" true (Game_cegar.value d = Some false);
              let s = Game_cegar.stats d in
              check_bool "several rounds" true (s.Game_cegar.iterations >= 2);
              check_bool "cubes learned" true (s.Game_cegar.cubes >= 1);
              check_bool "every proposal died" true
                (s.Game_cegar.refutations = s.Game_cegar.proposals);
              check_bool "no winner recorded" true (Game_cegar.winning_move d = None);
              check_bool "proposer solver worked" true
                ((Game_cegar.proposer_stats d).Sat_solver.decisions > 0));
          check_bool "pi2 echo is true" true
            (Game.pi_accepts ~engine:`Cegar a g ~ids ~universes:bit_universes));
      qcheck ~count:10 "blocking cubes only bar defeated proposals"
        (arb_graph ~max_nodes:3 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let replies = all_bit_certs (Graph.card g) in
          List.for_all
            (fun eve_first ->
              match Game_cegar.instance ~eve_first a g ~ids ~universes:bit_universes with
              | None -> false
              | Some d ->
                  ignore (Game_cegar.value d);
                  List.for_all
                    (fun (level, cube) ->
                      level <> 0
                      || List.for_all
                           (fun k1 ->
                             List.exists (fun (u, c) -> k1.(u) <> c) cube
                             ||
                             (* the cube only bars proposals the opponent
                                really defeats *)
                             let accepts k2 = a.Arbiter.accepts g ~ids ~certs:[ k1; k2 ] in
                             if eve_first then List.exists (fun k2 -> not (accepts k2)) replies
                             else List.exists accepts replies)
                           replies)
                    (Game_cegar.cubes d))
            [ true; false ]);
      quick "LPH_CEGAR_MAX_ITERS caps the duel and the engine falls back to pruned search" (fun () ->
          with_env "LPH_CEGAR_MAX_ITERS" "1" (fun () ->
              let g = Generators.path 3 in
              let a = Arbiter.of_local_algo ~id_radius:1 echo_verifier in
              let ids = global_ids g in
              check_bool "duel reports don't know" true
                (Game_cegar.solve ~eve_first:true a g ~ids ~universes:bit_universes = None);
              check_bool "engine verdict still correct via pruned search" false
                (Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes:bit_universes));
          match
            with_env "LPH_CEGAR_MAX_ITERS" "zero" (fun () ->
                let g = Generators.path 3 in
                let a = Arbiter.of_local_algo ~id_radius:1 echo_verifier in
                Game.sigma_accepts ~engine:`Cegar a g ~ids:(global_ids g)
                  ~universes:bit_universes)
          with
          | _ -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ());
      quick "over-budget compiles make cegar fall back" (fun () ->
          with_env "LPH_SAT_BUDGET" "1" (fun () ->
              let g5 = Generators.cycle 5 and g6 = Generators.cycle 6 in
              let a = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
              check_bool "compile refused" true
                (Game_cegar.solve ~eve_first:true a g5 ~ids:(global_ids g5)
                   ~universes:robust_universes
                = None);
              check_bool "C5 verdict via pruned search" false
                (Game.sigma_accepts ~engine:`Cegar a g5 ~ids:(global_ids g5)
                   ~universes:robust_universes);
              check_bool "C6 verdict via pruned search" true
                (Game.sigma_accepts ~engine:`Cegar a g6 ~ids:(global_ids g6)
                   ~universes:robust_universes)));
      quick "cegar sweeps are deterministic in the job count" (fun () ->
          let saved = Sys.getenv_opt "LPH_JOBS" in
          let with_jobs j f =
            Unix.putenv "LPH_JOBS" j;
            let y = f () in
            Unix.putenv "LPH_JOBS" (match saved with Some s -> s | None -> "2");
            y
          in
          let sweep () = Separations.sigma2_game_sweep ~engine:`Cegar [ 3; 5 ] in
          let r1 = with_jobs "1" sweep in
          let r4 = with_jobs "4" sweep in
          check_bool "identical across pool sizes" true (r1 = r4);
          List.iter
            (fun (n, outcome) ->
              check_bool
                (Printf.sprintf "n=%d separation" n)
                true
                (outcome = (false, false, true, true)))
            r4);
    ] )

let witness_suite =
  ( "engine:eve-witness",
    [
      qcheck ~count:50 "pruned witness is valid and matches the game value"
        (arb_graph ~max_nodes:5 ())
        (fun g ->
          let a = v3 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 3 ] in
          match Game.eve_witness ~engine:`Pruned a g ~ids ~universes with
          | Some w ->
              a.Arbiter.accepts g ~ids ~certs:[ w ]
              && Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          | None -> not (Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes));
      quick "witness on C6 2col is a proper colouring" (fun () ->
          let g = Generators.cycle 6 in
          let a = v2 () in
          let ids = global_ids g in
          match Game.eve_witness a g ~ids ~universes:[ Candidates.color_universe 2 ] with
          | None -> Alcotest.fail "C6 should be 2-colorable"
          | Some w ->
              List.iter
                (fun (u, v) -> check_bool "adjacent nodes differ" false (w.(u) = w.(v)))
                (Graph.edges g));
    ] )

let neighborhood_suite =
  ( "engine:neighborhood-cache",
    [
      qcheck ~count:80 "distance agrees with the cached distance row"
        (arb_graph ~max_nodes:7 ())
        (fun g ->
          let n = Graph.card g in
          List.for_all
            (fun u ->
              let row = Neighborhood.distances g u in
              List.for_all (fun v -> Neighborhood.distance g u v = row.(v)) (Graph.nodes g)
              && Array.length row = n)
            (Graph.nodes g));
      qcheck ~count:80 "ball = nodes within the cached distance"
        (arb_graph ~max_nodes:7 ())
        (fun g ->
          List.for_all
            (fun u ->
              let row = Neighborhood.distances g u in
              List.for_all
                (fun radius ->
                  Neighborhood.ball g ~radius u
                  = List.filter (fun v -> row.(v) <= radius) (Graph.nodes g))
                [ 0; 1; 2; 3 ])
            (Graph.nodes g));
      qcheck ~count:50 "cached results equal a fresh structurally-equal graph's"
        (arb_graph ~max_nodes:6 ())
        (fun g ->
          (* force the cache on g, then rebuild the same graph with a
             fresh uid and empty cache: answers must coincide *)
          List.iter (fun u -> ignore (Neighborhood.distances g u)) (Graph.nodes g);
          let g' = Graph.make ~labels:(Graph.labels g) ~edges:(Graph.edges g) in
          Graph.uid g <> Graph.uid g'
          && List.for_all
               (fun u ->
                 Neighborhood.distances g u = Neighborhood.distances g' u
                 && Neighborhood.ball g ~radius:2 u = Neighborhood.ball g' ~radius:2 u)
               (Graph.nodes g));
      quick "distance early-exit on a long cycle" (fun () ->
          let g = Generators.cycle 64 in
          check_int "adjacent" 1 (Neighborhood.distance g 0 1);
          check_int "opposite" 32 (Neighborhood.distance g 0 32);
          check_int "self" 0 (Neighborhood.distance g 17 17));
    ] )

let parallel_suite =
  ( "engine:parallel-pool",
    [
      quick "map matches List.map for every job count" (fun () ->
          let xs = List.init 100 Fun.id in
          let f x = (x * x) + 7 in
          List.iter
            (fun jobs ->
              check_bool
                (Printf.sprintf "jobs=%d" jobs)
                true
                (Parallel.map ~jobs f xs = List.map f xs))
            [ 1; 2; 4 ]);
      quick "exists and for_all match the List equivalents" (fun () ->
          let xs = List.init 60 Fun.id in
          List.iter
            (fun jobs ->
              check_bool "exists hit" true (Parallel.exists ~jobs (fun x -> x = 41) xs);
              check_bool "exists miss" false (Parallel.exists ~jobs (fun x -> x > 100) xs);
              check_bool "for_all holds" true (Parallel.for_all ~jobs (fun x -> x < 60) xs);
              check_bool "for_all fails" false (Parallel.for_all ~jobs (fun x -> x <> 13) xs))
            [ 1; 4 ]);
      quick "find_map_first returns the lowest-index witness" (fun () ->
          let xs = List.init 100 Fun.id in
          let f x = if x mod 7 = 3 then Some (x * 2) else None in
          List.iter
            (fun jobs ->
              check_bool
                (Printf.sprintf "jobs=%d" jobs)
                true
                (Parallel.find_map_first ~jobs f xs = Some 6))
            [ 1; 2; 4 ];
          check_bool "no hit" true (Parallel.find_map_first ~jobs:4 (fun _ -> None) xs = None));
      quick "worker exceptions reach the caller" (fun () ->
          let xs = List.init 32 Fun.id in
          match Parallel.map ~jobs:4 (fun x -> if x = 17 then failwith "boom" else x) xs with
          | _ -> Alcotest.fail "expected Failure"
          | exception Failure m -> check_string "message" "boom" m);
      quick "empty and singleton inputs" (fun () ->
          check_bool "map []" true (Parallel.map ~jobs:4 Fun.id [] = ([] : int list));
          check_bool "exists []" false (Parallel.exists ~jobs:4 (fun _ -> true) ([] : int list));
          check_bool "map [x]" true (Parallel.map ~jobs:4 succ [ 41 ] = [ 42 ]));
      quick "LPH_JOBS=1 and LPH_JOBS=4 give identical game results" (fun () ->
          let saved = Sys.getenv_opt "LPH_JOBS" in
          let with_jobs j f =
            Unix.putenv "LPH_JOBS" j;
            let y = f () in
            Unix.putenv "LPH_JOBS" (match saved with Some s -> s | None -> "2");
            y
          in
          let solve () =
            let c11 = Generators.cycle 11 and c9 = Generators.cycle 9 in
            let a2 = v2 () and a3 = v3 () in
            ( Game.sigma_accepts a2 c11 ~ids:(global_ids c11)
                ~universes:[ Candidates.color_universe 2 ],
              Game.sigma_accepts a3 c9 ~ids:(global_ids c9)
                ~universes:[ Candidates.color_universe 3 ],
              Game.eve_witness a3 c9 ~ids:(global_ids c9)
                ~universes:[ Candidates.color_universe 3 ] )
          in
          let r1 = with_jobs "1" solve in
          let r4 = with_jobs "4" solve in
          check_bool "verdicts and witness identical" true (r1 = r4));
    ] )

let combinat_suite =
  ( "engine:combinat",
    [
      qcheck ~count:100 "product equals the naive reference, in order"
        QCheck.(list_of_size (QCheck.Gen.int_bound 3) (list_of_size (QCheck.Gen.int_bound 3) small_int))
        (fun lists ->
          let rec reference = function
            | [] -> [ [] ]
            | xs :: rest ->
                let tails = reference rest in
                List.concat_map (fun x -> List.map (fun t -> x :: t) tails) xs
          in
          List.of_seq (Combinat.product lists) = reference lists);
      quick "tuples enumerates k-fold products" (fun () ->
          check_int "3^2" 9 (Seq.length (Combinat.tuples [ 1; 2; 3 ] 2));
          check_int "2^3" 8 (Seq.length (Combinat.tuples [ 0; 1 ] 3));
          check_bool "order" true
            (List.of_seq (Combinat.tuples [ 0; 1 ] 2) = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]));
      quick "product stays lazy" (fun () ->
          (* 2^62 assignments: materialising would never finish *)
          let huge = List.init 62 (fun _ -> [ 0; 1 ]) in
          match Seq.uncons (Combinat.product huge) with
          | Some (first, _) -> check_int "head length" 62 (List.length first)
          | None -> Alcotest.fail "product of non-empty lists is non-empty");
    ] )

let runner_suite =
  ( "engine:runner",
    [
      quick "duplicate identifiers among neighbours raise a typed error" (fun () ->
          let g = Generators.star 3 in
          let ids = [| "00"; "01"; "01"; "10" |] in
          match Runner.run Candidates.eulerian_decider g ~ids () with
          | _ -> Alcotest.fail "expected Error.Error (Protocol_error _)"
          | exception Error.Error (Error.Protocol_error { what = "Runner.run"; node = Some 0; _ }) ->
              ());
      quick "globally unique identifiers run fine" (fun () ->
          let g = Generators.star 3 in
          check_bool "star accepted by eulerian? (odd degrees)" false
            (Runner.decides Candidates.eulerian_decider g ~ids:(global_ids g) ()));
    ] )

(* ------------------------------------------------------------------ *)
(* The staged ball checker: each hood's LOCAL run is prepared once and
   re-executed per certificate list. Its verdicts must be those of a
   fresh whole-hood verdict run, under both wire modes, and a fault plan
   installed after the hoods were prepared must still be honoured. *)

let with_plan plan f =
  let old = Runner.fault_plan () in
  Runner.set_fault_plan plan;
  Fun.protect ~finally:(fun () -> Runner.set_fault_plan old) f

(* a verifier whose verdict hashes everything in its ball — identifiers,
   certificates and distances — so any staging slip shows *)
let hashing_verifier ~radius ~levels =
  Gather.algo ~name:(Printf.sprintf "hash-r%d-l%d" radius levels) ~radius ~levels
    ~decide:(fun ctx ball ->
      let h =
        List.fold_left
          (fun acc e -> (acc * 31) + Hashtbl.hash (e.Gather.ident, e.Gather.cert, e.Gather.dist))
          (Hashtbl.hash ctx.Local_algo.cert_list)
          ball.Gather.entries
      in
      h land 1 = 0)

let random_certs rng ~alphabet ~levels n =
  List.init levels (fun _ ->
      Array.init n (fun _ -> List.nth alphabet (Random.State.int rng (List.length alphabet))))

(* node [u]'s hood with its identifiers and certificates *)
let hood_of g ~ids ~radius ~certs u =
  let ind = Neighborhood.r_neighbourhood g ~radius u in
  let m = Graph.card ind.Neighborhood.subgraph in
  let sub_ids = Array.init m (fun i -> ids.(ind.Neighborhood.of_sub i)) in
  let sub_certs =
    List.map (fun (c : Certificates.t) -> Array.init m (fun i -> c.(ind.Neighborhood.of_sub i))) certs
  in
  (ind.Neighborhood.subgraph, sub_ids, sub_certs, Option.get (ind.Neighborhood.to_sub u))

(* node [u]'s verdict from a fresh full verdicts call on its hood *)
let fresh_verdict (a : Arbiter.t) g ~ids ~radius ~certs u =
  let sub, sub_ids, sub_certs, centre = hood_of g ~ids ~radius ~certs u in
  ((Option.get a.Arbiter.verdicts) sub ~ids:sub_ids ~certs:sub_certs).(centre)

(* the same verdict from a fresh [Runner.run], which resolves the
   ambient fault plan itself *)
let fresh_run_verdict algo g ~ids ~radius ~certs u =
  let sub, sub_ids, sub_certs, centre = hood_of g ~ids ~radius ~certs u in
  let result = Runner.run algo sub ~ids:sub_ids ~cert_list:(Certificates.list_assignment sub_certs) () in
  Runner.verdict result centre = "1"

let typed f = match f () with v -> Ok v | exception Error.Error e -> Error e

let staged_suite =
  ( "engine:staged-checker",
    [
      qcheck ~count:30 "staged ball verdicts equal fresh hood runs, with and without a plan"
        QCheck.(pair (arb_graph ~max_nodes:7 ()) small_nat)
        (fun (g, seed) ->
          let ids = global_ids g in
          let rng = Random.State.make [| seed |] in
          let n = Graph.card g in
          List.for_all
            (fun (radius, levels, wire) ->
              with_mode wire (fun () ->
                  let algo = hashing_verifier ~radius ~levels in
                  let a = Arbiter.of_local_algo ~id_radius:1 algo in
                  let check = Option.get (Arbiter.ball_checker a g ~ids) in
                  let agrees ~alphabet ~fresh =
                    List.for_all
                      (fun _ ->
                        let certs = random_certs rng ~alphabet ~levels n in
                        List.for_all
                          (fun u -> typed (fun () -> check u ~certs) = typed (fun () -> fresh ~certs u))
                          (Graph.nodes g))
                      [ 1; 2; 3 ]
                  in
                  (* the clean pass prepares every hood; the plan pass
                     uses certificates the memo has never seen, against
                     runs that read the plan themselves *)
                  agrees ~alphabet:[ ""; "0"; "1" ] ~fresh:(fresh_verdict a g ~ids ~radius)
                  &&
                  let plan =
                    Fault_plan.make ~rate:0.5
                      ~kinds:Fault_plan.[ Corrupt; Drop; Cert_flip; Dup_id ]
                      seed
                  in
                  with_plan (Some plan) (fun () ->
                      agrees ~alphabet:[ "00"; "01"; "11" ]
                        ~fresh:(fresh_run_verdict algo g ~ids ~radius))))
            (List.concat_map
               (fun radius ->
                 List.concat_map
                   (fun levels -> [ (radius, levels, Codec.Packed); (radius, levels, Codec.Bits) ])
                   [ 1; 2 ])
               [ 1; 2 ]));
      quick "a plan installed after the hoods are prepared changes verdicts" (fun () ->
          let g = Generators.cycle 6 in
          let ids = global_ids g in
          let a = v3 () in
          let check = Option.get (Arbiter.ball_checker a g ~ids) in
          (* every hood is prepared on a monochrome colouring *)
          List.iter
            (fun u -> check_bool "monochrome rejects" false (check u ~certs:[ Array.make 6 "0" ]))
            (Graph.nodes g);
          let proper = [ Array.init 6 (fun u -> string_of_int (u mod 2)) ] in
          let plan = Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Cert_forge ] 5 in
          with_plan (Some plan) (fun () ->
              let verdicts =
                List.map (fun u -> typed (fun () -> check u ~certs:proper)) (Graph.nodes g)
              in
              let fresh =
                List.map
                  (fun u ->
                    typed (fun () ->
                        fresh_run_verdict (Candidates.color_verifier 3) g ~ids ~radius:1
                          ~certs:proper u))
                  (Graph.nodes g)
              in
              check_bool "equal to fresh runs under the plan" true (verdicts = fresh);
              check_bool "the plan rejected some node" true
                (List.exists (fun v -> v <> Ok true) verdicts));
          check_bool "plan-free verdicts accept" true
            (List.for_all (fun u -> fresh_verdict a g ~ids ~radius:1 ~certs:proper u) (Graph.nodes g)));
    ] )

(* ------------------------------------------------------------------ *)
(* The staged view: a Gather verifier's hood floods once on per-node
   tags, and each certificate list is filled into the centre's gathered
   ball. The staged centre verdict must be the LOCAL one — a fresh
   [Runner.run] on the hood — for every Gather verifier in [Candidates],
   re-declared radii and a mapped output (which runs without a view),
   under both wire modes, on empty, malformed and multi-level
   certificates, and on identifier assignments that collide inside the
   hood. *)

let view_algos =
  [
    Candidates.constant_label_decider;
    Candidates.local_two_col_decider ~radius:1;
    Candidates.local_two_col_decider ~radius:2;
    Candidates.color_verifier 2;
    Candidates.color_verifier 3;
    Candidates.exact_counter_verifier ~cap:3;
    Candidates.mod_counter_verifier ~period:3;
    Candidates.robust_two_col_verifier;
    Candidates.sat_graph_verifier;
    Candidates.two_factor_verifier;
    Local_algo.with_radius (Some 0) Candidates.constant_label_decider;
    Local_algo.with_radius (Some 2) (Candidates.color_verifier 2);
    Local_algo.map_output (fun v -> if v = "1" then "0" else "1") (Candidates.color_verifier 3);
    hashing_verifier ~radius:1 ~levels:2;
    hashing_verifier ~radius:2 ~levels:1;
  ]

let view_alphabet = [ ""; "0"; "1"; "10"; "11"; "x"; "2"; "1x"; "0#1"; "1#0#1"; "#" ]

(* identifiers drawn from a four-value pool, so they collide at every
   distance the runner allows: only two neighbours of one node must
   differ (a fresh identifier is used when the pool is exhausted) *)
let colliding_ids rng g =
  let n = Graph.card g in
  let ids = Array.make n "" in
  for u = 0 to n - 1 do
    let taken =
      List.concat_map
        (fun w -> List.filter_map (fun v -> if v < u then Some ids.(v) else None) (Graph.neighbours g w))
        (Graph.neighbours g u)
    in
    let free = List.filter (fun i -> not (List.mem i taken)) (List.init 4 Bitstring.of_int) in
    ids.(u) <-
      (match free with
      | [] -> Bitstring.of_int (4 + u)
      | _ -> List.nth free (Random.State.int rng (List.length free)))
  done;
  ids

(* the staged verdict of each hood centre against a fresh run on its
   hood, over [draws] random certificate lists *)
let staged_matches_run rng algo g ~ids ~draws =
  let radius = max 1 (Option.get (Local_algo.radius algo)) in
  List.for_all
    (fun u ->
      let sub, sub_ids, _, centre = hood_of g ~ids ~radius ~certs:[] u in
      let staged = Runner.stage (Runner.prepare algo sub ~ids:sub_ids) ~node:centre in
      List.for_all
        (fun _ ->
          let cert_list =
            Array.init (Graph.card sub) (fun _ ->
                List.nth view_alphabet (Random.State.int rng (List.length view_alphabet)))
          in
          typed (fun () -> staged ~cert_list)
          = typed (fun () -> Runner.verdict (Runner.run algo sub ~ids:sub_ids ~cert_list ()) centre))
        (List.init draws Fun.id))
    (Graph.nodes g)

let staged_view_suite =
  ( "engine:staged-view",
    [
      qcheck ~count:40 "staged centre verdicts equal fresh hood runs"
        QCheck.(pair (arb_graph ~max_nodes:8 ~label_bits:2 ()) small_nat)
        (fun (g, seed) ->
          let rng = Random.State.make [| seed |] in
          List.for_all
            (fun wire ->
              with_mode wire (fun () ->
                  List.for_all
                    (fun ids ->
                      List.for_all (fun algo -> staged_matches_run rng algo g ~ids ~draws:3) view_algos)
                    [ global_ids g; colliding_ids rng g ]))
            [ Codec.Packed; Codec.Bits ]);
      quick "identifiers colliding at distance 2 from the centre" (fun () ->
          (* C8 around node 0 at radius 2: nodes 2 and 6 share an
             identifier, so the centre's ball keeps the entry relayed
             by whichever of nodes 1 and 7 has the smaller identifier.
             Both relay orders are covered: filling by identifier
             instead of by origin picks the wrong node in one of them *)
          let g = Generators.cycle 8 in
          let rng = Random.State.make [| 8 |] in
          List.iter
            (fun ((dst, src), swap) ->
              let ids = global_ids g in
              ids.(dst) <- ids.(src);
              if swap then begin
                let i1 = ids.(1) in
                ids.(1) <- ids.(7);
                ids.(7) <- i1
              end;
              List.iter
                (fun wire ->
                  with_mode wire (fun () ->
                      List.iter
                        (fun algo ->
                          check_bool (Local_algo.name algo) true
                            (staged_matches_run rng algo g ~ids ~draws:40))
                        [ hashing_verifier ~radius:2 ~levels:1; hashing_verifier ~radius:2 ~levels:2 ]))
                [ Codec.Packed; Codec.Bits ])
            [ ((6, 2), false); ((6, 2), true); ((2, 6), false); ((2, 6), true) ]);
      quick "staged checker verdicts equal fresh runs under colliding identifiers" (fun () ->
          let rng = Random.State.make [| 3 |] in
          List.iter
            (fun g ->
              let ids = colliding_ids rng g in
              List.iter
                (fun algo ->
                  let a = Arbiter.of_local_algo ~id_radius:1 algo in
                  let check = Option.get (Arbiter.ball_checker a g ~ids) in
                  let radius = max 1 (Option.get (Local_algo.radius algo)) in
                  for _ = 1 to 5 do
                    let certs =
                      random_certs rng ~alphabet:view_alphabet ~levels:(Local_algo.levels algo)
                        (Graph.card g)
                    in
                    List.iter
                      (fun u ->
                        check_bool (Local_algo.name algo) true
                          (typed (fun () -> check u ~certs)
                          = typed (fun () -> fresh_run_verdict algo g ~ids ~radius ~certs u)))
                      (Graph.nodes g)
                  done)
                (List.filter (fun a -> Local_algo.levels a > 0) view_algos))
            [ Generators.cycle 9; Generators.grid ~rows:3 ~cols:3 (); Generators.path 6 ]);
      quick "a malformed certificate is rejected, not raised on" (fun () ->
          (* a non-bit or over-long colour at node 0 of a properly
             2-coloured C6: node 0 and both its neighbours reject *)
          let g = Generators.cycle 6 in
          let ids = global_ids g in
          let algo = Candidates.color_verifier 3 in
          let a = Arbiter.of_local_algo ~id_radius:2 algo in
          let expected = [ false; false; true; true; true; false ] in
          List.iter
            (fun wire ->
              with_mode wire (fun () ->
                  let check = Option.get (Arbiter.ball_checker a g ~ids) in
                  List.iter
                    (fun bad ->
                      let cert_list = Array.init 6 (fun u -> if u = 0 then bad else string_of_int (u mod 2)) in
                      (match Runner.run_outcome algo g ~ids ~cert_list () with
                      | Runner.Completed r ->
                          check_bool bad true
                            (List.map (fun u -> Runner.verdict r u = "1") (Graph.nodes g) = expected)
                      | _ -> Alcotest.fail "a plan-free run must complete");
                      check_bool bad true
                        (List.map (fun u -> check u ~certs:[ cert_list ]) (Graph.nodes g) = expected))
                    [ "x"; "2"; "1x0"; "x#0"; "1" ^ String.make 70 '0' ]))
            [ Codec.Packed; Codec.Bits ]);
      quick "corrupted bit-wire certificates never escape untyped" (fun () ->
          (* the scenarios of the fuzz runner campaign's all@0.3:1 cell
             under the bit wire (seed 3000033 used to escape): corrupted
             flooding messages decode to entries whose certificates
             carry non-bit characters *)
          with_mode Codec.Bits (fun () ->
              for seed = 3_000_003 to 3_000_003 + 119 do
                let rng = Random.State.make [| seed |] in
                let g =
                  Generators.random_connected ~rng
                    ~n:(2 + Random.State.int rng 6)
                    ~extra_edges:(Random.State.int rng 3) ~label_bits:1 ()
                in
                let cert_list = Array.init (Graph.card g) (fun u -> Bitstring.of_int (u mod 3)) in
                let plan = Fault_plan.make ~rate:0.3 ~kinds:Fault_plan.all_kinds seed in
                match
                  Runner.run_outcome ~round_limit:100 ~faults:plan (Candidates.color_verifier 3) g
                    ~ids:(global_ids g) ~cert_list ()
                with
                | Runner.Completed _ | Runner.Degraded _ | Runner.Faulted _ -> ()
                | exception e -> Alcotest.failf "seed %d: %s" seed (Printexc.to_string e)
              done));
    ] )

(* ------------------------------------------------------------------ *)
(* The compile budget check must saturate, not wrap: a ball with 62 or
   more binary slots overflows a 63-bit product. *)

let budget_overflow_suite =
  ( "engine:sat-budget-overflow",
    [
      quick "balls of 62+ binary slots are refused, not enumerated" (fun () ->
          let a = v2 () in
          List.iter
            (fun (name, g) ->
              let ids = global_ids g in
              match
                Game_sat.compile_explain a g ~ids ~universes:[ Candidates.color_universe 2 ]
              with
              | Error (Error.Resource_exhausted { what = "Game_sat"; _ }) -> ()
              | Error e -> Alcotest.failf "%s: unexpected error %s" name (Error.to_string e)
              | Ok _ -> Alcotest.failf "%s: expected a budget refusal" name)
            [
              ("star 62", Generators.star 62);
              ("star 63", Generators.star 63);
              ("complete 62", Generators.complete 62);
            ]);
      quick "the compiled engine answers star 70 through pruned search" (fun () ->
          let g = Generators.star 70 in
          check_bool "star 70 is 2-colourable" true
            (Game.sigma_accepts ~engine:`Sat (v2 ()) g ~ids:(global_ids g)
               ~universes:[ Candidates.color_universe 2 ]));
    ] )

let suites =
  [
    engine_equivalence;
    sat_suite;
    cegar_suite;
    witness_suite;
    neighborhood_suite;
    parallel_suite;
    combinat_suite;
    runner_suite;
    staged_suite;
    staged_view_suite;
    budget_overflow_suite;
  ]
