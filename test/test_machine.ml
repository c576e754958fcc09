open Lph_core
open Helpers

let run_tm ?certs m g =
  Turing.run m g ~ids:(global_ids g) ?certs ()

let turing_tests =
  [
    quick "all_selected accepts / rejects" (fun () ->
        let c4 = Generators.cycle 4 in
        check_bool "yes" true (Turing.accepts (run_tm Machines.all_selected c4));
        let bad = Graph.with_labels c4 [| "1"; "1"; "0"; "1" |] in
        let r = run_tm Machines.all_selected bad in
        check_bool "no" false (Turing.accepts r);
        (* the rejecting node is exactly the unselected one *)
        check_string "culprit" "0" (Turing.verdict r 2);
        check_string "other" "1" (Turing.verdict r 0));
    quick "all_selected rejects long labels" (fun () ->
        let g = Graph.singleton "11" in
        check_bool "11 is not 1" false (Turing.accepts (run_tm Machines.all_selected g)));
    quick "all_selected runs one round" (fun () ->
        let r = run_tm Machines.all_selected (Generators.cycle 5) in
        check_int "rounds" 1 r.Turing.stats.Turing.rounds);
    quick "eulerian matches euler's criterion" (fun () ->
        List.iter
          (fun g ->
            check_bool (graph_print g) (Properties.eulerian g)
              (Turing.accepts (run_tm Machines.eulerian g)))
          [
            Generators.cycle 4;
            Generators.path 3;
            Generators.complete 5;
            Generators.complete 4;
            Generators.star 4;
            Graph.singleton "1";
          ]);
    quick "constant_labelling over two rounds" (fun () ->
        let c4 = Generators.cycle 4 in
        check_bool "uniform" true (Turing.accepts (run_tm Machines.constant_labelling c4));
        let r = run_tm Machines.constant_labelling c4 in
        check_int "rounds" 2 r.Turing.stats.Turing.rounds;
        let mixed = Graph.with_labels c4 [| "10"; "10"; "11"; "10" |] in
        check_bool "mixed" false (Turing.accepts (run_tm Machines.constant_labelling mixed));
        let uniform = Graph.with_labels c4 (Array.make 4 "101") in
        check_bool "longer labels" true (Turing.accepts (run_tm Machines.constant_labelling uniform)));
    quick "certificates reach the tape" (fun () ->
        (* all_selected ignores certificates, but they must not break it *)
        let g = Generators.cycle 3 in
        let certs = [| "11#0"; "0#1"; "#" |] in
        check_bool "ok" true (Turing.accepts (run_tm ~certs Machines.all_selected g)));
    quick "neighbour identifier order is enforced" (fun () ->
        let g = Generators.path 3 in
        Alcotest.check_raises "duplicate ids"
          (Invalid_argument "Turing.run: neighbours 0 and 2 of node 1 share identifier 0")
          (fun () -> ignore (Turing.run Machines.constant_labelling g ~ids:[| "0"; "1"; "0" |] ())));
    quick "step time of all_selected is linear" (fun () ->
        let samples =
          List.concat_map
            (fun bits ->
              let g = Graph.singleton (Bitstring.ones bits) in
              Step_time.turing_samples (run_tm Machines.all_selected g))
            [ 1; 4; 16; 64 ]
        in
        check_bool "fits 3n+10" true
          (Step_time.check_poly ~bound:(Poly.linear ~offset:10 3) samples));
    quick "constant_labelling step time is polynomial" (fun () ->
        let results =
          List.map
            (fun n -> run_tm Machines.constant_labelling (Generators.cycle n))
            [ 4; 8; 16 ]
        in
        let samples = List.concat_map Step_time.turing_samples results in
        check_bool "fits quadratic" true
          (Step_time.check_poly ~bound:(Poly.add (Poly.monomial ~coeff:3 ~degree:2) (Poly.const 20)) samples);
        check_bool "rounds constant" true
          (Step_time.check_rounds ~limit:2
             ~rounds:(List.map (fun r -> r.Turing.stats.Turing.rounds) results)));
    qcheck ~count:40 "eulerian TM ≡ criterion on random graphs" (arb_graph ~max_nodes:7 ())
      (fun g -> Turing.accepts (run_tm Machines.eulerian g) = Properties.eulerian g);
  ]

let runner_tests =
  [
    quick "pure decider" (fun () ->
        let algo = Local_algo.pure_decider ~name:"label-is-1" ~levels:0 (fun ctx ->
            ctx.Local_algo.label = "1") in
        let g = Generators.cycle 3 in
        check_bool "yes" true (Runner.decides algo g ~ids:(global_ids g) ());
        let bad = Graph.with_labels g [| "1"; "0"; "1" |] in
        check_bool "no" false (Runner.decides algo bad ~ids:(global_ids bad) ()));
    quick "certificates split by level" (fun () ->
        let algo =
          Local_algo.pure_decider ~name:"cert-check" ~levels:2 (fun ctx ->
              ctx.Local_algo.certs = [ "01"; "1" ])
        in
        let g = Graph.singleton "1" in
        check_bool "match" true (Runner.decides algo g ~ids:[| "" |] ~cert_list:[| "01#1" |] ());
        check_bool "mismatch" false (Runner.decides algo g ~ids:[| "" |] ~cert_list:[| "01#0" |] ()));
    quick "message routing respects identifier order" (fun () ->
        (* node sends distinct messages to its neighbours; neighbours
           report which message they got; we check the id-sorted routing *)
        let algo =
          Local_algo.Packed
            {
              Local_algo.name = "router";
              levels = 0;
              radius = None;
              init = (fun ctx -> (ctx.Local_algo.ident, ref ""));
              round =
                (fun ctx round ((_, got) as st) ~inbox ->
                  if round = 1 then
                    ( st,
                      List.init ctx.Local_algo.degree (fun i ->
                          Local_algo.raw_msg (Bitstring.of_int_width ~width:4 i)),
                      false )
                  else begin
                    got := String.concat "" (List.map (fun m -> m.Local_algo.wire) inbox);
                    (st, [], true)
                  end);
              output = (fun (_, got) -> !got);
              view = None;
            }
        in
        let g = Generators.star 3 in
        (* ids: centre "10", leaves "00" and "01" -> centre is the second
           neighbour of each leaf... leaves have only the centre. Centre's
           neighbours sorted: leaf "00" gets message 0, leaf "01" message 1 *)
        let ids = [| "10"; "00"; "01" |] in
        let r = Runner.run algo g ~ids () in
        check_string "leaf 1" "0000" (Runner.verdict r 1);
        check_string "leaf 2" "0001" (Runner.verdict r 2));
    quick "diverging algorithms are caught" (fun () ->
        let algo =
          Local_algo.Packed
            {
              Local_algo.name = "loop";
              levels = 0;
              radius = None;
              init = (fun _ -> ());
              round = (fun _ _ () ~inbox:_ -> ((), [], false));
              output = (fun () -> "1");
              view = None;
            }
        in
        let g = Graph.singleton "" in
        Alcotest.check_raises "diverged"
          (Runner.Diverged { algo = "loop"; rounds = 10; reason = "round limit exceeded" })
          (fun () -> ignore (Runner.run ~round_limit:10 algo g ~ids:[| "" |] ())));
    quick "charges are recorded" (fun () ->
        let algo = Local_algo.pure_decider ~name:"charged" ~levels:0 (fun _ -> true) in
        let g = Graph.singleton "1111" in
        let r = Runner.run algo g ~ids:[| "" |] () in
        check_int "init charge counted" 4 r.Runner.stats.Runner.charges.(0).(0));
    quick "outboxes larger than the degree are rejected" (fun () ->
        let algo =
          Local_algo.Packed
            {
              Local_algo.name = "chatty";
              levels = 0;
              radius = None;
              init = (fun _ -> ());
              round =
                (fun ctx _ () ~inbox:_ ->
                  ( (),
                    List.init (ctx.Local_algo.degree + 1) (fun _ -> Local_algo.raw_msg "1"),
                    true ));
              output = (fun () -> "1");
              view = None;
            }
        in
        let g = Generators.cycle 3 in
        Alcotest.check_raises "rejected"
          (Error.Error
             (Error.Protocol_error
                {
                  what = "Runner.run";
                  detail = "algorithm chatty emits 3 messages at node 0 of degree 2";
                  round = Some 1;
                  node = Some 0;
                }))
          (fun () -> ignore (Runner.run algo g ~ids:(global_ids g) ())));
  ]

let gather_tests =
  [
    quick "balls equal BFS neighbourhoods" (fun () ->
        let g = Generators.grid ~rows:3 ~cols:3 () in
        let ids = global_ids g in
        List.iter
          (fun radius ->
            let balls = Gather.collect ~radius g ~ids () in
            List.iter
              (fun u ->
                let sub, _, _, centre = Gather.reconstruct balls.(u) in
                let expected = Neighborhood.r_neighbourhood g ~radius u in
                check_bool
                  (Printf.sprintf "iso r=%d u=%d" radius u)
                  true
                  (Isomorphism.isomorphic sub expected.Neighborhood.subgraph);
                check_int "centre has distance 0" 0
                  (Neighborhood.distance sub centre centre))
              (Graph.nodes g))
          [ 0; 1; 2 ]);
    quick "balls carry labels, identifiers and certificates" (fun () ->
        let g = Graph.with_labels (Generators.path 3) [| "0"; "10"; "1" |] in
        let ids = global_ids g in
        let certs = [| "0#"; "11#0"; "#1" |] in
        let balls = Gather.collect ~radius:1 g ~ids ~cert_list:certs () in
        let sub, bids, bcerts, centre = Gather.reconstruct balls.(1) in
        check_int "full graph" 3 (Graph.card sub);
        check_string "centre id" ids.(1) bids.(centre);
        check_string "centre cert" certs.(1) bcerts.(centre);
        check_string "centre label" "10" (Graph.label sub centre));
    quick "rounds_needed" (fun () ->
        check_int "r+2" 5 (Gather.rounds_needed 3));
    qcheck ~count:25 "gather ≡ BFS on random graphs (radius 1)" (arb_graph ~max_nodes:6 ())
      (fun g ->
        let ids = global_ids g in
        let balls = Gather.collect ~radius:1 g ~ids () in
        List.for_all
          (fun u ->
            let sub, _, _, _ = Gather.reconstruct balls.(u) in
            let expected = (Neighborhood.r_neighbourhood g ~radius:1 u).Neighborhood.subgraph in
            Isomorphism.isomorphic sub expected)
          (Graph.nodes g));
    quick "gathering step time is polynomial in local input" (fun () ->
        let algo = Gather.algo ~name:"g" ~radius:2 ~levels:0 ~decide:(fun _ _ -> true) in
        let results =
          List.map
            (fun n ->
              let g = Generators.cycle n in
              Runner.run algo g ~ids:(global_ids g) ())
            [ 5; 9; 17 ]
        in
        let samples = List.concat_map Step_time.runner_samples results in
        (* charges are bytes processed (bit-encoded, and outgoing
           broadcasts count too): linear in the local input size with a
           generous constant *)
        check_bool "fits linear" true
          (Step_time.check_poly ~bound:(Poly.linear ~offset:600 30) samples));
  ]

let suites =
  [ ("machine:turing", turing_tests); ("machine:runner", runner_tests); ("machine:gather", gather_tests) ]
