(* Component profiler for the wire layer: crude wall-clock timings of
   the pieces behind the Bechamel cases, for quick A/B while optimising
   (run with: dune exec bench/profile.exe, optionally under LPH_WIRE /
   LPH_JOBS / LPH_PAR_MIN). Not part of the recorded benchmarks. *)

open Lph_core

let time name f =
  (* warmup *)
  for _ = 1 to 20 do
    f ()
  done;
  let t0 = Unix.gettimeofday () in
  let iters = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.3 do
    f ();
    incr iters
  done;
  Printf.printf "%-50s %10.1f us/run (%d iters)\n" name
    ((Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int !iters)
    !iters

let () =
  let grid = Generators.grid ~rows:4 ~cols:4 () in
  let gids = Identifiers.make_global grid in
  let c32 = Generators.cycle 32 in
  let ids32 = Identifiers.make_global c32 in
  Printf.printf "[LPH_JOBS=%d LPH_PAR_MIN=%s LPH_WIRE=%s]\n" (Parallel.jobs ())
    (match Sys.getenv_opt "LPH_PAR_MIN" with Some v -> v | None -> "default")
    (match Codec.wire_mode () with Codec.Packed -> "packed" | Codec.Bits -> "bits");
  let noop rounds_total =
    Local_algo.Packed
      {
        Local_algo.name = "noop";
        levels = 0;
        radius = None;
        init = (fun _ -> ());
        round =
          (fun ctx round () ~inbox:_ ->
            ( (),
              List.init ctx.Local_algo.degree (fun _ -> Local_algo.no_msg),
              round >= rounds_total ));
        output = (fun () -> "");
        view = None;
      }
  in
  time "runner floor C32 (3 no-op rounds)" (fun () ->
      ignore (Runner.run (noop 3) c32 ~ids:ids32 ()));
  time "gather r1 C32 (collect)" (fun () -> ignore (Gather.collect ~radius:1 c32 ~ids:ids32 ()));
  time "gather r2 grid4x4 (collect)" (fun () -> ignore (Gather.collect ~radius:2 grid ~ids:gids ()));
  let empty_map = Gather.map_algo ~name:"const" ~radius:1 ~levels:0 ~f:(fun _ _ -> "") in
  time "gather r1 C32 machinery (map_algo const)" (fun () ->
      ignore (Runner.run empty_map c32 ~ids:ids32 ()));
  time "eulerian reduction C32 (apply)" (fun () ->
      ignore (Cluster.apply Eulerian_red.reduction c32 ~ids:ids32));
  time "eulerian reduction C32 (run only)" (fun () ->
      ignore (Runner.run (Cluster.algo_of Eulerian_red.reduction) c32 ~ids:ids32 ()));
  let r = Runner.run (Cluster.algo_of Eulerian_red.reduction) c32 ~ids:ids32 () in
  let clusters =
    Array.init (Graph.card c32) (fun u -> Cluster.decode_label (Graph.label r.Runner.output u))
  in
  time "eulerian reduction C32 (decode labels)" (fun () ->
      ignore
        (Array.init (Graph.card c32) (fun u ->
             Cluster.decode_label (Graph.label r.Runner.output u))));
  time "eulerian reduction C32 (assemble only)" (fun () ->
      ignore (Cluster.assemble c32 ~ids:ids32 clusters));
  (* raw bit-expansion throughput on a ~300-byte payload *)
  let payload = List.init 30 (fun i -> String.make 8 (Char.chr (48 + (i mod 2)))) in
  let codec = Codec.list Codec.string in
  let bits = Codec.encode_bits codec payload in
  Printf.printf "payload bits length: %d\n" (String.length bits);
  time "encode_bits ~300B x16" (fun () ->
      for _ = 1 to 16 do
        ignore (Codec.encode_bits codec payload)
      done);
  time "decode_bits ~300B x16" (fun () ->
      for _ = 1 to 16 do
        ignore (Codec.decode_bits codec bits)
      done);
  (* CDCL counters behind the game engines: one cold Σ2 CEGAR duel on
     the robust-2col probe, with both solvers' statistics *)
  let c21 = Generators.cycle 21 in
  let ids21 = Identifiers.make_global c21 in
  let robust = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
  let universes = [ Candidates.color_universe 2; Candidates.color_universe 2 ] in
  time "sigma2 robust-2col C21 (cegar, warm)" (fun () ->
      ignore (Game.sigma_accepts ~engine:`Cegar robust c21 ~ids:ids21 ~universes));
  (match Game_cegar.instance ~eve_first:true robust c21 ~ids:ids21 ~universes with
  | None -> Printf.printf "cegar instance: not built (over budget?)\n"
  | Some d ->
      let s = Game_cegar.stats d in
      Printf.printf
        "cegar C21: iterations %d, proposals %d, refutations %d, cubes %d, generalised %d\n"
        s.Game_cegar.iterations s.Game_cegar.proposals s.Game_cegar.refutations s.Game_cegar.cubes
        s.Game_cegar.generalised;
      let solver name (st : Sat_solver.stats) =
        Printf.printf
          "%-10s decisions %-8d propagations %-10d conflicts %-7d learned %-7d restarts %d\n" name
          st.Sat_solver.decisions st.Sat_solver.propagations st.Sat_solver.conflicts
          st.Sat_solver.learned st.Sat_solver.restarts
      in
      solver "proposer" (Game_cegar.proposer_stats d);
      solver "refuter" (Game_cegar.shared_stats d))
