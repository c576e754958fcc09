(* Tests of the benchmark's own logic: the percentile rule, the probe
   scaling, span self-time arithmetic, the engine-free reference oracle and the
   refining Σ2 verifier. *)

open Lph_core
open Lphbench
module P = Serve_protocol

let percentile_rule () =
  let a = Stats.sorted (List.init 10 (fun i -> float (10 - i))) in
  Alcotest.(check (float 0.)) "p50 nearest rank" 5. (Stats.quantile a 50.);
  Alcotest.(check (float 0.)) "p90 nearest rank" 9. (Stats.quantile a 90.);
  Alcotest.(check (float 0.)) "p100 is the max" 10. (Stats.quantile a 100.);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond 1000 99.);
  Alcotest.(check int) "beyond p99 of 999" 9 (Stats.beyond 999 99.);
  let tail = Alcotest.(option (float 0.)) in
  Alcotest.check tail "19 samples" None (Stats.tail_percentile 19);
  Alcotest.check tail "20 samples" (Some 50.) (Stats.tail_percentile 20);
  Alcotest.check tail "40 samples" (Some 75.) (Stats.tail_percentile 40);
  Alcotest.check tail "100 samples" (Some 90.) (Stats.tail_percentile 100);
  Alcotest.check tail "999 samples" (Some 90.) (Stats.tail_percentile 999);
  Alcotest.check tail "1000 samples" (Some 99.) (Stats.tail_percentile 1000);
  Alcotest.check tail "10000 samples" (Some 99.9) (Stats.tail_percentile 10000)

(* A time taken while the probe ran at twice the reference time is
   halved; at the reference time it is unchanged. *)
let probe_scaling () =
  let r = Probe.reference_ms in
  Alcotest.(check (float 1e-9)) "slow machine" 50. (Probe.adjust ~probe_ms:(2. *. r) 100.);
  Alcotest.(check (float 1e-9)) "reference machine" 100. (Probe.adjust ~probe_ms:r 100.);
  Alcotest.(check bool) "a probe takes time" true (Probe.run () > 0.)

let span id ?parent a b = { Spans.id; name = string_of_int id; query = 0; parent; start_ns = a; stop_ns = b }

let self_time () =
  (* children overlap each other and one sticks out of its parent: only
     the union inside the parent's interval is subtracted *)
  let spans = [ span 0 0L 100L; span 1 ~parent:0 10L 30L; span 2 ~parent:0 20L 50L; span 3 ~parent:0 90L 120L; span 4 ~parent:1 12L 14L ] in
  let self = List.map (fun (s, ns) -> (s.Spans.id, ns)) (Spans.self_ns spans) in
  Alcotest.(check int64) "parent" 50L (List.assoc 0 self);
  Alcotest.(check int64) "child with a grandchild" 18L (List.assoc 1 self);
  Alcotest.(check int64) "leaf" 30L (List.assoc 2 self);
  let by_name = Spans.self_ms_by_name spans in
  Alcotest.(check (float 1e-12)) "by name" (50. /. 1e6) (List.assoc "0" by_name)

let recorder_nesting () =
  let t = Spans.create () in
  Spans.set_query t 7;
  Spans.with_span t "outer" (fun () ->
      Spans.with_span t "inner" (fun () -> ());
      try Spans.with_span t "raises" (fun () -> failwith "x") with Failure _ -> ());
  match Spans.spans t with
  | [ inner; raises; outer ] ->
      Alcotest.(check (option int)) "inner parent" (Some outer.Spans.id) inner.Spans.parent;
      Alcotest.(check (option int)) "raising span kept" (Some outer.Spans.id) raises.Spans.parent;
      Alcotest.(check (option int)) "root" None outer.Spans.parent;
      Alcotest.(check int) "query tag" 7 inner.Spans.query
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let small_specs =
  List.concat
    [
      List.init 7 (fun i -> P.Cycle (i + 3));
      List.init 6 (fun i -> P.Path (i + 1));
      List.init 5 (fun i -> P.Complete (i + 1));
      List.init 6 (fun i -> P.Star (i + 1));
      List.concat_map (fun r -> List.init 4 (fun c -> P.Grid (r, c + 1))) [ 1; 2; 3; 4 ];
      List.concat_map (fun r -> List.init 3 (fun c -> P.Torus (r, c + 3))) [ 3; 4; 5 ];
      List.init 6 (fun i -> P.Expander { n = 6 + i; cycles = 2; seed = i });
    ]

let oracle_matches_properties () =
  List.iter
    (fun spec ->
      let g = P.build_graph spec in
      for k = 1 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "%d-colourable %s" k (P.spec_to_string spec))
          (Properties.k_colorable k g) (Oracle.colourable k spec g)
      done)
    small_specs

let adjacency_test () =
  List.iter
    (fun spec ->
      let g = P.build_graph spec in
      match Properties.find_k_coloring 3 g with
      | None -> ()
      | Some c ->
          let certs = Array.map Bitstring.of_int c in
          Alcotest.(check bool) ("witness " ^ P.spec_to_string spec) true (Oracle.proper_colouring 3 g certs);
          (match Graph.edges g with
          | (u, v) :: _ ->
              let bad = Array.copy certs in
              bad.(u) <- bad.(v);
              Alcotest.(check bool) ("clash " ^ P.spec_to_string spec) false (Oracle.proper_colouring 3 g bad)
          | [] -> ());
          Alcotest.(check bool) "out of range" false (Oracle.proper_colouring 2 g (Array.make (Graph.card g) "10")))
    small_specs

let refining_against_exhaustive () =
  let a = Arbiter.of_local_algo ~id_radius:1 Refining.verifier in
  List.iter
    (fun n ->
      let g = Generators.cycle n in
      let ids = Identifiers.make_global g in
      let value = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes:Refining.universes in
      Alcotest.(check bool) (Printf.sprintf "C%d exhaustive = 2-colourable" n) (n mod 2 = 0) value;
      Alcotest.(check bool)
        (Printf.sprintf "C%d cegar = exhaustive" n)
        value
        (Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes:Refining.universes))
    [ 7; 8; 9 ]

let split_matches_direct () =
  let base = Query.baseline () in
  List.iter
    (fun q ->
      let lay = Query.layers () in
      let outcome, g = Query.split (Spans.create ()) lay q in
      Query.evict g;
      let cold = Query.direct q in
      Query.evict cold.Query.graph;
      Alcotest.(check (option string)) ("no fallback " ^ Query.name q) None cold.Query.failure;
      Alcotest.(check bool) ("reference " ^ Query.name q) (Query.reference q cold.Query.graph) cold.Query.verdict;
      (match outcome with
      | Ok v -> Alcotest.(check bool) ("split = direct " ^ Query.name q) cold.Query.verdict v
      | Error m -> Alcotest.fail m);
      Alcotest.(check (option string)) ("caches back " ^ Query.name q) None (Query.at_baseline base))
    [
      { Query.spec = P.Cycle 9; property = Query.Refining; engine = `Cegar };
      { Query.spec = P.Cycle 8; property = Query.Robust; engine = `Cegar };
      { Query.spec = P.Torus (3, 4); property = Query.Colouring 3; engine = `Sat };
      { Query.spec = P.Cycle 9; property = Query.Colouring 2; engine = `Sat };
    ]

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "probe scaling" `Quick probe_scaling;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "span recorder nesting" `Quick recorder_nesting;
          Alcotest.test_case "oracle matches Properties" `Quick oracle_matches_properties;
          Alcotest.test_case "adjacency test" `Quick adjacency_test;
          Alcotest.test_case "refining verifier vs exhaustive" `Quick refining_against_exhaustive;
          Alcotest.test_case "split query matches direct" `Quick split_matches_direct;
        ] );
    ]
