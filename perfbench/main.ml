(* perfbench: the repository benchmark. One process runs one workload
   for a fixed time and prints its metrics as the last line of stdout:

     main.exe --workload W --seed N --seconds S --trace 0|1
              --serve-exe PATH --out DIR

   See README.md next to this file for the workloads and metrics. *)

open Lph_core
open Lphbench
module P = Serve_protocol

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let serve_exe = ref ""
let out_dir = ref ""

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ---- result accumulation ------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics
let info : (string * string) list ref = ref []
let note key fmt = Printf.ksprintf (fun s -> info := (key, s) :: !info) fmt
let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      prerr_endline ("perfbench: FAILED " ^ s))
    fmt

let json_string s = Printf.sprintf "%S" s
let json_float f = if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f else Printf.sprintf "%.17g" f

let self_peak_rss_mb () = Daemon.peak_rss_mb (Unix.getpid ())

let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

(* ---- metadata ------------------------------------------------------- *)

let commit () =
  let read f = try Some (String.trim (In_channel.with_open_bin f In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      match read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) with
      | Some c -> c
      | None -> "unknown")
  | Some c -> c
  | None -> "unknown (not a git checkout)"

let metadata params =
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> String.length kv > 4 && String.sub kv 0 4 = "LPH_")
    |> List.sort compare
  in
  Printf.sprintf
    "{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"commit\":%s,\"ocaml\":%s,\"nproc\":%d,\"jobs\":%d,\"lph_env\":[%s],\"params\":{%s}}"
    (json_string !workload) !seed (json_float !seconds) !trace (json_string (commit ()))
    (json_string Sys.ocaml_version)
    (Domain.recommended_domain_count ())
    (Parallel.jobs ())
    (String.concat "," (List.map json_string env))
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) (json_string v)) params))

(* ---- set-up timing -------------------------------------------------- *)

(* setup_s is the median of [passes] complete set-up passes, so one slow
   spawn or page-in does not move it, each pass scaled by the probes on
   either side of it like every other timed figure (see [report]). The
   last pass's state is the one the run uses; the others are torn down
   by [discard], untimed. *)
let timed_setup ~passes ?(discard = ignore) pass =
  let raw = ref [] and scaled = ref [] in
  let before = ref (Probe.run ()) in
  let rec go i =
    let t0 = Clock.now_ns () in
    let r = pass () in
    let s = Clock.ms_since t0 /. 1e3 in
    let after = Probe.run () in
    raw := s :: !raw;
    scaled := Probe.adjust ~probe_ms:((!before +. after) /. 2.) s :: !scaled;
    before := after;
    if i = passes then r
    else begin
      discard r;
      go (i + 1)
    end
  in
  let r = go 1 in
  metric "setup_s" "s" (Stats.median !scaled);
  note "raw_setup_passes_s" "%s" (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !raw));
  r

let batch_setup_passes = 15
let serve_setup_passes = 5

(* ---- end-to-end figures ------------------------------------------------ *)

(* Every timed operation is scaled by the probe time measured beside it
   (batch: the mean of the probes just before and just after the query;
   serve: of those before and after its slice, with the load paused) to
   a machine on which the probe takes [Probe.reference_ms]. The host
   this runs on drifts in speed by a fifth within seconds with no
   stolen time showing — ten runs of the same code spread their raw
   throughput by 30-50% — while a change to the program moves its own
   operations and not the probe. The raw figures are printed beside
   the scaled ones.

   Each workload names the tail it prints: the highest percentile that
   keeps at least ten samples beyond it in the sample a normal run
   reaches. Fixing it per workload keeps the figure from switching
   percentile between runs. *)
type slice = {
  good : int;
  secs : float;  (** raw *)
  adj_secs : float;  (** scaled to the reference probe time *)
  lat : float list;  (** raw, ms *)
  adj_lat : float list;  (** scaled, ms *)
  probes : float list;  (** the probe times the slice was scaled by *)
}

let report ~tail ?p50 slices =
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. slices in
  let good = sum (fun s -> float s.good) in
  let lat = Stats.sorted (List.concat_map (fun s -> s.adj_lat) slices) in
  let m = Array.length lat in
  if m = 0 then die "no operation completed in %.0f s" !seconds;
  metric "throughput_per_s" "1/s" (good /. sum (fun s -> s.adj_secs));
  metric "latency_ms_p50" "ms" (match p50 with Some x -> x | None -> Stats.quantile lat 50.);
  note "latency_ms_tail" "%.17g" (Stats.quantile lat tail);
  note "raw_throughput_per_s" "%.4f" (good /. sum (fun s -> s.secs));
  note "raw_latency_ms_p50" "%.4f" (Stats.median (List.concat_map (fun s -> s.lat) slices));
  let probes = Stats.sorted (List.concat_map (fun s -> s.probes) slices) in
  note "probe_ms" "median %.3f, min %.3f, max %.3f over %d (reference %g)" (Stats.quantile probes 50.) probes.(0)
    probes.(Array.length probes - 1) (Array.length probes) Probe.reference_ms;
  note "slices" "%s"
    (String.concat " "
       (List.map (fun s -> Printf.sprintf "%.1f/s@%.1fms" (float s.good /. s.secs) (mean s.probes)) slices));
  note "latency_tail" "p%g over %d samples, %d beyond" tail m (Stats.beyond m tail);
  note "latency_highest_reportable" "%s"
    (match Stats.tail_percentile m with Some p -> Printf.sprintf "p%g" p | None -> "none");
  if Stats.beyond m tail < 10 then
    prerr_endline (Printf.sprintf "perfbench: warning: only %d samples beyond p%g" (Stats.beyond m tail) tail)

(* ---- batch workloads -------------------------------------------------- *)

type batch_query = { q : Query.t; expect : bool }

(* Cycles, tori and grids are fixed sizes, so every seed measures the
   same multiset of instances in its own order; the seed also draws the
   expanders. Sizes keep one round of each batch workload near 3 s. The
   Σ2 round's odd length puts the median inside one instance's cluster
   of latencies rather than on the gap between two. *)
let sigma2_round _rng =
  let q property n = { Query.spec = P.Cycle n; property; engine = `Cegar } in
  List.map (q Query.Robust) [ 30; 31; 40; 41; 50; 51 ] @ List.map (q Query.Refining) [ 9; 10; 11; 13; 15 ]

(* 3-colouring stays off the expanders: its solve time varies by an
   order of magnitude between random instances of one size, which would
   make the workload's figures depend on the seed. *)
let sigma1_round rng =
  let q k spec = { Query.spec; property = Query.Colouring k; engine = `Sat } in
  let expander n = P.Expander { n; cycles = 2; seed = Random.State.bits rng } in
  [
    q 2 (P.Cycle 400);
    q 2 (P.Cycle 401);
    q 2 (P.Torus (16, 16));
    q 2 (P.Torus (15, 16));
    q 2 (P.Grid (16, 20));
    q 2 (expander 300);
    q 2 (expander 500);
    q 3 (P.Cycle 300);
    q 3 (P.Torus (7, 7));
    q 3 (P.Grid (8, 10));
  ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let describe_round round =
  String.concat " " (List.map (fun b -> Query.name b.q) round)

(* Queries are time-boxed by whole rounds, so every run measures the
   same multiset of queries whatever the machine's speed; only the
   order varies. [each] answers one query, leaving the heap collected:
   (correct, latency in ms). A probe follows every query; a query is
   scaled by the mean of the probes on either side of it. Returns the
   rounds and, per query name, its (raw, scaled) latencies. *)
let run_rounds rng round ~each =
  let t0 = Clock.now_ns () in
  let before = ref (Probe.run ()) in
  let slices = ref [] and by_query = Hashtbl.create 16 in
  while !slices = [] || Clock.ms_since t0 < !seconds *. 1e3 do
    let ops =
      List.map
        (fun b ->
          let ok, ms = each b in
          let after = Probe.run () in
          let probe_ms = (!before +. after) /. 2. in
          before := after;
          let name = Query.name b.q in
          let l = try Hashtbl.find by_query name with Not_found -> [] in
          Hashtbl.replace by_query name ((ms, Probe.adjust ~probe_ms ms) :: l);
          (ok, ms, probe_ms))
        (shuffle rng round)
    in
    let adj_lat = List.map (fun (_, ms, probe_ms) -> Probe.adjust ~probe_ms ms) ops in
    let lat = List.map (fun (_, ms, _) -> ms) ops in
    let secs l = List.fold_left ( +. ) 0. l /. 1e3 in
    slices :=
      {
        good = List.length (List.filter (fun (ok, _, _) -> ok) ops);
        secs = secs lat;
        adj_secs = secs adj_lat;
        lat;
        adj_lat;
        probes = List.map (fun (_, _, p) -> p) ops;
      }
      :: !slices
  done;
  (List.rev !slices, by_query)

(* After each query: evict its graph from every engine cache, check the
   caches are back at their baseline, and collect the heap, so the next
   query starts from the state a one-shot process would — otherwise its
   time depends on how much garbage the previous queries left for the
   major collector. Untimed. *)
let check_cold b (cold : Query.cold) base =
  Query.evict cold.Query.graph;
  Gc.full_major ();
  (match Query.at_baseline base with Some m -> fail "%s: %s" (Query.name b.q) m | None -> ());
  match cold.Query.failure with
  | Some m -> fail "%s: engine fallback (%s)" (Query.name b.q) m; false
  | None ->
      if cold.Query.verdict <> b.expect then begin
        fail "%s: verdict %b, reference %b" (Query.name b.q) cold.Query.verdict b.expect;
        false
      end
      else true

(* Set-up builds every instance once and takes its reference answer,
   cross-checking each closed form against Properties' backtracking
   colourer: a wrong reference would fail the run rather than hide a
   wrong verdict. *)
let batch_setup make () =
  let rng = Random.State.make [| !seed; 0x5eed |] in
  let round = make rng in
  List.map
    (fun q ->
      let g = P.build_graph q.Query.spec in
      let expect = Query.reference q g in
      let k = match q.Query.property with Query.Colouring k -> k | Query.Robust | Query.Refining -> 2 in
      if Properties.k_colorable k g <> expect then die "reference for %s disagrees with Properties" (Query.name q);
      { q; expect })
    round

(* Batch runs never call [Parallel.prewarm]: the engines they pin never
   fan out, so a one-shot process never spawns the pool, and an idle
   helper domain would make every minor collection a two-domain
   stop-the-world — on a 2-vCPU machine that cost cold Σ2 queries
   15-20% of their throughput and multiplied set-up time sevenfold. *)
let run_batch_timed make =
  let round = timed_setup ~passes:batch_setup_passes (batch_setup make) in
  note "round" "%s" (describe_round round);
  let base = Query.baseline () in
  let rng = Random.State.make [| !seed; 0x0bde |] in
  let slices, by_query =
    run_rounds rng round ~each:(fun b ->
        incr attempted;
        let cold = Query.direct b.q in
        (check_cold b cold base, cold.Query.ms))
  in
  let per_instance f stat = List.map (fun b -> stat (List.map f (Hashtbl.find by_query (Query.name b.q)))) round in
  List.iter2 (fun b ms -> note ("raw_median_ms." ^ Query.name b.q) "%.2f" ms) round (per_instance fst Stats.median);
  (* latency_ms_p50 is the median over the instances of each one's
     typical latency: the mean of the middle half of its runs. The
     pooled median would sit on the boundary between two instances
     whenever their latencies overlap and jump from one to the other
     between runs; and some instances' own latencies fall in two
     clusters 1.5x apart for the same work, where the median jumps
     between the clusters while the mean moves with the mix. *)
  let typical l =
    let a = Stats.sorted l in
    let n = Array.length a in
    let a = Array.sub a (n / 4) (n - (2 * (n / 4))) in
    Array.fold_left ( +. ) 0. a /. float (Array.length a)
  in
  report ~tail:75. ~p50:(Stats.median (per_instance snd typical)) slices;
  metric "peak_rss_mb" "MB" (self_peak_rss_mb ())

(* ---- per-layer aggregation ------------------------------------------- *)

(* Self time per span name, summed over spans whose root is a [query]
   span: the blocking path of the workload's own operations. Side
   measurements (spans under [side]) are excluded. *)
let path_self_ms spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.Spans.id s) spans;
  let rec root s = match s.Spans.parent with Some p -> root (Hashtbl.find by_id p) | None -> s in
  let on_path = List.filter (fun s -> (root s).Spans.name = "query") spans in
  Spans.self_ms_by_name on_path

(* Mean self time of the spans with this name, path and side alike. *)
let mean_self_ms spans name =
  mean
    (List.filter_map
       (fun (s, ns) -> if s.Spans.name = name then Some (Int64.to_float ns /. 1e6) else None)
       (Spans.self_ns spans))

let layer_metrics spans (lay : Query.layers) =
  let ms name = mean_self_ms spans name in
  let count name = List.length (List.filter (fun s -> s.Spans.name = name) spans) in
  metric "graph.build_ms" "ms" (ms "graph.build");
  metric "neighborhood.ball_ms" "ms" (ms "neighborhood.ball");
  metric "neighborhood.queries" "count" (float lay.Query.balls);
  let compiles = count "compile" in
  let compile_total = mean_self_ms spans "compile" *. float compiles in
  metric "compile.ms" "ms" (ms "compile");
  metric "compile.table_entries" "count" (float lay.Query.compile_entries /. float (max 1 compiles));
  metric "compile.us_per_entry" "us" (compile_total *. 1e3 /. float (max 1 lay.Query.compile_entries));
  metric "compile.refused" "count" (float lay.Query.refused);
  metric "cegar.setup_ms" "ms" (ms "cegar.setup");
  metric "cegar.duel_ms" "ms" (ms "cegar.duel");
  let duels = List.length lay.Query.cegar in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 lay.Query.cegar in
  let per_duel f = float (sum f) /. float (max 1 duels) in
  metric "cegar.iterations" "count" (per_duel (fun s -> s.Game_cegar.iterations));
  metric "cegar.proposals" "count" (per_duel (fun s -> s.Game_cegar.proposals));
  metric "cegar.refutations" "count" (per_duel (fun s -> s.Game_cegar.refutations));
  metric "cegar.cubes" "count" (per_duel (fun s -> s.Game_cegar.cubes));
  metric "cegar.generalised" "count" (per_duel (fun s -> s.Game_cegar.generalised));
  metric "cegar.refuted_share" "ratio"
    (float (sum (fun s -> s.Game_cegar.refutations)) /. float (max 1 (sum (fun s -> s.Game_cegar.proposals))));
  metric "sat.leaf_ms" "ms" (ms "sat.leaf");
  let queries = max 1 (count "graph.build") in
  let solver f =
    float (List.fold_left (fun acc s -> acc + f s) 0 lay.Query.solver) /. float queries
  in
  metric "solver.decisions" "count" (solver (fun s -> s.Sat_solver.decisions));
  metric "solver.propagations" "count" (solver (fun s -> s.Sat_solver.propagations));
  metric "solver.conflicts" "count" (solver (fun s -> s.Sat_solver.conflicts));
  metric "solver.learned" "count" (solver (fun s -> s.Sat_solver.learned));
  metric "solver.restarts" "count" (solver (fun s -> s.Sat_solver.restarts));
  metric "runner.check_ms" "ms" (ms "runner.check")

type wire_sample = { t : Daemon.timing; micros : int; hit : bool }

let wire_metrics samples ~(daemon : Daemon.stats) =
  let us ns = Int64.to_float ns /. 1e3 in
  let med f = Stats.median (List.map f samples) in
  metric "codec.encode_us" "us" (med (fun s -> us s.t.Daemon.encode_ns));
  metric "codec.decode_us" "us" (med (fun s -> us s.t.Daemon.decode_ns));
  metric "codec.frame_bytes" "bytes" (mean (List.map (fun s -> float s.t.Daemon.frame_bytes) samples));
  metric "server.answer_us_p50" "us" (med (fun s -> float s.micros));
  metric "transport.wait_us_p50" "us"
    (med (fun s -> us s.t.Daemon.rtt_ns -. float s.micros -. us s.t.Daemon.encode_ns -. us s.t.Daemon.decode_ns));
  let hits = List.length (List.filter (fun s -> s.hit) samples) in
  metric "scheduler.hit_ratio" "ratio" (float hits /. float (max 1 (List.length samples)));
  metric "scheduler.misses" "count" (float (List.length samples - hits));
  metric "scheduler.evictions" "count" (float daemon.Daemon.evictions);
  metric "scheduler.requests_per_batch" "count" (float daemon.Daemon.requests /. float (max 1 daemon.Daemon.batches))

(* Major-heap work done while [f] runs, added to [acc] (collections,
   words). *)
let counting_gc acc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  let c, w = !acc in
  acc := (c + g1.Gc.major_collections - g0.Gc.major_collections, w +. g1.Gc.major_words -. g0.Gc.major_words);
  r

let gc_metrics (collections, words) =
  metric "gc.major_collections" "count" (float collections);
  metric "gc.major_words" "count" words

let write_spans name spans =
  let file = Filename.concat !out_dir name in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Spans.to_json s))
        spans;
      output_string oc "\n]\n");
  note "spans_file" "%s" file

let print_path_table spans =
  let table = path_self_ms spans in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. table in
  List.iter
    (fun (name, v) ->
      note ("self_ms." ^ name) "%.3f (%.1f%%)" v (100. *. v /. if total > 0. then total else 1.))
    table

(* The side measurement for the engine a query's path does not take,
   on the query's own compiled instance: a Σ1 query's one-level duel,
   or a Σ2 query's refuter leaf on Eve's final claim (her winning move,
   or all zeros when she lost). *)
let side spans lay b graph =
  let q = b.q in
  let ids = Identifiers.make_global graph in
  let a = Query.arbiter q.Query.property in
  let universes = Query.universes q.Query.property in
  Spans.with_span spans "side" (fun () ->
      match Game_sat.compile_explain a graph ~ids ~universes with
      | Error _ -> ()
      | Ok inst -> (
          match q.Query.engine with
          | `Sat | `Pruned -> (
              match Spans.with_span spans "cegar.setup" (fun () -> Game_cegar.instance ~eve_first:true a graph ~ids ~universes) with
              | Some c ->
                  ignore (Spans.with_span spans "cegar.duel" (fun () -> Game_cegar.value c));
                  lay.Query.cegar <- Game_cegar.stats c :: lay.Query.cegar
              | None -> ())
          | `Cegar ->
              let claim =
                match Option.bind (Game_cegar.instance ~eve_first:true a graph ~ids ~universes) Game_cegar.winning_move with
                | Some w -> w
                | None -> Array.make (Graph.card graph) "0"
              in
              ignore (Spans.with_span spans "sat.leaf" (fun () -> Game_sat.adam_rejects inst ~prefix:[ claim ]))))

let run_batch_traced make =
  let round = timed_setup ~passes:batch_setup_passes (batch_setup make) in
  let base = Query.baseline () in
  let rng = Random.State.make [| !seed; 0x0bde |] in
  let spans = Spans.create () and lay = Query.layers () in
  let direct_ms = ref [] and split_ms = ref [] in
  let qid = ref 0 in
  (* the queries' own heap work: the collections [check_cold] forces
     between queries are not counted *)
  let gc = ref (0, 0.) in
  let cold_split b =
    Spans.set_query spans !qid;
    let t0 = Clock.now_ns () in
    let outcome, g = counting_gc gc (fun () -> Query.split spans lay b.q) in
    split_ms := Clock.ms_since t0 :: !split_ms;
    side spans lay b g;
    Query.evict g;
    outcome
  in
  let cold_direct b =
    let cold = counting_gc gc (fun () -> Query.direct b.q) in
    direct_ms := cold.Query.ms :: !direct_ms;
    cold
  in
  let _ =
    run_rounds rng round ~each:(fun b ->
        incr attempted;
        incr qid;
        (* alternate which side runs first, so neither always gets the
           warmer heap *)
        let outcome, cold =
          if !qid mod 2 = 0 then
            let o = cold_split b in
            (o, cold_direct b)
          else
            let c = cold_direct b in
            (cold_split b, c)
        in
        let ok_direct = check_cold b cold base in
        match outcome with
        | Error m -> fail "%s: split query: %s" (Query.name b.q) m; (false, 0.)
        | Ok v when v <> cold.Query.verdict -> fail "%s: split verdict %b, direct %b" (Query.name b.q) v cold.Query.verdict; (false, 0.)
        | Ok _ -> (ok_direct, 0.))
  in
  gc_metrics !gc;
  layer_metrics (Spans.spans spans) lay;
  print_path_table (Spans.spans spans);
  metric "trace.overhead_share" "ratio" ((Stats.median !split_ms /. Stats.median !direct_ms) -. 1.);
  (* The wire-side layers, measured on the same queries: every query
     the daemon's catalogue can name, sent once to a fresh daemon. *)
  let d = Daemon.spawn ~exe:!serve_exe ~dir:!out_dir () in
  let fd = Daemon.connect_retrying d in
  let samples =
    List.filter_map
      (fun (i, b) ->
        match Query.catalogue b.q.Query.property with
        | None -> None
        | Some property ->
            let req = { P.id = i; engine = (b.q.Query.engine :> Game.engine); property; graph = b.q.Query.spec; query = P.Accepts Game.Eve } in
            let resp, t = Daemon.roundtrip fd req in
            (match resp.P.outcome with
            | Ok v when v = b.expect -> ()
            | Ok v -> fail "%s via daemon: %b, reference %b" (Query.name b.q) v b.expect
            | Error e -> fail "%s via daemon: %s" (Query.name b.q) (Error.to_string e));
            Some { t; micros = resp.P.micros; hit = resp.P.cache_hit })
      (List.mapi (fun i b -> (i + 1, b)) round)
  in
  Unix.close fd;
  let stats = Daemon.stop d in
  wire_metrics samples ~daemon:stats;
  write_spans (Printf.sprintf "spans-%s-%d.json" !workload !seed) (Spans.spans spans)

(* ---- serve workloads ------------------------------------------------- *)

type key = {
  property : P.property;
  spec : P.graph_spec;
  engines : Game.engine list;
  yes : bool;  (** reference Σ value *)
  checks : (Certificates.t * bool) array;  (** Check certificates and their reference answers *)
}

(* Each key tabulates about 1.1k ball configurations, about 0.14 MB in
   the scheduler's cost model (128 bytes a configuration): the thirteen
   are about twice the 1 MB cap the daemon runs with, so about four in
   five requests hit and every miss recompiles after an eviction. *)
let churn_catalogue rng =
  [
    (P.Coloring 3, P.Cycle 40);
    (P.Coloring 2, P.Cycle 130);
    (P.Coloring 2, P.Torus (6, 6));
    (P.Robust_two_col, P.Cycle 18);
    (P.Coloring 3, P.Cycle 45);
    (P.Coloring 2, P.Cycle 131);
    (P.Coloring 2, P.Grid (6, 7));
    (P.Coloring 3, P.Complete 5);
    (P.Robust_two_col, P.Cycle 19);
    (P.Coloring 2, P.Path 150);
    (P.Coloring 3, P.Cycle 48);
    (P.Coloring 2, P.Expander { n = 36; cycles = 2; seed = Random.State.bits rng });
    (P.Coloring 2, P.Torus (5, 6));
  ]

let churn_cache_mb = 1

let encode_colouring c = Array.map Bitstring.of_int c

let make_key rng (property, spec) =
  let g = P.build_graph spec in
  match property with
  | P.Coloring k ->
      let n = Graph.card g in
      let random () = Array.init n (fun _ -> Bitstring.of_int (Random.State.int rng k)) in
      let proper = Option.map encode_colouring (Properties.find_k_coloring k g) in
      let corrupt c =
        let c = Array.copy c in
        let u = Random.State.int rng n in
        (match Graph.neighbours g u with v :: _ -> c.(u) <- c.(v) | [] -> ());
        c
      in
      let certs =
        match proper with Some c -> [ c; corrupt c; random () ] | None -> [ random (); random (); random () ]
      in
      {
        property;
        spec;
        engines = [ `Sat; `Cegar; `Pruned ];
        yes = Oracle.colourable k spec g;
        checks = Array.of_list (List.map (fun c -> (c, Oracle.proper_colouring k g c)) certs);
      }
  | P.Robust_two_col -> { property; spec; engines = [ `Cegar ]; yes = Oracle.colourable 2 spec g; checks = [||] }
  | P.Raising_probe -> invalid_arg "make_key"

type request_kind = Check of int | Accepts of Game.engine

type request_gen = { keys : key array; round : (key * request_kind) array }

(* Zipf(1) popularity in catalogue order, as whole counts in a round of
   about [round_size] requests that the stream replays in a fresh seeded
   order each time: a quarter of a key's requests are Checks where it
   has certificates (cycling through them), the rest Accepts under its
   engines in turn. The ranking and the counts are fixed rather than
   drawn: per-key costs differ by an order of magnitude, so a seeded
   ranking, or seeded counts, would make the figures depend on how many
   requests the seed gave the dear keys. The seed drives the order and
   the expander. *)
let round_size = 240

let zipf_gen keys =
  let keys = Array.of_list keys in
  let w = Array.mapi (fun i _ -> 1. /. float (i + 1)) keys in
  let total = Array.fold_left ( +. ) 0. w in
  let requests i k =
    let n = max 1 (Float.to_int (Float.round (float round_size *. w.(i) /. total))) in
    let checks = Array.length k.checks in
    List.init n (fun j ->
        if checks > 0 && j mod 4 = 3 then (k, Check (j / 4 mod checks))
        else
          let a = if checks > 0 then j - (j / 4) else j in
          (k, Accepts (List.nth k.engines (a mod List.length k.engines))))
  in
  { keys; round = Array.of_list (List.concat (List.mapi requests (Array.to_list keys))) }

let request (k, kind) ~id =
  match kind with
  | Check c ->
      let certs, expect = k.checks.(c) in
      ({ P.id; engine = `Sat; property = k.property; graph = k.spec; query = P.Check [ certs ] }, expect)
  | Accepts engine -> ({ P.id; engine; property = k.property; graph = k.spec; query = P.Accepts Game.Eve }, k.yes)

let judge (req : P.request) expect (resp : P.response) =
  if resp.P.id <> req.P.id then (fail "response id %d for request %d" resp.P.id req.P.id; false)
  else
    match resp.P.outcome with
    | Ok v when v = expect -> true
    | Ok v -> fail "%s: answered %b, reference %b" (P.key req) v expect; false
    | Error e -> fail "%s: %s" (P.key req) (Error.to_string e); false

(* One connection: with two, the median request was a hit queued
   behind the other connection's recompile, and where it fell between
   the two moved the ten-run median latency by a quarter; with one, a
   hit's time is its own. *)
type serve_state = { daemon : Daemon.t; fd : Unix.file_descr; gen : request_gen }

let serve_setup catalogue ~cache_mb () =
  let rng = Random.State.make [| !seed; 0x5e7e |] in
  let keys = List.map (make_key rng) (catalogue rng) in
  let gen = zipf_gen keys in
  let daemon = Daemon.spawn ~exe:!serve_exe ~dir:!out_dir ?cache_mb () in
  let fd = Daemon.connect_retrying daemon in
  (* priming: every (key, engine) pair once, so every instance the
     stream can touch has been compiled *)
  let id = ref 0 in
  List.iter
    (fun k ->
      List.iter
        (fun engine ->
          incr id;
          let req = { P.id = !id; engine; property = k.property; graph = k.spec; query = P.Accepts Game.Eve } in
          let resp, _ = Daemon.roundtrip fd req in
          if not (judge req k.yes resp) then die "priming failed on %s" (P.key req))
        k.engines)
    keys;
  { daemon; fd; gen }

let discard_serve st =
  Unix.close st.fd;
  ignore (Daemon.stop st.daemon)

let request_kind (req : P.request) =
  P.key req ^ "/" ^ match req.P.query with P.Check _ -> "check" | P.Accepts _ -> Query.engine_name (match req.P.engine with `Sat -> `Sat | `Cegar -> `Cegar | _ -> `Pruned)

type loop_sample = { key : string; lat_ms : float; wire : wire_sample; ok : bool; traced : bool }

(* Closed loop: the next request goes out only after the previous
   reply arrived. The timed phase is cut into [slices] equal slices;
   between two, the client runs a probe while the daemon idles. Returns
   per slice its length in seconds, the mean of the probes on either
   side, and its samples. The traced run passes a [probe] that does no
   work, so that the run's heap counters are the loop's own.
   [traced_request] decides, by the request's sequence number, whether
   it is recorded in spans; tracing only adds the span bookkeeping. *)
let closed_loop ?(probe = Probe.run) st ~traced_request ~spans ~slices =
  let rng = Random.State.make [| !seed; 0x10ad |] in
  let pending = ref [] in
  let next () =
    if !pending = [] then pending := shuffle rng (Array.to_list st.gen.round);
    let r = List.hd !pending in
    pending := List.tl !pending;
    r
  in
  let sent = ref 0 in
  let slice_ns = Int64.of_float (!seconds /. float slices *. 1e9) in
  let before = ref (probe ()) in
  List.init slices (fun _ ->
      let t0 = Clock.now_ns () in
      let deadline = Int64.add t0 slice_ns in
      let acc = ref [] in
      while Int64.compare (Clock.now_ns ()) deadline < 0 do
        incr sent;
        let id = !sent + 1_000_000 in
        let req, expect = request (next ()) ~id in
        let traced = traced_request !sent in
        let go () = Daemon.roundtrip st.fd req in
        let resp, t =
          if traced then (
            Spans.set_query spans id;
            Spans.with_span spans "request" go)
          else go ()
        in
        let ok = judge req expect resp in
        acc :=
          { key = request_kind req; lat_ms = Int64.to_float t.Daemon.rtt_ns /. 1e6; wire = { t; micros = resp.P.micros; hit = resp.P.cache_hit }; ok; traced }
          :: !acc
      done;
      let secs = Clock.ms_since t0 /. 1e3 in
      let after = probe () in
      let probe_ms = (!before +. after) /. 2. in
      before := after;
      (secs, probe_ms, !acc))

let finish_daemon st =
  let rss = Daemon.peak_rss_mb st.daemon.Daemon.pid in
  Unix.close st.fd;
  (rss, Daemon.stop st.daemon)

(* Fifty slices, half a second each at the usual run length: the
   probes must sample the host's speed often, since the daemon's work
   runs beside the client rather than in it (with ten 2.5 s slices the
   scaled throughput of five runs spread 0.13, more than the raw 0.10;
   with fifty, 0.06 against 0.13 raw). The pauses cost about a tenth of
   the wall time, none of the timed time. *)
let run_serve_timed catalogue ~cache_mb ~tail ~slices =
  let st = timed_setup ~passes:serve_setup_passes ~discard:discard_serve (serve_setup catalogue ~cache_mb) in
  let loop = closed_loop st ~traced_request:(fun _ -> false) ~spans:(Spans.create ()) ~slices in
  let rss, stats = finish_daemon st in
  let samples = List.concat_map (fun (_, _, l) -> l) loop in
  attempted := !attempted + List.length samples;
  report ~tail
    (List.map
       (fun (secs, probe_ms, slot) ->
         let lat = List.map (fun s -> s.lat_ms) slot in
         {
           good = List.length (List.filter (fun s -> s.ok) slot);
           secs;
           adj_secs = Probe.adjust ~probe_ms secs;
           lat;
           adj_lat = List.map (Probe.adjust ~probe_ms) lat;
           probes = [ probe_ms ];
         })
       loop);
  metric "peak_rss_mb" "MB" rss;
  let by_kind = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_kind s.key (s.lat_ms :: (try Hashtbl.find by_kind s.key with Not_found -> []))) samples;
  List.iter
    (fun (kind, l) ->
      let a = Stats.sorted l in
      note ("latency_ms." ^ kind) "p50 %.4f, p99 %.4f over %d" (Stats.quantile a 50.) (Stats.quantile a 99.) (Array.length a))
    (List.sort compare (Hashtbl.fold (fun k l acc -> (k, l) :: acc) by_kind []));
  note "daemon" "%d requests, %d batches, %d hits, %d misses, %d evictions" stats.Daemon.requests
    stats.Daemon.batches stats.Daemon.hits stats.Daemon.misses stats.Daemon.evictions

let run_serve_traced catalogue ~cache_mb =
  let st = timed_setup ~passes:serve_setup_passes ~discard:discard_serve (serve_setup catalogue ~cache_mb) in
  let spans = Spans.create () in
  (* every other request is traced: the difference between the medians
     of the two interleaved halves is the tracing overhead *)
  let traced_request n = n mod 2 = 1 in
  let gc = ref (0, 0.) in
  let samples = counting_gc gc (fun () -> closed_loop ~probe:(fun () -> Probe.reference_ms) st ~traced_request ~spans ~slices:1) in
  let samples = List.concat_map (fun (_, _, l) -> l) samples in
  let _, stats = finish_daemon st in
  attempted := !attempted + List.length samples;
  let lat traced = Stats.median (List.filter_map (fun s -> if s.traced = traced then Some s.lat_ms else None) samples) in
  metric "trace.overhead_share" "ratio" ((lat true /. lat false) -. 1.);
  wire_metrics (List.map (fun s -> s.wire) samples) ~daemon:stats;
  gc_metrics !gc;
  (* The engine-side layers of the same working set, which run inside
     the daemon: every (key, compiling engine) replayed cold here. *)
  let replay = Spans.create () and lay = Query.layers () in
  let base = Query.baseline () in
  List.iteri
    (fun i k ->
      let property = match k.property with P.Coloring c -> Query.Colouring c | _ -> Query.Robust in
      List.iter
        (fun engine ->
          let q = { Query.spec = k.spec; property; engine } in
          Spans.set_query replay i;
          let outcome, g = Query.split replay lay q in
          side replay lay { q; expect = k.yes } g;
          Query.evict g;
          match outcome with
          | Ok v when v = k.yes -> ()
          | Ok v -> fail "%s replayed: %b, reference %b" (Query.name q) v k.yes
          | Error m -> fail "%s replayed: %s" (Query.name q) m)
        (List.filter_map (function `Sat -> Some `Sat | `Cegar -> Some `Cegar | _ -> None) k.engines);
      (* the Check path, on the certificates the stream sends *)
      let g = P.build_graph k.spec in
      let ids = Identifiers.make_global g in
      let a = P.arbiter k.property in
      Array.iter
        (fun (certs, expect) ->
          if Spans.with_span replay "runner.check" (fun () -> a.Arbiter.accepts g ~ids ~certs:[ certs ]) <> expect then
            fail "%s: check disagrees with the adjacency test" (P.spec_to_string k.spec))
        k.checks;
      Query.evict g)
    (Array.to_list st.gen.keys);
  (match Query.at_baseline base with Some m -> fail "replay: %s" m | None -> ());
  layer_metrics (Spans.spans replay) lay;
  let all = Spans.spans spans in
  write_spans (Printf.sprintf "spans-%s-%d.json" !workload !seed) (all @ Spans.spans replay)

(* ---- entry point ------------------------------------------------------- *)

let workloads =
  [
    ("cold-sigma2", (fun () -> run_batch_timed sigma2_round), fun () -> run_batch_traced sigma2_round);
    ("cold-sigma1", (fun () -> run_batch_timed sigma1_round), fun () -> run_batch_traced sigma1_round);
    ( "serve-churn",
      (fun () -> run_serve_timed churn_catalogue ~cache_mb:(Some churn_cache_mb) ~tail:99. ~slices:50),
      fun () -> run_serve_traced churn_catalogue ~cache_mb:(Some churn_cache_mb) );
  ]

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map (fun (n, _, _) -> n) workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced per-layer run (1)");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH the serve.exe daemon binary");
      ("--out", Arg.Set_string out_dir, "DIR directory for spans, sockets and reports");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --serve-exe PATH --out DIR";
  (* Runner reads LPH_FAULTS at start-up and injects faults into every
     tabulation pass: no figure taken under it is a performance figure. *)
  if Sys.getenv_opt "LPH_FAULTS" <> None then die "refusing to run with LPH_FAULTS set";
  if !serve_exe = "" || !out_dir = "" then die "--serve-exe and --out are required";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let timed, traced =
    match List.find_opt (fun (n, _, _) -> n = !workload) workloads with
    | Some (_, t, tr) -> (t, tr)
    | None -> die "unknown workload %S" !workload
  in
  let params =
    [ ("churn_cache_mb", string_of_int churn_cache_mb); ("daemon_jobs", string_of_int Daemon.jobs); ("batch_setup_passes", string_of_int batch_setup_passes); ("serve_setup_passes", string_of_int serve_setup_passes) ]
  in
  let meta = metadata params in
  if !trace = 1 then traced () else timed ();
  note "failed_share" "%g" (float !failed /. float (max 1 !attempted));
  let report = Filename.concat !out_dir (Printf.sprintf "report-%s-%d-trace%d.json" !workload !seed !trace) in
  let metrics_json =
    String.concat ","
      (List.rev_map
         (fun (name, value, unit) -> Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name) (json_float value) (json_string unit))
         !metrics)
  in
  let info_json = String.concat "," (List.rev_map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) (json_string v)) !info) in
  Out_channel.with_open_bin report (fun oc ->
      Printf.fprintf oc "{\"meta\":%s,\"info\":{%s},\"metrics\":{%s}}\n" meta info_json metrics_json);
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) (List.rev !info);
  Printf.printf "# meta: %s\n" meta;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" (!failed = 0)
    (max 1 !attempted) !failed metrics_json
