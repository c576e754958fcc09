(* The wire layer: packed transport vs bit accounting.

   Two invariants are tested here. First, the packed codec and the
   paper-literal '0'/'1' expansion are interchangeable representations:
   round-trips agree and the bit length is exactly 8x the packed byte
   length, which is the charging shim every message cost relies on.
   Second — the load-bearing one — the runtime's observable behaviour
   is wire-mode independent: Runner.stats (charges, input sizes,
   message volumes) and all verdicts are byte-for-byte identical
   between the packed delta-flooding transport and the legacy bit
   transport of the seed runtime, under both sequential and parallel
   execution. *)

open Lph_core
open Helpers

(* run [f] under LPH_JOBS=[j], forcing the team path even on tiny
   graphs via LPH_PAR_MIN=1; both variables are read per call, so
   setting and restoring them around [f] is race-free in this
   single-threaded test driver *)
let with_jobs j f =
  let old_jobs = Sys.getenv_opt "LPH_JOBS" in
  let old_min = Sys.getenv_opt "LPH_PAR_MIN" in
  Unix.putenv "LPH_JOBS" (string_of_int j);
  Unix.putenv "LPH_PAR_MIN" "1";
  Fun.protect
    ~finally:(fun () ->
      (* [putenv] cannot unset: restore the documented defaults when the
         variable was absent (harmless — both are re-read per call) *)
      Unix.putenv "LPH_JOBS"
        (match old_jobs with
        | Some v -> v
        | None -> string_of_int (min 4 (Domain.recommended_domain_count ())));
      Unix.putenv "LPH_PAR_MIN" (match old_min with Some v -> v | None -> "32"))
    f

let modes_agree scenario =
  List.for_all
    (fun j -> with_jobs j (fun () -> with_mode Codec.Packed scenario = with_mode Codec.Bits scenario))
    [ 1; 4 ]

let stats_repr (s : Runner.stats) =
  (s.Runner.rounds, s.Runner.charges, s.Runner.input_sizes, s.Runner.message_bytes)

let run_repr algo g ~ids ?cert_list () =
  let r = Runner.run algo g ~ids ?cert_list () in
  (stats_repr r.Runner.stats, Graph.labels r.Runner.output)

let graph_repr g = (Graph.labels g, Graph.edges g)

(* ------------------------------------------------------------------ *)
(* Codec: packed vs bits representations *)

let sample_codec =
  Codec.(pair (list string) (triple int (option bool) string))

let gen_sample =
  QCheck.Gen.(
    let bits = Helpers.gen_bitstring ~max_len:6 () in
    let any = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 8) in
    pair (list_size (int_bound 4) bits) (triple (int_bound 1_000_000) (option bool) any))

let arb_sample =
  QCheck.make
    ~print:(fun (l, (n, b, s)) ->
      Printf.sprintf "([%s], (%d, %s, %S))" (String.concat ";" l) n
        (match b with None -> "None" | Some b -> string_of_bool b)
        s)
    gen_sample

let codec_tests =
  [
    qcheck ~count:200 "packed and bit codecs round-trip all combinators" arb_sample (fun v ->
        Codec.decode sample_codec (Codec.encode sample_codec v) = v
        && Codec.decode_bits sample_codec (Codec.encode_bits sample_codec v) = v);
    qcheck ~count:200 "bit length is exactly 8x the packed length" arb_sample (fun v ->
        let packed = Codec.encode sample_codec v and bits = Codec.encode_bits sample_codec v in
        String.length bits = 8 * String.length packed
        && Codec.bits_length sample_codec v = String.length bits
        && Codec.encoded_length sample_codec v = String.length packed);
    qcheck ~count:200 "int_length matches the encoder"
      QCheck.(make ~print:string_of_int Gen.(frequency [ (3, int_bound 100_000); (1, map abs int) ]))
      (fun n -> Codec.int_length n = Codec.encoded_length Codec.int n);
    quick "wire mode follows set_wire_mode" (fun () ->
        let v = ([ "01" ], (5, Some true, "x")) in
        with_mode Codec.Packed (fun () ->
            check_bool "packed" true (Codec.encode_wire sample_codec v = Codec.encode sample_codec v);
            check_int "wire_bits" (8 * String.length (Codec.encode sample_codec v))
              (Codec.wire_bits (Codec.encode_wire sample_codec v)));
        with_mode Codec.Bits (fun () ->
            check_bool "bits" true (Codec.encode_wire sample_codec v = Codec.encode_bits sample_codec v);
            check_int "wire_bits" (String.length (Codec.encode_bits sample_codec v))
              (Codec.wire_bits (Codec.encode_wire sample_codec v))));
  ]

let int_boundary_tests =
  [
    quick "boundary values round-trip" (fun () ->
        List.iter
          (fun n -> check_int (string_of_int n) n (Codec.decode Codec.int (Codec.encode Codec.int n)))
          [ 0; 1; 127; 128; 16383; 16384; max_int - 1; max_int ]);
    quick "truncated input is rejected" (fun () ->
        Alcotest.check_raises "empty"
          (Error.Error (Error.Decode_error { what = "Codec.int"; detail = "truncated" }))
          (fun () -> ignore (Codec.decode Codec.int ""));
        Alcotest.check_raises "dangling continuation"
          (Error.Error (Error.Decode_error { what = "Codec.int"; detail = "truncated" }))
          (fun () -> ignore (Codec.decode Codec.int "\x80")));
    quick "a chunk spilling past bit 62 is rejected" (fun () ->
        (* 9th byte lands at shift 56; max_int lsr 56 = 63, so chunk 64
           would overflow into the sign bit *)
        let s = String.make 8 '\x80' ^ "\x40" in
        Alcotest.check_raises "chunk overflow"
          (Error.Error (Error.Decode_error { what = "Codec.int"; detail = "overflow" }))
          (fun () -> ignore (Codec.decode Codec.int s));
        (* ...while chunk 63 at the same shift is max_int and fine *)
        check_int "max_int" max_int (Codec.decode Codec.int (String.make 8 '\xff' ^ "\x3f")));
    quick "a tenth continuation byte is rejected" (fun () ->
        let s = String.make 9 '\x80' ^ "\x00" in
        Alcotest.check_raises "shift overflow"
          (Error.Error (Error.Decode_error { what = "Codec.int"; detail = "overflow" }))
          (fun () -> ignore (Codec.decode Codec.int s)));
  ]

(* ------------------------------------------------------------------ *)
(* Runtime equivalence: packed delta-flooding vs the seed's bit wire *)

let equivalence_tests =
  [
    qcheck ~count:15 "gather: balls and stats are wire-mode independent"
      (arb_graph ~max_nodes:7 ())
      (fun g ->
        let ids = global_ids g in
        List.for_all
          (fun radius ->
            modes_agree (fun () ->
                let balls = Gather.collect ~radius g ~ids () in
                let decider =
                  Gather.algo ~name:"parity" ~radius ~levels:0 ~decide:(fun _ b ->
                      List.length b.Gather.entries mod 2 = 0)
                in
                (balls, run_repr decider g ~ids ())))
          [ 1; 2 ]);
    qcheck ~count:10 "eulerian reduction: image and stats are wire-mode independent"
      (arb_graph ~max_nodes:6 ())
      (fun g ->
        let ids = global_ids g in
        modes_agree (fun () ->
            ( graph_repr (Cluster.apply Eulerian_red.reduction g ~ids),
              stats_repr (Cluster.stats Eulerian_red.reduction g ~ids) )));
    qcheck ~count:10 "eulerian simulation: verdicts and stats are wire-mode independent"
      (arb_graph ~max_nodes:6 ())
      (fun g ->
        let ids = global_ids g in
        let sim () =
          Simulate.through_reduction Eulerian_red.reduction ~inner:Candidates.eulerian_decider ()
        in
        modes_agree (fun () -> run_repr (sim ()) g ~ids ()));
    qcheck ~count:8 "cook-levin reduction: image and stats are wire-mode independent"
      (arb_graph ~max_nodes:5 ())
      (fun g ->
        let ids = global_ids g in
        let red () = Cook_levin.reduction Graph_formulas.all_selected in
        modes_agree (fun () ->
            ( graph_repr (Cluster.apply (red ()) g ~ids),
              stats_repr (Cluster.stats (red ()) g ~ids) )));
    quick "lemma 8: game values are wire-mode independent" (fun () ->
        let below k =
          Restrictor.per_node ~name:(Printf.sprintf "below-%d" k) (fun _ctx cert ->
              Bitstring.to_int cert < k && String.length cert <= 2)
        in
        let scenario () =
          let verifier = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 3) in
          let raw_universe = Game.bitstring_universe ~max_len:2 in
          List.map
            (fun g ->
              let ids = global_ids g in
              let restricted =
                Restrictor.restricted_game ~first:Game.Eve ~arbiter:verifier
                  ~restrictors:[ below 3 ] g ~ids ~universes:[ raw_universe ]
              in
              let converted =
                Restrictor.lemma8_convert ~restrictors:[ below 3 ] ~first:Game.Eve verifier
              in
              let permissive = Game.sigma_accepts converted g ~ids ~universes:[ raw_universe ] in
              (restricted, permissive))
            [ Generators.path 3; Generators.cycle 3 ]
        in
        check_bool "agree" true (modes_agree scenario));
  ]

(* ------------------------------------------------------------------ *)
(* Prepared runs: one [Runner.prepare] executed on several certificate
   lists must give the outputs and stats of fresh [Runner.run] calls,
   on the sequential path and on the domain team, and under a plan
   that tampers the identifiers the preparation was made on. *)

let result_repr (r : Runner.result) = (stats_repr r.Runner.stats, Graph.labels r.Runner.output)

let sample_cert_lists ~levels n =
  List.map
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick () = List.nth [ ""; "0"; "1"; "10" ] (Random.State.int rng 4) in
      Array.init n (fun _ -> Bitstring.join_hash (List.init levels (fun _ -> pick ()))))
    [ 1; 2; 3; 4 ]

let prepared_agrees ?faults algo g ~ids =
  let p = Runner.prepare algo g ~ids in
  List.for_all
    (fun cert_list ->
      result_repr (Runner.execute ?faults p ~cert_list ())
      = result_repr (Runner.run ?faults algo g ~ids ~cert_list ()))
    (sample_cert_lists ~levels:(Local_algo.levels algo) (Graph.card g))

let prepared_tests =
  [
    qcheck ~count:20 "a prepared run equals fresh runs (LPH_JOBS=1)"
      (arb_graph ~max_nodes:7 ())
      (fun g ->
        let ids = global_ids g in
        with_jobs 1 (fun () ->
            List.for_all
              (fun algo -> prepared_agrees algo g ~ids)
              [ Candidates.color_verifier 3; Candidates.robust_two_col_verifier ]));
    quick "a prepared run equals fresh runs on the domain team" (fun () ->
        (* 40 nodes: past the default LPH_PAR_MIN of 32 as well *)
        let g = Generators.cycle 40 in
        let ids = global_ids g in
        with_jobs 4 (fun () ->
            List.iter
              (fun algo ->
                check_bool (Local_algo.name algo) true (prepared_agrees algo g ~ids))
              [ Candidates.color_verifier 3; Candidates.robust_two_col_verifier ]));
    quick "an id-tampering plan re-prepares each execution, as run does" (fun () ->
        let g = Generators.cycle 8 in
        let ids = global_ids g in
        let algo = Candidates.color_verifier 3 in
        let p = Runner.prepare algo g ~ids in
        let completed = ref 0 and refused = ref 0 in
        for seed = 0 to 11 do
          let plan = Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Dup_id ] seed in
          List.iter
            (fun cert_list ->
              let attempt f = match f () with r -> Ok (result_repr r) | exception Error.Error e -> Error e in
              let prepared = attempt (fun () -> Runner.execute ~faults:plan p ~cert_list ()) in
              check_bool "prepared = fresh" true
                (prepared = attempt (fun () -> Runner.run ~faults:plan algo g ~ids ~cert_list ()));
              (* a dup-id plan is exactly a plan-free run on the
                 tampered identifiers *)
              let tampered, _ = Fault_plan.tamper_ids plan ids in
              check_bool "prepared = plan-free run on the tampered ids" true
                (prepared = attempt (fun () -> Runner.run algo g ~ids:tampered ~cert_list ()));
              match Runner.run_outcome ~faults:plan algo g ~ids ~cert_list () with
              | Runner.Faulted rep -> (
                  check_bool "dup-id reported" true
                    (List.exists (fun f -> f.Error.fault_kind = "dup-id") rep.Runner.faults);
                  match (rep.Runner.partial, rep.Runner.error, prepared) with
                  | Some r, None, Ok x ->
                      incr completed;
                      check_bool "partial = prepared" true (result_repr r = x)
                  | None, Some e, Error e' ->
                      incr refused;
                      check_bool "same error" true (e = e')
                  | _ -> Alcotest.fail "run_outcome and the prepared run disagree")
              | _ -> Alcotest.fail "rate-1 dup-id always fires")
            (sample_cert_lists ~levels:1 (Graph.card g))
        done;
        (* both sides of the plan are exercised: a duplicate between
           neighbours is refused, elsewhere the run completes *)
        check_bool "some tampered runs completed" true (!completed > 0);
        check_bool "some tampered runs were refused" true (!refused > 0));
  ]

let suites =
  [
    ("wire:codec", codec_tests);
    ("wire:int-hardening", int_boundary_tests);
    ("wire:equivalence", equivalence_tests);
    ("wire:prepared", prepared_tests);
  ]
