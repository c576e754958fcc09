module G = Lph_graph.Labeled_graph
module Gen = Lph_graph.Generators
module Ids = Lph_graph.Identifiers
module Arbiter = Lph_hierarchy.Arbiter
module Candidates = Lph_hierarchy.Candidates
module Cluster = Lph_reductions.Cluster
module LA = Lph_machine.Local_algo
module BG = Lph_boolean.Boolean_graph
module BF = Lph_boolean.Bool_formula

type spec = {
  cs_name : string;
  cs_arbiter : Arbiter.t;
  cs_universes : (G.t -> Ids.t -> Lph_hierarchy.Game.universe list) option;
}

type t = {
  cr_name : string;
  cr_source : spec;
  cr_target : spec;
  cr_via : Cluster.reduction;
  cr_transfer : int -> int;
  cr_transfer_doc : string;
  cr_instances : (string * G.t) list;
}

type check = {
  ck_reduction : string;
  ck_instance : string;
  ck_source_bits : int option;
  ck_target_bits : int option;
  ck_transferred : int option;
  ck_consistent : bool;
  ck_detail : string;
}

(* ---- cross-checking ------------------------------------------------ *)

let check_instance red (iname, g) =
  let side spec label g =
    Optimum.search_graph ~name:spec.cs_name ~arbiter:spec.cs_arbiter
      ~universes:spec.cs_universes ~label g
  in
  let src = side red.cr_source (red.cr_name ^ ":" ^ iname) g in
  let image =
    try Ok (Cluster.apply red.cr_via g ~ids:(Ids.make_global g))
    with Lph_util.Error.Error e -> Error (Lph_util.Error.to_string e)
  in
  let finish ?source ?target ?transferred consistent detail =
    {
      ck_reduction = red.cr_name;
      ck_instance = iname;
      ck_source_bits = source;
      ck_target_bits = target;
      ck_transferred = transferred;
      ck_consistent = consistent;
      ck_detail = detail;
    }
  in
  match image with
  | Error why -> finish false ("reduction failed to apply: " ^ why)
  | Ok img -> (
      let tgt = side red.cr_target (red.cr_name ^ ":img:" ^ iname) img in
      match (src.Optimum.r_verdict, tgt.Optimum.r_verdict) with
      | Optimum.Unsupported why, _ ->
          finish true ("skipped: source search unsupported (" ^ why ^ ")")
      | _, Optimum.Unsupported why ->
          finish true ("skipped: image search unsupported (" ^ why ^ ")")
      | Optimum.Optimum { bits = s; _ }, Optimum.Optimum { bits = t; _ } ->
          let tr = red.cr_transfer t in
          finish ~source:s ~target:t ~transferred:tr (s <= tr)
            (Printf.sprintf "source optimum %d %s transfer(image optimum %d) = %d" s
               (if s <= tr then "<=" else ">")
               t tr)
      | Optimum.Optimum { bits = s; _ }, Optimum.Rejected _ ->
          finish ~source:s false "source is certifiable but the image is rejected at every budget"
      | Optimum.Rejected _, Optimum.Optimum { bits = t; _ } ->
          finish ~target:t false "source is rejected at every budget but the image is certifiable"
      | Optimum.Rejected _, Optimum.Rejected _ ->
          finish true "both sides rejected: the reduction preserves the NO answer")

let check red = List.map (check_instance red) red.cr_instances

(* ---- the shipped reductions ---------------------------------------- *)

let arb packed = Arbiter.of_local_algo ~id_radius:2 packed

let all_selected_spec =
  lazy
    {
      cs_name = "all-selected-decider";
      cs_arbiter = arb Candidates.all_selected_decider;
      cs_universes = None;
    }

let eulerian_spec =
  lazy
    {
      cs_name = "eulerian-decider";
      cs_arbiter = arb Candidates.eulerian_decider;
      cs_universes = None;
    }

let sat_graph_spec =
  lazy
    {
      cs_name = "sat-graph-verifier";
      cs_arbiter = arb Candidates.sat_graph_verifier;
      cs_universes = Some (fun g _ids -> [ Candidates.sat_graph_universe g ]);
    }

let three_col_spec =
  lazy
    {
      cs_name = "3-color-verifier";
      cs_arbiter = arb (Candidates.color_verifier 3);
      cs_universes = Some (fun _g _ids -> [ Candidates.color_universe 3 ]);
    }

let two_factor_spec =
  lazy
    {
      cs_name = "2-factor-verifier";
      cs_arbiter = arb Candidates.two_factor_verifier;
      cs_universes = Some (fun g ids -> [ Candidates.two_factor_universe g ids ]);
    }

let cycle_one_unselected n =
  G.with_labels (Gen.cycle n) (Array.init n (fun i -> if i = 0 then "0" else "1"))

(* SAT-GRAPH probe instances: a satisfiable pair and a pair forced into
   contradiction through the shared variable *)
let sat_path () = BG.make (Gen.path 2) [| BF.Var "x"; BF.disj [ BF.Var "x"; BF.Var "y" ] |]
let unsat_path () = BG.make (Gen.path 2) [| BF.Var "x"; BF.Not (BF.Var "x") |]

(* the 3SAT-GRAPH probe is itself a reduction image: Tseytin of a
   one-node SAT-GRAPH (kept single-node so the colouring gadget's ball
   tables stay inside LPH_SAT_BUDGET) *)
let three_sat_single () =
  let g = BG.make (Gen.path 1) [| BF.Var "x" |] in
  Cluster.apply Lph_reductions.Three_col_red.to_3sat g ~ids:(Ids.make_global g)

let builtin_reductions =
  lazy
    [
      {
        cr_name = "all-selected<=eulerian";
        cr_source = Lazy.force all_selected_spec;
        cr_target = Lazy.force eulerian_spec;
        cr_via = Lph_reductions.Eulerian_red.reduction;
        cr_transfer = Fun.id;
        cr_transfer_doc =
          "both sides are level-0 deciders: no certificates on either side, budgets transfer \
           unchanged";
        cr_instances =
          [ ("C4-selected", Gen.cycle 4); ("C4-unselected", cycle_one_unselected 4) ];
      };
      {
        cr_name = "eulerian<=all-selected";
        cr_source = Lazy.force eulerian_spec;
        cr_target = Lazy.force all_selected_spec;
        cr_via =
          Lph_reductions.To_all_selected.reduction ~name:"eulerian-to-all-selected" ~radius:1
            ~decide:(fun ctx _ball -> ctx.LA.degree mod 2 = 0);
        cr_transfer = Fun.id;
        cr_transfer_doc =
          "Remark 14 relabelling: the image carries the verdict in its labels, certificates stay \
           empty on both sides";
        cr_instances = [ ("C4", Gen.cycle 4); ("S4", Gen.star 4) ];
      };
      {
        cr_name = "sat-graph<=3sat-graph";
        cr_source = Lazy.force sat_graph_spec;
        cr_target = Lazy.force sat_graph_spec;
        cr_via = Lph_reductions.Three_col_red.to_3sat;
        cr_transfer = Fun.id;
        cr_transfer_doc =
          "per-node Tseytin keeps every source variable in the same node's clause set, so the \
           image's per-node valuation width dominates the source's";
        cr_instances = [ ("P2-sat", sat_path ()); ("P2-unsat", unsat_path ()) ];
      };
      {
        cr_name = "3sat-graph<=3-colorable";
        cr_source = Lazy.force sat_graph_spec;
        cr_target = Lazy.force three_col_spec;
        cr_via = Lph_reductions.Three_col_red.to_three_col;
        cr_transfer = (fun b -> 16 * (b + 1));
        cr_transfer_doc =
          "a node's valuation is read off the colours of its literal triangles: at most 16 \
           palette-relative colour certificates of at most b+1 bits each reconstruct one node's \
           assignment";
        cr_instances = [ ("3sat(x)", three_sat_single ()) ];
      };
      {
        cr_name = "all-selected<=hamiltonian";
        cr_source = Lazy.force all_selected_spec;
        cr_target = Lazy.force two_factor_spec;
        cr_via = Lph_reductions.Hamiltonian_red.reduction;
        cr_transfer = (fun b -> 8 * (b + 1));
        cr_transfer_doc =
          "a 2-factor certificate names two neighbour identifiers per image node; the source is a \
           level-0 decider, so any non-negative transfer is an upper bound — 8(b+1) also covers \
           re-certifying the source's selection bit from the port gadget's cycle structure";
        cr_instances =
          [ ("C3-selected", Gen.cycle 3); ("C3-unselected", cycle_one_unselected 3) ];
      };
    ]

let builtin () = Lazy.force builtin_reductions
