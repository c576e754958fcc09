module G = Lph_graph.Labeled_graph
module LA = Lph_machine.Local_algo
module Gather = Lph_machine.Gather
module B = Lph_util.Bitstring

let all_selected_decider =
  LA.pure_decider ~name:"all-selected-decider" ~levels:0 (fun ctx -> ctx.LA.label = "1")

let eulerian_decider =
  LA.pure_decider ~name:"eulerian-decider" ~levels:0 (fun ctx -> ctx.LA.degree mod 2 = 0)

let ball_neighbours ball =
  List.filter (fun e -> e.Gather.dist = 1) ball.Gather.entries

let ball_self ball =
  match List.find_opt (fun e -> e.Gather.dist = 0) ball.Gather.entries with
  | Some e -> e
  | None -> Lph_util.Error.protocol_error ~what:"Candidates" "ball without centre entry"

let constant_label_decider =
  Gather.algo ~name:"constant-label-decider" ~radius:1 ~levels:0 ~decide:(fun ctx ball ->
      ctx.LA.charge (List.length ball.Gather.entries);
      List.for_all (fun e -> e.Gather.label = ctx.LA.label) (ball_neighbours ball))

let local_two_col_decider ~radius =
  Gather.algo ~name:(Printf.sprintf "local-2col-decider-r%d" radius) ~radius ~levels:0
    ~decide:(fun ctx ball ->
      let sub, _, _, _ = Gather.reconstruct ball in
      ctx.LA.charge (G.card sub + G.num_edges sub);
      Properties.two_colorable sub)

(* Certificates are bit strings; an empty certificate decodes to 0. A
   certificate with a non-bit character, or whose value does not fit an
   [int], decodes to [max_int], which every verifier below range-checks
   away: a malformed certificate is rejected, never raised on. *)
let cert_value e =
  String.fold_left
    (fun acc c ->
      match c with
      | ('0' | '1') when acc <= (max_int - 1) / 2 -> (2 * acc) + Char.code c - Char.code '0'
      | _ -> max_int)
    0
    (List.hd (B.split_hash e.Gather.cert))

let color_verifier k =
  Gather.algo ~name:(Printf.sprintf "%d-color-verifier" k) ~radius:1 ~levels:1
    ~decide:(fun ctx ball ->
      ctx.LA.charge (List.length ball.Gather.entries * k);
      let mine = cert_value (ball_self ball) in
      mine < k
      && List.for_all
           (fun e ->
             let v = cert_value e in
             v <> mine && v < k)
           (ball_neighbours ball))

let encodings bound = List.init bound B.of_int

let color_universe k _u = encodings k

let counter_universe ~bound _u = encodings bound

let exact_counter_verifier ~cap =
  Gather.algo ~name:(Printf.sprintf "exact-counter-verifier-%d" cap) ~radius:1 ~levels:1
    ~decide:(fun ctx ball ->
      ctx.LA.charge (List.length ball.Gather.entries);
      let mine = cert_value (ball_self ball) in
      mine <= cap
      &&
      if ctx.LA.label <> "1" then mine = 0
      else mine > 0 && List.exists (fun e -> cert_value e = mine - 1) (ball_neighbours ball))

let mod_counter_verifier ~period =
  Gather.algo ~name:(Printf.sprintf "mod-counter-verifier-%d" period) ~radius:1 ~levels:1
    ~decide:(fun ctx ball ->
      ctx.LA.charge (List.length ball.Gather.entries);
      let mine = cert_value (ball_self ball) in
      mine < period
      &&
      if ctx.LA.label <> "1" then mine = 0
      else
        List.exists
          (fun e ->
            let v = cert_value e in
            v < period && (v + 1) mod period = mine)
          (ball_neighbours ball))

let honest_mod_certs ~period ~n = Array.init n (fun i -> B.of_int (i mod period))

(* ------------------------------------------------------------------ *)
(* A genuinely two-level colouring game: Eve claims a 2-colouring k1,
   Adam challenges with an arbitrary k2, and node u accepts iff k1 is
   proper at u AND (k2 is improper at u OR k2 is a local relabelling
   of k1, i.e. k1 xor k2 is constant on u's ball). With two colours,
   any two colourings proper at the same node already agree up to a
   flip there, so the Σ2 value coincides with 2-COLORABLE — Adam's
   block does no semantic work, but an enumerating engine must still
   sweep all 2^n challenges behind every claim, while the CEGAR engine
   answers the whole ∀-block with one UNSAT call. That asymmetry makes
   this family the scaling probe for the dueling-solver engine. *)

let robust_two_col_verifier =
  Gather.algo ~name:"robust-2col-verifier" ~radius:1 ~levels:2 ~decide:(fun ctx ball ->
      ctx.LA.charge (2 * List.length ball.Gather.entries);
      (* each entry's certificate list is split once, into its two
         colours *)
      let colours e =
        let parse = function
          | "0" -> Some 0
          | "1" -> Some 1
          | _ -> None (* out of range or malformed: never a proper colour *)
        in
        match Lph_graph.Certificates.split_list ~levels:2 e.Gather.cert with
        | [ k1; k2 ] -> [| parse k1; parse k2 |]
        | _ -> [| None; None |]
      in
      let self = colours (ball_self ball) in
      let nbrs = List.map colours (ball_neighbours ball) in
      let proper level =
        match self.(level) with
        | None -> false
        | Some mine ->
            List.for_all (fun c -> match c.(level) with Some v -> v <> mine | None -> false) nbrs
      in
      let aligned () =
        match self with
        | [| Some c1; Some c2 |] ->
            List.for_all
              (fun c ->
                match c with
                | [| Some c1'; Some c2' |] -> c1 lxor c2 = c1' lxor c2'
                | _ -> false)
              nbrs
        | _ -> false
      in
      proper 0 && ((not (proper 1)) || aligned ()))

(* ------------------------------------------------------------------ *)
(* SAT-GRAPH (Theorem 19): labels encode Boolean formulas, the level-1
   certificate claims a valuation of the node's own variables — one bit
   per variable, in sorted variable order. The verifier re-checks what
   {!Lph_boolean.Boolean_graph.checkable_locally} states globally:
   every formula satisfied, adjacent valuations agreeing on shared
   variables. Malformed labels and forged certificates must REJECT,
   never crash — the soundness fuzzer attacks exactly this path. *)

module BF = Lph_boolean.Bool_formula

let sat_graph_formula label =
  match BF.of_label label with
  | f -> Some (f, BF.vars f)
  | exception Lph_util.Error.Error _ -> None

(* The valuation claimed by a certificate: exactly one '0'/'1' per
   variable, or [None] if the certificate is malformed. *)
let sat_graph_valuation vars cert =
  let cert = match Lph_util.Bitstring.split_hash cert with c :: _ -> c | [] -> "" in
  if String.length cert <> List.length vars || not (String.for_all (fun c -> c = '0' || c = '1') cert)
  then None
  else begin
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i v -> Hashtbl.replace tbl v (cert.[i] = '1')) vars;
    Some tbl
  end

let sat_graph_verifier =
  Gather.algo ~name:"sat-graph-verifier" ~radius:1 ~levels:1 ~decide:(fun ctx ball ->
      let self = ball_self ball in
      ctx.LA.charge (String.length self.Gather.label + String.length self.Gather.cert);
      match sat_graph_formula self.Gather.label with
      | None -> false
      | Some (f, vs) -> (
          match sat_graph_valuation vs self.Gather.cert with
          | None -> false
          | Some mine ->
              BF.eval (Hashtbl.find mine) f
              && List.for_all
                   (fun e ->
                     ctx.LA.charge (String.length e.Gather.label + String.length e.Gather.cert);
                     match sat_graph_formula e.Gather.label with
                     | None -> false
                     | Some (_, nvs) -> (
                         match sat_graph_valuation nvs e.Gather.cert with
                         | None -> false
                         | Some theirs ->
                             List.for_all
                               (fun v ->
                                 match Hashtbl.find_opt theirs v with
                                 | None -> true
                                 | Some b -> Hashtbl.find mine v = b)
                               vs))
                   (ball_neighbours ball)))

(* ------------------------------------------------------------------ *)
(* 2-FACTOR (spanning disjoint union of cycles): the level-1
   certificate at u names two distinct neighbours of u by identifier,
   as the concatenation of their two equal-width identifiers (lower
   one first). u accepts iff both halves are identifiers of genuine
   neighbours and each named neighbour's certificate names u back —
   symmetric selection of exactly two incident edges per node is a
   2-regular spanning subgraph. This is the certificate side of the
   HAMILTONIAN reduction targets: a Hamiltonian cycle is a 2-factor,
   and the pendant gadgets the reduction attaches to unselected nodes
   kill every 2-factor. Completeness needs equal-width identifiers
   (e.g. {!Lph_graph.Identifiers.make_global}); under ragged ones the
   fixed-midpoint parse only ever fails closed. *)

let two_factor_pair cert =
  let n = String.length cert in
  if n = 0 || n mod 2 = 1 then None
  else
    let a = String.sub cert 0 (n / 2) and b = String.sub cert (n / 2) (n / 2) in
    if a = b then None else Some (a, b)

let two_factor_verifier =
  Gather.algo ~name:"two-factor-verifier" ~radius:1 ~levels:1 ~decide:(fun ctx ball ->
      ctx.LA.charge (List.length ball.Gather.entries);
      let first_level c =
        match Lph_util.Bitstring.split_hash c with c :: _ -> c | [] -> ""
      in
      match two_factor_pair (first_level (ball_self ball).Gather.cert) with
      | None -> false
      | Some (a, b) ->
          let nbrs = ball_neighbours ball in
          let named id = List.find_opt (fun e -> e.Gather.ident = id) nbrs in
          let names_me e =
            match two_factor_pair (first_level e.Gather.cert) with
            | Some (a', b') -> a' = ctx.LA.ident || b' = ctx.LA.ident
            | None -> false
          in
          (match (named a, named b) with
          | Some ea, Some eb -> names_me ea && names_me eb
          | _ -> false))

let two_factor_universe g (ids : Lph_graph.Identifiers.t) u =
  let rec pairs = function
    | [] -> []
    | v :: rest -> List.map (fun w -> (v, w)) rest @ pairs rest
  in
  match pairs (List.sort_uniq compare (List.map (Array.get ids) (G.neighbours g u))) with
  | [] -> [ "0" ] (* degree < 2: no valid selection; a cert the verifier rejects *)
  | ps -> List.map (fun (a, b) -> a ^ b) ps

let sat_graph_universe g u =
  match sat_graph_formula (G.label g u) with
  | None -> [ "" ]
  | Some (_, vs) ->
      let k = List.length vs in
      List.init (1 lsl k) (fun v -> B.of_int_width ~width:k v)
