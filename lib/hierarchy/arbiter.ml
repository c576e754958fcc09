module G = Lph_graph.Labeled_graph
module N = Lph_graph.Neighborhood
module Certs = Lph_graph.Certificates

type locality = Opaque | Ball of int

type t = {
  name : string;
  levels : int;
  id_radius : int;
  cert_bound : Certs.bound option;
  locality : locality;
  verdicts :
    (G.t -> ids:Lph_graph.Identifiers.t -> certs:Certs.t list -> bool array) option;
  checker :
    G.t -> ids:Lph_graph.Identifiers.t -> (int -> certs:Certs.t list -> bool) option;
  accepts : G.t -> ids:Lph_graph.Identifiers.t -> certs:Certs.t list -> bool;
}

(* a one-element list is its own certificate-list assignment
   ([join_hash [x] = x]), so it is passed through without a copy *)
let join_certs g certs =
  match certs with [] -> Certs.trivial g | [ k ] -> k | _ -> Certs.list_assignment certs

let opaque_checker _g ~ids:_ = None

(* The ball checker evaluates the arbiter on the induced neighbourhood
   [N_{max r 1}(u)] rather than the whole graph. Radius [max r 1] (not
   [r]) so that a radius-0 verifier still sees the centre's true degree;
   its verdict only reads the centre's own label/identifier/certificates,
   which the induced subgraph preserves. Certificates of nodes beyond
   distance [r] from the centre cannot influence the verdict of a
   radius-[r] verifier, so they are canonicalised to [""] — this is what
   lets the solver treat two partial assignments that agree on the ball
   as equivalent.

   The checker closure carries a cache shared by every solve against
   this arbiter: neighbourhood extractions are reused across calls on
   the same (graph, identifier assignment), and ball verdicts are
   memoised on the ball's certificate contents, so repeated game solves
   (sweeps, benchmarks) pay for each distinct ball configuration once.

   Each hood also keeps [stage subgraph ~ids centre], the centre's
   staged verdict: for {!of_local_algo} it is the centre's
   {!Lph_machine.Runner.stage}d view of the hood, so a table row pays
   only for the final step on its certificates (or for the rounds, when
   the algorithm has no view). *)

type hood = {
  ind : N.induced;
  run : certs:Certs.t list -> bool;  (** the centre's staged verdict *)
  keep : bool array;  (** subgraph node within distance r of the centre *)
  members : int list;  (** ball(u, r), original node indices *)
}

type checker_state = {
  hoods : hood option array;
  memo : (int * string, bool) Hashtbl.t;  (** (centre, ball certificate signature) *)
}

let make_checker ~locality ~stage =
  match locality with
  | Opaque -> opaque_checker
  | Ball r ->
      let eval_radius = max r 1 in
      let lock = Mutex.create () in
      let states : (int * string array, checker_state) Hashtbl.t = Hashtbl.create 8 in
      fun g ~ids ->
        let n = G.card g in
        let state =
          Mutex.protect lock (fun () ->
              let key = (G.uid g, ids) in
              match Hashtbl.find_opt states key with
              | Some st -> st
              | None ->
                  if Hashtbl.length states > 64 then Hashtbl.reset states;
                  let st = { hoods = Array.make n None; memo = Hashtbl.create 256 } in
                  Hashtbl.add states key st;
                  st)
        in
        (* lazily built per node; racing domains recompute identical
           values and an option write is a single pointer store, so
           sharing the array without a lock is benign *)
        let hood u =
          match state.hoods.(u) with
          | Some h -> h
          | None ->
              let ind = N.r_neighbourhood g ~radius:eval_radius u in
              let m = G.card ind.N.subgraph in
              let sub_ids = Array.init m (fun i -> ids.(ind.N.of_sub i)) in
              (* distances from the truncated BFS, not a full row: the
                 whole hood must stay O(ball) or solvers iterating it
                 over every node degrade to O(n^2) *)
              let dist_tbl = Hashtbl.create 16 in
              List.iter
                (fun (v, d) -> Hashtbl.replace dist_tbl v d)
                (N.ball_distances g ~radius:eval_radius u);
              let within i =
                match Hashtbl.find_opt dist_tbl (ind.N.of_sub i) with
                | Some d -> d <= r
                | None -> false
              in
              let keep = Array.init m within in
              let members = N.ball g ~radius:r u in
              let centre =
                match ind.N.to_sub u with Some c -> c | None -> assert false
              in
              let h = { ind; run = stage ind.N.subgraph ~ids:sub_ids centre; keep; members } in
              state.hoods.(u) <- Some h;
              h
        in
        Some
          (fun u ~certs ->
            let h = hood u in
            let signature =
              String.concat "\x02"
                (List.map
                   (fun (c : Certs.t) ->
                     String.concat "\x01" (List.map (fun v -> c.(v)) h.members))
                   certs)
            in
            let key = (u, signature) in
            let cached = Mutex.protect lock (fun () -> Hashtbl.find_opt state.memo key) in
            match cached with
            | Some b -> b
            | None ->
                (* the hood's certificate-list assignment, joined here
                   once per node and passed as its own one-level list *)
                let join = Lph_util.Bitstring.join_hash in
                let outside = join (List.map (fun _ -> "") certs) in
                let hood_list =
                  Array.init (Array.length h.keep) (fun i ->
                      if h.keep.(i) then
                        join (List.map (fun (c : Certs.t) -> c.(h.ind.N.of_sub i)) certs)
                      else outside)
                in
                let b = h.run ~certs:[ hood_list ] in
                Mutex.protect lock (fun () ->
                    if Hashtbl.length state.memo > 200_000 then Hashtbl.reset state.memo;
                    Hashtbl.replace state.memo key b);
                b)

let of_local_algo ~id_radius ?cert_bound packed =
  let locality =
    match Lph_machine.Local_algo.radius packed with
    | Some r -> Ball r
    | None -> Opaque
  in
  (* staged: the runner is prepared once per (graph, ids) and each
     certificate list only re-runs the rounds *)
  let verdicts g ~ids =
    let prepared = Lph_machine.Runner.prepare packed g ~ids in
    fun ~certs ->
      Array.map (String.equal "1")
        (Lph_machine.Runner.outputs prepared ~cert_list:(join_certs g certs) ())
  in
  let stage g ~ids u =
    let centre = Lph_machine.Runner.stage (Lph_machine.Runner.prepare packed g ~ids) ~node:u in
    fun ~certs -> String.equal "1" (centre ~cert_list:(join_certs g certs))
  in
  {
    name = Lph_machine.Local_algo.name packed;
    levels = Lph_machine.Local_algo.levels packed;
    id_radius;
    cert_bound;
    locality;
    verdicts = Some verdicts;
    checker = make_checker ~locality ~stage;
    accepts =
      (fun g ~ids ~certs ->
        Lph_machine.Runner.decides packed g ~ids ~cert_list:(join_certs g certs) ());
  }

let of_turing ~levels ~id_radius ?cert_bound ?verify_radius (m : Lph_machine.Turing.t) =
  let locality = match verify_radius with Some r -> Ball r | None -> Opaque in
  let verdicts g ~ids ~certs =
    let result = Lph_machine.Turing.run m g ~ids ~certs:(join_certs g certs) () in
    Array.init (G.card g) (fun u -> Lph_machine.Turing.verdict result u = "1")
  in
  {
    name = m.Lph_machine.Turing.name;
    levels;
    id_radius;
    cert_bound;
    locality;
    verdicts = Some verdicts;
    checker = make_checker ~locality ~stage:(fun g ~ids u ~certs -> (verdicts g ~ids ~certs).(u));
    accepts =
      (fun g ~ids ~certs ->
        Lph_machine.Turing.accepts
          (Lph_machine.Turing.run m g ~ids ~certs:(join_certs g certs) ()));
  }

let decider_accepts t g ~ids =
  if t.levels <> 0 then invalid_arg "Arbiter.decider_accepts: arbiter expects certificates";
  t.accepts g ~ids ~certs:[]

let ball_checker t g ~ids = t.checker g ~ids
