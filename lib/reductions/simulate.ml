module LA = Lph_machine.Local_algo
module Gather = Lph_machine.Gather
module C = Lph_util.Codec

let hosted_certs_codec : (string * string) list C.t = C.list (C.pair C.string C.string)

let hosted_identifier ~owner ~local = C.encode_bits (C.pair C.string C.string) (owner, local)

(* wire format of one real message during simulation: the payloads of
   all simulated messages crossing that original edge.

   The paper's protocol ships, per crossing, (source local name,
   destination local name, payload bit string). Under the packed wire
   mode the payload's bit-accounting length travels alongside its
   (shorter) packed bytes so the receiver can reconstruct the simulated
   message's cost; the real message itself is costed at the bit-string
   length of the paper's format, computed arithmetically below. *)
let crossing_codec = C.list (C.triple C.string C.string C.string)
(* (source local name in the sender's cluster,
    destination local name in the receiver's cluster,
    payload) *)

let packed_crossing_codec : ((string * string) * (int * string)) list C.t =
  C.list (C.pair (C.pair C.string C.string) (C.pair C.int C.string))
(* ((source local, destination local), (payload cost, payload wire)) *)

(* Bit-string length of [crossing_codec] applied to payloads of the
   given costs: 8x the packed byte length, field by field
   (list = count + items, string = length prefix + bytes). *)
let crossing_cost crossings =
  let slen s = C.int_length (String.length s) + String.length s in
  8
  * List.fold_left
      (fun acc (src, dst, (m : LA.msg)) ->
        acc + slen src + slen dst + C.int_length m.LA.cost + m.LA.cost)
      (C.int_length (List.length crossings))
      crossings

type nbr_kind = Internal of int | Remote of int * string
(* Internal i: the i-th hosted node of the same cluster.
   Remote (vi, rlocal): node [rlocal] in the cluster of the vi-th real
   neighbour (identifier order). *)

type hosted = {
  local : string;
  nbrs : (string * nbr_kind) array; (* (gid, kind), sorted by gid *)
  mutable islots : int array;
      (* for [Internal j] neighbours: our slot in the outbox of hosted
         node [j] (precomputed at build time); -1 elsewhere *)
  run : int -> LA.msg list -> LA.msg list * bool;
  output : unit -> string;
  mutable finished : bool;
  mutable out : LA.msg array; (* outbox of the previous simulated round *)
}

type sim = {
  hosted : hosted array;
  real_neighbours : string array; (* identifiers, sorted *)
  start_round : int; (* first simulated round = start_round + 1 *)
  mutable verdict : string option;
}

type phase = Gathering of Gather.gather_state | Simulating of sim | Finished of string

type state = { mutable phase : phase }

let make_runner (LA.Packed inner) ctx_inner =
  let st = ref (inner.LA.init ctx_inner) in
  let run round inbox =
    let s, out, fin = inner.LA.round ctx_inner round !st ~inbox in
    st := s;
    (out, fin)
  in
  let output () = inner.LA.output !st in
  (run, output)

let build_sim reduction ~inner ~(ctx : LA.ctx) ~round ball =
  let cluster = reduction.Cluster.compute ctx ball in
  let real_neighbours =
    Array.of_list
      (List.sort Lph_graph.Identifiers.compare_id
         (List.filter_map
            (fun e -> if e.Gather.dist = 1 then Some e.Gather.ident else None)
            ball.Gather.entries))
  in
  let real_index_tbl = Hashtbl.create 16 in
  Array.iteri (fun i w -> Hashtbl.replace real_index_tbl w i) real_neighbours;
  let real_index ident =
    match Hashtbl.find_opt real_index_tbl ident with
    | Some i -> i
    | None -> Lph_util.Error.protocol_error ~what:"Simulate" "boundary edge to a non-neighbour"
  in
  let index_of_local = Hashtbl.create 16 in
  List.iteri (fun i (local, _) -> Hashtbl.replace index_of_local local i) cluster.Cluster.nodes;
  (* adjacency of each hosted node in the transformed graph *)
  let adjacency = Array.make (List.length cluster.Cluster.nodes) [] in
  let add i entry = adjacency.(i) <- entry :: adjacency.(i) in
  List.iter
    (fun (a, b) ->
      let ia = Hashtbl.find index_of_local a and ib = Hashtbl.find index_of_local b in
      add ia (hosted_identifier ~owner:ctx.LA.ident ~local:b, Internal ib);
      add ib (hosted_identifier ~owner:ctx.LA.ident ~local:a, Internal ia))
    cluster.Cluster.internal_edges;
  List.iter
    (fun (a, w, rlocal) ->
      let ia = Hashtbl.find index_of_local a in
      add ia (hosted_identifier ~owner:w ~local:rlocal, Remote (real_index w, rlocal)))
    cluster.Cluster.boundary_edges;
  (* hosted certificates, one (local name -> certificate) table per
     level; first binding wins, matching [List.assoc_opt] *)
  let cert_tables =
    List.map
      (fun cert ->
        let tbl = Hashtbl.create 16 in
        (try
           List.iter
             (fun (local, c) -> if not (Hashtbl.mem tbl local) then Hashtbl.add tbl local c)
             (C.decode_bits hosted_certs_codec cert)
         with Lph_util.Error.Error (Lph_util.Error.Decode_error _) -> ());
        tbl)
      ctx.LA.certs
  in
  let hosted =
    Array.of_list
      (List.mapi
         (fun i (local, label) ->
           let nbrs =
             Array.of_list
               (List.sort (fun (g1, _) (g2, _) -> compare g1 g2) adjacency.(i))
           in
           let certs =
             List.map
               (fun tbl -> match Hashtbl.find_opt tbl local with Some c -> c | None -> "")
               cert_tables
           in
           let ctx_inner =
             {
               LA.label;
               ident = hosted_identifier ~owner:ctx.LA.ident ~local;
               certs;
               cert_list = Lph_util.Bitstring.join_hash certs;
               degree = Array.length nbrs;
               charge = ctx.LA.charge;
             }
           in
           let run, output = make_runner inner ctx_inner in
           { local; nbrs; islots = [||]; run; output; finished = false; out = [||] })
         cluster.Cluster.nodes)
  in
  (* second pass: resolve, once, the slot each internal message is read
     from — the position of this node's gid in the sender's neighbour
     ordering — instead of scanning the sender's neighbours every round *)
  let slot_tables =
    Array.map
      (fun h ->
        let tbl = Hashtbl.create (Array.length h.nbrs) in
        Array.iteri (fun s (gid, _) -> if not (Hashtbl.mem tbl gid) then Hashtbl.add tbl gid s) h.nbrs;
        tbl)
      hosted
  in
  Array.iter
    (fun h ->
      let gid = hosted_identifier ~owner:ctx.LA.ident ~local:h.local in
      h.islots <-
        Array.map
          (fun (_, kind) ->
            match kind with
            | Remote _ -> -1
            | Internal j -> (
                match Hashtbl.find_opt slot_tables.(j) gid with Some s -> s | None -> -1))
          h.nbrs)
    hosted;
  { hosted; real_neighbours; start_round = round; verdict = None }

let sim_round sim ~(ctx : LA.ctx) ~round ~inbox ~sim_rounds =
  let s = round - sim.start_round in
  (* incoming simulated messages, keyed by (real neighbour index,
     source local, destination local) *)
  let deliveries = Hashtbl.create 32 in
  List.iteri
    (fun vi (msg : LA.msg) ->
      if msg.LA.wire <> "" then begin
        ctx.LA.charge msg.LA.cost;
        match C.wire_mode () with
        | C.Bits -> (
            match C.decode_bits crossing_codec msg.LA.wire with
            | crossings ->
                List.iter
                  (fun (src, dst, payload) ->
                    Hashtbl.replace deliveries (vi, src, dst)
                      { LA.wire = payload; cost = String.length payload })
                  crossings
            | exception Lph_util.Error.Error (Lph_util.Error.Decode_error _) -> ())
        | C.Packed -> (
            match C.decode packed_crossing_codec msg.LA.wire with
            | crossings ->
                List.iter
                  (fun ((src, dst), (cost, wire)) ->
                    Hashtbl.replace deliveries (vi, src, dst) { LA.wire; cost })
                  crossings
            | exception Lph_util.Error.Error (Lph_util.Error.Decode_error _) -> ())
      end)
    inbox;
  (* run one simulated round at each hosted node; internal messages are
     read from a snapshot of the previous round's outboxes *)
  let prev_out = Array.map (fun h -> h.out) sim.hosted in
  let msg_at out slot = if slot >= 0 && slot < Array.length out then out.(slot) else LA.no_msg in
  Array.iter
    (fun h ->
      if not h.finished then begin
        let inbox_h =
          List.init (Array.length h.nbrs) (fun i ->
              match snd h.nbrs.(i) with
              | Internal j -> msg_at prev_out.(j) h.islots.(i)
              | Remote (vi, rlocal) -> (
                  match Hashtbl.find_opt deliveries (vi, rlocal, h.local) with
                  | Some p -> p
                  | None -> LA.no_msg))
        in
        let out, fin = h.run s inbox_h in
        let d = Array.length h.nbrs in
        if List.length out > d then
          invalid_arg
            (Printf.sprintf "Simulate: inner algorithm emits %d messages at hosted node %s of degree %d"
               (List.length out) h.local d);
        let out_arr = Array.make d LA.no_msg in
        List.iteri (fun i m -> out_arr.(i) <- m) out;
        h.out <- out_arr;
        h.finished <- fin
      end
      else h.out <- [||])
    sim.hosted;
  (* Internal delivery happens next round by reading [out]; build the
     real messages for the remote crossings now. *)
  let per_real = Array.make (Array.length sim.real_neighbours) [] in
  Array.iter
    (fun h ->
      Array.iteri
        (fun i (_, kind) ->
          match kind with
          | Internal _ -> ()
          | Remote (vi, rlocal) ->
              let payload = msg_at h.out i in
              per_real.(vi) <- (h.local, rlocal, payload) :: per_real.(vi))
        h.nbrs)
    sim.hosted;
  let out =
    Array.to_list
      (Array.map
         (fun crossings ->
           if crossings = [] then LA.no_msg
           else begin
             let crossings = List.rev crossings in
             let cost = crossing_cost crossings in
             let wire =
               match C.wire_mode () with
               | C.Bits ->
                   C.encode_bits crossing_codec
                     (List.map (fun (src, dst, (m : LA.msg)) -> (src, dst, m.LA.wire)) crossings)
               | C.Packed ->
                   C.encode packed_crossing_codec
                     (List.map
                        (fun (src, dst, (m : LA.msg)) -> ((src, dst), (m.LA.cost, m.LA.wire)))
                        crossings)
             in
             { LA.wire; cost }
           end)
         per_real)
  in
  List.iter (fun (m : LA.msg) -> ctx.LA.charge m.LA.cost) out;
  let done_ = Array.for_all (fun h -> h.finished) sim.hosted || s >= sim_rounds in
  if done_ then begin
    let verdict = if Array.for_all (fun h -> h.output () = "1") sim.hosted then "1" else "0" in
    sim.verdict <- Some verdict
  end;
  (out, done_)

let through_reduction reduction ~inner ?(sim_rounds = 64) () =
  let name = Printf.sprintf "%s>>%s" reduction.Cluster.name (LA.name inner) in
  LA.Packed
    {
      LA.name;
      levels = LA.levels inner;
      (* A hosted node's radius-r view of the transformed graph maps
         back to source owners within distance r (every transformed
         edge crosses at most one source edge), and each owner's
         cluster is a function of its gather-radius ball — so the
         composition verifies within gather_radius + r of the source
         graph. Conservative: the semantic radius can be smaller
         (e.g. a verdict that ignores most of the cluster). *)
      radius =
        Option.map
          (fun r -> reduction.Cluster.gather_radius + r)
          (LA.radius inner);
      init = (fun ctx -> { phase = Gathering (Gather.init_gather ctx) });
      round =
        (fun ctx round st ~inbox ->
          match st.phase with
          | Gathering gs ->
              let out, ball_done =
                Gather.step_gather ~radius:reduction.Cluster.gather_radius ctx round gs ~inbox
              in
              if ball_done then begin
                let sim =
                  build_sim reduction ~inner ~ctx ~round (Gather.completed_ball gs)
                in
                st.phase <- Simulating sim
              end;
              (st, out, false)
          | Simulating sim ->
              let out, done_ = sim_round sim ~ctx ~round ~inbox ~sim_rounds in
              if done_ then
                st.phase <- Finished (match sim.verdict with Some v -> v | None -> "0");
              (st, out, done_)
          | Finished _ -> (st, [], true));
      output =
        (fun st -> match st.phase with Finished v -> v | Gathering _ | Simulating _ -> "0");
      view = None;
    }

let lift_cert_assignment ~owners ~card ~levels certs' =
  (* group the transformed-graph nodes by owner once, splitting each
     certificate list a single time, instead of rescanning [owners] for
     every (original node, level) pair *)
  let by_owner = Array.make card [] in
  Array.iteri
    (fun j (owner, local) ->
      if owner >= 0 && owner < card then
        let parts = Array.of_list (Lph_graph.Certificates.split_list ~levels certs'.(j)) in
        by_owner.(owner) <- (local, parts) :: by_owner.(owner))
    owners;
  let by_owner = Array.map List.rev by_owner in
  Array.init card (fun u ->
      let table level =
        C.encode_bits hosted_certs_codec
          (List.map (fun (local, parts) -> (local, parts.(level))) by_owner.(u))
      in
      Lph_util.Bitstring.join_hash (List.init levels table))
