module G = Lph_graph.Labeled_graph
module Parallel = Lph_util.Parallel
module Error = Lph_util.Error
module Fault_plan = Lph_faults.Fault_plan

type stats = {
  rounds : int;
  charges : int array array;
  input_sizes : int array array;
  message_bytes : int array array;
}

type result = { output : G.t; stats : stats }

type divergence = { algo : string; rounds : int; reason : string }

exception Diverged of divergence

let () =
  Printexc.register_printer (function
    | Diverged d ->
        Some (Printf.sprintf "Runner.Diverged(%s after %d rounds: %s)" d.algo d.rounds d.reason)
    | _ -> None)

type fault_report = {
  faults : Error.fault list;
  error : Error.t option;
  diverged : divergence option;
  partial : result option;
}

type degraded_report = {
  survivors : int;
  crashed : int list;
  deg_result : result;
  deg_faults : Error.fault list;
}

type outcome = Completed of result | Degraded of degraded_report | Faulted of fault_report

(* The ambient plan is read from LPH_FAULTS once at start-up; with no
   plan installed the fault hook below is a single [match] on [None]
   per injection point — the "provably zero overhead" default. *)
let ambient_plan = ref (Fault_plan.of_env ())

let fault_plan () = !ambient_plan

let set_fault_plan p = ambient_plan := p

(* The certificate-independent half of a run, built once by [prepare]
   and shared by every execution on the same graph and identifiers. *)
type 'st core = {
  algo : 'st Local_algo.t;
  graph : G.t;
  ids : Lph_graph.Identifiers.t;
  labels : string array;
  degrees : int array;
  neighbours : int array array;  (* per node, sorted by identifier *)
  slot_of : int array array;
      (* slot_of.(u).(i): position of u in the neighbour ordering of its
         i-th neighbour *)
  team : int;  (* domains for the compute phase when no plan is active; 1 = sequential *)
}

type prepared = Prepared : 'st core -> prepared

type 'st node_exec = {
  mutable state : 'st;
  mutable finished : bool;
  ctx : Local_algo.ctx;
  charge_cell : int ref;
}

(* The per-round compute phase runs on the domain team only once the
   instance is big enough to amortize the barrier; below the threshold
   (or under LPH_JOBS=1) execution is plain sequential iteration. *)
let parallel_threshold () =
  match Sys.getenv_opt "LPH_PAR_MIN" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 1 -> v
      | _ -> invalid_arg "Runner: LPH_PAR_MIN must be a positive integer")
  | None -> 32

let prepare_core algo g ~ids =
  let n = G.card g in
  let sorted_neighbours u =
    let ns =
      List.sort (fun a b -> Lph_graph.Identifiers.compare_id ids.(a) ids.(b)) (G.neighbours g u)
    in
    let rec check = function
      | a :: (b :: _ as rest) ->
          if ids.(a) = ids.(b) then
            Error.protocol_error ~what:"Runner.run" ~node:u
              "neighbours of node %d share identifier %s" u ids.(a);
          check rest
      | _ -> ()
    in
    check ns;
    Array.of_list ns
  in
  let neighbours = Array.init n sorted_neighbours in
  let slot_of =
    Array.init n (fun u ->
        Array.map
          (fun v ->
            let s = ref (-1) in
            Array.iteri (fun j w -> if w = u then s := j) neighbours.(v);
            assert (!s >= 0);
            !s)
          neighbours.(u))
  in
  (* the team policy is read here, once per preparation: each read is a
     [getenv] scan that costs a hood-sized run a sizeable share of its
     time, and the job count never changes a result *)
  let jobs = min (Parallel.jobs ()) n in
  let team = if jobs > 1 && n >= parallel_threshold () then jobs else 1 in
  {
    algo;
    graph = g;
    ids;
    labels = Array.init n (G.label g);
    degrees = Array.init n (G.degree g);
    neighbours;
    slot_of;
    team;
  }

let prepare (Local_algo.Packed algo) g ~ids = Prepared (prepare_core algo g ~ids)

(* The round loop: the certificate-dependent half of a run. Returns the
   per-node final states and, when [with_stats], the cost-model stats
   — callers that drop the stats skip their per-round rows. *)
let exec ?(round_limit = 1000) ~plan ~record ~with_stats c ~cert_list ~crash_at =
  let algo = c.algo in
  let n = Array.length c.labels in
  let nodes =
    Array.init n (fun u ->
        let charge_cell = ref 0 in
        let ctx =
          {
            Local_algo.label = c.labels.(u);
            ident = c.ids.(u);
            certs = Lph_graph.Certificates.split_list ~levels:algo.levels cert_list.(u);
            cert_list = cert_list.(u);
            degree = c.degrees.(u);
            charge = (fun k -> charge_cell := !charge_cell + max 0 k);
          }
        in
        { state = algo.init ctx; finished = false; ctx; charge_cell })
  in
  let pending = Array.map (fun ns -> Array.make (Array.length ns) Local_algo.no_msg) c.neighbours in
  let charges_log = ref [] and input_log = ref [] and msg_log = ref [] in
  let round = ref 0 in
  let stats_row () = if with_stats then Array.make n 0 else [||] in
  let run_rounds iter =
    while not (Array.for_all (fun ne -> ne.finished) nodes) do
      incr round;
      if !round > round_limit then
        raise (Diverged { algo = algo.name; rounds = round_limit; reason = "round limit exceeded" });
      let charges_r = stats_row () and input_r = stats_row () and msg_r = stats_row () in
      let outgoing = Array.make n [||] in
      (* crash-stop scheduled by the fault plan: the node goes silent
         before this round's compute phase and never finishes on its
         own. Decided (and recorded) here, outside [iter] — with a plan
         active execution is sequential, so [record] needs no lock. *)
      (match plan with
      | None -> ()
      | Some p ->
          for u = 0 to n - 1 do
            match crash_at.(u) with
            | Some r when r <= !round && not nodes.(u).finished ->
                nodes.(u).finished <- true;
                record (Fault_plan.crash_fault p ~round:!round ~node:u)
            | _ -> ()
          done);
      (* compute: embarrassingly parallel — every write below lands in
         node [u]'s own cells *)
      iter n (fun u ->
          let ne = nodes.(u) in
          let d = Array.length c.neighbours.(u) in
          if ne.finished then outgoing.(u) <- Array.make d Local_algo.no_msg
          else begin
            let inbox = Array.to_list pending.(u) in
            if with_stats then
              input_r.(u) <-
                List.fold_left (fun acc (m : Local_algo.msg) -> acc + m.Local_algo.cost + 1) 0 inbox
                + String.length ne.ctx.Local_algo.label
                + String.length ne.ctx.Local_algo.ident
                + (if !round = 1 then String.length cert_list.(u) else 0);
            (* round 1 keeps the charges accumulated by [init] *)
            if !round > 1 then ne.charge_cell := 0;
            let state, outbox, finished = algo.round ne.ctx !round ne.state ~inbox in
            ne.state <- state;
            ne.finished <- finished;
            if with_stats then charges_r.(u) <- !(ne.charge_cell);
            let k = List.length outbox in
            if k > d then
              Error.protocol_error ~what:"Runner.run" ~round:!round ~node:u
                "algorithm %s emits %d messages at node %d of degree %d" algo.name k u d;
            let out = Array.make d Local_algo.no_msg in
            List.iteri (fun i msg -> out.(i) <- msg) outbox;
            if with_stats then
              Array.iter
                (fun (m : Local_algo.msg) -> msg_r.(u) <- msg_r.(u) + m.Local_algo.cost)
                out;
            outgoing.(u) <- out
          end);
      (* over-budget charges injected after the compute phase, so the
         inflation is visible in this round's stats row *)
      (match plan with
      | None -> ()
      | Some p ->
          for u = 0 to n - 1 do
            match Fault_plan.overcharge p ~round:!round ~node:u with
            | Some (k, f) ->
                record f;
                if with_stats then charges_r.(u) <- charges_r.(u) + k
            | None -> ()
          done);
      (* deliver — the transport hook tampers each non-empty wire on its
         way into the receiver's slot. The hook is hoisted: a plan that
         cannot fire any wire fault delivers on the plan-free path, so
         the per-message cost of an installed-but-inert plan is one
         pattern match, same as no plan at all *)
      let wire_plan =
        match plan with Some p when Fault_plan.wire_active p -> Some p | _ -> None
      in
      for u = 0 to n - 1 do
        let ns = c.neighbours.(u) and out = outgoing.(u) and slots = c.slot_of.(u) in
        for i = 0 to Array.length ns - 1 do
          let v = ns.(i) in
          let m = out.(i) in
          let m =
            match wire_plan with
            | None -> m
            | Some p -> (
                match
                  Fault_plan.tamper_wire ~slot:i ~degree:(Array.length ns) p ~round:!round
                    ~src:u ~dst:v m.Local_algo.wire
                with
                | Some _, None -> m
                | Some w, Some f ->
                    record f;
                    { Local_algo.wire = w; cost = Lph_util.Codec.wire_bits w }
                | None, Some f ->
                    record f;
                    Local_algo.no_msg
                | None, None -> assert false)
          in
          pending.(v).(slots.(i)) <- m
        done
      done;
      if with_stats then begin
        charges_log := charges_r :: !charges_log;
        input_log := input_r :: !input_log;
        msg_log := msg_r :: !msg_log
      end
    done
  in
  (* with a fault plan active execution is forced sequential: fault
     recording stays lock-free and the injected schedule is the one the
     seed describes, independent of LPH_JOBS *)
  if plan = None && c.team > 1 then
    Parallel.with_team ~jobs:c.team (fun team -> run_rounds (Parallel.team_iter team))
  else
    run_rounds (fun n f ->
        for u = 0 to n - 1 do
          f u
        done);
  let states = Array.map (fun ne -> ne.state) nodes in
  let rev l = Array.of_list (List.rev l) in
  let stats =
    if with_stats then
      Some
        {
          rounds = !round;
          charges = rev !charges_log;
          input_sizes = rev !input_log;
          message_bytes = rev !msg_log;
        }
    else None
  in
  (states, stats)

(* One execution. The plan is resolved by the caller at every call, and
   its pre-round-1 tampering (identifiers, then certificates, then the
   crash schedule, in the order the fault log records them) happens
   here. Tampered identifiers re-sort the neighbourhoods, so a run under
   a plan is prepared afresh on them and [prepared] — the untampered
   preparation — is forced only when no plan is active. *)
let execute_with ?round_limit ~plan ~record ~with_stats algo g ~ids ~prepared ?cert_list () =
  let n = G.card g in
  let cert_list = match cert_list with Some c -> c | None -> Array.make n "" in
  let outputs (states, stats) = (Array.map algo.Local_algo.output states, stats) in
  match plan with
  | None ->
      outputs
        (exec ?round_limit ~plan ~record ~with_stats (Lazy.force prepared) ~cert_list
           ~crash_at:[||])
  | Some p ->
      let ids, f = Fault_plan.tamper_ids p ids in
      Option.iter record f;
      let cert_list =
        Array.mapi
          (fun u c ->
            let c', f = Fault_plan.tamper_cert p ~node:u c in
            Option.iter record f;
            c')
          cert_list
      in
      let crash_at = Array.init n (fun u -> Fault_plan.crash_round p ~node:u) in
      outputs
        (exec ?round_limit ~plan ~record ~with_stats (prepare_core algo g ~ids) ~cert_list
           ~crash_at)

let run_core ?round_limit ~plan ~record ~with_stats (Local_algo.Packed algo) g ~ids ?cert_list () =
  execute_with ?round_limit ~plan ~record ~with_stats algo g ~ids
    ~prepared:(lazy (prepare_core algo g ~ids))
    ?cert_list ()

let to_result g (outputs, stats) = { output = G.with_labels g outputs; stats = Option.get stats }

let ignore_fault (_ : Error.fault) = ()

let resolve_plan faults = match faults with Some _ as p -> p | None -> !ambient_plan

let run ?round_limit ?faults algo g ~ids ?cert_list () =
  to_result g
    (run_core ?round_limit ~plan:(resolve_plan faults) ~record:ignore_fault ~with_stats:true algo g
       ~ids ?cert_list ())

let execute ?round_limit ?faults (Prepared c) ?cert_list () =
  to_result c.graph
    (execute_with ?round_limit ~plan:(resolve_plan faults) ~record:ignore_fault ~with_stats:true
       c.algo c.graph ~ids:c.ids ~prepared:(Lazy.from_val c) ?cert_list ())

let outputs ?round_limit ?faults (Prepared c) ?cert_list () =
  fst
    (execute_with ?round_limit ~plan:(resolve_plan faults) ~record:ignore_fault ~with_stats:false
       c.algo c.graph ~ids:c.ids ~prepared:(Lazy.from_val c) ?cert_list ())

(* The staged view of one node. The flood runs once, plan-free, on
   per-node tags (hood index [i] is tagged [of_int i]); every later call
   without a plan fills the call's certificate lists into the node's
   gathered view and runs only its final step. A call under a plan runs
   the whole execution, since the plan may tamper with what the flood
   carries; it prepares afresh on the tampered identifiers, so the
   closure keeps the graph and identifiers but none of the prepared
   arrays. *)
let stage (Prepared c as p) ~node =
  match c.algo.Local_algo.view with
  | None -> fun ~cert_list -> (outputs p ~cert_list ()).(node)
  | Some v ->
      let algo = c.algo and graph = c.graph and ids = c.ids in
      let tags = Array.init (Array.length c.labels) Lph_util.Bitstring.of_int in
      let states, _ =
        exec ~plan:None ~record:ignore_fault ~with_stats:false
          { c with algo = { algo with round = v.Local_algo.flood } }
          ~cert_list:tags ~crash_at:[||]
      in
      let refill = v.Local_algo.refill states.(node) in
      let ctx =
        {
          Local_algo.label = c.labels.(node);
          ident = ids.(node);
          certs = [];
          cert_list = "";
          degree = c.degrees.(node);
          charge = ignore;
        }
      in
      fun ~cert_list ->
        match !ambient_plan with
        | Some _ as plan ->
            (fst
               (run_core ~plan ~record:ignore_fault ~with_stats:false (Local_algo.Packed algo) graph
                  ~ids ~cert_list ()))
              .(node)
        | None ->
            let own = cert_list.(node) in
            refill
              {
                ctx with
                certs = Lph_graph.Certificates.split_list ~levels:algo.levels own;
                cert_list = own;
              }
              ~cert_of:(fun tag -> cert_list.(Lph_util.Bitstring.to_int tag))

(* Quorum mode: a faulted run whose only fired faults are crash-stops
   of at most [quorum] nodes, and whose surviving nodes still computed
   exactly the labels of the fault-free twin run, degrades to
   [Degraded] — the survivors' verdict is sound. Costs one extra
   fault-free run, paid only when the crash pattern qualifies. *)
let degrade ?round_limit ~quorum algo g ~ids ?cert_list faults result =
  let crashed =
    List.sort_uniq compare
      (List.filter_map
         (fun (f : Error.fault) -> if f.Error.fault_kind = "crash" then Some f.Error.node else None)
         faults)
  in
  if crashed = [] || List.length crashed > quorum then None
  else if List.exists (fun (f : Error.fault) -> f.Error.fault_kind <> "crash") faults then None
  else
    let clean, _ =
      run_core ?round_limit ~plan:None ~record:ignore_fault ~with_stats:false algo g ~ids
        ?cert_list ()
    in
    let n = G.card result.output in
    let survives u = not (List.mem u crashed) in
    let agree = ref true in
    for u = 0 to n - 1 do
      if survives u && G.label result.output u <> clean.(u) then agree := false
    done;
    if !agree then
      Some
        {
          survivors = n - List.length crashed;
          crashed;
          deg_result = result;
          deg_faults = faults;
        }
    else None

let run_outcome ?round_limit ?faults ?quorum algo g ~ids ?cert_list () =
  match resolve_plan faults with
  | None -> Completed (run ?round_limit algo g ~ids ?cert_list ())
  | Some _ as plan -> (
      let log = ref [] in
      let record f = log := f :: !log in
      match
        to_result g
          (run_core ?round_limit ~plan ~record ~with_stats:true algo g ~ids ?cert_list ())
      with
      | result -> (
          if !log = [] then Completed result
          else
            let faults = List.rev !log in
            match quorum with
            | Some q when q > 0 -> (
                match degrade ?round_limit ~quorum:q algo g ~ids ?cert_list faults result with
                | Some d -> Degraded d
                | None -> Faulted { faults; error = None; diverged = None; partial = Some result })
            | _ -> Faulted { faults; error = None; diverged = None; partial = Some result })
      | exception Error.Error e ->
          Faulted { faults = List.rev !log; error = Some e; diverged = None; partial = None }
      | exception Diverged d ->
          Faulted { faults = List.rev !log; error = None; diverged = Some d; partial = None })

let accepts result = G.all_labels_one result.output

let verdict result u = G.label result.output u

let decides algo g ~ids ?cert_list () =
  let outputs, _ =
    run_core ~plan:!ambient_plan ~record:ignore_fault ~with_stats:false algo g ~ids ?cert_list ()
  in
  Array.for_all (String.equal "1") outputs
