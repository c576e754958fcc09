(** Synchronous execution of {!Local_algo} programs on labelled graphs:
    the same scheduling discipline as {!Turing.run} (rounds of
    receive / compute / send, neighbours ordered by identifier,
    stopped nodes emit empty messages), with per-node, per-round
    charge and input-size accounting.

    All statistics are computed from message {e costs}
    ({!Local_algo.msg}), i.e. the paper's bit-string lengths — they are
    independent of the transport wire mode
    ({!Lph_util.Codec.wire_mode}).

    The per-round compute phase runs on a persistent
    {!Lph_util.Parallel} domain team when the effective job count
    ([LPH_JOBS]) exceeds 1 and the graph has at least [LPH_PAR_MIN]
    nodes (default 32); message delivery is sequential and
    identifier-ordered either way, so results and statistics are
    bit-identical for every job count.

    {b Prepare, then execute.} A run is {!prepare} (what depends on the
    graph and identifiers only: sorted neighbourhoods, delivery slots,
    labels, degrees) followed by one round loop. {!run}, {!run_outcome}
    and {!decides} do both per call; callers that run one instance on
    many certificate lists (the arbiter's ball tables) prepare once and
    call {!execute} or {!outputs}. Stats rows and the output graph are
    only built by the entry points that return them.

    {b Fault injection.} An optional {!Lph_faults.Fault_plan} tampers
    with the run at its trust boundaries: identifiers and certificates
    before round 1, each message wire during delivery, crash-stops and
    charge inflation per round. The plan comes from the [?faults]
    argument or, failing that, the ambient plan installed from
    [LPH_FAULTS] at start-up ({!fault_plan} / {!set_fault_plan}). With
    no plan the hook is one [match] on [None] per injection point —
    the default costs nothing. With a plan active the compute phase is
    forced sequential so the injected schedule is exactly the one the
    seed describes and fault recording needs no lock. *)

type stats = {
  rounds : int;
  charges : int array array;  (** charges.(round - 1).(node) *)
  input_sizes : int array array;
      (** per round, per node: total length of the node's local input
          (inbox plus label/identifier/certificates in round 1, inbox
          plus a carried-state estimate afterwards) *)
  message_bytes : int array array;  (** outgoing message volume *)
}

type result = { output : Lph_graph.Labeled_graph.t; stats : stats }

type divergence = { algo : string; rounds : int; reason : string }
(** Context for a run that failed to converge: which algorithm, after
    how many rounds, and why. *)

exception Diverged of divergence

type fault_report = {
  faults : Lph_util.Error.fault list;
      (** injected faults that actually fired, in firing order *)
  error : Lph_util.Error.t option;
      (** the typed error that aborted the run, if one did *)
  diverged : divergence option;  (** set when the run hit its round limit *)
  partial : result option;
      (** the tainted result, when the run still ran to completion *)
}

type degraded_report = {
  survivors : int;  (** nodes that did not crash *)
  crashed : int list;  (** crash-stopped nodes, sorted *)
  deg_result : result;  (** the degraded run; survivor labels are sound *)
  deg_faults : Lph_util.Error.fault list;  (** the crash faults that fired *)
}

type outcome =
  | Completed of result
      (** No injected fault fired: the result is bit-identical to the
          fault-free run. *)
  | Degraded of degraded_report
      (** Quorum mode only: every fired fault was a crash-stop, at most
          [quorum] nodes crashed, and every surviving node's output
          label equals the fault-free run's — the survivors' verdict is
          sound even though the run was faulted. *)
  | Faulted of fault_report
      (** At least one fault fired (or the faulted run raised a typed
          error / diverged): never trust [partial] as a verdict. *)

val fault_plan : unit -> Lph_faults.Fault_plan.t option
(** The ambient fault plan, initialised from [LPH_FAULTS]. *)

val set_fault_plan : Lph_faults.Fault_plan.t option -> unit
(** Install or clear the ambient plan (tests and the fuzzer harness;
    the fuzzer clears the ambient plan and passes per-scenario plans
    explicitly so engine-internal runs stay fault-free). *)

val run :
  ?round_limit:int ->
  ?faults:Lph_faults.Fault_plan.t ->
  Local_algo.packed ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  ?cert_list:string array ->
  unit ->
  result
(** [cert_list] is the certificate-list assignment (strings over
    {0,1,#}); each node's entry is decoded into [levels] certificates.
    Raises [Error.Error (Protocol_error _)] if identifiers are not
    distinct among any node's neighbourhood (the 1-local uniqueness
    precondition) or if the algorithm emits more messages than a node's
    degree, and {!Diverged} past [round_limit] (default 1000). Under an
    active fault plan the result may additionally be tainted and decode
    errors ([Error.Error (Decode_error _)]) may surface from message
    handlers; use {!run_outcome} to observe faults explicitly. *)

val run_outcome :
  ?round_limit:int ->
  ?faults:Lph_faults.Fault_plan.t ->
  ?quorum:int ->
  Local_algo.packed ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  ?cert_list:string array ->
  unit ->
  outcome
(** Like {!run} but faults degrade to an explicit {!Faulted} outcome
    instead of tainted results or escaping exceptions: typed errors and
    divergence raised by the faulted run are captured in the report
    together with every fault that fired. [Completed r] is a guarantee
    that no injected fault fired, so [r] equals the fault-free run's
    result. Without an active plan this is exactly [run] (errors
    propagate as exceptions).

    [quorum] opts into graceful degradation for crash-stop faults: when
    the only faults that fired are crash-stops of at most [quorum]
    nodes and every survivor's output label matches the fault-free twin
    run (verified by actually running it), the outcome is {!Degraded}
    instead of {!Faulted} — the surviving verdict is certified sound.
    Any non-crash fault, or more than [quorum] crashed nodes, or a
    survivor label divergence falls back to {!Faulted}. *)

type prepared
(** The certificate-independent half of a run on one graph and one
    identifier assignment: the identifier-sorted neighbour arrays, the
    delivery slot tables, and the labels, identifiers and degrees. One
    prepared value can be executed on any number of certificate lists;
    each execution pays only for the rounds themselves. *)

val prepare :
  Local_algo.packed -> Lph_graph.Labeled_graph.t -> ids:Lph_graph.Identifiers.t -> prepared
(** [prepare algo g ~ids] does the work every run on [(g, ids)] shares,
    and reads the team policy ([LPH_JOBS], [LPH_PAR_MIN]) for them.
    Raises [Error.Error (Protocol_error _)] here, not at execution, when
    identifiers are not distinct among some node's neighbours. {!run},
    {!run_outcome} and {!decides} are [prepare] followed by the same
    round loop, so a prepared execution is the run, not a model of it. *)

val execute :
  ?round_limit:int ->
  ?faults:Lph_faults.Fault_plan.t ->
  prepared ->
  ?cert_list:string array ->
  unit ->
  result
(** [execute p ?cert_list ()] equals [run algo g ~ids ?cert_list ()] for
    the [(algo, g, ids)] that [p] was prepared from: same output labels,
    same {!stats} bit for bit, under every job count and wire mode.

    The fault plan ([?faults], else the ambient plan) is resolved at
    each execution, never frozen at {!prepare}: installing a plan with
    {!set_fault_plan} after preparing affects the next execution. With a
    plan active the execution tampers the identifiers first and
    re-prepares on the tampered ones, so the injected schedule is the
    one {!run} would inject. The domain team policy ([LPH_JOBS],
    [LPH_PAR_MIN]) is read once, by {!prepare}, and every execution of
    [p] without a plan uses the team decision made there ({!run} reads
    it per call, since it prepares per call). The job count never
    changes an output or a stat. *)

val outputs :
  ?round_limit:int ->
  ?faults:Lph_faults.Fault_plan.t ->
  prepared ->
  ?cert_list:string array ->
  unit ->
  string array
(** [outputs p ?cert_list ()] is the output labels of
    [execute p ?cert_list ()], per node, without building the stats rows
    or the output graph (so the labels are not checked to be bit
    strings). Same plan and team semantics as {!execute}. *)

val stage : prepared -> node:int -> cert_list:string array -> string
(** [stage p ~node] is the output label of [node] as a function of the
    certificate-list assignment: [stage p ~node ~cert_list] equals
    [(outputs p ~cert_list ()).(node)], under every job count and wire
    mode. (If that execution would raise in another node's final step,
    a staged [node] still answers.)

    When the algorithm has a {!type:Local_algo.view}, applying [stage p
    ~node] runs the view's flood once, with no fault plan, on per-node
    tags, and keeps only [node]'s final state. Each call then fills its
    certificate lists into that state and runs the node's final step
    alone, on a context with a no-op [charge]. Without a view each call
    is an execution of [p].

    The ambient fault plan is resolved at each call, as for
    {!outputs}: a call under a plan runs the whole execution, so the
    plan tampers with exactly what {!run} would tamper with. *)

val accepts : result -> bool
val verdict : result -> int -> string

val decides :
  Local_algo.packed ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  ?cert_list:string array ->
  unit ->
  bool
(** [run] followed by {!accepts}, without building the stats or the
    output graph. *)
