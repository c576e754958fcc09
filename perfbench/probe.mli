(** Machine-speed probe: a fixed, library-independent CPU kernel timed
    between measured operations, so that times can be scaled to a
    machine of fixed speed. *)

val reference_ms : float
(** The probe time the adjusted figures are scaled to: they read as
    times on a machine on which one probe takes exactly this long. *)

val run : unit -> float
(** One probe, in ms, between two untimed [Gc.full_major] calls so that
    neither the heap the caller left nor the probe's own garbage moves
    the next measurement. *)

val adjust : probe_ms:float -> float -> float
(** [adjust ~probe_ms ms] scales a time measured while the probe took
    [probe_ms] to {!reference_ms}. *)
