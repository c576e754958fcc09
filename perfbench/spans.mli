(** In-memory span recorder for the traced run: each call the
    benchmark makes into a layer is wrapped in a span
    [{name, start, end, parent, query}]; spans are kept in memory and
    written out when the run ends. Not thread-safe: one recorder per
    thread. *)

type span = {
  id : int;
  name : string;
  query : int;  (** the query or request the span belongs to *)
  parent : int option;  (** the enclosing span, if any *)
  start_ns : int64;
  stop_ns : int64;
}

type t

val create : unit -> t

val set_query : t -> int -> unit
(** Tag the spans opened from now on with this query identifier. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span nested in the innermost open one. The
    span is recorded even when the thunk raises. *)

val spans : t -> span list
(** Every closed span, in closing order. *)

val self_ns : span list -> (span * int64) list
(** Each span with its self time: its duration minus the part of its
    interval that the union of its direct children covers. *)

val self_ms_by_name : span list -> (string * float) list
(** Total self time per span name, in milliseconds, sorted by name. *)

val to_json : span -> string
