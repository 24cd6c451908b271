(** Per-operation span trees, read off the flight-recorder journal.

    A trace follows one command through the whole replication stack:
    the client submit, every protocol message that carries the
    operation (labelled with its message class), the commit at the
    submitting client, and the executions at the replicas. All of these
    are {!Journal} events already; a trace is a journal tap
    ({!Journal.add_tap}) that keeps the events of one operation, then
    renders them as a causally-ordered span tree.

    Causality needs no extra plumbing: the simulator is
    single-threaded, so a message sent by node [n] was sent from inside
    the handler of the most recent delivery at [n] — the renderer
    recovers parent/child edges from event order alone.

    Because it is a tap, a trace sees the complete event stream even
    after the journal's ring overwrites old events, and it keeps only
    its operation's events, so following one op out of millions stays
    O(events of that op). *)

type t
(** A tap following one operation. *)

val create : nth:int -> t
(** Follows the [nth] (0-based) {!Journal.Submit} it is fed: the N-th
    submitted operation of the run, counted from when the tap was
    installed. Records nothing until then. *)

val tap : t -> Journal.event -> unit
(** Feed one journal event (install with {!Journal.add_tap}). *)

val focus : t -> Journal.opid option
(** The followed operation, once its submit has been seen. *)

val events : t -> Journal.event list
(** The followed operation's [Submit], [Commit], [Execute],
    [Msg_sent] and [Msg_delivered] events, in record (= simulated-time)
    order. *)

val span_tree : t -> string
(** The followed operation's life as an indented tree: submit at the
    root, each message as [cls src->dst @ send (+delay)] nested under
    the delivery that caused it, commit and executions as leaves.
    Deterministic: same seed, same tree. Empty string while there is
    no focus. *)
