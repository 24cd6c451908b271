open Domino_smr

(** The replicated key-value state machine (§7.1 workload).

    Write-only from the replication protocol's point of view, exactly
    like the paper's evaluation: applying an operation stores its value
    under its key. [version] counts applied operations so tests can
    assert replica state machines converge. *)

type t

val create : unit -> t

val apply : t -> Op.t -> unit

val get : t -> int -> int64 option

val size : t -> int
(** Number of distinct keys present. *)

val version : t -> int
(** Number of operations applied. *)

val export : t -> keep:(int -> bool) -> (int * int64) list
(** The bindings whose key satisfies [keep], sorted by key — the
    deterministic snapshot a slot migration ships to the destination
    group. *)

val import : t -> (int * int64) list -> unit
(** Install bindings (replacing any present), bumping [version] once
    per binding. Importing the same snapshot into every replica of a
    group is fingerprint-preserving across the group: all replicas
    mutate identically. *)

val fingerprint : t -> int
(** Digest (MD5, folded to an [int]) of the applied-op count and every
    key/value binding in key order. Replicas
    that applied the same multiset of operations with the same same-key
    order have equal fingerprints; commuting reorderings (different
    keys) do not affect it. *)
