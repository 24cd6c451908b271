open Domino_sim

type t = {
  nth : int;
  mutable submits : int;
  mutable focus : Journal.opid option;
  mutable events : Journal.event list;  (** newest first *)
}

let create ~nth = { nth; submits = 0; focus = None; events = [] }

let same ((c, s) : Journal.opid) ((c', s') : Journal.opid) = c = c' && s = s'

(* The operation a span-tree event belongs to; [None] for every other
   kind of event and for messages that carry no operation. *)
let op_of : Journal.event -> Journal.opid option = function
  | Submit { op; _ } | Commit { op; _ } | Execute { op; _ } -> Some op
  | Msg_sent { op; _ } | Msg_delivered { op; _ } -> op
  | _ -> None

let tap t (ev : Journal.event) =
  (match ev with
  | Submit { op; _ } ->
    if t.submits = t.nth then t.focus <- Some op;
    t.submits <- t.submits + 1
  | _ -> ());
  match t.focus with
  | None -> ()
  | Some f -> (
    match op_of ev with
    | Some op when same op f -> t.events <- ev :: t.events
    | _ -> ())

let focus t = t.focus

let events t = List.rev t.events

(* --- span tree rendering --- *)

let ms at = Printf.sprintf "%.3fms" (Time_ns.to_ms_f at)

let span_ms a b = Printf.sprintf "+%.3fms" (Time_ns.to_ms_f (Time_ns.diff b a))

(* [tap] keeps only the five kinds [op_of] maps to an operation, so the
   renderer's catch-all cases are never taken. *)
let time_of : Journal.event -> Time_ns.t = function
  | Submit { at; _ }
  | Commit { at; _ }
  | Execute { at; _ }
  | Msg_sent { at; _ }
  | Msg_delivered { at; _ } -> at
  | _ -> Time_ns.zero

let label base : Journal.event -> string = function
  | Submit { node; at; _ } ->
    Printf.sprintf "submit at n%d @ %s" node (ms at)
  | Msg_sent { src; dst; cls; at; _ } ->
    Printf.sprintf "%s n%d->n%d @ %s (%s)" cls src dst (ms at) (span_ms base at)
  | Msg_delivered { src; dst; cls; sent_at; at; _ } ->
    Printf.sprintf "deliver %s n%d->n%d @ %s (wire %s)" cls src dst (ms at)
      (span_ms sent_at at)
  | Commit { node; at; _ } ->
    Printf.sprintf "commit learned at n%d @ %s (%s)" node (ms at)
      (span_ms base at)
  | Execute { replica; at; _ } ->
    Printf.sprintf "execute at replica n%d @ %s (%s)" replica (ms at)
      (span_ms base at)
  | _ -> ""

let span_tree t =
  match (t.focus, events t) with
  | None, _ | _, [] -> ""
  | Some (cli, seq_), evs ->
    let evs = Array.of_list evs in
    let n = Array.length evs in
    (* Causal parent of event i, as an index < i; -1 = root. In a
       single-threaded simulation, anything a node does at instant T
       happens inside the latest handler that ran at that node, so the
       parent of a send (or commit/execute) at node X is the most
       recent delivery at X; a delivery's parent is its send. *)
    let latest_delivery_at ~before node =
      let found = ref (-1) in
      for j = 0 to before - 1 do
        match evs.(j) with
        | Msg_delivered { dst; _ } when dst = node -> found := j
        | _ -> ()
      done;
      !found
    in
    let latest_submit_at ~before node =
      let found = ref (-1) in
      for j = 0 to before - 1 do
        match evs.(j) with
        | Submit { node = m; _ } when m = node -> found := j
        | _ -> ()
      done;
      !found
    in
    let sent_index seq =
      let found = ref (-1) in
      Array.iteri
        (fun j (e : Journal.event) ->
          match e with
          | Msg_sent { seq = s; _ } when s = seq -> found := j
          | _ -> ())
        evs;
      !found
    in
    let handler_at i node =
      let d = latest_delivery_at ~before:i node in
      if d >= 0 then d else latest_submit_at ~before:i node
    in
    let parent i =
      match evs.(i) with
      | Msg_delivered { seq; _ } -> sent_index seq
      | Msg_sent { src = node; _ }
      | Commit { node; _ }
      | Execute { replica = node; _ } -> handler_at i node
      | _ -> -1
    in
    let children = Array.make n [] in
    let roots = ref [] in
    for i = n - 1 downto 0 do
      let p = parent i in
      if p >= 0 then children.(p) <- i :: children.(p)
      else roots := i :: !roots
    done;
    let base = time_of evs.(0) in
    let buf = Buffer.create 512 in
    Buffer.add_string buf (Printf.sprintf "op n%d#%d\n" cli seq_);
    let rec render prefix is_last i =
      Buffer.add_string buf prefix;
      Buffer.add_string buf (if is_last then "`- " else "|- ");
      Buffer.add_string buf (label base evs.(i));
      Buffer.add_char buf '\n';
      let child_prefix = prefix ^ (if is_last then "   " else "|  ") in
      let kids = children.(i) in
      let rec go = function
        | [] -> ()
        | [ k ] -> render child_prefix true k
        | k :: rest ->
          render child_prefix false k;
          go rest
      in
      go kids
    in
    let rec go = function
      | [] -> ()
      | [ r ] -> render "" true r
      | r :: rest ->
        render "" false r;
        go rest
    in
    go !roots;
    Buffer.contents buf
