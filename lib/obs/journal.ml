open Domino_sim

type opid = int * int

type event =
  | Submit of { op : opid; node : int; key : int; at : Time_ns.t }
  | Commit of { op : opid; node : int; at : Time_ns.t }
  | Execute of { op : opid; replica : int; at : Time_ns.t }
  | Msg_sent of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      op : opid option;
      at : Time_ns.t;
    }
  | Msg_delivered of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      op : opid option;
      sent_at : Time_ns.t;
      at : Time_ns.t;
    }
  | Msg_dropped of {
      seq : int;
      src : int;
      dst : int;
      cls : string;
      reason : string;
      at : Time_ns.t;
    }
  | Timer_fired of { at : Time_ns.t }
  | Phase of {
      node : int;
      op : opid option;
      name : string;
      dur : Time_ns.span;
      at : Time_ns.t;
    }
  | Sample of { name : string; value : float; at : Time_ns.t }
  | Mark of { label : string; at : Time_ns.t }
  | Fault of { name : string; detail : string; at : Time_ns.t }
  | Store_ev of { node : int; op : string; detail : string; at : Time_ns.t }
  | Recovery of { node : int; stage : string; detail : string; at : Time_ns.t }
  | Migrate of {
      stage : string;
      slot : int;
      from_g : int;
      to_g : int;
      epoch : int;
      detail : string;
      at : Time_ns.t;
    }
  | Reconfig of {
      stage : string;
      group : int;
      epoch : int;
      detail : string;
      at : Time_ns.t;
    }

type t = {
  ring : event array;
  cap : int;
  mutable next : int;  (** total events ever recorded *)
  mutable tap : (event -> unit) option;
}

let create ?(capacity = 1 lsl 20) () =
  if capacity < 1 then invalid_arg "Journal.create: capacity must be >= 1";
  {
    ring = Array.make capacity (Mark { label = ""; at = Time_ns.zero });
    cap = capacity;
    next = 0;
    tap = None;
  }

let capacity t = t.cap

let set_tap t tap = t.tap <- tap

let add_tap t f =
  t.tap <-
    Some
      (match t.tap with
      | None -> f
      | Some g ->
        fun ev ->
          g ev;
          f ev)

let record t ev =
  t.ring.(t.next mod t.cap) <- ev;
  t.next <- t.next + 1;
  match t.tap with None -> () | Some f -> f ev

let recorded t = t.next

let length t = Stdlib.min t.next t.cap

let dropped t = Stdlib.max 0 (t.next - t.cap)

let iter t f =
  let start = Stdlib.max 0 (t.next - t.cap) in
  for i = start to t.next - 1 do
    f t.ring.(i mod t.cap)
  done

let to_array t =
  let n = length t in
  let start = Stdlib.max 0 (t.next - t.cap) in
  Array.init n (fun i -> t.ring.((start + i) mod t.cap))

let append dst src = iter src (record dst)

type sink = Null | Rec of t

let null = Null

let sink t = Rec t

let enabled = function Null -> false | Rec _ -> true

let emit sink ev = match sink with Null -> () | Rec t -> record t ev

(* --- serialization --- *)

let opid_str (c, s) = Printf.sprintf "%d#%d" c s

let opt_opid_str = function None -> "-" | Some id -> opid_str id

let pp_event buf ev =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match ev with
  | Submit { op; node; key; at } ->
    p "@%d submit op=%s node=%d key=%d" at (opid_str op) node key
  | Commit { op; node; at } -> p "@%d commit op=%s node=%d" at (opid_str op) node
  | Execute { op; replica; at } ->
    p "@%d execute op=%s replica=%d" at (opid_str op) replica
  | Msg_sent { seq; src; dst; cls; op; at } ->
    p "@%d send seq=%d n%d>n%d cls=%s op=%s" at seq src dst cls
      (opt_opid_str op)
  | Msg_delivered { seq; src; dst; cls; op; sent_at; at } ->
    p "@%d deliver seq=%d n%d>n%d cls=%s op=%s sent=@%d" at seq src dst cls
      (opt_opid_str op) sent_at
  | Msg_dropped { seq; src; dst; cls; reason; at } ->
    p "@%d drop seq=%d n%d>n%d cls=%s reason=%s" at seq src dst cls reason
  | Timer_fired { at } -> p "@%d timer" at
  | Phase { node; op; name; dur; at } ->
    p "@%d phase node=%d op=%s name=%s dur=%d" at node (opt_opid_str op) name
      dur
  | Sample { name; value; at } -> p "@%d sample %s=%.6g" at name value
  | Mark { label; at } -> p "@%d mark %s" at label
  | Fault { name; detail; at } -> p "@%d fault.%s %s" at name detail
  | Store_ev { node; op; detail; at } ->
    p "@%d store.%s node=%d%s" at op node
      (if detail = "" then "" else " " ^ detail)
  | Recovery { node; stage; detail; at } ->
    p "@%d recovery.%s node=%d%s" at stage node
      (if detail = "" then "" else " " ^ detail)
  | Migrate { stage; slot; from_g; to_g; epoch; detail; at } ->
    p "@%d migrate.%s slot=%d from=g%d to=g%d epoch=%d%s" at stage slot from_g
      to_g epoch
      (if detail = "" then "" else " " ^ detail)
  | Reconfig { stage; group; epoch; detail; at } ->
    p "@%d reconfig.%s group=%d epoch=%d%s" at stage group epoch
      (if detail = "" then "" else " " ^ detail)

let to_lines t =
  let buf = Buffer.create 4096 in
  iter t (fun ev ->
      pp_event buf ev;
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* --- parsing (the exact inverse of pp_event) --- *)

let parse_opid s =
  match String.index_opt s '#' with
  | None -> None
  | Some i -> (
    match
      ( int_of_string_opt (String.sub s 0 i),
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    with
    | Some c, Some q -> Some (c, q)
    | _ -> None)

let parse_opt_opid s =
  if s = "-" then Some None
  else match parse_opid s with Some id -> Some (Some id) | None -> None

let strip_prefix ~prefix s =
  let np = String.length prefix and ns = String.length s in
  if ns >= np && String.sub s 0 np = prefix then
    Some (String.sub s np (ns - np))
  else None

let field key tok = strip_prefix ~prefix:(key ^ "=") tok

let ifield key tok = Option.bind (field key tok) int_of_string_opt

let parse_pair tok =
  (* "n3>n7" *)
  try Scanf.sscanf tok "n%d>n%d%!" (fun a b -> Some (a, b))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let parse_line line =
  (* [String.concat " "] is the exact inverse of [split_on_char ' '], so
     trailing free-form fields (mark labels, fault details) round-trip
     byte-for-byte even if they contain repeated spaces. *)
  let ( let* ) o f = match o with Some v -> f v | None -> None in
  let ev =
    match String.split_on_char ' ' line with
    | at_tok :: kw :: rest when String.length at_tok > 1 && at_tok.[0] = '@' ->
      let* at =
        int_of_string_opt (String.sub at_tok 1 (String.length at_tok - 1))
      in
      (match (kw, rest) with
      | "submit", [ o; n; k ] ->
        let* op = Option.bind (field "op" o) parse_opid in
        let* node = ifield "node" n in
        let* key = ifield "key" k in
        Some (Submit { op; node; key; at })
      | "commit", [ o; n ] ->
        let* op = Option.bind (field "op" o) parse_opid in
        let* node = ifield "node" n in
        Some (Commit { op; node; at })
      | "execute", [ o; r ] ->
        let* op = Option.bind (field "op" o) parse_opid in
        let* replica = ifield "replica" r in
        Some (Execute { op; replica; at })
      | "send", [ s; pair; c; o ] ->
        let* seq = ifield "seq" s in
        let* src, dst = parse_pair pair in
        let* cls = field "cls" c in
        let* op = Option.bind (field "op" o) parse_opt_opid in
        Some (Msg_sent { seq; src; dst; cls; op; at })
      | "deliver", [ s; pair; c; o; sa ] ->
        let* seq = ifield "seq" s in
        let* src, dst = parse_pair pair in
        let* cls = field "cls" c in
        let* op = Option.bind (field "op" o) parse_opt_opid in
        let* sent_at =
          Option.bind (field "sent" sa) (strip_prefix ~prefix:"@")
          |> Fun.flip Option.bind int_of_string_opt
        in
        Some (Msg_delivered { seq; src; dst; cls; op; sent_at; at })
      | "drop", [ s; pair; c; r ] ->
        let* seq = ifield "seq" s in
        let* src, dst = parse_pair pair in
        let* cls = field "cls" c in
        let* reason = field "reason" r in
        Some (Msg_dropped { seq; src; dst; cls; reason; at })
      | "timer", [] -> Some (Timer_fired { at })
      | "phase", [ n; o; nm; d ] ->
        let* node = ifield "node" n in
        let* op = Option.bind (field "op" o) parse_opt_opid in
        let* name = field "name" nm in
        let* dur = ifield "dur" d in
        Some (Phase { node; op; name; dur; at })
      | "sample", _ ->
        let raw = String.concat " " rest in
        let* i = String.rindex_opt raw '=' in
        let name = String.sub raw 0 i in
        let* value =
          float_of_string_opt
            (String.sub raw (i + 1) (String.length raw - i - 1))
        in
        Some (Sample { name; value; at })
      | "mark", _ -> Some (Mark { label = String.concat " " rest; at })
      | _, _ when strip_prefix ~prefix:"migrate." kw <> None -> (
        match (strip_prefix ~prefix:"migrate." kw, rest) with
        | Some stage, sl :: f :: t :: e :: detail ->
          let gfield key tok =
            Option.bind (field key tok) (strip_prefix ~prefix:"g")
            |> Fun.flip Option.bind int_of_string_opt
          in
          let* slot = ifield "slot" sl in
          let* from_g = gfield "from" f in
          let* to_g = gfield "to" t in
          let* epoch = ifield "epoch" e in
          Some
            (Migrate
               { stage; slot; from_g; to_g; epoch;
                 detail = String.concat " " detail; at })
        | _ -> None)
      | _, _ when strip_prefix ~prefix:"reconfig." kw <> None -> (
        match (strip_prefix ~prefix:"reconfig." kw, rest) with
        | Some stage, g :: e :: detail ->
          let* group = ifield "group" g in
          let* epoch = ifield "epoch" e in
          Some
            (Reconfig
               { stage; group; epoch; detail = String.concat " " detail; at })
        | _ -> None)
      | _, _ -> (
        match strip_prefix ~prefix:"fault." kw with
        | Some name ->
          Some (Fault { name; detail = String.concat " " rest; at })
        | None -> (
          let node_detail rest =
            match rest with
            | n :: detail ->
              let* node = ifield "node" n in
              Some (node, String.concat " " detail)
            | [] -> None
          in
          match strip_prefix ~prefix:"store." kw with
          | Some op ->
            let* node, detail = node_detail rest in
            Some (Store_ev { node; op; detail; at })
          | None -> (
            match strip_prefix ~prefix:"recovery." kw with
            | Some stage ->
              let* node, detail = node_detail rest in
              Some (Recovery { node; stage; detail; at })
            | None -> None))))
    | _ -> None
  in
  match ev with
  | Some ev -> Ok ev
  | None -> Error (Printf.sprintf "unparseable journal line: %S" line)

let of_lines s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
  in
  let t = create ~capacity:(Stdlib.max 1 (List.length lines)) () in
  let rec go n = function
    | [] -> Ok t
    | l :: tl -> (
      match parse_line l with
      | Ok ev ->
        record t ev;
        go (n + 1) tl
      | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 lines

(* --- segmentation --- *)

let segment_label = function Mark { label; _ } -> Some label | _ -> None
