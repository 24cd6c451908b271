open Domino_smr

type t = { table : (int, int64) Hashtbl.t; mutable version : int }

let create () = { table = Hashtbl.create 4096; version = 0 }

let apply t (op : Op.t) =
  Hashtbl.replace t.table op.Op.key op.Op.value;
  t.version <- t.version + 1

let get t key = Hashtbl.find_opt t.table key

let size t = Hashtbl.length t.table

let version t = t.version

let export t ~keep =
  Hashtbl.fold
    (fun k v acc -> if keep k then (k, v) :: acc else acc)
    t.table []
  |> List.sort compare

let import t bindings =
  List.iter
    (fun (k, v) ->
      Hashtbl.replace t.table k v;
      t.version <- t.version + 1)
    bindings

let fingerprint t =
  (* Content digest over the version and the bindings in key order:
     order-insensitive, so two replicas converge iff every key holds
     the same final value — protocols that execute commuting operations
     out of order (EPaxos) still fingerprint equal. Every binding is
     serialized into the digest; [Hashtbl.hash] would look at only the
     first few. *)
  let keys =
    List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.table [])
  in
  let b = Buffer.create (8 + (16 * Hashtbl.length t.table)) in
  Buffer.add_int64_le b (Int64.of_int t.version);
  List.iter
    (fun k ->
      Buffer.add_int64_le b (Int64.of_int k);
      Buffer.add_int64_le b (Hashtbl.find t.table k))
    keys;
  Int64.to_int (String.get_int64_le (Digest.string (Buffer.contents b)) 0)
