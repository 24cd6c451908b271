(* Runs every benchmark workload twice at a short simulated length, each
   run in its own process, and asserts that the runs agree bit-for-bit on
   the runner's [exact] line: counts, simulated-time results, the top
   heap and the bytes allocated. Host times are left out; they are the
   only numbers allowed to differ. A mismatch is a nondeterminism bug.

   Usage: selftest.exe PATH/TO/main.exe *)

let short_runs =
  [ ("globe3-record", "1"); ("na3-protocols", "1"); ("fabric-chaos", "2") ]

let run exe workload sim_s =
  let args =
    [| exe; "--workload"; workload; "--seed"; "3"; "--seconds"; "0";
       "--trace"; "0"; "--sim-s"; sim_s |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (workload ^ ": runner failed"));
  let exact =
    match List.find_opt (String.starts_with ~prefix:"exact ") lines with
    | Some l -> String.split_on_char ' ' l |> List.tl
    | None -> failwith (workload ^ ": no exact line")
  in
  let correct =
    List.exists
      (fun l -> String.starts_with ~prefix:"{\"correct\": true" l)
      lines
  in
  (exact, correct)

let () =
  let exe = Sys.argv.(1) in
  let failures =
    List.filter_map
      (fun (w, sim_s) ->
        let a, ok_a = run exe w sim_s in
        let b, ok_b = run exe w sim_s in
        let differing =
          if List.length a <> List.length b then [ "number of exact values" ]
          else
            List.concat
              (List.map2 (fun x y -> if x = y then [] else [ x ^ " vs " ^ y ]) a b)
        in
        if differing = [] && ok_a && ok_b then begin
          Printf.printf "perfbench exactness %-14s ok (%d exact values)\n" w
            (List.length a);
          None
        end
        else begin
          Printf.printf "perfbench exactness %-14s FAILED%s\n" w
            (if ok_a && ok_b then "" else " (a run reported correct=false)");
          List.iter (Printf.printf "  %s\n") differing;
          Some w
        end)
      short_runs
  in
  if failures <> [] then exit 1
