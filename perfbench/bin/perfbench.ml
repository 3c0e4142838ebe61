(* perfbench gen --workload W --seed N --dir D
     writes the workload's input files for seed N into D.
   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
                 [--commit C]
     loads them, runs whole rounds for S seconds, checks every output
     and prints a facts line, then the result as one JSON object. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: perfbench gen --workload W --seed N --dir D\n\
    \       perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D \
     [--commit C]";
  exit 2

let rec flags acc = function
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
    flags ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let json_string s = Printf.sprintf "%S" s

(* %.17g keeps every digit; the result is a valid JSON number for any
   finite float. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let args = Array.to_list Sys.argv in
  let cmd, rest = match args with _ :: c :: r -> (c, r) | _ -> usage () in
  let fl = flags [] rest in
  let get k = match List.assoc_opt k fl with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let w =
    match Gen.of_name (get "workload") with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S\n" (get "workload");
      exit 2
  in
  let seed = int "seed" in
  let dir = get "dir" in
  match cmd with
  | "gen" -> Gen.generate w ~seed ~dir
  | "run" ->
    let seconds = float_of_int (int "seconds") in
    let trace = int "trace" = 1 in
    let commit = Option.value (List.assoc_opt "commit" fl) ~default:"unknown" in
    let r = Workload.run w ~dir ~seconds ~trace in
    Printf.printf
      "facts {\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
       \"rounds\": %d, \"nproc\": %d, \"domains\": %d, \"ocaml\": %s, \
       \"commit\": %s}\n"
      (json_string (Gen.name w)) seed (json_float seconds) trace r.Workload.rounds
      (Domain.recommended_domain_count ()) r.Workload.domains
      (json_string Sys.ocaml_version) (json_string commit);
    let metrics =
      List.map
        (fun m ->
          Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
            (json_string m.Workload.name) (json_float m.Workload.value)
            (json_string m.Workload.unit))
        r.Workload.metrics
    in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      r.Workload.correct r.Workload.attempted r.Workload.failed
      (String.concat ", " metrics)
  | _ -> usage ()
