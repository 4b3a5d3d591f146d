(* Shared measurement and reporting for the bench driver: timing, median
   of N, paired ratios, host stamping, named gates, the JSON report and
   the command line.

   A section measures one subsystem and returns its report body plus
   gates computed on its typed results. The driver writes both into
   BENCH_<section>.json, stamped with the settings and host it ran on,
   and exits non-zero when a gate fails. [--check FILE] re-runs the
   file's section at the file's settings and requires every gate to
   hold; for a deterministic section it also requires every field other
   than timings ([ms], [*_ms]) and host stamps to equal the file, so a
   change to a design on these workloads needs an explicit re-baseline. *)

open Hls_util.Json

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, 1e3 *. (Unix.gettimeofday () -. t0))

let median xs =
  let a = List.sort compare xs in
  List.nth a (List.length a / 2)

(* median of per-iteration ratios: ambient load drifts over a run, and a
   ratio of medians can pair a quiet iteration against a loaded one *)
let paired_ratio num den = median (List.map2 ( /. ) num den)

let runs_json xs = Obj [ ("median", Num (median xs)); ("runs", Arr (List.map (fun x -> Num x) xs)) ]
let host_cores () = Domain.recommended_domain_count ()

type gate = string * bool

(* some counter under [prefix] was recorded since the section started *)
let counters_gate prefix =
  ("counters " ^ prefix, Hls_core.Metrics.counters_with_prefix prefix <> [])

type report = { body : (string * Hls_util.Json.t) list; gates : gate list }

type section = {
  name : string;  (** command-line word; the default file is BENCH_<name>.json *)
  benchmark : string;  (** the report's ["benchmark"] field *)
  settings : (string * int) list;  (** the flags it takes, with defaults *)
  deterministic : bool;  (** every non-timing field reproduces exactly *)
  run : (string -> int) -> report;
}

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let measure s settings =
  Hls_obs.Trace.reset ();
  let r = s.run (fun k -> List.assoc k settings) in
  let cores = host_cores () in
  let json =
    Obj
      ([ ("benchmark", Str s.benchmark);
         ("host_cores", of_int cores);
         (* the spare lanes Pool.map may spawn: the caller's domain is
            the remaining lane *)
         ("pool_cap", of_int (max 0 (cores - 1)));
         ("settings", Obj (List.map (fun (k, v) -> (k, of_int v)) settings)) ]
      @ r.body
      @ [ ("gates", Obj (List.map (fun (g, ok) -> (g, Bool ok)) r.gates));
          ("counters", Hls_core.Metrics.counters_json ()) ])
  in
  (json, List.filter_map (fun (g, ok) -> if ok then None else Some g) r.gates)

let volatile k =
  k = "ms" || String.ends_with ~suffix:"_ms" k || k = "host_cores" || k = "pool_cap"

let rec strip = function
  | Obj kvs -> Obj (List.filter_map (fun (k, v) -> if volatile k then None else Some (k, strip v)) kvs)
  | Arr xs -> Arr (List.map strip xs)
  | v -> v

(* the first path where two reports disagree, with both values *)
let rec first_diff path a b =
  match (a, b) with
  | Obj x, Obj y when List.map fst x = List.map fst y ->
      List.find_map (fun ((k, u), (_, v)) -> first_diff (path ^ "." ^ k) u v) (List.combine x y)
  | Arr x, Arr y when List.length x = List.length y ->
      List.find_map Fun.id
        (List.mapi (fun i (u, v) -> first_diff (Printf.sprintf "%s[%d]" path i) u v) (List.combine x y))
  | _ -> if a = b then None else Some (path, a, b)

let fail_gates label failed =
  List.iter (fun g -> Printf.eprintf "%s: gate failed: %s\n" label g) failed;
  if failed <> [] then exit 1

let emit s settings out =
  let json, failed = measure s settings in
  let oc = open_out out in
  output_string oc (to_string json);
  close_out oc;
  Printf.printf "wrote %s\n" out;
  fail_gates out failed

let check sections file =
  let text =
    try In_channel.with_open_bin file In_channel.input_all with Sys_error e -> die "%s" e
  in
  let json = match parse text with Ok j -> j | Error e -> die "%s: %s" file e in
  let s =
    match
      List.find_opt (fun s -> Some s.benchmark = str_member "benchmark" json) sections
    with
    | Some s -> s
    | None -> die "%s: no bench section writes this benchmark" file
  in
  let settings =
    List.map
      (fun (k, _) ->
        match Option.bind (member "settings" json) (int_member k) with
        | Some v -> (k, v)
        | None -> die "%s: missing settings.%s" file k)
      s.settings
  in
  let fresh, failed = measure s settings in
  (* compare after a round trip, so both sides carry the file's number
     printing *)
  (if s.deterministic then
     match first_diff "" (strip json) (strip (Result.get_ok (parse (to_string fresh)))) with
     | None -> ()
     | Some (path, was, now) ->
         Printf.eprintf "%s: %s is %s in the file but %s in this run\n" file path
           (String.trim (to_string was)) (String.trim (to_string now));
         exit 1);
  fail_gates file failed;
  Printf.printf "%s: %s%s, all gates hold\n" file s.name
    (if s.deterministic then " reproduces the file" else " re-run")

let main sections =
  let section = ref None and out = ref None and check_file = ref None and given = ref [] in
  let flag k doc = ("--" ^ k, Arg.Int (fun n -> given := (k, n) :: !given), "N  " ^ doc) in
  let spec =
    [ flag "iters" "timed iterations (dse, kernels)";
      flag "runs" "cosimulation runs per design (analysis, rewrite, refine)";
      flag "size" "kernel problem size: DFG ops, clique nodes, set sizes";
      flag "jobs" "worker domains for the parallel sweep (dse)";
      ("--out", Arg.String (fun f -> out := Some f), "FILE  output path (default BENCH_<section>.json)");
      ( "--check",
        Arg.String (fun f -> check_file := Some f),
        "FILE  re-run FILE's section at its settings; gates must hold, deterministic fields must match" ) ]
  in
  let usage =
    Printf.sprintf "bench <%s> [flags] | bench --check FILE"
      (String.concat "|" (List.map (fun s -> s.name) sections))
  in
  Arg.parse spec
    (fun a ->
      match List.find_opt (fun s -> s.name = a) sections with
      | Some s when !section = None -> section := Some s
      | _ -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match (!section, !check_file) with
  | None, Some file when !given = [] && !out = None -> check sections file
  | Some s, None ->
      List.iter
        (fun (k, _) -> if not (List.mem_assoc k s.settings) then die "%s takes no --%s" s.name k)
        !given;
      let settings =
        List.map (fun (k, d) -> (k, Option.value (List.assoc_opt k !given) ~default:d)) s.settings
      in
      emit s settings (Option.value !out ~default:("BENCH_" ^ s.name ^ ".json"))
  | _ ->
      Arg.usage spec usage;
      exit 2
