(* The repository benchmark executable (driven by perfbench/run.py).

     rfbench.exe --workload table1|fork-wide|serve-warm --seed N
                 --seconds S --trace 0|1 --work DIR --out FILE
                 [--spans FILE] [--print-inventory]

   --trace 0 runs the workload's closed loop for S seconds, untraced,
   and writes the end-to-end metrics; --trace 1 runs one traced pass
   (Decomp) and writes the per-layer metrics.  The result is one JSON
   object written to FILE.  Exit status 0 when every verdict matched,
   1 on any mismatch or failure. *)

open Bench_util
module W = Workloads

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work : string;
  out : string;
  inventory : bool;
  spans : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let work = ref ".perfbench" and out = ref "" in
  let inventory = ref false and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME table1, fork-wide or serve-warm");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced pass");
      ("--work", Arg.Set_string work, "DIR scratch directory (created)");
      ("--out", Arg.Set_string out, "FILE result JSON");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
      ("--print-inventory", Arg.Set inventory, " print this run's verdicts in golden format");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --work DIR --out FILE";
  if not (List.mem !workload [ "table1"; "fork-wide"; "serve-warm" ]) then begin
    prerr_endline "rfbench: --workload must be table1, fork-wide or serve-warm";
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    work = !work;
    out = !out;
    inventory = !inventory;
    spans = !spans;
  }

(* ------------------------------------------------------------------ *)
(* Result                                                               *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let write_result path r =
  let metrics =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      r.metrics
  in
  let oc = open_out path in
  Printf.fprintf oc "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed (String.concat ", " metrics);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Untraced closed loop                                                 *)

(* Run [pass] back to back until [seconds] have elapsed (at least once). *)
let closed_loop ~seconds pass =
  let t_end = now () +. seconds in
  let rec go acc =
    let p = pass () in
    log "pass %d: %.3f s" (List.length acc + 1) p.W.p_wall;
    let acc = p :: acc in
    if now () >= t_end then List.rev acc else go acc
  in
  go []

let end_to_end ~setup_s (passes : W.pass list) =
  let walls = List.map (fun p -> p.W.p_wall) passes in
  let total = sum walls in
  let errors = List.concat_map (fun p -> p.W.p_errors) passes in
  List.iter (fun e -> log "MISMATCH %s" e) errors;
  let attempted = sumi (List.map (fun p -> p.W.p_attempted) passes) in
  let failed = sumi (List.map (fun p -> p.W.p_failed) passes) in
  let n = List.length passes in
  (* the highest percentile with at least ten samples beyond it *)
  if n >= 20 then begin
    let q = 1.0 -. (10.0 /. float_of_int n) in
    log "verdict_s: median %.4f s, p%.0f %.4f s, n = %d" (median walls) (100.0 *. q) (quantile q walls) n
  end
  else log "verdict_s: median %.4f s, n = %d (too few passes for a tail percentile)" (median walls) n;
  log "peak_rss_mb: VmHWM of the benchmark process; worker processes excluded";
  {
    correct = errors = [] && failed = 0;
    attempted = max 1 attempted;
    failed;
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("verdict_s", median walls, "s");
        ("trials_per_s", float_of_int (sumi (List.map (fun p -> p.W.p_trials) passes)) /. total, "1/s");
        ("steps_per_s", float_of_int (sumi (List.map (fun p -> p.W.p_steps) passes)) /. total, "1/s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ];
  }

(* Set up [k] times: the last set-up and the time of every repetition. *)
let repeated_setup k setup =
  let runs = List.init k (fun i -> time (fun () -> setup i)) in
  (fst (List.nth runs (k - 1)), List.map snd runs)

let untraced a =
  match a.workload with
  | "serve-warm" ->
      let ctx, setup_times =
        repeated_setup 3 (fun i ->
            W.serve_setup ~seed:a.seed ~work:(Filename.concat a.work (Printf.sprintf "setup%d" i)) ())
      in
      let passes = closed_loop ~seconds:a.seconds (fun () -> fst (W.serve_cycle ctx)) in
      let verify = W.verify_corpus ctx in
      let r = end_to_end ~setup_s:(median setup_times) passes in
      List.iter (fun e -> log "MISMATCH %s" e) verify;
      {
        r with
        correct = r.correct && verify = [];
        failed = r.failed + List.length verify;
        attempted = r.attempted + 1;
      }
  | w ->
      let make = if w = "table1" then W.table1_targets else fun () -> [ W.fork_wide_target () ] in
      (* Set-up takes milliseconds here, short enough to fall into one
         momentary state of a shared machine; it is repeated after every
         pass too, so its median samples the same stretch of time as the
         passes do. *)
      let setup () = repeated_setup 9 (fun _ -> W.campaign_setup ~seed:a.seed make ()) in
      let targets, first_times = setup () in
      let setup_times = ref first_times in
      let ctx = W.campaign_ctx ~workload:a.workload ~seed:a.seed ~work:a.work targets in
      let passes =
        closed_loop ~seconds:a.seconds (fun () ->
            let p = W.campaign_pass ctx in
            setup_times := snd (setup ()) @ !setup_times;
            p)
      in
      if a.inventory then
        List.iter
          (fun (t : W.target) ->
            let v = Hashtbl.find ctx.W.c_first t.W.name in
            List.iter (fun (label, cls) -> Printf.printf "pair %s %s %s\n" t.W.name cls label) v.W.pairs;
            Printf.printf "confirmed %d %s %s\n" a.seed t.W.name v.W.confirmed)
          targets;
      end_to_end ~setup_s:(median !setup_times) passes

let () =
  (* Hidden worker mode: the serve fleet execs this binary. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "campaign-worker" then
    Rf_campaign.Proc_pool.worker_main
      ~resolve:(fun t -> Result.to_option (W.resolve t))
      ();
  let a = parse_args () in
  mkdir_p a.work;
  let r =
    if a.trace then Decomp.run ~workload:a.workload ~seed:a.seed ~work:a.work ~spans_out:a.spans
    else untraced a
  in
  write_result a.out r;
  exit (if r.correct then 0 else 1)
