(* Small helpers shared by the benchmark modules: clocks, directories,
   order statistics, process memory and journal reading. *)

(* What one run reports: the last line run.py prints. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [mkdir -p]: the benchmark creates every directory it writes into
   itself (a campaign given a missing parent directory aborts). *)
let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir d =
  rm_rf d;
  mkdir_p d

(* Linear-interpolated quantile of a non-empty sample, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let sumi xs = List.fold_left ( + ) 0 xs

(* Peak resident set of this process (VmHWM), in MB.  Worker processes
   are separate processes and are not included. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* A journal line as flat fields: the program's own flat-JSON reader,
   which also keeps the per-line elapsed stamp ["t"] that
   [Event_log.load] drops. *)
let journal_lines path =
  let module E = Rf_campaign.Event_log in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
            match E.parse_flat line with
            | Some fields -> go (fields :: acc)
            | None -> go acc)
      in
      go [])

let field_s k fields =
  match List.assoc_opt k fields with
  | Some (Rf_campaign.Event_log.S s) -> s
  | _ -> ""

let field_i k fields =
  match List.assoc_opt k fields with
  | Some (Rf_campaign.Event_log.I i) -> i
  | _ -> 0

let field_f k fields =
  match List.assoc_opt k fields with
  | Some (Rf_campaign.Event_log.F f) -> f
  | Some (Rf_campaign.Event_log.I i) -> float_of_int i
  | _ -> 0.0

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
