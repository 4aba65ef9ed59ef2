(** Compact binary traces — see the interface for the wire format.

    Implementation notes:

    - the writer keeps two buffers: [block] accumulates records and is
      sealed into [out] (length prefix + payload + FNV-1a-64 checksum)
      whenever it reaches the block size, so a torn write loses at most
      one frame and checksum verification is block-granular;
    - definitions are emitted {e inline}, immediately before the first
      record that references them, which keeps the stream one-pass for
      both writer and reader (no separate symbol-table section to seek
      back to);
    - the decoder re-interns sites through {!Site.make}, so wire ids are
      private to one recording and never clash with the live registry. *)

open Rf_util

exception Corrupt = Sealed.Corrupt

let corrupt fmt = Fmt.kstr (fun m -> raise (Corrupt m)) fmt

let magic = "RFBT"
let version = 1
let default_block = 64 * 1024

(* Tags.  0x0_ = definitions, 0x1_ = events. *)
let tag_sitedef = 0x01
let tag_locdef = 0x02
let tag_locksetdef = 0x03
let tag_mem_read = 0x10
let tag_mem_write = 0x11
let tag_acquire = 0x12
let tag_release = 0x13
let tag_snd = 0x14
let tag_rcv = 0x15
let tag_start = 0x16
let tag_exit = 0x17

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

type writer = {
  out : Buffer.t;  (* header + sealed frames *)
  block : Buffer.t;  (* open frame payload *)
  block_size : int;
  site_seen : (int, unit) Hashtbl.t;  (* live Site.id -> defined *)
  loc_ids : int Loc.Tbl.t;
  mutable next_loc : int;
  ls_ids : (int list, int) Hashtbl.t;  (* sorted lock ids -> wire id *)
  mutable next_ls : int;
  mutable w_events : int;
  mutable sealed : bool;
}

type t = { raw : string }

let[@inline] add_u8 b i = Buffer.add_uint8 b (i land 0xff)
let[@inline] add_u32 b i = Buffer.add_int32_le b (Int32.of_int i)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let writer ?(block = default_block) () =
  let w =
    {
      out = Buffer.create (4 * 1024);
      block = Buffer.create (block + 64);
      block_size = max 512 block;
      site_seen = Hashtbl.create 64;
      loc_ids = Loc.Tbl.create 64;
      next_loc = 0;
      ls_ids = Hashtbl.create 16;
      next_ls = 0;
      w_events = 0;
      sealed = false;
    }
  in
  Buffer.add_string w.out magic;
  Buffer.add_uint16_le w.out version;
  (* the empty lockset is ubiquitous; pre-intern it as wire id 0 *)
  add_u8 w.block tag_locksetdef;
  add_u32 w.block 0;
  add_u32 w.block 0;
  Hashtbl.add w.ls_ids [] 0;
  w.next_ls <- 1;
  w

let flush_block w =
  if Buffer.length w.block > 0 then begin
    Sealed.add w.out (Buffer.contents w.block);
    Buffer.clear w.block
  end

let[@inline] maybe_flush w =
  if Buffer.length w.block >= w.block_size then flush_block w

let ensure_site w site =
  let id = Site.id site in
  if not (Hashtbl.mem w.site_seen id) then begin
    Hashtbl.add w.site_seen id ();
    add_u8 w.block tag_sitedef;
    add_u32 w.block id;
    add_u32 w.block (Site.line site);
    add_u32 w.block (Site.col site);
    add_str w.block (Site.file site);
    add_str w.block (Site.label site)
  end;
  id

let ensure_loc w loc =
  match Loc.Tbl.find_opt w.loc_ids loc with
  | Some id -> id
  | None ->
      let id = w.next_loc in
      w.next_loc <- id + 1;
      Loc.Tbl.add w.loc_ids loc id;
      add_u8 w.block tag_locdef;
      add_u32 w.block id;
      (match loc with
      | Loc.Global n ->
          add_u8 w.block 0;
          add_str w.block n
      | Loc.Field (o, f) ->
          add_u8 w.block 1;
          add_u32 w.block o;
          add_str w.block f
      | Loc.Elem (a, i) ->
          add_u8 w.block 2;
          add_u32 w.block a;
          add_u32 w.block i);
      id

let intern_lockset w ls =
  let key = Lockset.to_list ls in
  match Hashtbl.find_opt w.ls_ids key with
  | Some id -> id
  | None ->
      let id = w.next_ls in
      w.next_ls <- id + 1;
      Hashtbl.add w.ls_ids key id;
      add_u8 w.block tag_locksetdef;
      add_u32 w.block id;
      add_u32 w.block (List.length key);
      List.iter (fun l -> add_u32 w.block l) key;
      maybe_flush w;
      id

let mem w ~tid ~site ~loc ~access ~lockset_id =
  let site_id = ensure_site w site in
  let loc_id = ensure_loc w loc in
  add_u8 w.block
    (match access with Event.Read -> tag_mem_read | Event.Write -> tag_mem_write);
  add_u32 w.block tid;
  add_u32 w.block site_id;
  add_u32 w.block loc_id;
  add_u32 w.block lockset_id;
  w.w_events <- w.w_events + 1;
  maybe_flush w

let lock_event w tag ~tid ~lock ~site =
  let site_id = ensure_site w site in
  add_u8 w.block tag;
  add_u32 w.block tid;
  add_u32 w.block lock;
  add_u32 w.block site_id;
  w.w_events <- w.w_events + 1;
  maybe_flush w

let acquire w ~tid ~lock ~site = lock_event w tag_acquire ~tid ~lock ~site
let release w ~tid ~lock ~site = lock_event w tag_release ~tid ~lock ~site

let reason_code = function Event.Fork -> 0 | Event.Join -> 1 | Event.Notify -> 2

let msg_event w tag ~tid ~msg ~reason =
  add_u8 w.block tag;
  add_u32 w.block tid;
  add_u32 w.block msg;
  add_u8 w.block (reason_code reason);
  w.w_events <- w.w_events + 1;
  maybe_flush w

let snd_ w ~tid ~msg ~reason = msg_event w tag_snd ~tid ~msg ~reason
let rcv w ~tid ~msg ~reason = msg_event w tag_rcv ~tid ~msg ~reason

let start w ~tid ~name =
  add_u8 w.block tag_start;
  add_u32 w.block tid;
  add_str w.block name;
  w.w_events <- w.w_events + 1;
  maybe_flush w

let exit_ w ~tid =
  add_u8 w.block tag_exit;
  add_u32 w.block tid;
  w.w_events <- w.w_events + 1;
  maybe_flush w

let add w (ev : Event.t) =
  match ev with
  | Event.Mem { tid; site; loc; access; lockset } ->
      let lockset_id = intern_lockset w lockset in
      mem w ~tid ~site ~loc ~access ~lockset_id
  | Event.Acquire { tid; lock; site } -> acquire w ~tid ~lock ~site
  | Event.Release { tid; lock; site } -> release w ~tid ~lock ~site
  | Event.Snd { tid; msg; reason } -> snd_ w ~tid ~msg ~reason
  | Event.Rcv { tid; msg; reason } -> rcv w ~tid ~msg ~reason
  | Event.Start { tid; name } -> start w ~tid ~name
  | Event.Exit { tid } -> exit_ w ~tid

let written w = w.w_events

let seal w =
  if w.sealed then invalid_arg "Btrace.seal: writer already sealed";
  w.sealed <- true;
  flush_block w;
  (* trailer: zero frame length (impossible for a real frame) + event
     count.  Frames are self-delimiting, so without this a recording cut
     at a frame boundary would decode as a valid shorter stream —
     silently losing events.  The count cross-checks the decoded stream,
     so a corrupted trailer cannot vouch for a wrong one. *)
  add_u32 w.out 0;
  Buffer.add_int64_le w.out (Int64.of_int w.w_events);
  { raw = Buffer.contents w.out }

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)

let byte_size t = String.length t.raw

let header_len = String.length magic + 2

let check_header raw =
  let n = String.length raw in
  if n < header_len then corrupt "truncated header: %d bytes" n;
  let m = String.sub raw 0 (String.length magic) in
  if m <> magic then corrupt "bad magic %S (expected %S)" m magic;
  let v = Char.code raw.[4] lor (Char.code raw.[5] lsl 8) in
  if v <> version then corrupt "unsupported version %d (expected %d)" v version

(* Record cursor over one frame payload (a substring view of [raw]). *)
type cursor = { c_raw : string; c_limit : int; mutable c_pos : int }

let need cur n what =
  if cur.c_pos + n > cur.c_limit then
    corrupt "truncated %s at byte %d (need %d bytes, frame ends at %d)" what
      cur.c_pos n cur.c_limit

let get_u8 cur what =
  need cur 1 what;
  let v = Char.code cur.c_raw.[cur.c_pos] in
  cur.c_pos <- cur.c_pos + 1;
  v

let get_u32 cur what =
  need cur 4 what;
  let v = Int32.to_int (String.get_int32_le cur.c_raw cur.c_pos) in
  cur.c_pos <- cur.c_pos + 4;
  v

let get_str cur what =
  let n = get_u32 cur what in
  if n < 0 then corrupt "negative string length %d in %s at byte %d" n what cur.c_pos;
  need cur n what;
  let s = String.sub cur.c_raw cur.c_pos n in
  cur.c_pos <- cur.c_pos + n;
  s

type tables = {
  sites : (int, Site.t) Hashtbl.t;
  locs : (int, Loc.t) Hashtbl.t;
  locksets : (int, Lockset.t) Hashtbl.t;
}

let lookup tbl id what pos =
  match Hashtbl.find_opt tbl id with
  | Some v -> v
  | None -> corrupt "undefined %s id %d referenced at byte %d" what id pos

let decode_record tb cur ~tally ~keep_mem emit =
  let at = cur.c_pos in
  let tag = get_u8 cur "record tag" in
  if tag >= tag_mem_read && tag <= tag_exit then incr tally;
  if tag = tag_sitedef then begin
    let id = get_u32 cur "site definition" in
    let line = get_u32 cur "site definition" in
    let col = get_u32 cur "site definition" in
    let file = get_str cur "site definition" in
    let label = get_str cur "site definition" in
    Hashtbl.replace tb.sites id (Site.make ~file ~line ~col label)
  end
  else if tag = tag_locdef then begin
    let id = get_u32 cur "location definition" in
    let loc =
      match get_u8 cur "location kind" with
      | 0 -> Loc.global (get_str cur "location definition")
      | 1 ->
          let o = get_u32 cur "location definition" in
          Loc.field o (get_str cur "location definition")
      | 2 ->
          let a = get_u32 cur "location definition" in
          Loc.elem a (get_u32 cur "location definition")
      | k -> corrupt "unknown location kind %d at byte %d" k at
    in
    Hashtbl.replace tb.locs id loc
  end
  else if tag = tag_locksetdef then begin
    let id = get_u32 cur "lockset definition" in
    let n = get_u32 cur "lockset definition" in
    if n < 0 then corrupt "negative lockset cardinality %d at byte %d" n at;
    let ls = ref Lockset.empty in
    for _ = 1 to n do
      ls := Lockset.add (get_u32 cur "lockset definition") !ls
    done;
    Hashtbl.replace tb.locksets id !ls
  end
  else if tag = tag_mem_read || tag = tag_mem_write then begin
    let tid = get_u32 cur "memory event" in
    let site_id = get_u32 cur "memory event" in
    let loc_id = get_u32 cur "memory event" in
    let ls_id = get_u32 cur "memory event" in
    let loc = lookup tb.locs loc_id "location" at in
    if keep_mem loc then
      emit
        (Event.Mem
           {
             tid;
             site = lookup tb.sites site_id "site" at;
             loc;
             access = (if tag = tag_mem_read then Event.Read else Event.Write);
             lockset = lookup tb.locksets ls_id "lockset" at;
           })
  end
  else if tag = tag_acquire || tag = tag_release then begin
    let tid = get_u32 cur "lock event" in
    let lock = get_u32 cur "lock event" in
    let site_id = get_u32 cur "lock event" in
    let site = lookup tb.sites site_id "site" at in
    emit
      (if tag = tag_acquire then Event.Acquire { tid; lock; site }
       else Event.Release { tid; lock; site })
  end
  else if tag = tag_snd || tag = tag_rcv then begin
    let tid = get_u32 cur "sync event" in
    let msg = get_u32 cur "sync event" in
    let reason =
      match get_u8 cur "sync reason" with
      | 0 -> Event.Fork
      | 1 -> Event.Join
      | 2 -> Event.Notify
      | r -> corrupt "unknown sync reason %d at byte %d" r at
    in
    emit
      (if tag = tag_snd then Event.Snd { tid; msg; reason }
       else Event.Rcv { tid; msg; reason })
  end
  else if tag = tag_start then begin
    let tid = get_u32 cur "start event" in
    let name = get_str cur "start event" in
    emit (Event.Start { tid; name })
  end
  else if tag = tag_exit then emit (Event.Exit { tid = get_u32 cur "exit event" })
  else corrupt "unknown record tag 0x%02x at byte %d" tag at

let decode_raw raw ~keep_mem emit =
  check_header raw;
  let n = String.length raw in
  let tb =
    { sites = Hashtbl.create 64; locs = Hashtbl.create 64; locksets = Hashtbl.create 16 }
  in
  let pos = ref header_len in
  let tally = ref 0 in
  let sealed_count = ref None in
  while !sealed_count = None && !pos < n do
    let plen = Sealed.check raw !pos in
    if plen = 0 then begin
      (* trailer: u32 zero + u64 event count, then end of stream *)
      if !pos + 4 + 8 > n then corrupt "truncated trailer at byte %d" !pos;
      sealed_count := Some (Int64.to_int (String.get_int64_le raw (!pos + 4)));
      if !pos + 4 + 8 < n then
        corrupt "trailing data after trailer at byte %d" (!pos + 4 + 8)
    end
    else begin
      let payload_at = !pos + 4 in
      let cur = { c_raw = raw; c_limit = payload_at + plen; c_pos = payload_at } in
      while cur.c_pos < cur.c_limit do
        decode_record tb cur ~tally ~keep_mem emit
      done;
      pos := payload_at + plen + 8
    end
  done;
  match !sealed_count with
  | None ->
      corrupt "truncated recording: missing trailer (stream ends at byte %d)" n
  | Some c ->
      if c <> !tally then
        corrupt "trailer event count mismatch: sealed %d, decoded %d" c !tally

let iter ?(keep_mem = fun _ -> true) f t = decode_raw t.raw ~keep_mem f

let length t =
  let n = ref 0 in
  iter (fun _ -> incr n) t;
  !n

let to_trace t =
  let tr = Trace.create () in
  iter (Trace.add tr) t;
  tr

let of_trace tr =
  let w = writer () in
  Trace.iter (add w) tr;
  seal w

let to_string t = t.raw

let of_string raw =
  decode_raw raw ~keep_mem:(fun _ -> true) ignore;
  { raw }

let save path t =
  let oc = open_out_bin path in
  output_string oc t.raw;
  close_out oc

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_string s
