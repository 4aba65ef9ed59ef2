exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt
let overhead = 4 + 8

let add buf payload =
  if payload = "" then invalid_arg "Sealed.add: empty payload";
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.add_int64_le buf (Fnv.hash64 payload)

let encode payload =
  let buf = Buffer.create (String.length payload + overhead) in
  add buf payload;
  Buffer.contents buf

let check s pos =
  let n = String.length s in
  if pos + 4 > n then corrupt "truncated frame header at byte %d" pos;
  let len = Int32.to_int (String.get_int32_le s pos) in
  if len < 0 then corrupt "bad frame length %d at byte %d" len pos;
  if len > 0 then begin
    let payload = pos + 4 in
    if payload + len + 8 > n then
      corrupt "truncated frame at byte %d: declared %d payload bytes, %d available"
        pos len (n - payload - 8);
    let stored = String.get_int64_le s (payload + len) in
    let computed = Fnv.hash64_sub s ~pos:payload ~len in
    if stored <> computed then
      corrupt "frame checksum mismatch at byte %d: stored %Lx, computed %Lx" pos
        stored computed
  end;
  len
