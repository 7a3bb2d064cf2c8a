type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_seq : int;
  flags : flags;
  window : int;
  payload : string;
}

type view = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_seq : int;
  flags : flags;
  window : int;
  buf : bytes;
  off : int;
  len : int;
}

let header_size = 20
let no_flags = { syn = false; ack = false; fin = false; rst = false }

let flags_to_int f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor if f.ack then 0x10 else 0

let flags_of_int v =
  {
    fin = v land 0x01 <> 0;
    syn = v land 0x02 <> 0;
    rst = v land 0x04 <> 0;
    ack = v land 0x10 <> 0;
  }

(* Sum of the segment's [len] bytes at [off], folded with the pseudo
   header: 0 for a segment whose checksum field is right. *)
let checksum ~src_ip ~dst_ip b off len =
  let pseudo = Ipv4.pseudo_header_sum ~src:src_ip ~dst:dst_ip ~proto:6 ~len in
  Dk_util.Checksum.finish
    (Dk_util.Checksum.ones_complement_sum ~init:pseudo b off len)

let write b off ~src_ip ~dst_ip ~src_port ~dst_port ~seq ~ack_seq ~flags
    ~window ~len =
  Wire.set_u16 b off src_port;
  Wire.set_u16 b (off + 2) dst_port;
  Wire.set_u32 b (off + 4) (seq land 0xffffffff);
  Wire.set_u32 b (off + 8) (ack_seq land 0xffffffff);
  Wire.set_u8 b (off + 12) 0x50; (* data offset = 5 words *)
  Wire.set_u8 b (off + 13) (flags_to_int flags);
  Wire.set_u16 b (off + 14) window;
  Wire.set_u16 b (off + 16) 0; (* checksum placeholder *)
  Wire.set_u16 b (off + 18) 0; (* urgent pointer *)
  Wire.set_u16 b (off + 16) (checksum ~src_ip ~dst_ip b off len)

let read ~src_ip ~dst_ip b off len =
  if len < header_size then Error "tcp: too short"
  else if checksum ~src_ip ~dst_ip b off len <> 0 then Error "tcp: bad checksum"
  else if Wire.get_u8 b (off + 12) lsr 4 <> 5 then
    Error "tcp: options unsupported"
  else
    Ok
      {
        src_port = Wire.get_u16 b off;
        dst_port = Wire.get_u16 b (off + 2);
        seq = Wire.get_u32 b (off + 4);
        ack_seq = Wire.get_u32 b (off + 8);
        flags = flags_of_int (Wire.get_u8 b (off + 13));
        window = Wire.get_u16 b (off + 14);
        buf = b;
        off = off + header_size;
        len = len - header_size;
      }

let encode ~src_ip ~dst_ip (t : t) =
  let n = String.length t.payload in
  let b = Bytes.create (header_size + n) in
  Bytes.blit_string t.payload 0 b header_size n;
  write b 0 ~src_ip ~dst_ip ~src_port:t.src_port ~dst_port:t.dst_port
    ~seq:t.seq ~ack_seq:t.ack_seq ~flags:t.flags ~window:t.window
    ~len:(header_size + n);
  Bytes.unsafe_to_string b

let decode ~src_ip ~dst_ip s =
  match read ~src_ip ~dst_ip (Bytes.unsafe_of_string s) 0 (String.length s) with
  | Error e -> Error e
  | Ok v ->
      Ok
        {
          src_port = v.src_port;
          dst_port = v.dst_port;
          seq = v.seq;
          ack_seq = v.ack_seq;
          flags = v.flags;
          window = v.window;
          payload = String.sub s v.off v.len;
        }

let pp ppf (t : t) =
  let f = t.flags in
  Format.fprintf ppf "tcp %d->%d seq=%d ack=%d%s%s%s%s win=%d len=%d"
    t.src_port t.dst_port t.seq t.ack_seq
    (if f.syn then " SYN" else "")
    (if f.ack then " ACK" else "")
    (if f.fin then " FIN" else "")
    (if f.rst then " RST" else "")
    t.window (String.length t.payload)
