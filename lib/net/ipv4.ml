type proto = Tcp | Udp | Unknown of int

type t = {
  src : Addr.ip;
  dst : Addr.ip;
  proto : proto;
  ttl : int;
  ident : int;
  payload : string;
}

type view = {
  src : Addr.ip;
  dst : Addr.ip;
  proto : proto;
  ttl : int;
  ident : int;
  off : int;
  len : int;
}

let header_size = 20

let proto_to_int = function Tcp -> 6 | Udp -> 17 | Unknown v -> v
let proto_of_int = function 6 -> Tcp | 17 -> Udp | v -> Unknown v

let write b off ~src ~dst ~proto ~ttl ~ident ~len =
  Wire.set_u8 b off 0x45; (* version 4, ihl 5 *)
  Wire.set_u8 b (off + 1) 0;
  Wire.set_u16 b (off + 2) len;
  Wire.set_u16 b (off + 4) ident;
  Wire.set_u16 b (off + 6) 0; (* no fragmentation *)
  Wire.set_u8 b (off + 8) ttl;
  Wire.set_u8 b (off + 9) (proto_to_int proto);
  Wire.set_u16 b (off + 10) 0; (* checksum placeholder *)
  Wire.set_u32 b (off + 12) src;
  Wire.set_u32 b (off + 16) dst;
  Wire.set_u16 b (off + 10) (Dk_util.Checksum.compute b off header_size)

let read b off len =
  if len < header_size then Error "ipv4: too short"
  else if Wire.get_u8 b off <> 0x45 then Error "ipv4: bad version/ihl"
  else if not (Dk_util.Checksum.verify b off header_size) then
    Error "ipv4: bad header checksum"
  else
    let total = Wire.get_u16 b (off + 2) in
    if total > len || total < header_size then Error "ipv4: bad total length"
    else
      Ok
        {
          src = Wire.get_u32 b (off + 12);
          dst = Wire.get_u32 b (off + 16);
          proto = proto_of_int (Wire.get_u8 b (off + 9));
          ttl = Wire.get_u8 b (off + 8);
          ident = Wire.get_u16 b (off + 4);
          off = off + header_size;
          len = total - header_size;
        }

let encode (t : t) =
  let n = String.length t.payload in
  let b = Bytes.create (header_size + n) in
  write b 0 ~src:t.src ~dst:t.dst ~proto:t.proto ~ttl:t.ttl ~ident:t.ident
    ~len:(header_size + n);
  Bytes.blit_string t.payload 0 b header_size n;
  Bytes.unsafe_to_string b

let decode s =
  match read (Bytes.unsafe_of_string s) 0 (String.length s) with
  | Error e -> Error e
  | Ok v ->
      Ok
        {
          src = v.src;
          dst = v.dst;
          proto = v.proto;
          ttl = v.ttl;
          ident = v.ident;
          payload = String.sub s v.off v.len;
        }

(* The 12-byte pseudo header is six 16-bit words: the two halves of
   each address, the zero-padded protocol and the length. *)
let pseudo_header_sum ~src ~dst ~proto ~len =
  ((src lsr 16) land 0xffff)
  + (src land 0xffff)
  + ((dst lsr 16) land 0xffff)
  + (dst land 0xffff)
  + (proto land 0xff)
  + (len land 0xffff)
