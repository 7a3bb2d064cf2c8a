type t = { src_port : int; dst_port : int; payload : string }
type view = { src_port : int; dst_port : int; off : int; len : int }

let header_size = 8

let checksum ~src_ip ~dst_ip b off len =
  let pseudo = Ipv4.pseudo_header_sum ~src:src_ip ~dst:dst_ip ~proto:17 ~len in
  Dk_util.Checksum.finish
    (Dk_util.Checksum.ones_complement_sum ~init:pseudo b off len)

let write b off ~src_ip ~dst_ip ~src_port ~dst_port ~len =
  Wire.set_u16 b off src_port;
  Wire.set_u16 b (off + 2) dst_port;
  Wire.set_u16 b (off + 4) len;
  Wire.set_u16 b (off + 6) 0;
  let csum = checksum ~src_ip ~dst_ip b off len in
  Wire.set_u16 b (off + 6) (if csum = 0 then 0xffff else csum)

let read ~src_ip ~dst_ip b off len =
  if len < header_size then Error "udp: too short"
  else
    let ulen = Wire.get_u16 b (off + 4) in
    if ulen < header_size || ulen > len then Error "udp: bad length"
    else if checksum ~src_ip ~dst_ip b off ulen <> 0 then
      Error "udp: bad checksum"
    else
      Ok
        {
          src_port = Wire.get_u16 b off;
          dst_port = Wire.get_u16 b (off + 2);
          off = off + header_size;
          len = ulen - header_size;
        }

let encode ~src_ip ~dst_ip (t : t) =
  let n = String.length t.payload in
  let b = Bytes.create (header_size + n) in
  Bytes.blit_string t.payload 0 b header_size n;
  write b 0 ~src_ip ~dst_ip ~src_port:t.src_port ~dst_port:t.dst_port
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
          payload = String.sub s v.off v.len;
        }
