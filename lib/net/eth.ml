type ethertype = Arp | Ipv4 | Unknown of int

type t = { dst : Addr.mac; src : Addr.mac; ethertype : ethertype; payload : string }

type view = {
  dst : Addr.mac;
  src : Addr.mac;
  ethertype : ethertype;
  off : int;
  len : int;
}

let header_size = 14

let ethertype_to_int = function
  | Arp -> 0x0806
  | Ipv4 -> 0x0800
  | Unknown v -> v

let ethertype_of_int = function
  | 0x0806 -> Arp
  | 0x0800 -> Ipv4
  | v -> Unknown v

let write b off ~dst ~src ~ethertype =
  Wire.set_u48 b off dst;
  Wire.set_u48 b (off + 6) src;
  Wire.set_u16 b (off + 12) (ethertype_to_int ethertype)

let read b off len =
  if len < header_size then Error "eth: frame too short"
  else
    Ok
      {
        dst = Wire.get_u48 b off;
        src = Wire.get_u48 b (off + 6);
        ethertype = ethertype_of_int (Wire.get_u16 b (off + 12));
        off = off + header_size;
        len = len - header_size;
      }

let encode (t : t) =
  let n = String.length t.payload in
  let b = Bytes.create (header_size + n) in
  write b 0 ~dst:t.dst ~src:t.src ~ethertype:t.ethertype;
  Bytes.blit_string t.payload 0 b header_size n;
  Bytes.unsafe_to_string b

let decode s =
  match read (Bytes.unsafe_of_string s) 0 (String.length s) with
  | Error e -> Error e
  | Ok v ->
      Ok
        {
          dst = v.dst;
          src = v.src;
          ethertype = v.ethertype;
          payload = String.sub s v.off v.len;
        }

let pp ppf (t : t) =
  let kind =
    match t.ethertype with
    | Arp -> "arp"
    | Ipv4 -> "ipv4"
    | Unknown v -> Printf.sprintf "0x%04x" v
  in
  Format.fprintf ppf "eth %a -> %a (%s, %d B)" Addr.pp_mac t.src Addr.pp_mac
    t.dst kind (String.length t.payload)
