(* Span names: one per call boundary the benchmark times. *)

let op = 0
let sga_alloc = 1
let sga_free = 2
let push = 3
let pop = 4
let wait = 5
let k_write = 6
let k_read = 7
let k_epoll = 8
let step = 9
let slice = 10
let shards = 4
let shard_step i = 11 + i

let names =
  Array.append
    [|
      "app.op"; "mem.sga_alloc"; "mem.sga_free"; "core.push"; "core.pop";
      "core.wait"; "kernel.write"; "kernel.read"; "kernel.epoll_wait";
      "sim.step"; "app.slice";
    |]
    (Array.init shards (Printf.sprintf "shard%d.step"))
