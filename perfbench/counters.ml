(* Counters the program already exports, read before and after a
   measured window. *)

module Metrics = Dk_obs.Metrics
module Flight = Dk_obs.Flight

type t = {
  poll_iters : int;
  tokens : int;
  completions : int;
  allocs : int;
  alloc_failures : int;
  frames : int;
  segs : int;
  retransmits : int;
  dup_acks : int;
  bad_frames : int;
  doorbells : int;
  tx_bytes : int;
  rx_dropped : int;
  tx_rejected : int;
  fabric_lost : int;
  flight_records : int;
  flight_evicted : int;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let c name = Metrics.value (Metrics.counter name)

let take () =
  let g = Gc.quick_stat () in
  {
    poll_iters = c "core.poll_iters";
    tokens = c "core.token.minted";
    completions = c "core.token.completed";
    allocs = c "mem.manager.allocs";
    alloc_failures = c "mem.manager.alloc_failures";
    frames = c "net.stack.frames_out";
    segs = c "net.tcp.segs_sent";
    retransmits = c "net.tcp.retransmits";
    dup_acks = c "net.tcp.dup_acks";
    bad_frames = c "net.stack.decode_errors" + c "net.stack.checksum_failures";
    doorbells = c "nic.tx.doorbells";
    tx_bytes = c "device.nic.tx_bytes";
    rx_dropped = c "device.nic.rx_dropped";
    tx_rejected = c "device.nic.tx_rejected";
    fabric_lost = c "device.fabric.lost";
    flight_records = Flight.recorded Flight.default;
    flight_evicted = Flight.evicted Flight.default;
    minor_words = g.Gc.minor_words;
    promoted_words = g.Gc.promoted_words;
    minor_gcs = g.Gc.minor_collections;
    major_gcs = g.Gc.major_collections;
  }

let diff a b =
  {
    poll_iters = b.poll_iters - a.poll_iters;
    tokens = b.tokens - a.tokens;
    completions = b.completions - a.completions;
    allocs = b.allocs - a.allocs;
    alloc_failures = b.alloc_failures - a.alloc_failures;
    frames = b.frames - a.frames;
    segs = b.segs - a.segs;
    retransmits = b.retransmits - a.retransmits;
    dup_acks = b.dup_acks - a.dup_acks;
    bad_frames = b.bad_frames - a.bad_frames;
    doorbells = b.doorbells - a.doorbells;
    tx_bytes = b.tx_bytes - a.tx_bytes;
    rx_dropped = b.rx_dropped - a.rx_dropped;
    tx_rejected = b.tx_rejected - a.tx_rejected;
    fabric_lost = b.fabric_lost - a.fabric_lost;
    flight_records = b.flight_records - a.flight_records;
    flight_evicted = b.flight_evicted - a.flight_evicted;
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
  }

let hwm name = Metrics.gauge_hwm (Metrics.gauge name)
