(** Machine-speed yardstick for host-time metrics.

    The benchmark runs on shared virtual machines whose speed drifts by
    up to 1.6x within half a minute, for the same process and the same
    work. Host time is therefore measured in blocks, each followed by a
    few milliseconds of a fixed allocation-heavy loop (list building and
    folding, i.e. minor-heap traffic like the simulator's). A block's
    host times are multiplied by the loop's measured speed relative to
    {!nominal_per_s}, which expresses them at a fixed nominal machine
    speed; the loop is benchmark code, so no change to the program moves
    it. Raw (unscaled) figures are printed beside the scaled ones. *)

val nominal_per_s : float

val speed : unit -> float
(** Run the loop a fixed number of times (about 10 ms at nominal speed);
    its rate over the nominal rate (1.0 = nominal, 0.5 = machine running
    at half speed). *)
