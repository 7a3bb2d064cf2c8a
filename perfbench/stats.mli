(** Order statistics and per-op normalisation for the benchmark's
    reports. Quantiles use the nearest-rank rule on exact samples. *)

type samples
(** A fixed-capacity buffer of integer samples (host ns, virtual ns). *)

val samples : int -> samples

val add : samples -> int -> unit
(** Samples beyond the capacity are not kept. *)

val length : samples -> int
val clear : samples -> unit
val to_array : samples -> int array
(** In the order added. *)

val sorted : samples -> int array

val quantile_sorted : int array -> float -> int
(** @raise Invalid_argument on an empty array. *)

val beyond : int -> float -> int
(** Samples strictly above the quantile's rank. *)

val tail_quantile : int -> float option
(** The highest quantile of the ladder 0.5, 0.9, 0.99, 0.999, 0.9999,
    0.99999 with at least ten samples beyond it; [None] below 11
    samples. *)

val median_float : float list -> float
(** @raise Invalid_argument on an empty list. *)

val per_op : int -> ops:int -> float
(** A count over an op count; 0 when no ops ran. *)

val ratio : float -> float -> float
(** Division that reads 0 on a zero base. *)

val max_over_mean : float list -> float
(** Imbalance across parts: 1.0 is perfectly even. *)
