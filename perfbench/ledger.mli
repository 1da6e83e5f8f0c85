(** Serving figures computed from a per-request ledger.

    The scheduler's own headline fields ([goodput_rps], [slo_attainment])
    divide by the arrival window and by admitted requests only; the
    benchmark recomputes every serving figure from the per-request rows
    against a fixed SLO instead.  A request is {e good} when the program
    completed it and its service time (completion - arrival) is within
    the SLO; shed and failed requests, and late completions, are misses. *)

type row = {
  arrival_ms : float;
  completion_ms : float option;  (** When a batch produced its output. *)
  completed : bool;  (** The program's verdict: completed, not shed or failed. *)
}

type summary = {
  arrivals : int;
  good : int;  (** Completed within the SLO. *)
  makespan_s : float;
      (** First arrival to last completion; summed when pooled. *)
  services : float array;
      (** Service times, ascending; a miss is [infinity]. *)
}

val summarise : slo_ms:float -> row list -> summary

val pool : summary list -> summary
(** Several independent campaigns as one sample: counts, makespans and
    service times added up. *)

val goodput_rps : summary -> float
(** Good requests per second of makespan; 0 without completions. *)

val attainment : summary -> float
(** Good requests over {e all} arrivals; 1.0 without arrivals. *)

val percentile : summary -> float -> float
(** Nearest-rank percentile of the service times ([p] in [(0, 1]]);
    [infinity] when it lands on a miss, [nan] without arrivals. *)

val tail : summary -> (float * float * int) option
(** The highest percentile with at least ten samples beyond it:
    [(percentile, value, samples)]; [None] below eleven samples. *)

val miss_reading : slo_ms:float -> float -> float
(** A service-time reading as reported: a miss reads [10 * slo_ms]. *)

type rung = { rate_rps : float; rung_attainment : float }

val max_rate : threshold:float -> rung list -> float
(** Highest sustainable rate on a ladder (ascending rates): the last rung
    of the passing prefix ([attainment >= threshold]) moved towards the
    first failing rung by linear interpolation of attainment across
    [threshold], so that one more or one fewer miss moves the figure a
    little instead of by a whole rung.  Requests shed for a full queue
    (a growing backlog) are misses like any other.  When the lowest rung
    fails the interpolation starts from [(0 rps, attainment 1)]; when no
    rung fails the top rate is returned. *)
