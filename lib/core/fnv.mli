(** 64-bit FNV-1a: the one hash behind {!Plan_cache} keys and
    {!Explain}'s content labels and digests.  Each [mix_*] folds a value
    into a running hash; start from {!offset}.  Digests persist in bench
    baselines, so the byte order is part of the format. *)

val offset : int64

val mix_byte : int64 -> int -> int64
(** The low 8 bits of the int. *)

val mix_int64 : int64 -> int64 -> int64
(** Eight bytes, least significant first. *)

val mix_int : int64 -> int -> int64
(** As {!mix_int64} of the int. *)

val mix_string : int64 -> string -> int64
(** The length (as {!mix_int}), then each byte. *)

val hex : int64 -> string
(** 16 lowercase hex digits. *)
