(** Order-preserving key compression (HOPE-style, arXiv 2003.02391).

    The key codec a {!Hyperion.Store.t} owns, beneath its interface
    ({!Hyperion.Store.create}[ ~compress]): the store encodes every user
    key into its stored form — what the trie, snapshot records and WAL
    records hold — and decodes keys again on the way out (range/iter).
    Layers above the store pass user keys; shard routing only reads
    {!first_byte}.

    Two schemes:
    - {b identity} (id 0): the no-op encoder; [encode]/[decode] return the
      key unchanged.
    - {b dict} (id 1): a trained single-byte code dictionary.  Each of the
      256 byte values plus one virtual end-of-string terminator gets a
      prefix-free variable-length bit code from a weight-balanced
      {e alphabetic} (order-preserving) code tree built over sampled key
      frequencies; a key's code is the concatenation of its bytes' codes,
      the terminator code, and up to 7 zero padding bits.

    {2 Order-preservation contract}

    For every encoder [e] and all keys [a], [b]:
    [compare (encode e a) (encode e b)] has the same sign as
    [compare a b], and [decode e (encode e a) = Ok a].

    For the dict scheme this holds because (1) the code is alphabetic:
    symbol order equals code order as left-aligned bit strings, so the
    first differing byte of two keys yields a 0-versus-1 bit at the same
    position of their encodings; (2) the terminator sorts below every
    byte value, so a strict prefix still sorts first; and (3) the code is
    prefix-free and padding is sub-byte zeros, so decoding is exact.  The
    property is machine-checked by qcheck in [test/test_compress.ml]. *)

type dict
(** A trained single-byte code dictionary (immutable). *)

type t = Identity | Dict of dict

val id : t -> int
(** Scheme id: 0 = identity, 1 = dict.  This is the value carried in
    {!Hyperion.Config.t}[.compress] and in snapshot header flags. *)

val name : t -> string
(** ["identity"] or ["dict"]. *)

val equal : t -> t -> bool
(** Same scheme {e and} (for dict) the same dictionary bytes. *)

val hash : t -> int64
(** FNV-1a of the serialized dictionary; [0L] for identity.  Mixed into
    persisted fingerprints so a load under the wrong dictionary fails
    loudly instead of serving garbled keys. *)

val tag : t -> int
(** A small non-negative int identifying the encoder for
    [Version_mismatch { found; expected }] payloads: 0 for identity,
    [1 lor (hash excerpt lsl 4)] for a dict — so two different
    dictionaries almost surely get different tags. *)

val mix_fingerprint : int64 -> t -> int64
(** [mix_fingerprint fp e] folds the encoder identity into a config
    fingerprint.  Identity leaves [fp] unchanged (pre-compression
    snapshots and WALs keep their historical fingerprints); a dict mixes
    the scheme id and dictionary hash with the same FNV-1a step as
    {!Hyperion.Config.fingerprint}. *)

(** {1 Training} *)

val train : string Seq.t -> dict
(** Build a dictionary from a key sample.  Byte frequencies are counted
    (plus one occurrence of the terminator per key), smoothed by +1 so
    every byte value stays encodable, and turned into an alphabetic code
    by recursive weight-balanced splitting.  Code lengths are capped at
    {!max_code_bits} (weights are halved and the tree rebuilt in the rare
    case the cap is exceeded).  Deterministic in the sample sequence. *)

val max_code_bits : int
(** Upper bound on one symbol's code length (32). *)

(** {1 Encoding} *)

val encode : t -> string -> string
(** [encode e key] is the key's stored form.  Identity
    returns [key] itself (no copy).  Worst-case dict expansion is
    [max_code_bits / 8] times; typical trained-corpus output is 30–50%
    {e shorter}. *)

val decode : t -> string -> (string, string) result
(** Exact inverse of {!encode} on its image.  [Error why] when the bytes
    are not a valid encoding (truncated code, bytes after the terminator,
    nonzero padding) — on store contents that can only mean the wrong
    dictionary or corruption. *)

val first_byte : t -> string -> int
(** [first_byte e key = Char.code (encode e key).[0]] without building
    the full encoding — the shard router's path.  (Every encoding is
    non-empty: even [""] encodes to the terminator code padded to one
    byte.) *)

val encoded_length : t -> string -> int
(** [String.length (encode e key)] without building the encoding. *)

(** {1 Dictionary serialization} *)

val dict_to_string : dict -> string
(** 258 bytes: one scheme byte (0x01) followed by the 257 code lengths
    (terminator first, then byte values in order).  Code values are not
    stored: an alphabetic code is uniquely reconstructible from its
    length sequence. *)

val dict_of_string : string -> (dict, string) result
(** Parse and fully validate ({!dict_to_string} round-trips): length
    bounds, Kraft completeness, canonical code reconstruction,
    prefix-freeness.  [Error why] on anything else. *)

val dict_hash : dict -> int64
(** {!hash} of [Dict d]. *)

val of_id : ?dict:dict -> int -> (t, string) result
(** Resolve a {!Hyperion.Config.t}[.compress] scheme id to an encoder:
    [0] is [Identity]; [1] requires [?dict]. *)
