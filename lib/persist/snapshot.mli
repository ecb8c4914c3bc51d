(** Versioned, CRC-framed binary snapshots of a whole store.

    A snapshot (format v2) is the {!Frame} header (magic ["HYPSNAP\x01"],
    aux = key count; flags bit 0 = preprocess, bits 1-2 = key-encoder
    scheme id), then one CRC-framed {e dictionary record} (empty payload
    for the identity codec, the 258-byte {!Compress.dict_to_string}
    blob for the dict scheme), then one CRC-framed record per binding,
    written by streaming {!Hyperion.Store.Stored.iter}'s ordered
    enumeration.  Record payloads are [tag · key · value?]: tag [0] is a
    value-less (type-10) key, tag [1] appends the 8-byte LE value.  Keys
    are the store's {e stored} form (dictionary-encoded, before
    pre-processing), so recovery needs no retraining and no re-encoding
    pass.  The codec is read from the store on save and rebuilt from the
    file on load.

    The header fingerprint is {!Frame.fingerprint} of the config and the
    codec, so a dictionary swap changes the fingerprint even though the
    config is equal.  Format v1 files (no
    dictionary record, identity encoder, plain config fingerprint) are
    still read: identity mixes as a no-op, so their fingerprints verify
    unchanged.

    [save] is atomic: it writes [path ^ ".tmp"], fsyncs, renames over
    [path], then fsyncs the directory — a crash mid-snapshot leaves at
    worst a stale [.tmp] and the previous generation intact.

    Load reinserts records by sorted bulk insertion (ascending key order is
    the trie's cheapest insertion order: every put descends a warm
    right-edge path). *)

val format_version : int
(** 2.  Files at version 1 are accepted by {!load}; anything else is
    [Version_mismatch]. *)

val magic : string

type header = {
  version : int;
  preprocess : bool;
  encoder : int;  (** key-encoder scheme id (0 identity, 1 dict) *)
  fingerprint : int64;  (** already encoder-mixed *)
  count : int;
}

val probe :
  ?io:Io.t -> string -> (header * Compress.t, Hyperion.Hyperion_error.t) result
(** Header {e and} the persisted encoder (dictionary parsed and
    validated), without loading records — what config inference needs. *)

val save :
  ?io:Io.t -> Hyperion.Store.t -> string ->
  (int, Hyperion.Hyperion_error.t) result
(** [save store path] writes atomically and returns the snapshot's size
    in bytes; the store's codec is persisted alongside its keys.  All
    syscalls go through [io] (default {!Io.none}); errors are
    [Io_error].  A refused directory fsync is tolerated and counted (see
    {!Io.fsync_dir}). *)

val load :
  ?io:Io.t -> config:Hyperion.Config.t -> string ->
  (Hyperion.Store.t, Hyperion.Hyperion_error.t) result
(** Rebuild a store from [path]; it carries the codec persisted in the
    file ({!Hyperion.Store.codec}).  [Version_mismatch] when the format
    version is neither 1 nor 2, or when the file's codec scheme differs
    from [config.compress] ([found] is the file codec's
    {!Compress.tag}); [Corrupt_snapshot] on bad magic, any CRC mismatch,
    a malformed dictionary, truncation, trailing bytes, a record count
    that disagrees with the header, or a fingerprint differing from
    [config]'s under the file's codec; [Io_error] on OS failures.  Never
    raises on file contents. *)
