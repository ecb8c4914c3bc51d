(** Shared on-disk framing of the durability formats.

    Both persisted files open with the same 32-byte header shape —

    {v
      0  magic            8 bytes   ("HYPSNAP\x01" / "HYPWAL\x00\x01")
      8  format version   u16 LE
      10 flags            u16 LE    (bit 0: preprocess, bits 1-2: codec id)
      12 fingerprint      u64 LE    (see {!fingerprint})
      20 aux              u64 LE    (snapshot: key count; WAL: generation)
      28 CRC-32 of bytes [0, 28)    u32 LE
    v}

    — followed by CRC-framed records: [u32 LE payload length · payload ·
    u32 LE CRC-32(payload)].  All integers little-endian. *)

val header_size : int
val frame_overhead : int
(** Bytes a record adds around its payload: 8 (length + CRC words). *)

val max_payload : int
(** Upper bound accepted for one record payload (a touch over the 2^20-byte
    key limit); anything larger read back is treated as corruption. *)

val make_header :
  magic:string -> version:int -> flags:int -> fingerprint:int64 -> aux:int64 ->
  Bytes.t

val fingerprint : Hyperion.Config.t -> Compress.t -> int64
(** {!Compress.mix_fingerprint} of {!Hyperion.Config.fingerprint}: the
    identity codec leaves the config fingerprint unchanged, so files
    written before key compression existed still verify. *)

val store_header : magic:string -> version:int -> aux:int64 -> Hyperion.Store.t -> Bytes.t
(** The header of a file holding [store]'s stored keys: its config's
    preprocess flag and codec id in the flags, {!fingerprint} of its
    config and codec. *)

type header = { version : int; flags : int; fingerprint : int64; aux : int64 }

type header_error = Short | Bad_magic | Bad_crc

val parse_header : magic:string -> Bytes.t -> (header, header_error) result
(** Validates magic and header CRC only — version and fingerprint checks
    are the caller's (they map to different {!Hyperion.Hyperion_error.t}
    variants per format). *)

val frame : string -> Bytes.t
(** [frame payload] is the full record: length word, payload, CRC word. *)

type record_error = Rec_short | Rec_bad_crc | Rec_bad_len

val read_record : Bytes.t -> pos:int -> (string * int, record_error) result
(** [read_record buf ~pos] decodes the record starting at [pos] and returns
    [(payload, next_pos)].  Any of the three errors at the physical end of
    a WAL is a torn tail.  Whole-file reads live in {!Io.read_file}: this
    module is pure. *)
