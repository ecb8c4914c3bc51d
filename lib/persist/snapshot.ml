module E = Hyperion.Hyperion_error

let format_version = 2
let magic = "HYPSNAP\x01"

type header = {
  version : int;
  preprocess : bool;
  encoder : int;
  fingerprint : int64;
  count : int;
}

let corrupt path what = Error (E.Corrupt_snapshot (path ^ ": " ^ what))

(* Header flags: bit 0 = preprocess, bits 1-2 = codec scheme id.  v1
   files predate the codec field; their flags only ever held the
   preprocess bit, so decoding them with this layout reads codec 0
   (identity) — exactly what they were written with. *)
let parse_header path buf =
  match Frame.parse_header ~magic buf with
  | Error Frame.Short -> corrupt path "file shorter than the header"
  | Error Frame.Bad_magic -> corrupt path "bad magic"
  | Error Frame.Bad_crc -> corrupt path "header CRC mismatch"
  | Ok h ->
      if h.Frame.version <> format_version && h.Frame.version <> 1 then
        Error (E.Version_mismatch { found = h.Frame.version; expected = format_version })
      else
        Ok
          {
            version = h.Frame.version;
            preprocess = h.Frame.flags land 1 <> 0;
            encoder = (h.Frame.flags lsr 1) land 3;
            fingerprint = h.Frame.fingerprint;
            count = Int64.to_int h.Frame.aux;
          }

(* The encoder persisted in a v2 file: the framed record right after the
   header — empty payload for identity, the 258-byte dictionary blob for
   the dict scheme.  v1 files have no such record and are identity. *)
let parse_encoder path h buf =
  if h.version = 1 then
    if h.encoder <> 0 then corrupt path "v1 snapshot with nonzero encoder bits"
    else Ok (Compress.Identity, Frame.header_size)
  else
    match Frame.read_record buf ~pos:Frame.header_size with
    | Error _ -> corrupt path "missing or torn dictionary record"
    | Ok (blob, next) -> (
        match h.encoder with
        | 0 ->
            if blob = "" then Ok (Compress.Identity, next)
            else corrupt path "identity snapshot carries a dictionary"
        | 1 -> (
            match Compress.dict_of_string blob with
            | Ok d -> Ok (Compress.Dict d, next)
            | Error why -> corrupt path ("bad dictionary: " ^ why))
        | n -> Error (E.Version_mismatch { found = n; expected = 1 }))

let record_payload key value =
  (* SAFETY: both buffers below are freshly allocated, fully written, and
     never mutated or aliased after the conversion. *)
  let klen = String.length key in
  match value with
  | None ->
      let b = Bytes.create (1 + klen) in
      Bytes.set_uint8 b 0 0;
      Bytes.blit_string key 0 b 1 klen;
      Bytes.unsafe_to_string b
  | Some v ->
      let b = Bytes.create (1 + klen + 8) in
      Bytes.set_uint8 b 0 1;
      Bytes.blit_string key 0 b 1 klen;
      Bytes.set_int64_le b (1 + klen) v;
      Bytes.unsafe_to_string b

let save ?(io = Io.none) store path =
  let tmp = path ^ ".tmp" in
  let ( let* ) = Result.bind in
  let result =
    match Io.Out.create io tmp with
    | Error _ as e -> e
    | Ok w -> (
        let written = ref 0 in
        let body =
          let header =
            Frame.store_header ~magic ~version:format_version
              ~aux:(Int64.of_int (Hyperion.Store.length store))
              store
          in
          let* () = Io.Out.write w header in
          written := Bytes.length header;
          let dict_rec =
            Frame.frame
              (match Hyperion.Store.codec store with
              | Compress.Identity -> ""
              | Compress.Dict d -> Compress.dict_to_string d)
          in
          let* () = Io.Out.write w dict_rec in
          written := !written + Bytes.length dict_rec;
          (* [iter] has no early exit: after the first failure the
             remaining callbacks are no-ops *)
          let err = ref None in
          Hyperion.Store.Stored.iter store (fun key value ->
              if !err = None then begin
                let rec_bytes =
                  Frame.frame (record_payload (key :> string) value)
                in
                match Io.Out.write w rec_bytes with
                | Ok () -> written := !written + Bytes.length rec_bytes
                | Error e -> err := Some e
              end);
          match !err with
          | Some e -> Error e
          | None ->
              let* () = Io.Out.sync w in
              Io.Out.close w
        in
        match body with
        | Error e ->
            Io.Out.abort w;
            Error e
        | Ok () ->
            let* () = Io.rename io tmp path in
            let* () = Io.fsync_dir io (Filename.dirname path) in
            Ok !written)
  in
  match result with
  | Ok _ as ok -> ok
  | Error _ as e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      e

let apply_record store key value =
  match Hyperion.Store.Stored.of_bytes store key with
  | Ok k -> Hyperion.Store.Stored.put store k value
  | Error _ as e -> e

let decode_record path payload =
  let len = String.length payload in
  if len < 1 then corrupt path "empty record payload"
  else
    match payload.[0] with
    | '\x00' when len >= 2 -> Ok (String.sub payload 1 (len - 1), None)
    | '\x01' when len >= 2 + 8 ->
        let key = String.sub payload 1 (len - 9) in
        (* SAFETY: the alias is read-only — one [get_int64_le] inside the
           length-checked payload — so the string is never mutated. *)
        let v = Bytes.get_int64_le (Bytes.unsafe_of_string payload) (len - 8) in
        Ok (key, Some v)
    | _ -> corrupt path "malformed record payload"

let probe ?(io = Io.none) path =
  match Io.read_file io path with
  | Error _ as e -> e
  | Ok buf -> (
      match parse_header path buf with
      | Error _ as e -> e
      | Ok h -> (
          match parse_encoder path h buf with
          | Error _ as e -> e
          | Ok (enc, _) -> Ok (h, enc)))

let load ?(io = Io.none) ~config path =
  match Io.read_file io path with
  | Error _ as e -> e
  | Ok buf -> (
      match parse_header path buf with
      | Error _ as e -> e
      | Ok h -> (
          match parse_encoder path h buf with
          | Error _ as e -> e
          | Ok (codec, records_pos) ->
              let fp = Frame.fingerprint config codec in
              if config.Hyperion.Config.compress <> Compress.id codec then
                (* the config demands a different codec scheme: refusing
                   here is what keeps a dict-encoded file from being
                   served as identity keys *)
                Error
                  (E.Version_mismatch
                     {
                       found = Compress.tag codec;
                       expected = config.Hyperion.Config.compress;
                     })
              else if h.fingerprint <> fp then
                corrupt path
                  (Printf.sprintf
                     "config fingerprint mismatch (file 0x%Lx, config 0x%Lx)"
                     h.fingerprint fp)
              else begin
                let store = Hyperion.Store.create ~config ~compress:codec () in
                let total = Bytes.length buf in
                let rec loop pos seen =
                  if pos = total then
                    if seen = h.count then Ok store
                    else
                      corrupt path
                        (Printf.sprintf
                           "header promises %d records, file has %d" h.count
                           seen)
                  else if seen = h.count then corrupt path "trailing bytes"
                  else
                    match Frame.read_record buf ~pos with
                    | Error Frame.Rec_short -> corrupt path "truncated record"
                    | Error Frame.Rec_bad_len ->
                        corrupt path "absurd record length"
                    | Error Frame.Rec_bad_crc ->
                        corrupt path
                          (Printf.sprintf "record #%d CRC mismatch" seen)
                    | Ok (payload, next) -> (
                        match decode_record path payload with
                        | Error _ as e -> e
                        | Ok (key, value) -> (
                            match apply_record store key value with
                            | Ok () -> loop next (seen + 1)
                            | Error _ as e -> e))
                in
                loop records_pos 0
              end))
