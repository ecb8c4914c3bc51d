(* Reflected CRC-32 with polynomial 0xEDB88320 (IEEE 802.3).  The table is
   built eagerly at module initialisation: a [lazy] forced concurrently by
   parallel recovery domains raises [CamlinternalLazy.Undefined].  The
   loop runs on unboxed [int]s holding the 32-bit register. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let mask = 0xFFFFFFFF

let bytes ?(crc = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes";
  (* SAFETY: [pos, pos+len) was validated against [b] just above, and
     every table index is masked to [0, 255] (the table has 256
     entries). *)
  let c = ref (Int32.to_int crc land mask lxor mask) in
  for i = pos to pos + len - 1 do
    let idx = (!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF in
    c := Array.unsafe_get table idx lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor mask)

let string ?crc s ~pos ~len =
  (* SAFETY: the aliased bytes are only ever read — [bytes] reads within
     the validated [pos, pos+len) window and never writes — so the
     immutable string is not mutated through the alias. *)
  bytes ?crc (Bytes.unsafe_of_string s) ~pos ~len
