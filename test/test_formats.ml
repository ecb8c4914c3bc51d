(* On-disk format compatibility.  The files under fixtures/ were written
   by the code at commit 0f11cf5, when the dictionary encoder still sat
   in front of the store (see fixtures/README.md for the generator).  The
   current code must load each of them to the same bindings and, given
   the same input, write snapshot and WAL bytes identical to them. *)

module H = Hyperion
module C = H.Config
module S = H.Store
module E = H.Hyperion_error

let fixture name = Filename.concat "fixtures" name
let read name = In_channel.with_open_bin (fixture name) In_channel.input_all

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (E.to_string e)

(* The generator's inputs, restated. *)
let str_keys =
  List.init 24 (fun i ->
      ( Printf.sprintf "fixture/%s/%03d" (if i mod 3 = 0 then "alpha" else "beta") i,
        if i mod 5 = 4 then None else Some (Int64.of_int (i * 7919)) ))

let int_keys =
  List.init 24 (fun i ->
      let b = Bytes.create 8 in
      Bytes.set_int64_be b 0 (Int64.of_int ((i * 1_000_003) + 17));
      (Bytes.to_string b, if i mod 5 = 4 then None else Some (Int64.of_int i)))

let enc = Compress.Dict (Compress.train (List.to_seq (List.map fst str_keys)))
let cfg_dict = { C.strings with compress = 1 }
let cfg_pre = { C.default with preprocess = true }
let sorted kv = List.sort (fun (a, _) (b, _) -> String.compare a b) kv

let dump store =
  let acc = ref [] in
  S.iter store (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let binding = Alcotest.(list (pair string (option int64)))

let build ~config ?compress kv =
  let st = S.create ~config ?compress () in
  List.iter
    (fun (k, v) ->
      match v with Some v -> S.put st k v | None -> S.add st k)
    kv;
  st

let saved_bytes store =
  let path = Filename.temp_file "hyperion_format" ".hyp" in
  ignore (ok "save" (Persist.save_snapshot store path));
  let b = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  b

let test_identity_v1 () =
  let st = ok "load" (Persist.load_snapshot (fixture "identity-v1.hyp")) in
  Alcotest.(check bool) "identity codec" true
    (Compress.equal Compress.Identity (S.codec st));
  Alcotest.check binding "bindings" (sorted str_keys) (dump st)

let test_dict_v2 () =
  let st = ok "load" (Persist.load_snapshot (fixture "dict-v2.hyp")) in
  Alcotest.(check bool) "dictionary travels in the file" true
    (Compress.equal enc (S.codec st));
  Alcotest.check binding "bindings" (sorted str_keys) (dump st);
  Alcotest.(check string) "written bytes" (read "dict-v2.hyp")
    (saved_bytes (build ~config:cfg_dict ~compress:enc str_keys))

let test_preprocess_v2 () =
  let st = ok "load" (Persist.load_snapshot (fixture "preprocess-v2.hyp")) in
  Alcotest.(check bool) "preprocess config inferred" true
    (S.config st).C.preprocess;
  Alcotest.check binding "bindings" (sorted int_keys) (dump st);
  Alcotest.(check string) "written bytes" (read "preprocess-v2.hyp")
    (saved_bytes (build ~config:cfg_pre int_keys))

(* The WAL's last record is torn: the fixture is the bytes the current
   writer produces for these five records, minus the last five bytes. *)
let wal_ops =
  [
    `Put ("wal/one", 1L);
    `Add "wal/two";
    `Delete "fixture/alpha/000";
    `Put ("fixture/beta/001", 42L);
    `Put ("wal/torn", 99L);
  ]

let test_dict_wal () =
  let store = S.create ~config:cfg_dict ~compress:enc () in
  let path = Filename.temp_file "hyperion_format" ".log" in
  let w = ok "create" (Persist.Wal.create ~store ~gen:3 path) in
  List.iter
    (fun op ->
      let stored k = (ok "of_key" (S.Stored.of_key store k) :> string) in
      let op =
        match op with
        | `Put (k, v) -> Persist.Wal.Put (stored k, v)
        | `Add k -> Persist.Wal.Add (stored k)
        | `Delete k -> Persist.Wal.Delete (stored k)
      in
      ignore (ok "append" (Persist.Wal.append w op)))
    wal_ops;
  ok "close" (Persist.Wal.close w);
  let full = In_channel.with_open_bin path In_channel.input_all in
  let torn = read "dict-torn.log" in
  Alcotest.(check string) "written bytes"
    (String.sub full 0 (String.length full - 5))
    torn;
  (* replay the parent's torn log into the store it was written for *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc torn);
  let applied = ref [] in
  let r =
    ok "replay"
      (Persist.Wal.replay ~store ~gen:3 path ~f:(fun op ->
           applied := op :: !applied;
           Ok ()))
  in
  Sys.remove path;
  Alcotest.(check int) "complete records" 4 r.Persist.Wal.records;
  Alcotest.(check bool) "torn tail cut" true r.Persist.Wal.truncated;
  let decode k =
    match Compress.decode enc k with Ok k -> k | Error why -> Alcotest.fail why
  in
  Alcotest.(check (list string)) "record keys"
    [ "wal/one"; "wal/two"; "fixture/alpha/000"; "fixture/beta/001" ]
    (List.rev_map
       (function
         | Persist.Wal.Put (k, _) | Persist.Wal.Add k | Persist.Wal.Delete k ->
             decode k)
       !applied)

(* The dict snapshot and the torn WAL together form a parent-written
   generation 3; the durability layer recovers it without a dictionary
   argument. *)
let test_directory_reopens () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyperion_format_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let put name data =
    Out_channel.with_open_bin name (fun oc -> Out_channel.output_string oc data)
  in
  put (Persist.snapshot_file ~dir ~gen:3) (read "dict-v2.hyp");
  put (Persist.wal_file ~dir ~gen:3) (read "dict-torn.log");
  let p = ok "open" (Persist.open_or_create ~config:cfg_dict dir) in
  let r = Persist.recovery p in
  Alcotest.(check int) "generation" 3 r.Persist.generation;
  Alcotest.(check int) "replayed" 4 r.Persist.replayed_ops;
  let expect =
    sorted
      (("wal/one", Some 1L) :: ("wal/two", None)
      :: List.filter_map
           (fun (k, v) ->
             if k = "fixture/alpha/000" then None
             else if k = "fixture/beta/001" then Some (k, Some 42L)
             else Some (k, v))
           str_keys)
  in
  Alcotest.check binding "bindings" expect (dump (Persist.store p));
  ok "close" (Persist.close p);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* Codec-mixed fingerprints of the stock configs, as the parent computed
   them; [Config.t] and the mixing step must never move these. *)
let test_fingerprints () =
  let pins =
    [
      (C.default, 0x6e50f030cf8711dcL, 0x1d0fb86c305dc71aL);
      (C.strings, 0xc1f3bced91071dcL, 0x2a151cedd8e0e71aL);
      (cfg_pre, 0x6e4d8c30cf843219L, 0x379ccb57400be7a5L);
      ({ C.strings with preprocess = true }, 0xc1bd7ced90d9219L, 0x55d673d1c20f07a5L);
      ({ C.strings with chunks_per_bin = 64 }, 0xf233c95a8e8fa91cL, 0x20fc321cd4cbd95aL);
    ]
  in
  Alcotest.(check int64) "dictionary hash" 0xca3598cbcfde1accL (Compress.hash enc);
  List.iter
    (fun (c, id, dict) ->
      Alcotest.(check int64) "identity" id
        (Compress.mix_fingerprint (C.fingerprint c) Compress.Identity);
      Alcotest.(check int64) "dict" dict
        (Compress.mix_fingerprint (C.fingerprint { c with compress = 1 }) enc))
    pins

let () =
  Alcotest.run "formats"
    [
      ( "fixtures",
        [
          Alcotest.test_case "identity v1 snapshot" `Quick test_identity_v1;
          Alcotest.test_case "dict v2 snapshot" `Quick test_dict_v2;
          Alcotest.test_case "preprocess v2 snapshot" `Quick test_preprocess_v2;
          Alcotest.test_case "dict WAL with torn tail" `Quick test_dict_wal;
          Alcotest.test_case "parent directory reopens" `Quick
            test_directory_reopens;
          Alcotest.test_case "fingerprints pinned" `Quick test_fingerprints;
        ] );
    ]
