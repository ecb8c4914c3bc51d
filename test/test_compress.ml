(* Order-preserving key compression: encoder properties, dictionary
   serialization, snapshot/persist round trips, shard transparency. *)

let qcheck = QCheck_alcotest.to_alcotest

(* A trained dictionary over n-gram-shaped keys (the corpus the encoder
   is meant for) plus arbitrary binary junk so every byte value has been
   exercised at least via smoothing. *)
let trained =
  let ks = Workload.Keystream.create ~n:2000 () in
  Compress.train (Array.to_seq (Workload.Keystream.keys ks))

let enc = Compress.Dict trained

let arb_key =
  QCheck.(string_gen_of_size (Gen.int_bound 64) Gen.char)

let prop_round_trip =
  QCheck.Test.make ~count:1000 ~name:"encode/decode round trip (arbitrary bytes)"
    arb_key (fun k ->
      match Compress.decode enc (Compress.encode enc k) with
      | Ok k' -> k' = k
      | Error _ -> false)

let prop_order =
  QCheck.Test.make ~count:1000 ~name:"order preservation vs String.compare"
    QCheck.(pair arb_key arb_key)
    (fun (a, b) ->
      let sign n = compare n 0 in
      sign (String.compare (Compress.encode enc a) (Compress.encode enc b))
      = sign (String.compare a b))

let prop_first_byte =
  QCheck.Test.make ~count:1000 ~name:"first_byte agrees with encode"
    arb_key (fun k ->
      Compress.first_byte enc k = Char.code (Compress.encode enc k).[0])

let prop_encoded_length =
  QCheck.Test.make ~count:500 ~name:"encoded_length agrees with encode"
    arb_key (fun k ->
      Compress.encoded_length enc k = String.length (Compress.encode enc k))

let test_dict_serialization () =
  let blob = Compress.dict_to_string trained in
  Alcotest.(check int) "blob size" 258 (String.length blob);
  match Compress.dict_of_string blob with
  | Error why -> Alcotest.failf "dict_of_string: %s" why
  | Ok d ->
      Alcotest.(check bool) "same encoder" true
        (Compress.equal enc (Compress.Dict d));
      Alcotest.(check string) "stable blob" blob (Compress.dict_to_string d);
      let k = "some key\tbytes \x00\xff" in
      Alcotest.(check string) "same encoding"
        (Compress.encode enc k)
        (Compress.encode (Compress.Dict d) k)

let test_dict_rejects_garbage () =
  let reject what s =
    match Compress.dict_of_string s with
    | Ok _ -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  reject "empty" "";
  reject "short" (String.make 10 '\x05');
  reject "bad scheme" ("\x02" ^ String.make 257 '\x08');
  reject "zero length" ("\x01" ^ String.make 257 '\x00');
  reject "non-Kraft lengths" ("\x01" ^ String.make 257 '\x01')

let test_compresses_corpus () =
  let ks = Workload.Keystream.create ~n:1000 () in
  let raw = ref 0 and encd = ref 0 in
  Array.iter
    (fun k ->
      raw := !raw + String.length k;
      encd := !encd + String.length (Compress.encode enc k))
    (Workload.Keystream.keys ks);
  Alcotest.(check bool)
    (Printf.sprintf "n-gram keys shrink (raw %d, encoded %d)" !raw !encd)
    true
    (float_of_int !encd < 0.8 *. float_of_int !raw)

let test_empty_and_prefix () =
  (* "" encodes to the bare terminator and still sorts below everything *)
  let e = Compress.encode enc "" in
  Alcotest.(check bool) "nonempty" true (String.length e >= 1);
  Alcotest.(check (result string string)) "round trip" (Ok "")
    (Compress.decode enc e);
  let a = Compress.encode enc "abc" and ab = Compress.encode enc "abcd" in
  Alcotest.(check bool) "prefix sorts first" true (String.compare a ab < 0)

let test_decode_rejects () =
  let e = Compress.encode enc "hello world" in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  (match Compress.decode enc (e ^ String.make 4 '\x00') with
  | Ok _ -> Alcotest.fail "accepted trailing bytes"
  | Error _ -> ());
  (* flipping a bit either still decodes (to a different key) or errors,
     but must never return the original *)
  match Compress.decode enc (flip e 0) with
  | Ok k -> Alcotest.(check bool) "different key" true (k <> "hello world")
  | Error _ -> ()

let test_of_id () =
  (match Compress.of_id 0 with
  | Ok Compress.Identity -> ()
  | _ -> Alcotest.fail "of_id 0");
  (match Compress.of_id ~dict:trained 1 with
  | Ok (Compress.Dict _) -> ()
  | _ -> Alcotest.fail "of_id 1");
  (match Compress.of_id 1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_id 1 without dict must fail");
  match Compress.of_id 7 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_id 7 must fail"

let test_reservoir () =
  let seq = Seq.init 10_000 (fun i -> Printf.sprintf "key-%05d" i) in
  let a = Workload.Keystream.reservoir ~k:256 seq in
  let b = Workload.Keystream.reservoir ~k:256 seq in
  Alcotest.(check int) "size" 256 (Array.length a);
  Alcotest.(check bool) "deterministic" true (a = b);
  let c = Workload.Keystream.reservoir ~seed:7L ~k:256 seq in
  Alcotest.(check bool) "seed-dependent" true (a <> c);
  let small = Workload.Keystream.reservoir ~k:64 (Seq.init 10 string_of_int) in
  Alcotest.(check int) "short stream keeps everything" 10 (Array.length small)

(* ---- persistence integration ---------------------------------------- *)

module E = Hyperion.Hyperion_error

let cfg_dict =
  { Hyperion.Config.strings with chunks_per_bin = 64; compress = 1 }

let cfg_id = { cfg_dict with compress = 0 }

let fresh_file () = Filename.temp_file "hyperion_compress_test" ".hyp"

let fresh_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyperion-compress-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let sample_keys n =
  Array.init n (fun i -> Printf.sprintf "compress/key-%04d" i)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (E.to_string e)

(* A dict store round-trips through a v2 snapshot: the dictionary travels
   inside the file, and the reloaded store carries it. *)
let test_snapshot_dict_roundtrip () =
  let store = Hyperion.Store.create ~config:cfg_dict ~compress:enc () in
  let keys = sample_keys 500 in
  Array.iteri (fun i k -> Hyperion.Store.put store k (Int64.of_int i)) keys;
  let path = fresh_file () in
  ignore (ok "save" (Persist.save_snapshot store path));
  let store2 = ok "load" (Persist.load_snapshot ~config:cfg_dict path) in
  Alcotest.(check bool) "encoder travels in the file" true
    (Compress.equal enc (Hyperion.Store.codec store2));
  Alcotest.(check int) "length" (Array.length keys)
    (Hyperion.Store.length store2);
  Array.iteri
    (fun i k ->
      Alcotest.(check (option int64))
        k
        (Some (Int64.of_int i))
        (Hyperion.Store.get store2 k))
    keys;
  (* iteration hands back the raw keys, in order *)
  let got = ref [] in
  Hyperion.Store.iter store2 (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "raw keys in order"
    (Array.to_list keys)
    (List.rev !got);
  (* the records hold the encoded keys *)
  let stored = ref [] in
  Hyperion.Store.Stored.iter store2 (fun k _ -> stored := (k :> string) :: !stored);
  Alcotest.(check (list string)) "stored keys are the encodings"
    (Array.to_list (Array.map (Compress.encode enc) keys))
    (List.rev !stored);
  Sys.remove path

(* A hand-built format-v1 file (no dictionary record, plain config
   fingerprint) still loads, as the identity encoder. *)
let test_snapshot_v1_backcompat () =
  let buf = Buffer.create 256 in
  let header =
    Persist.Frame.make_header ~magic:Persist.Snapshot.magic ~version:1 ~flags:0
      ~fingerprint:(Hyperion.Config.fingerprint cfg_id)
      ~aux:2L
  in
  Buffer.add_bytes buf header;
  List.iter
    (fun (k, v) ->
      let klen = String.length k in
      let p = Bytes.create (1 + klen + 8) in
      Bytes.set_uint8 p 0 1;
      Bytes.blit_string k 0 p 1 klen;
      Bytes.set_int64_le p (1 + klen) v;
      Buffer.add_bytes buf (Persist.Frame.frame (Bytes.to_string p)))
    [ ("alpha", 1L); ("beta", 2L) ];
  let path = fresh_file () in
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc;
  let store = ok "load v1" (Persist.load_snapshot ~config:cfg_id path) in
  Alcotest.(check bool) "v1 is identity" true
    (Compress.equal Compress.Identity (Hyperion.Store.codec store));
  Alcotest.(check (option int64)) "alpha" (Some 1L)
    (Hyperion.Store.get store "alpha");
  Alcotest.(check (option int64)) "beta" (Some 2L)
    (Hyperion.Store.get store "beta");
  Sys.remove path

(* Opening under the wrong encoder is a typed refusal, never garbled
   keys: scheme mismatch and dictionary mismatch both map to
   Version_mismatch. *)
let test_encoder_mismatch () =
  let store = Hyperion.Store.create ~config:cfg_dict ~compress:enc () in
  Hyperion.Store.put store "k" 1L;
  let path = fresh_file () in
  ignore (ok "save" (Persist.save_snapshot store path));
  (* identity config against a dict snapshot *)
  (match Persist.load_snapshot ~config:cfg_id path with
  | Error (E.Version_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "identity config must not open a dict snapshot");
  (* same scheme, different dictionary bytes *)
  let other =
    Compress.Dict
      (Compress.train (Seq.init 400 (Printf.sprintf "ZZ-%d-unrelated")))
  in
  Alcotest.(check bool) "dictionaries differ" false (Compress.equal enc other);
  let dir = fresh_dir () in
  let p = ok "open" (Persist.open_or_create ~config:cfg_dict ~compress:enc dir) in
  ok "close" (Persist.close p);
  (match Persist.open_or_create ~config:cfg_dict ~compress:other dir with
  | Error (E.Version_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "mismatched dictionary must not load");
  rm_rf dir;
  (* and an identity store refuses a dict expectation the other way *)
  let id_store = Hyperion.Store.create ~config:cfg_id () in
  Hyperion.Store.put id_store "k" 1L;
  let path2 = fresh_file () in
  ignore (ok "save id" (Persist.save_snapshot id_store path2));
  (match Persist.load_snapshot ~config:cfg_dict path2 with
  | Error (E.Version_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "dict config must not open an identity snapshot");
  Sys.remove path;
  Sys.remove path2

(* The durability layer persists the dictionary and adopts it on reopen —
   including keys that only live in the WAL (logged post-encoding, so
   replay needs no retraining). *)
let test_persist_adopts_dict () =
  let dir = fresh_dir () in
  let p =
    ok "open fresh"
      (Persist.open_or_create ~config:cfg_dict ~compress:enc dir)
  in
  let keys = sample_keys 64 in
  Array.iteri
    (fun i k -> ok "put" (Persist.put p k (Int64.of_int i)))
    keys;
  ok "snapshot" (Persist.snapshot_now p);
  (* a few more keys that exist only in the WAL of the new generation *)
  ok "wal put" (Persist.put p "wal/only-1" 1001L);
  ok "wal put" (Persist.put p "wal/only-2" 1002L);
  ok "close" (Persist.close p);
  (* reopen with no explicit dictionary: the persisted one is adopted *)
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg_dict dir) in
  let store = Persist.store p2 in
  Alcotest.(check bool) "adopted the persisted dictionary" true
    (Compress.equal enc (Hyperion.Store.codec store));
  Array.iteri
    (fun i k ->
      Alcotest.(check (option int64))
        k
        (Some (Int64.of_int i))
        (Hyperion.Store.get store k))
    keys;
  Alcotest.(check (option int64)) "wal key replayed" (Some 1001L)
    (Hyperion.Store.get store "wal/only-1");
  Alcotest.(check (option int64)) "wal key replayed" (Some 1002L)
    (Hyperion.Store.get store "wal/only-2");
  (* a contradicting explicit dictionary is refused *)
  let other =
    Compress.Dict (Compress.train (Seq.init 300 (Printf.sprintf "no-%d")))
  in
  ok "close" (Persist.close p2);
  (match Persist.open_or_create ~config:cfg_dict ~compress:other dir with
  | Error (E.Version_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok p3 ->
      ignore (Persist.close p3);
      Alcotest.fail "contradicting dictionary must not open");
  rm_rf dir

(* The sharded front end is transparent: raw keys in, raw keys out, with
   encoded bytes underneath and the dictionary adopted on reopen. *)
let test_shard_transparency () =
  let dir = fresh_dir () in
  let keys = sample_keys 300 in
  let t =
    ok "open"
      (Hyperion_shard.open_durable ~config:cfg_dict ~compress:enc ~shards:4
         dir)
  in
  Array.iteri
    (fun i k -> Hyperion_shard.put t k (Int64.of_int i))
    keys;
  Alcotest.(check (option int64)) "get raw key" (Some 7L)
    (Hyperion_shard.get t (keys.(7)));
  Alcotest.(check bool) "mem raw key" true (Hyperion_shard.mem t keys.(0));
  Alcotest.(check bool) "delete raw key" true (Hyperion_shard.delete t keys.(299));
  (* iter yields decoded keys, in global raw order *)
  let got = ref [] in
  Hyperion_shard.iter t (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "iter decodes"
    (Array.to_list (Array.sub keys 0 299))
    (List.rev !got);
  (* beneath the store interface the keys are stored encoded *)
  Hyperion_shard.with_quiesced t (fun stores ->
      let raw_hits = ref 0 in
      Array.iter
        (fun s ->
          Hyperion.Store.Stored.iter s (fun k _ ->
              if Array.mem (k :> string) keys then incr raw_hits))
        stores;
      Alcotest.(check int) "raw keys are not stored verbatim" 0 !raw_hits);
  ok "close" (Hyperion_shard.close t);
  (* reopen with nothing: every shard adopts the same persisted dict *)
  let t2 = ok "reopen" (Hyperion_shard.open_durable ~config:cfg_dict ~shards:4 dir) in
  Alcotest.(check bool) "adopted" true
    (Compress.equal enc (Hyperion_shard.compress t2));
  Alcotest.(check (option int64)) "survives reopen" (Some 7L)
    (Hyperion_shard.get t2 (keys.(7)));
  ok "close" (Hyperion_shard.close t2);
  rm_rf dir

(* Differential chaos smoke with the codec armed: the store encodes
   beneath its interface, the oracle holds raw keys, and the final sweep
   decodes — any asymmetry diverges. *)
let test_chaos_compress () =
  match
    Chaos.run
      ~config:{ Hyperion.Config.default with compress = 1 }
      ~seed:42L ~ops:5000 ()
  with
  | Ok o -> Alcotest.(check bool) "keys stored" true (o.Chaos.final_keys > 0)
  | Error msg -> Alcotest.fail msg

(* Every entry point rejects the same keys: for each codec and key, the
   typed doors (Store result API, Persist, shard results and Batch) return
   exactly the validation error [Store.Stored.of_key] gives, and the read
   doors raise [Invalid_argument] exactly when it rejects. *)
let test_same_keys_everywhere () =
  let codecs =
    [
      ("identity", cfg_id, Compress.Identity);
      ("preprocess", { cfg_id with preprocess = true }, Compress.Identity);
      ("dict", cfg_dict, enc);
    ]
  in
  let keys =
    [
      ("empty", "");
      ("3 bytes", "abc");
      ("2^20 rare", String.make (1 lsl 20) '\xfe');
      ("2^20+1", String.make ((1 lsl 20) + 1) 'k');
    ]
  in
  let is_validation = function
    | E.Empty_key | E.Key_too_long _ | E.Key_too_short _ -> true
    | _ -> false
  in
  List.iter
    (fun (cname, config, codec) ->
      let store = Hyperion.Store.create ~config ~compress:codec () in
      let dir = fresh_dir () in
      let p = ok "open" (Persist.open_or_create ~config ~compress:codec dir) in
      let sh = Hyperion_shard.create ~config ~compress:codec ~shards:2 () in
      List.iter
        (fun (kname, key) ->
          let expect =
            match Hyperion.Store.Stored.of_key store key with
            | Ok _ -> None
            | Error e -> Some e
          in
          let where door = Printf.sprintf "%s/%s/%s" cname kname door in
          let too_long = function Some (E.Key_too_long n) -> n > 1 lsl 20 | _ -> false in
          Alcotest.(check bool) (where "of_key") true
            (match (kname, cname) with
            | "empty", _ -> expect = Some E.Empty_key
            | "3 bytes", "preprocess" -> expect = Some (E.Key_too_short 3)
            | "3 bytes", _ | "2^20 rare", "identity" -> expect = None
            | _ -> too_long expect);
          let typed door r =
            match (r, expect) with
            | Error e, Some e' when e = e' -> ()
            | Error e, None when not (is_validation e) -> ()
            | Ok _, None -> ()
            | Error e, _ -> Alcotest.failf "%s: got %s" (where door) (E.to_string e)
            | Ok _, Some e' ->
                Alcotest.failf "%s: accepted, expected %s" (where door)
                  (E.to_string e')
          in
          let unit r = Result.map ignore r in
          (* inserting an accepted 2^20-byte key takes the trie minutes,
             so accepted long keys go through the delete doors only *)
          if expect <> None || String.length key < 4096 then begin
            typed "Store.put_result" (Hyperion.Store.put_result store key 1L);
            typed "Store.add_result" (Hyperion.Store.add_result store key);
            typed "Persist.put" (Persist.put p key 1L);
            typed "shard put_result" (Hyperion_shard.put_result sh key 1L)
          end;
          typed "Store.delete_result" (unit (Hyperion.Store.delete_result store key));
          typed "Persist.delete" (unit (Persist.delete p key));
          typed "shard delete_result"
            (unit (Hyperion_shard.delete_result sh key));
          let b = Hyperion_shard.Batch.create sh in
          Hyperion_shard.Batch.delete b key;
          Hyperion_shard.Batch.put b "okay-key" 2L;
          typed "Batch.flush" (unit (Hyperion_shard.Batch.flush b));
          let read door f =
            match (f (), expect) with
            | _, None -> ()
            | _, Some e ->
                Alcotest.failf "%s: did not raise on %s" (where door)
                  (E.to_string e)
            | exception Invalid_argument _ when expect <> None -> ()
          in
          read "Store.get" (fun () -> ignore (Hyperion.Store.get store key));
          read "Store.mem" (fun () -> ignore (Hyperion.Store.mem store key));
          read "Store.get_many" (fun () ->
              ignore (Hyperion.Store.get_many store [| "okay-key"; key |]));
          read "shard get" (fun () -> ignore (Hyperion_shard.get sh key));
          read "shard mem" (fun () -> ignore (Hyperion_shard.mem sh key));
          read "shard get_many" (fun () ->
              ignore (Hyperion_shard.get_many sh [| "okay-key"; key |])))
        keys;
      ok "close" (Hyperion_shard.close sh);
      ok "close" (Persist.close p);
      rm_rf dir)
    codecs

let () =
  Alcotest.run "compress"
    [
      ( "encoder",
        [
          qcheck prop_round_trip;
          qcheck prop_order;
          qcheck prop_first_byte;
          qcheck prop_encoded_length;
          Alcotest.test_case "corpus compression" `Quick test_compresses_corpus;
          Alcotest.test_case "empty + prefix keys" `Quick test_empty_and_prefix;
          Alcotest.test_case "decode rejects junk" `Quick test_decode_rejects;
          Alcotest.test_case "of_id" `Quick test_of_id;
        ] );
      ( "dictionary",
        [
          Alcotest.test_case "serialization round trip" `Quick
            test_dict_serialization;
          Alcotest.test_case "rejects garbage" `Quick test_dict_rejects_garbage;
        ] );
      ( "sampling",
        [ Alcotest.test_case "reservoir" `Quick test_reservoir ] );
      ( "persistence",
        [
          Alcotest.test_case "dict snapshot round trip" `Quick
            test_snapshot_dict_roundtrip;
          Alcotest.test_case "v1 back compat" `Quick test_snapshot_v1_backcompat;
          Alcotest.test_case "encoder mismatch is typed" `Quick
            test_encoder_mismatch;
          Alcotest.test_case "persist adopts the dictionary" `Quick
            test_persist_adopts_dict;
        ] );
      ( "integration",
        [
          Alcotest.test_case "shard transparency" `Quick test_shard_transparency;
          Alcotest.test_case "chaos with encoder" `Quick test_chaos_compress;
          Alcotest.test_case "every door rejects the same keys" `Quick
            test_same_keys_everywhere;
        ] );
    ]
