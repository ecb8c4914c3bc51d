(* Durability layer: snapshot round-trips (bindings, length, type-10 keys,
   ordered-iteration determinism as a property), typed error surfacing
   (Corrupt_snapshot / Version_mismatch / Torn_log — never exceptions),
   WAL group commit and torn-tail truncation, snapshot rotation, and the
   crash-recovery chaos acceptance sweep. *)

module H = Hyperion
module S = H.Store
module E = H.Hyperion_error

let cfg = { H.Config.strings with chunks_per_bin = 64 }
let cfg_pre = { cfg with preprocess = true }

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hyperion_persist_test_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    d

let fresh_file () = Filename.temp_file "hyperion_snapshot" ".hyp"

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (E.to_string e)

let dump store =
  let acc = ref [] in
  S.iter store (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* --- CRC-32 ----------------------------------------------------------- *)

module Crc32 = Persist.Crc32

let check_vector crc = Alcotest.(check int32) "CRC-32 of 123456789" 0xCBF43926l crc

(* Two domains released together by a spin barrier race on a CRC call.
   Listed first in this executable, so the first iteration is the
   process's first CRC: a lazily built table raised
   CamlinternalLazy.Undefined there when both domains forced it at once
   (sharded parallel recovery did exactly that).  Later iterations check
   concurrent calls agree. *)
let test_crc_domain_race () =
  for _ = 1 to 200 do
    let ready = Atomic.make 0 in
    let go () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      Crc32.string "123456789" ~pos:0 ~len:9
    in
    let d1 = Domain.spawn go and d2 = Domain.spawn go in
    check_vector (Domain.join d1);
    check_vector (Domain.join d2)
  done

(* Bit-at-a-time reference: the table-driven loop must match it exactly,
   including continued checksums, so files written by any earlier build
   keep verifying. *)
let reference_crc ?(crc = 0l) s =
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done)
    s;
  Int32.logxor !c 0xFFFFFFFFl

let test_crc_reference () =
  check_vector (Crc32.string "123456789" ~pos:0 ~len:9);
  Alcotest.(check int32) "empty" 0l (Crc32.string "" ~pos:0 ~len:0);
  let rng = Random.State.make [| 32 |] in
  for _ = 1 to 500 do
    let n = Random.State.int rng 300 in
    let s = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
    let cut = if n = 0 then 0 else Random.State.int rng (n + 1) in
    let want = reference_crc s in
    Alcotest.(check int32) "whole" want (Crc32.string s ~pos:0 ~len:n);
    let head = Crc32.string s ~pos:0 ~len:cut in
    Alcotest.(check int32) "continued" want
      (Crc32.string ~crc:head s ~pos:cut ~len:(n - cut));
    Alcotest.(check int32) "bytes = string" want
      (Crc32.bytes (Bytes.of_string s) ~pos:0 ~len:n)
  done

(* --- snapshot round-trip -------------------------------------------- *)

let test_snapshot_roundtrip () =
  let s = S.create ~config:cfg () in
  for i = 0 to 4999 do
    S.put s (Printf.sprintf "key/%05d" i) (Int64.of_int (i * 7))
  done;
  (* value-less (type-10) keys must survive exactly *)
  S.add s "member/alpha";
  S.add s "member/beta";
  ignore (S.delete s "key/00042");
  let path = fresh_file () in
  let bytes = ok "save" (Persist.save_snapshot s path) in
  Alcotest.(check bool) "snapshot non-trivial" true (bytes > 32);
  let s2 = ok "load" (Persist.Snapshot.load ~config:cfg path) in
  Alcotest.(check int) "length preserved" (S.length s) (S.length s2);
  Alcotest.(check bool) "bindings preserved" true (dump s = dump s2);
  Alcotest.(check (option int64)) "valueless stays valueless" None
    (S.get s2 "member/alpha");
  Alcotest.(check bool) "valueless stays member" true (S.mem s2 "member/alpha");
  Alcotest.(check (option int64)) "deleted stays deleted" None
    (S.get s2 "key/00042");
  Sys.remove path

let test_snapshot_empty_store () =
  let s = S.create ~config:cfg () in
  let path = fresh_file () in
  ignore (ok "save" (Persist.save_snapshot s path));
  let s2 = ok "load" (Persist.Snapshot.load ~config:cfg path) in
  Alcotest.(check int) "empty round-trip" 0 (S.length s2);
  Sys.remove path

(* --- typed error surfacing ------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let expect_error what result pred =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected a typed error, got Ok" what
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: unexpected error %s" what (E.to_string e)

let make_snapshot () =
  let s = S.create ~config:cfg () in
  for i = 0 to 99 do
    S.put s (Printf.sprintf "k%03d" i) (Int64.of_int i)
  done;
  let path = fresh_file () in
  ignore (ok "save" (Persist.save_snapshot s path));
  path

let test_corrupt_snapshot_typed () =
  let path = make_snapshot () in
  let body = read_file path in
  (* flip one byte inside the record region *)
  let b = Bytes.of_string body in
  let off = Persist.Frame.header_size + 10 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  write_file path (Bytes.to_string b);
  expect_error "bit flip" (Persist.Snapshot.load ~config:cfg path) (function
    | E.Corrupt_snapshot _ -> true
    | _ -> false);
  (* truncation mid-record *)
  write_file path (String.sub body 0 (String.length body - 3));
  expect_error "truncated" (Persist.Snapshot.load ~config:cfg path) (function
    | E.Corrupt_snapshot _ -> true
    | _ -> false);
  (* garbage magic *)
  write_file path ("XXXXXXXX" ^ String.sub body 8 (String.length body - 8));
  expect_error "bad magic" (Persist.Snapshot.load ~config:cfg path) (function
    | E.Corrupt_snapshot _ -> true
    | _ -> false);
  Sys.remove path

let test_version_mismatch_typed () =
  let path = make_snapshot () in
  let b = Bytes.of_string (read_file path) in
  (* a future format version, with the header CRC recomputed so only the
     version check can fail *)
  Bytes.set_uint16_le b 8 99;
  Bytes.set_int32_le b 28 (Persist.Crc32.bytes b ~pos:0 ~len:28);
  write_file path (Bytes.to_string b);
  expect_error "future version" (Persist.Snapshot.load ~config:cfg path)
    (function
      | E.Version_mismatch { found = 99; expected = 2 } -> true
      | _ -> false);
  Sys.remove path

let test_fingerprint_mismatch_typed () =
  let path = make_snapshot () in
  expect_error "other config"
    (Persist.Snapshot.load ~config:{ cfg with split_a = 8192 } path)
    (function
      | E.Corrupt_snapshot msg ->
          Alcotest.(check bool) "names the fingerprint" true
            (String.length msg > 0);
          true
      | _ -> false);
  Sys.remove path

let test_open_or_create_never_raises_on_garbage () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  write_file (Persist.snapshot_file ~dir ~gen:3) "total garbage, not a snapshot";
  expect_error "garbage-only dir" (Persist.open_or_create ~config:cfg dir)
    (function E.Corrupt_snapshot _ -> true | _ -> false)

(* --- WAL: group commit, replay, torn tail --------------------------- *)

let test_wal_replay_and_counters () =
  let dir = fresh_dir () in
  let p = ok "open" (Persist.open_or_create ~config:cfg ~sync_every_ops:8 dir) in
  for i = 0 to 99 do
    ok "put" (Persist.put p (Printf.sprintf "w%03d" i) (Int64.of_int i))
  done;
  ok "add" (Persist.add p "wal/member");
  Alcotest.(check bool) "delete logged" true (ok "del" (Persist.delete p "w050"));
  Alcotest.(check bool) "no-op delete not logged" false
    (ok "del2" (Persist.delete p "nonexistent"));
  Alcotest.(check int) "applied counts logged ops" 102 (Persist.applied_ops p);
  Alcotest.(check bool) "group commit lags" true
    (Persist.durable_ops p <= Persist.applied_ops p);
  ok "sync" (Persist.sync p);
  Alcotest.(check int) "sync catches up" 102 (Persist.durable_ops p);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let r = Persist.recovery p2 in
  Alcotest.(check int) "all ops replayed" 102 r.Persist.replayed_ops;
  Alcotest.(check bool) "clean tail" false r.Persist.wal_truncated;
  let s = Persist.store p2 in
  Alcotest.(check int) "length" 100 (S.length s);
  Alcotest.(check (option int64)) "value survives" (Some 7L) (S.get s "w007");
  Alcotest.(check bool) "member survives" true (S.mem s "wal/member");
  Alcotest.(check bool) "delete survives" false (S.mem s "w050");
  ok "close2" (Persist.close p2)

let test_wal_torn_tail_truncated () =
  let dir = fresh_dir () in
  (* 20 ops at a group size of 7: the last commit lands at op 14, leaving a
     6-op unsynced tail to tear *)
  let p = ok "open" (Persist.open_or_create ~config:cfg ~sync_every_ops:7 dir) in
  for i = 0 to 19 do
    ok "put" (Persist.put p (Printf.sprintf "t%02d" i) (Int64.of_int i))
  done;
  let durable = Persist.durable_ops p in
  let watermark = Persist.wal_synced_bytes p in
  let size = Persist.wal_size p in
  let gen = Persist.generation p in
  Persist.crash p;
  (* tear mid-record, strictly past the durable watermark *)
  Alcotest.(check bool) "something unsynced to tear" true (size > watermark);
  Unix.truncate (Persist.wal_file ~dir ~gen) (watermark + 3);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let r = Persist.recovery p2 in
  Alcotest.(check bool) "tear detected" true r.Persist.wal_truncated;
  Alcotest.(check int) "exactly the durable prefix survives" durable
    r.Persist.replayed_ops;
  Alcotest.(check int) "store matches prefix" durable
    (S.length (Persist.store p2));
  (* the truncated log must accept appends again *)
  ok "put after recovery" (Persist.put p2 "post" 1L);
  ok "close" (Persist.close p2);
  let p3 = ok "reopen2" (Persist.open_or_create ~config:cfg dir) in
  Alcotest.(check (option int64)) "append after tear survives" (Some 1L)
    (S.get (Persist.store p3) "post");
  ok "close3" (Persist.close p3)

let test_rotation () =
  let dir = fresh_dir () in
  let p =
    ok "open"
      (Persist.open_or_create ~config:cfg ~sync_every_ops:16 ~rotate_bytes:2048
         dir)
  in
  for i = 0 to 499 do
    ok "put" (Persist.put p (Printf.sprintf "r%04d" i) (Int64.of_int i))
  done;
  Alcotest.(check bool) "rotations happened" true (Persist.rotations p > 0);
  let gen = Persist.generation p in
  Alcotest.(check bool) "generation advanced" true (gen > 0);
  (* old generations are gone *)
  Alcotest.(check bool) "old snapshot removed" false
    (Sys.file_exists (Persist.snapshot_file ~dir ~gen:(gen - 1)));
  Alcotest.(check bool) "old wal removed" false
    (Sys.file_exists (Persist.wal_file ~dir ~gen:(gen - 1)));
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  Alcotest.(check int) "all keys recovered across rotations" 500
    (S.length (Persist.store p2));
  Alcotest.(check int) "recovered from latest generation" gen
    (Persist.recovery p2).Persist.generation;
  ok "close2" (Persist.close p2)

let test_snapshot_now () =
  let dir = fresh_dir () in
  let p = ok "open" (Persist.open_or_create ~config:cfg dir) in
  ok "put" (Persist.put p "a" 1L);
  ok "rotate" (Persist.snapshot_now p);
  Alcotest.(check int) "wal empty after rotation" (Persist.wal_synced_bytes p)
    Persist.Frame.header_size;
  ok "put2" (Persist.put p "b" 2L);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let r = Persist.recovery p2 in
  Alcotest.(check int) "snapshot carries pre-rotation ops" 1
    r.Persist.snapshot_keys;
  Alcotest.(check int) "wal carries post-rotation ops" 1 r.Persist.replayed_ops;
  ok "close2" (Persist.close p2)

(* --- ordered-iteration determinism across a round-trip -------------- *)

let sequences store =
  let via_iter = ref [] in
  S.iter store (fun k v -> via_iter := (k, v) :: !via_iter);
  let via_fold =
    S.fold store ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
  in
  let via_prefix = ref [] in
  S.prefix_iter store ~prefix:"" (fun k v ->
      via_prefix := (k, v) :: !via_prefix;
      true);
  (List.rev !via_iter, List.rev via_fold, List.rev !via_prefix)

let roundtrip_prop config keys =
  (* bounded, deduplicated by the store itself; values keyed off the index *)
  let store = S.create ~config () in
  List.iteri
    (fun i k ->
      if i mod 7 = 3 then S.add store k else S.put store k (Int64.of_int i))
    keys;
  let before = sequences store in
  let path = fresh_file () in
  let reloaded =
    match Persist.save_snapshot store path with
    | Error e -> Alcotest.failf "save: %s" (E.to_string e)
    | Ok _ -> (
        match Persist.Snapshot.load ~config path with
        | Error e -> Alcotest.failf "load: %s" (E.to_string e)
        | Ok s -> s)
  in
  Sys.remove path;
  let after = sequences reloaded in
  let b1, b2, b3 = before and a1, a2, a3 = after in
  b1 = b2 && b2 = b3 && a1 = a2 && a2 = a3 && b1 = a1
  && S.length store = S.length reloaded

let key_gen =
  (* 4..20 printable bytes: valid for both plain and preprocess configs *)
  QCheck.Gen.(
    string_size (int_range 4 20)
      ~gen:(map Char.chr (int_range 33 126)))

let prop_roundtrip_strings =
  QCheck.Test.make ~name:"iter/fold/prefix_iter identical across round-trip"
    ~count:30
    QCheck.(list_of_size (Gen.int_range 0 400) (make key_gen))
    (fun keys -> roundtrip_prop cfg keys)

let prop_roundtrip_preprocess =
  QCheck.Test.make
    ~name:"iter/fold/prefix_iter identical across round-trip (preprocess)"
    ~count:30
    QCheck.(list_of_size (Gen.int_range 0 400) (make key_gen))
    (fun keys -> roundtrip_prop cfg_pre keys)

(* --- disk faults: degraded read-only mode and heal ------------------- *)

module Io = Persist.Io

let fast_io () = Persist.Io.make ~max_retries:2 ~backoff_s:1e-6 ()

let test_write_failure_degrades_sticky () =
  let dir = fresh_dir () in
  let io = fast_io () in
  let p = ok "open" (Persist.open_or_create ~config:cfg ~io dir) in
  ok "put" (Persist.put p "alive" 1L);
  Io.set_plan io (Fault.always [ Fault.Io_write_eio ]);
  (* the append fails after exhausting retries: typed Degraded, store
     untouched *)
  expect_error "put under EIO" (Persist.put p "casualty" 2L) (function
    | E.Degraded _ -> true
    | _ -> false);
  Alcotest.(check bool) "handle reports degraded" true
    (Persist.degraded p <> None);
  Alcotest.(check bool) "failed mutation not applied" false
    (S.mem (Persist.store p) "casualty");
  (* sticky: the device recovering by itself is not enough *)
  Io.disarm io;
  expect_error "still degraded after disarm" (Persist.put p "casualty" 2L)
    (function E.Degraded _ -> true | _ -> false);
  (* reads keep serving *)
  Alcotest.(check (option int64)) "reads serve while degraded" (Some 1L)
    (S.get (Persist.store p) "alive");
  (* heal re-arms writes in a fresh generation *)
  let gen = Persist.generation p in
  ok "heal" (Persist.heal p);
  Alcotest.(check (option string)) "healed" None (Persist.degraded p);
  Alcotest.(check bool) "heal bumps the generation" true
    (Persist.generation p > gen);
  ok "put after heal" (Persist.put p "recovered" 3L);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let s = Persist.store p2 in
  Alcotest.(check (option int64)) "pre-fault op survives" (Some 1L)
    (S.get s "alive");
  Alcotest.(check (option int64)) "post-heal op survives" (Some 3L)
    (S.get s "recovered");
  Alcotest.(check bool) "failed op never persisted" false (S.mem s "casualty");
  ok "close2" (Persist.close p2)

let test_fsync_failure_acks_but_degrades () =
  let dir = fresh_dir () in
  let io = fast_io () in
  let p =
    ok "open" (Persist.open_or_create ~config:cfg ~io ~sync_every_ops:1 dir)
  in
  Io.set_plan io (Fault.always [ Fault.Io_fsync ]);
  (* the record is in the log before the group commit fails, so the
     mutation is acknowledged; what is lost is the durability promise *)
  ok "put acked despite failed fsync" (Persist.put p "acked" 1L);
  Alcotest.(check bool) "fsync failure degrades" true
    (Persist.degraded p <> None);
  Alcotest.(check (option int64)) "acked op applied" (Some 1L)
    (S.get (Persist.store p) "acked");
  Io.disarm io;
  ok "heal" (Persist.heal p);
  ok "put after heal" (Persist.put p "later" 2L);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  Alcotest.(check (option int64)) "acked op survives via heal snapshot"
    (Some 1L)
    (S.get (Persist.store p2) "acked");
  Alcotest.(check (option int64)) "post-heal op survives" (Some 2L)
    (S.get (Persist.store p2) "later");
  ok "close2" (Persist.close p2)

let test_store_reject_compensates_wal () =
  let dir = fresh_dir () in
  let p = ok "open" (Persist.open_or_create ~config:cfg dir) in
  ok "put" (Persist.put p "good" 1L);
  (* a store-side failure (allocation) after the append must truncate the
     record back off the log — and must NOT degrade the handle, the
     storage is fine *)
  S.set_fault_plan (Persist.store p) (Fault.always [ Fault.Alloc_fail ]);
  expect_error "store rejects" (Persist.put p "rejected" 2L) (function
    | E.Degraded _ -> false
    | _ -> true);
  Alcotest.(check (option string)) "store failure does not degrade" None
    (Persist.degraded p);
  S.set_fault_plan (Persist.store p) Fault.none;
  ok "put after clear" (Persist.put p "alsogood" 3L);
  Alcotest.(check int) "only applied mutations logged" 2
    (Persist.applied_ops p);
  ok "close" (Persist.close p);
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg dir) in
  let s = Persist.store p2 in
  Alcotest.(check int) "exactly the acked ops replayed" 2
    (Persist.recovery p2).Persist.replayed_ops;
  Alcotest.(check bool) "rejected op not replayed" false (S.mem s "rejected");
  Alcotest.(check (option int64)) "acked ops replayed" (Some 3L)
    (S.get s "alsogood");
  ok "close2" (Persist.close p2)

(* A key too short for §3.4 pre-processing is refused with a typed error
   before anything is logged: after a crash the directory reopens with
   every acknowledged key. *)
let test_short_key_never_logged () =
  let dir = fresh_dir () in
  let p = ok "open" (Persist.open_or_create ~config:cfg_pre dir) in
  ok "put" (Persist.put p "good-key" 1L);
  (match Persist.put p "ab" 1L with
  | Error (E.Key_too_short 2) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok () -> Alcotest.fail "short key accepted");
  expect_error "add" (Persist.add p "abc") (function
    | E.Key_too_short 3 -> true
    | _ -> false);
  expect_error "delete" (Persist.delete p "a") (function
    | E.Key_too_short 1 -> true
    | _ -> false);
  ok "put after" (Persist.put p "later-key" 2L);
  Alcotest.(check int) "only accepted mutations logged" 2 (Persist.applied_ops p);
  ok "sync" (Persist.sync p);
  Persist.crash p;
  let p2 = ok "reopen" (Persist.open_or_create ~config:cfg_pre dir) in
  Alcotest.(check int) "replayed" 2 (Persist.recovery p2).Persist.replayed_ops;
  Alcotest.(check (list (pair string (option int64)))) "bindings"
    [ ("good-key", Some 1L); ("later-key", Some 2L) ]
    (dump (Persist.store p2));
  ok "close" (Persist.close p2)

(* --- crash-recovery chaos sweep (acceptance: CI runs 100 seeds) ------ *)

let test_crash_chaos_sweep () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  for seed = 1 to 25 do
    match
      Chaos.run_crash ~config:cfg ~dir ~seed:(Int64.of_int seed) ~ops:1200 ()
    with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done

let test_diskfault_chaos_sweep () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  for seed = 1 to 10 do
    match
      Chaos.run_diskfault ~config:cfg ~per_mille:20 ~dir
        ~seed:(Int64.of_int seed) ~ops:800 ()
    with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done

let () =
  Alcotest.run "persist"
    [
      ( "crc32",
        [
          Alcotest.test_case "domains race on the first call" `Quick
            test_crc_domain_race;
          Alcotest.test_case "matches the bitwise reference" `Quick
            test_crc_reference;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "empty store" `Quick test_snapshot_empty_store;
          Alcotest.test_case "corrupt -> typed error" `Quick
            test_corrupt_snapshot_typed;
          Alcotest.test_case "version mismatch -> typed error" `Quick
            test_version_mismatch_typed;
          Alcotest.test_case "fingerprint mismatch -> typed error" `Quick
            test_fingerprint_mismatch_typed;
          Alcotest.test_case "garbage dir -> typed error" `Quick
            test_open_or_create_never_raises_on_garbage;
        ] );
      ( "wal",
        [
          Alcotest.test_case "replay + group-commit counters" `Quick
            test_wal_replay_and_counters;
          Alcotest.test_case "torn tail truncated" `Quick
            test_wal_torn_tail_truncated;
          Alcotest.test_case "rotation" `Quick test_rotation;
          Alcotest.test_case "snapshot_now" `Quick test_snapshot_now;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_strings;
          QCheck_alcotest.to_alcotest prop_roundtrip_preprocess;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "write failure -> sticky degraded + heal" `Quick
            test_write_failure_degrades_sticky;
          Alcotest.test_case "fsync failure acks but degrades" `Quick
            test_fsync_failure_acks_but_degrades;
          Alcotest.test_case "store reject compensates the WAL" `Quick
            test_store_reject_compensates_wal;
          Alcotest.test_case "short key is never logged" `Quick
            test_short_key_never_logged;
        ] );
      ( "crash-chaos",
        [
          Alcotest.test_case "25-seed sweep" `Slow test_crash_chaos_sweep;
          Alcotest.test_case "10-seed diskfault sweep" `Slow
            test_diskfault_chaos_sweep;
        ] );
    ]
