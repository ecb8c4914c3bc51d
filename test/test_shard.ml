(* Tests of the multi-domain sharded front-end: routing, blocking and
   batched mutation paths, durable open/close/reopen, and the qcheck
   property behind the quiescence barrier — iter/length observe a single
   consistent point-in-time cut while client domains keep mutating. *)

module Sh = Hyperion_shard
module E = Hyperion.Hyperion_error

let cfg = { Hyperion.Config.default with chunks_per_bin = 64 }

let with_store ?(shards = 4) f =
  let t = Sh.create ~config:cfg ~shards () in
  Fun.protect ~finally:(fun () -> ignore (Sh.close t)) (fun () -> f t)

(* --- routing --------------------------------------------------------- *)

let test_routing () =
  with_store (fun t ->
      Alcotest.(check int) "shards" 4 (Sh.shards t);
      Alcotest.(check bool) "in-memory" false (Sh.durable t);
      Alcotest.(check int) "byte 0" 0 (Sh.shard_of_key t "\x00");
      Alcotest.(check int) "byte 63" 0 (Sh.shard_of_key t "\x3fabc");
      Alcotest.(check int) "byte 64" 1 (Sh.shard_of_key t "\x40");
      Alcotest.(check int) "byte 255" 3 (Sh.shard_of_key t "\xff");
      (* contiguous ranges: routing is monotone in the first byte and every
         shard owns at least one byte *)
      let seen = Array.make 4 false in
      let prev = ref 0 in
      for b = 0 to 255 do
        let s = Sh.shard_of_key t (String.make 1 (Char.chr b)) in
        Alcotest.(check bool) "monotone" true (s >= !prev);
        prev := s;
        seen.(s) <- true
      done;
      Array.iteri
        (fun i hit ->
          Alcotest.(check bool) (Printf.sprintf "shard %d reachable" i) true hit)
        seen);
  with_store ~shards:1 (fun t ->
      Alcotest.(check int) "single shard" 0 (Sh.shard_of_key t "\xff"))

(* --- blocking operations --------------------------------------------- *)

let key_b b = Printf.sprintf "%ckey%03d" (Char.chr b) b

let test_blocking_ops () =
  with_store (fun t ->
      for b = 0 to 255 do
        Sh.put t (key_b b) (Int64.of_int b)
      done;
      Alcotest.(check int) "length" 256 (Sh.length t);
      for b = 0 to 255 do
        Alcotest.(check (option int64)) "get" (Some (Int64.of_int b))
          (Sh.get t (key_b b));
        Alcotest.(check bool) "mem" true (Sh.mem t (key_b b))
      done;
      Alcotest.(check (option int64)) "absent" None (Sh.get t "nope");
      (* valueless keys *)
      Sh.add t "\x10set-member";
      Alcotest.(check bool) "added" true (Sh.mem t "\x10set-member");
      Alcotest.(check (option int64)) "no value" None (Sh.get t "\x10set-member");
      (* overwrite through the result API *)
      Alcotest.(check (result unit string)) "put_result" (Ok ())
        (Result.map_error E.to_string (Sh.put_result t (key_b 7) 777L));
      Alcotest.(check (option int64)) "overwritten" (Some 777L)
        (Sh.get t (key_b 7));
      (* deletes across all shards *)
      for b = 0 to 255 do
        if b mod 2 = 0 then
          Alcotest.(check bool) "deleted" true (Sh.delete t (key_b b))
      done;
      Alcotest.(check bool) "gone" false (Sh.mem t (key_b 0));
      Alcotest.(check int) "length after deletes" 129 (Sh.length t);
      Alcotest.(check (result bool string)) "delete absent" (Ok false)
        (Result.map_error E.to_string (Sh.delete_result t (key_b 0))))

let test_empty_key () =
  with_store (fun t ->
      Alcotest.check_raises "put raises" (Invalid_argument
        "Hyperion_shard: empty key") (fun () -> Sh.put t "" 1L);
      match Sh.put_result t "" 1L with
      | Error E.Empty_key -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e)
      | Ok () -> Alcotest.fail "empty key accepted")

(* On a pre-processing store a short key is a typed rejection from the
   owning worker, which stays up. *)
let test_short_key_typed () =
  let t =
    Sh.create ~config:{ cfg with Hyperion.Config.preprocess = true } ~shards:2 ()
  in
  Fun.protect ~finally:(fun () -> ignore (Sh.close t)) (fun () ->
      (match Sh.put_result t "ab" 1L with
      | Error (E.Key_too_short 2) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e)
      | Ok () -> Alcotest.fail "short key accepted");
      List.iter
        (fun h ->
          Alcotest.(check (option string)) "no shard down" None h.Sh.hs_down)
        (Sh.health t);
      Sh.put t "abcd" 7L;
      Alcotest.(check (option int64)) "worker still applies" (Some 7L)
        (Sh.get t "abcd"))

let test_iter_global_order () =
  with_store (fun t ->
      for b = 255 downto 0 do
        Sh.put t (key_b b) (Int64.of_int b)
      done;
      let keys = ref [] in
      Sh.iter t (fun k _ -> keys := k :: !keys);
      let keys = List.rev !keys in
      Alcotest.(check int) "all visited" 256 (List.length keys);
      let rec sorted = function
        | a :: (b :: _ as rest) -> a < b && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "globally ascending" true (sorted keys);
      let total =
        Sh.fold t ~init:0L ~f:(fun acc _ v ->
            Int64.add acc (Option.value v ~default:0L))
      in
      Alcotest.(check int64) "fold sum" (Int64.of_int (255 * 256 / 2)) total)

(* --- batch path ------------------------------------------------------ *)

let test_batch () =
  with_store (fun t ->
      let b = Sh.Batch.create t in
      Alcotest.(check (result int string)) "empty flush" (Ok 0)
        (Result.map_error E.to_string (Sh.Batch.flush b));
      for i = 0 to 999 do
        Sh.Batch.put b (key_b (i mod 256) ^ string_of_int i) (Int64.of_int i)
      done;
      Sh.Batch.add b "\x80tag";
      Alcotest.(check int) "buffered" 1001 (Sh.Batch.length b);
      Alcotest.(check (result int string)) "flush" (Ok 1001)
        (Result.map_error E.to_string (Sh.Batch.flush b));
      Alcotest.(check int) "batch emptied" 0 (Sh.Batch.length b);
      Alcotest.(check int) "applied" 1001 (Sh.length t);
      Alcotest.(check (option int64)) "readable" (Some 0L)
        (Sh.get t (key_b 0 ^ "0"));
      (* batches are reusable, and per-shard slices preserve buffer order *)
      Sh.Batch.put b "\x01k" 1L;
      Sh.Batch.put b "\x01k" 2L;
      Sh.Batch.delete b "\x80tag";
      Alcotest.(check (result int string)) "reflush" (Ok 3)
        (Result.map_error E.to_string (Sh.Batch.flush b));
      Alcotest.(check (option int64)) "last write wins" (Some 2L)
        (Sh.get t "\x01k");
      Alcotest.(check bool) "batched delete" false (Sh.mem t "\x80tag"))

(* --- close semantics ------------------------------------------------- *)

let test_close () =
  let t = Sh.create ~config:cfg ~shards:4 () in
  Sh.put t "\x05alive" 5L;
  Alcotest.(check (result unit string)) "close" (Ok ())
    (Result.map_error E.to_string (Sh.close t));
  Alcotest.(check (result unit string)) "close idempotent" (Ok ())
    (Result.map_error E.to_string (Sh.close t));
  (match Sh.put_result t "\x05dead" 1L with
  | Error (E.Io_error _) -> ()
  | Error e -> Alcotest.fail ("wrong rejection: " ^ E.to_string e)
  | Ok () -> Alcotest.fail "mutation accepted after close");
  (* reads keep working on the final state *)
  Alcotest.(check (option int64)) "read after close" (Some 5L)
    (Sh.get t "\x05alive");
  Alcotest.(check int) "length after close" 1 (Sh.length t)

(* --- completions ------------------------------------------------------- *)

let wait_until what f =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (f ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  if not (f ()) then Alcotest.failf "timed out waiting for %s" what

(* Completions run exactly once, a front-door failure completes on the
   caller before the call returns, a batch completes once through its
   countdown, and a completion that raises leaves the worker serving. *)
let test_async_completions () =
  with_store (fun t ->
      let fired = Atomic.make 0 in
      let n = 200 in
      for i = 0 to n - 1 do
        Sh.put_async t (Printf.sprintf "%c async %d" (Char.chr (i mod 256)) i)
          (Int64.of_int i) (function
          | Ok () -> Atomic.incr fired
          | Error e -> Alcotest.failf "put_async: %s" (E.to_string e))
      done;
      wait_until "put completions" (fun () -> Atomic.get fired = n);
      let early = ref None in
      Sh.add_async t "" (fun r -> early := Some r);
      (match !early with
      | Some (Error E.Empty_key) -> ()
      | _ -> Alcotest.fail "empty key must complete on the caller");
      let b = Sh.Batch.create t in
      for i = 0 to 99 do
        Sh.Batch.put b (Printf.sprintf "%c batch async" (Char.chr (i * 2))) 1L
      done;
      let flushed = Atomic.make 0 and applied = Atomic.make (-1) in
      Sh.Batch.flush_async b (fun r ->
          Atomic.incr flushed;
          match r with
          | Ok k -> Atomic.set applied k
          | Error e -> Alcotest.failf "flush_async: %s" (E.to_string e));
      Alcotest.(check int) "batch emptied on post" 0 (Sh.Batch.length b);
      wait_until "batch completion" (fun () -> Atomic.get flushed > 0);
      Alcotest.(check int) "batch applied" 100 (Atomic.get applied);
      Sh.put_async t "raising completion" 1L (fun _ -> failwith "callback bug");
      Sh.put t "raising completion" 2L;
      Alcotest.(check (option int64)) "worker still applies" (Some 2L)
        (Sh.get t "raising completion");
      Alcotest.(check bool) "every worker alive" true
        (List.for_all (fun h -> h.Sh.hs_alive) (Sh.health t));
      Thread.delay 0.05;
      Alcotest.(check int) "puts completed once" n (Atomic.get fired);
      Alcotest.(check int) "batch completed once" 1 (Atomic.get flushed))

(* --- durability ------------------------------------------------------ *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/hyperion_shard_test.%d.%d"
      (Filename.get_temp_dir_name ()) (Unix.getpid ()) !n

let rec wipe path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> wipe (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let open_ok ?shards dir =
  match Sh.open_durable ~config:cfg ?shards ~sync_every_ops:4 dir with
  | Ok t -> t
  | Error e -> Alcotest.fail ("open_durable: " ^ E.to_string e)

let test_durable_roundtrip () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> wipe dir) @@ fun () ->
  let t = open_ok ~shards:4 dir in
  Alcotest.(check bool) "durable" true (Sh.durable t);
  Alcotest.(check (list pass)) "fresh: no recoveries to speak of" []
    (List.filter (fun r -> r.Sh.recovery.Persist.replayed_ops > 0)
       (Sh.recoveries t));
  for b = 0 to 255 do
    Sh.put t (key_b b) (Int64.of_int (b * 3))
  done;
  Sh.add t "\xf0marker";
  Alcotest.(check (result unit string)) "sync" (Ok ())
    (Result.map_error E.to_string (Sh.sync t));
  Alcotest.(check (result unit string)) "snapshot_now" (Ok ())
    (Result.map_error E.to_string (Sh.snapshot_now t));
  Alcotest.(check (result unit string)) "close" (Ok ())
    (Result.map_error E.to_string (Sh.close t));
  Alcotest.(check bool) "manifest written" true
    (Sys.file_exists (Sh.manifest_file ~dir));
  Alcotest.(check bool) "shard dirs exist" true
    (Sys.file_exists (Sh.shard_dir ~dir 3));
  (* reopen without ?shards: the manifest remembers the count *)
  let t2 = open_ok dir in
  Alcotest.(check int) "shard count from manifest" 4 (Sh.shards t2);
  Alcotest.(check int) "recoveries reported" 4 (List.length (Sh.recoveries t2));
  Alcotest.(check int) "all keys back" 257 (Sh.length t2);
  for b = 0 to 255 do
    Alcotest.(check (option int64)) "value back" (Some (Int64.of_int (b * 3)))
      (Sh.get t2 (key_b b))
  done;
  Alcotest.(check bool) "type-10 key back" true (Sh.mem t2 "\xf0marker");
  Alcotest.(check (result unit string)) "close 2" (Ok ())
    (Result.map_error E.to_string (Sh.close t2))

let test_manifest_mismatch () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> wipe dir) @@ fun () ->
  let t = open_ok ~shards:4 dir in
  Sh.put t "\x01x" 1L;
  ignore (Sh.close t);
  match Sh.open_durable ~config:cfg ~shards:2 dir with
  | Error (E.Io_error _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e)
  | Ok t ->
      ignore (Sh.close t);
      Alcotest.fail "contradicting shard count accepted"

let test_crash_recovery () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> wipe dir) @@ fun () ->
  let t = open_ok ~shards:4 dir in
  for b = 0 to 127 do
    Sh.put t (key_b b) (Int64.of_int b)
  done;
  Alcotest.(check (result unit string)) "sync before kill" (Ok ())
    (Result.map_error E.to_string (Sh.sync t));
  Sh.crash t;
  (match Sh.put_result t "\x01late" 1L with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "mutation accepted after crash");
  let t2 = open_ok dir in
  Alcotest.(check int) "synced mutations survive" 128 (Sh.length t2);
  for b = 0 to 127 do
    Alcotest.(check (option int64)) "recovered" (Some (Int64.of_int b))
      (Sh.get t2 (key_b b))
  done;
  let replayed =
    List.fold_left
      (fun acc r -> acc + r.Sh.recovery.Persist.replayed_ops)
      0 (Sh.recoveries t2)
  in
  Alcotest.(check bool) "recovery replayed the WALs" true (replayed > 0);
  ignore (Sh.close t2)

(* --- the quiescence property ----------------------------------------- *)

(* Client [c]'s deterministic op stream over its private key set (slot
   space 16, keys tagged with the owning client).  Because clients never
   share keys, the store's cut for client [c] at any instant is exactly
   the replay of some prefix of this stream. *)

type model_op = M_put of string * int64 | M_add of string | M_del of string

let prop_key c slot =
  let b = ((slot * 53) + (c * 17) + 1) land 0xff in
  Printf.sprintf "%c%03d/%03d" (Char.chr b) c slot

let prop_owner key = int_of_string (String.sub key 1 3)

let prop_op c j =
  let slot = j mod 16 in
  let key = prop_key c slot in
  match (j + (c * 3)) mod 4 with
  | 0 | 1 -> M_put (key, Int64.of_int ((c * 1_000_000) + j))
  | 2 -> M_add key
  | _ -> M_del key

let apply_model state = function
  | M_put (k, v) -> Hashtbl.replace state k (Some v)
  | M_add k ->
      (* add is "insert if absent", matching the store *)
      if not (Hashtbl.mem state k) then Hashtbl.replace state k None
  | M_del k -> Hashtbl.remove state k

let apply_store t = function
  | M_put (k, v) -> Sh.put t k v
  | M_add k -> Sh.add t k
  | M_del k -> ignore (Sh.delete t k)

let sorted_bindings state =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) state []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Does some replay prefix p in [low, high] of client [c] produce exactly
   [snap_c] (this client's slice of the quiesced snapshot)? *)
let prefix_explains c ~low ~high snap_c =
  let state = Hashtbl.create 64 in
  for j = 0 to low - 1 do
    apply_model state (prop_op c j)
  done;
  let matches () = sorted_bindings state = snap_c in
  let p = ref low in
  let ok = ref (matches ()) in
  while (not !ok) && !p < high do
    apply_model state (prop_op c !p);
    incr p;
    ok := matches ()
  done;
  !ok

let quiesced_cut_consistent (clients, ops_per_client) =
  let t = Sh.create ~config:cfg ~shards:4 () in
  Fun.protect ~finally:(fun () -> ignore (Sh.close t)) @@ fun () ->
  let issued = Array.init clients (fun _ -> Atomic.make 0) in
  let acked = Array.init clients (fun _ -> Atomic.make 0) in
  let doms =
    Array.init clients (fun c ->
        Domain.spawn (fun () ->
            for j = 0 to ops_per_client - 1 do
              Atomic.set issued.(c) (j + 1);
              apply_store t (prop_op c j);
              Atomic.set acked.(c) (j + 1)
            done))
  in
  let check_cut () =
    (* acked before the quiesce is a lower bound on each client's applied
       prefix; issued observed *while quiescent* is an upper bound *)
    let lows = Array.map Atomic.get acked in
    let snapshot, highs, iter_n, len =
      Sh.with_quiesced t (fun stores ->
          let highs = Array.map Atomic.get issued in
          let acc = ref [] and n = ref 0 in
          Array.iter
            (fun s ->
              Hyperion.Store.iter s (fun k v ->
                  acc := (k, v) :: !acc;
                  incr n))
            stores;
          let len =
            Array.fold_left (fun a s -> a + Hyperion.Store.length s) 0 stores
          in
          (List.rev !acc, highs, !n, len))
    in
    if iter_n <> len then
      QCheck.Test.fail_reportf "iter saw %d bindings but length says %d"
        iter_n len;
    let rec sorted = function
      | (a, _) :: ((b, _) :: _ as rest) -> a < b && sorted rest
      | _ -> true
    in
    if not (sorted snapshot) then
      QCheck.Test.fail_report "quiesced iteration not strictly ascending";
    for c = 0 to clients - 1 do
      let snap_c = List.filter (fun (k, _) -> prop_owner k = c) snapshot in
      if not (prefix_explains c ~low:lows.(c) ~high:highs.(c) snap_c) then
        QCheck.Test.fail_reportf
          "client %d: no prefix in [%d, %d] explains its %d quiesced bindings"
          c lows.(c) highs.(c) (List.length snap_c)
    done
  in
  (* interleave quiesced cuts with the running mutators *)
  for _ = 1 to 4 do
    Unix.sleepf 0.002;
    check_cut ()
  done;
  Array.iter Domain.join doms;
  (* after the join, exactly the full replay must be visible *)
  check_cut ();
  let full = Hashtbl.create 256 in
  for c = 0 to clients - 1 do
    for j = 0 to ops_per_client - 1 do
      apply_model full (prop_op c j)
    done
  done;
  let got = ref [] in
  Sh.iter t (fun k v -> got := (k, v) :: !got);
  let got = List.rev !got in
  if got <> sorted_bindings full then
    QCheck.Test.fail_report "final state diverges from the model";
  if Sh.length t <> List.length got then
    QCheck.Test.fail_report "final length diverges from iteration";
  true

let prop_quiesced =
  QCheck.Test.make ~count:5 ~name:"quiesced cut is a consistent prefix"
    QCheck.(pair (int_range 1 4) (int_range 40 160))
    quiesced_cut_consistent

let () =
  Alcotest.run "shard"
    [
      ( "routing",
        [ Alcotest.test_case "byte ranges" `Quick test_routing ] );
      ( "ops",
        [
          Alcotest.test_case "blocking round-trips" `Quick test_blocking_ops;
          Alcotest.test_case "empty key" `Quick test_empty_key;
          Alcotest.test_case "short key is typed" `Quick test_short_key_typed;
          Alcotest.test_case "iter global order" `Quick test_iter_global_order;
          Alcotest.test_case "batch" `Quick test_batch;
          Alcotest.test_case "async completions" `Quick test_async_completions;
          Alcotest.test_case "close" `Quick test_close;
        ] );
      ( "durability",
        [
          Alcotest.test_case "roundtrip" `Quick test_durable_roundtrip;
          Alcotest.test_case "manifest mismatch" `Quick test_manifest_mismatch;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
        ] );
      ( "quiescence",
        [ QCheck_alcotest.to_alcotest ~long:false prop_quiesced ] );
    ]
