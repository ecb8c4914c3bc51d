(* durable_ingest: a 2-shard durable store with a trained key dictionary.
   ~500k n-gram keys are ingested through fixed-size Batch.flush calls
   under the library's default group commit (sync_every_ops = 64,
   sync_every_bytes = 1 MiB) with rotate_bytes low enough that every shard's
   WAL rotates into a fresh snapshot several times.  The store is closed,
   reopened (recovery is timed three times) and every acknowledged key is
   read back with get_many and get, together with absent keys. *)

open Common
module Sh = Hyperion_shard

let config =
  { Hyperion.Config.strings with chunks_per_bin = 64; compress = 1 }

let base_keys = 500_000
let shards = 2
let batch = 1024
(* 1.9 MiB: about 4.3 rotations' worth of WAL per shard, so seed-to-seed
   noise in WAL bytes never changes the rotation count *)
let base_rotate_bytes = 19 * (1 lsl 20) / 10
let width = 32
let read_chunk = 4096

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Hyperion.Hyperion_error.to_string e)

(* Sizes of the snapshot files currently in the store directory: each one
   is written once, so the largest size seen per name is what was written. *)
let note_snapshots dir seen =
  for s = 0 to shards - 1 do
    let d = Sh.shard_dir ~dir s in
    match Sys.readdir d with
    | files ->
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".hyp" then
              match (Unix.stat (Filename.concat d f)).Unix.st_size with
              | size ->
                  let k = Filename.concat d f in
                  Hashtbl.replace seen k
                    (max size (Option.value ~default:0 (Hashtbl.find_opt seen k)))
              | exception Unix.Unix_error _ -> ())
          files
    | exception Sys_error _ -> ()
  done

(* Ingests the keys at load positions [lo, hi) through Batch.flush every
   [batch] keys; every flush must apply its whole batch.  Traced flushes run
   with library telemetry on and a span each; in a traced run every flush is
   traced unless [alternate], which interleaves the two kinds.  Returns
   acknowledged puts, user bytes, flushes and the mean traced / untraced
   flush time ratio. *)
let ingest args st (c : corpus) ~dir ~lo ~hi ~parent ~hist ~snaps ~alternate =
  let b = Sh.Batch.create st in
  let on_ns = ref 0 and on_n = ref 0 and off_ns = ref 0 and off_n = ref 0 in
  let user_bytes = ref 0 and acked = ref 0 in
  let i = ref lo and k = ref 0 in
  while !i < hi do
    let top = min hi (!i + batch) in
    for j = !i to top - 1 do
      let ix = c.order.(j) in
      let key = c.sorted.(ix) in
      user_bytes := !user_bytes + String.length key + 8;
      Sh.Batch.put b key (value_of ix)
    done;
    let traced = args.trace && ((not alternate) || !k land 1 = 1) in
    Telemetry.set_enabled traced;
    let sp = if traced then Span.enter ~parent "shard.flush" else -1 in
    let a = now_ns () in
    let r = Sh.Batch.flush b in
    let d = now_ns () - a in
    Span.leave sp;
    Samples.add hist d;
    if traced then begin on_ns := !on_ns + d; incr on_n end
    else begin off_ns := !off_ns + d; incr off_n end;
    (match r with
    | Ok applied ->
        acked := !acked + applied;
        check (applied = top - !i) "flush applied %d of %d" applied (top - !i)
    | Error e -> fail "flush: %s" (Hyperion.Hyperion_error.to_string e));
    if args.trace then note_snapshots dir snaps;
    i := top;
    incr k
  done;
  let per n ns = float_of_int ns /. float_of_int (max 1 n) in
  (!acked, !user_bytes, !k, per !on_n !on_ns /. per !off_n !off_ns)

let run args =
  let n = scaled args base_keys in
  let rotate_bytes = max (64 lsl 10) (scaled args base_rotate_bytes) in
  let (c, dict), setup_s =
    median_setup ~reps:11 (fun () ->
        let c = corpus ~seed:args.seed ~n in
        let sample =
          Workload.Keystream.reservoir ~seed:(Int64.of_int args.seed) ~k:4096
            (Array.to_seq c.sorted)
        in
        (c, Compress.train (Array.to_seq sample)))
  in
  let enc = Compress.Dict dict in
  (* Known library race: Persist.Crc32's table is a module-level lazy, and
     the shard domains that open_durable starts in parallel can force it
     concurrently, which OCaml 5 reports as CamlinternalLazy.Undefined.
     One CRC computed here, on the main domain, forces it first; without
     it the first open below can crash. *)
  ignore (Persist.Crc32.string "" ~pos:0 ~len:0);
  progress "durable_ingest: %d keys, dictionary trained (set-up median %.3f s)" n setup_s;
  let dir =
    Filename.concat (Sys.getcwd ())
      (Filename.concat args.out_dir (Printf.sprintf "durable-%d" (Unix.getpid ())))
  in
  rm_rf dir;
  at_exit (fun () -> rm_rf dir);
  let open_ () = Sh.open_durable ~config ~compress:enc ~shards ~rotate_bytes dir in
  let root = Span.enter "bench.durable_ingest" in
  let corrupt_ix = if args.corrupt then c.order.(0) else -1 in
  (* ---- ingest ---- *)
  let fsync0 = counter "hyperion_wal_fsync_total"
  and wal0 = counter "hyperion_wal_appended_bytes_total"
  and retries0 = counter "hyperion_io_retries_total" in
  let w0 = wchar () in
  let st = ok_or "open" (open_ ()) in
  let flush_hist = Samples.create () in
  let snaps = Hashtbl.create 16 in
  let ing = Span.enter ~parent:root "bench.ingest" in
  let acked = ref 0 and user_bytes = ref 0 and flushes = ref 0 in
  let put_kops, ingest_ns =
    median_segment_rate ~n (fun lo hi ->
        let a, u, f, _ =
          ingest args st c ~dir ~lo ~hi ~parent:ing ~hist:flush_hist ~snaps ~alternate:false
        in
        acked := !acked + a;
        user_bytes := !user_bytes + u;
        flushes := !flushes + f)
  in
  let acked = !acked and user_bytes = !user_bytes and flushes = !flushes in
  Span.leave ing;
  let resident = Sh.memory_usage st in
  let memman = if args.trace then Sh.with_quiesced st (fun a -> memman_layers (Array.to_list a)) else [] in
  Span.with_ ~parent:root "persist.close" (fun () -> ok_or "close" (Sh.close st));
  let written = wchar () - w0 in
  let fsyncs = counter "hyperion_wal_fsync_total" - fsync0 in
  progress "durable_ingest: ingested in %.2f s, %.1f MiB written" (float_of_int ingest_ns /. 1e9)
    (float_of_int written /. 1048576.);
  (* ---- recovery, three times ---- *)
  let times = Array.make 3 0.0 in
  let reopened = ref None in
  for r = 0 to 2 do
    let sp = Span.enter ~parent:root "persist.open_durable" in
    let a = now_ns () in
    let st = ok_or "reopen" (open_ ()) in
    times.(r) <- float_of_int (now_ns () - a) /. 1e9;
    Span.leave sp;
    if r < 2 then ok_or "close" (Sh.close st) else reopened := Some st
  done;
  let st = Option.get !reopened in
  let sorted_times = Array.copy times in
  Array.sort compare sorted_times;
  let recovery_s = sorted_times.(1) in
  let recs = Sh.recoveries st in
  let rotations = List.fold_left (fun a r -> a + r.Sh.recovery.Persist.generation) 0 recs in
  (* ---- read back: every key, plus one absent key per four ---- *)
  let nq = n + (n / 4) in
  let qk = Array.make nq "" and qe = Array.make nq None in
  let j = ref 0 in
  Array.iteri
    (fun p ix ->
      qk.(!j) <- c.sorted.(ix);
      qe.(!j) <- Some (if ix = corrupt_ix then Int64.logxor (value_of ix) 1L else value_of ix);
      incr j;
      if p land 3 = 3 && !j < nq then begin
        qk.(!j) <- (if p land 4 = 0 then absent_key c.sorted.(ix) else absent_year c.sorted.(ix) p);
        incr j
      end)
    c.order;
  let verify what lo hi got =
    for p = lo to hi - 1 do
      check (got.(p - lo) = qe.(p)) "%s %S" what qk.(p)
    done
  in
  (* chunks of 4096 queries, each through get_many and through get, the
     arm that goes first alternating; rates are the median chunk's *)
  let get_hist = Samples.create () in
  let many_rates = ref [] and get_rates = ref [] in
  let got = Array.make read_chunk None in
  let rate lo hi d = float_of_int (hi - lo) *. 1e6 /. float_of_int d in
  let via_many lo hi =
    let sp = Span.enter ~parent:root "shard.get_many" in
    let a = now_ns () in
    let p = ref lo in
    while !p < hi do
      let w = min width (hi - !p) in
      Array.blit (Sh.get_many ~width st (Array.sub qk !p w)) 0 got (!p - lo) w;
      p := !p + w
    done;
    many_rates := rate lo hi (now_ns () - a) :: !many_rates;
    Span.leave sp;
    verify "get_many" lo hi got
  in
  let via_get lo hi =
    let sp = Span.enter ~parent:root "shard.get" in
    let a0 = now_ns () in
    for p = lo to hi - 1 do
      let a = now_ns () in
      got.(p - lo) <- Sh.get st qk.(p);
      Samples.add get_hist (now_ns () - a)
    done;
    get_rates := rate lo hi (now_ns () - a0) :: !get_rates;
    Span.leave sp;
    verify "get" lo hi got
  in
  let lo = ref 0 in
  while !lo < nq do
    let hi = min nq (!lo + read_chunk) in
    if (!lo / read_chunk) land 1 = 0 then begin via_many !lo hi; via_get !lo hi end
    else begin via_get !lo hi; via_many !lo hi end;
    lo := hi
  done;
  check (Sh.length st = n) "reopened store holds %d keys, expected %d" (Sh.length st) n;
  (* traced runs also time the encoder the shard applies to every key *)
  let encode =
    if not args.trace then []
    else begin
      let raw = ref 0 and coded = ref 0 in
      let e0 = now_ns () in
      Span.with_ ~parent:root "compress.encode" (fun () ->
          Array.iter (fun k -> coded := !coded + String.length (Compress.encode enc k)) c.sorted);
      let ns = float_of_int (now_ns () - e0) /. float_of_int n in
      Array.iter (fun k -> raw := !raw + String.length k) c.sorted;
      [
        ("compress.encode_ns_per_key", ns);
        ("compress.key_bytes_ratio", float_of_int !coded /. float_of_int !raw);
      ]
    end
  in
  ok_or "close" (Sh.close st);
  Span.leave root;
  rm_rf dir;
  Telemetry.set_enabled false;
  progress "durable_ingest: %d rotations, recovery %.3f s, get_many %.1f k/s, get %.1f k/s"
    rotations recovery_s (median !many_rates) (median !get_rates);
  if args.trace then begin
    let fs = histogram "hyperion_wal_fsync_duration_ns"
    and rot = histogram "hyperion_wal_rotation_duration_ns" in
    let layers =
      [
         ("persist.fsyncs", float_of_int fsyncs);
         ("persist.ops_per_fsync", float_of_int acked /. float_of_int (max 1 fsyncs));
         ("persist.fsync_ns_p50", hq fs 0.5); ("persist.fsync_ns_p99", hq fs 0.99);
         ("persist.rotations", float_of_int rotations);
         ("persist.rotation_ns_p99", hq rot 0.99);
         ("persist.wal_bytes", float_of_int (counter "hyperion_wal_appended_bytes_total" - wal0));
         ("persist.snapshot_bytes", float_of_int (Hashtbl.fold (fun _ v a -> a + v) snaps 0));
         ( "persist.snapshot_keys",
           float_of_int (List.fold_left (fun a r -> a + r.Sh.recovery.Persist.snapshot_keys) 0 recs) );
         ( "persist.replayed_ops",
           float_of_int (List.fold_left (fun a r -> a + r.Sh.recovery.Persist.replayed_ops) 0 recs) );
         ("persist.io_retries", float_of_int (counter "hyperion_io_retries_total" - retries0));
         ("shard.flush_ns_p50", q flush_hist 0.5); ("shard.flush_ns_p99", q flush_hist 0.99);
         ("shard.batch_ops_mean", Hist.mean (histogram "hyperion_shard_batch_ops"));
         ("shard.drain_msgs_mean", Hist.mean (histogram "hyperion_shard_drain_msgs"));
         ( "shard.mailbox_depth_hwm",
           float_of_int
             (Telemetry.Gauge.value
                (Telemetry.Gauge.make ~merge:`Max "hyperion_shard_mailbox_depth_hwm")) );
         ( "shard.overload_rejections",
           float_of_int (counter "hyperion_shard_overload_rejections_total") );
       ]
      @ encode @ memman
    in
    (* tracing overhead: a second store ingesting with traced and untraced
       flushes interleaved *)
    let odir = dir ^ "-overhead" in
    at_exit (fun () -> rm_rf odir);
    let ost = ok_or "open" (Sh.open_durable ~config ~compress:enc ~shards ~rotate_bytes odir) in
    let _, _, _, ratio =
      ingest args ost c ~dir:odir ~lo:0 ~hi:(min n 100_000) ~parent:(-1)
        ~hist:(Samples.create ()) ~snaps:(Hashtbl.create 1) ~alternate:true
    in
    ok_or "close" (Sh.close ost);
    rm_rf odir;
    let overhead = (ratio -. 1.0) *. 100.0 in
    emit_layers (("telemetry.overhead_pct", overhead) :: layers)
  end
  else begin
    emit_detail "durable_ingest"
      [
        m "recovery_s" "s" recovery_s;
        m "write_amp" "ratio" (float_of_int written /. float_of_int user_bytes);
        m "get_many_speedup" "ratio" (median !many_rates /. median !get_rates);
        m "get_p99_us" "us" (us (q get_hist 0.99));
        m "get_samples" "count" (float_of_int (Samples.count get_hist));
        m "rotations" "count" (float_of_int rotations);
        m "flushes" "count" (float_of_int flushes);
        m "rotate_bytes" "B" (float_of_int rotate_bytes);
      ];
    emit
      [
        m "setup_s" "s" setup_s;
        m "put_kops" "kops/s" put_kops;
        m "get_kops" "kops/s" (median !get_rates);
        m "get_many_kops" "kkeys/s" (median !many_rates);
        m "bytes_per_key" "B" (float_of_int resident /. float_of_int n);
        m "get_p50_us" "us" (us (q get_hist 0.5));
      ]
  end

let fingerprint args = corpus_fingerprint (corpus ~seed:args.seed ~n:(scaled args base_keys))
