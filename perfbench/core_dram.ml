(* core_dram: one in-process Store.t, one domain, a trie larger than the
   last-level cache.  Loads ~4M n-gram keys in random order, then runs
   point lookups (20% absent) as [get] and as [get_many] width 32,
   interleaved chunk by chunk, then 1000-key range scans from random
   starts.  It bypasses net, shard, persist and compress. *)

open Common
module S = Hyperion.Store

let config = { Hyperion.Config.strings with chunks_per_bin = 64 }
let base_keys = 4_000_000
let chunk = 4096
let width = 32
let scan_len = 1000

type read_stats = {
  mutable get_ops : int;
  mutable get_ns : int;
  mutable many_ops : int;
  mutable many_ns : int;
  mutable get_rates : float list;  (** k ops/s of each [get] chunk *)
  mutable many_rates : float list;  (** k keys/s of each [get_many] chunk *)
  mutable get_p50s : float list;  (** per-call [get] median of each chunk, ns *)
  get_hist : Samples.t;  (** per [get] call *)
  many_hist : Samples.t;  (** per [get_many] call, divided by its width *)
  mutable absent_in_many : int;
  mutable tag_rejected : int;
  mutable prefetch : int;
  mutable jt_hit : int;
  mutable jt_miss : int;
}

let tag_counter () = counter "hyperion_tag_rejected_total"
let prefetch_counter () = counter "hyperion_prefetch_issued_total"
let jt ~hit = counter ~labels:[ ("result", if hit then "hit" else "miss") ] "hyperion_jump_table_total"

(* One chunk of uniform queries over the corpus, 20% of them absent (half
   of each absent kind). *)
let queries rng (c : corpus) =
  let n = Array.length c.sorted in
  let keys = Array.make chunk "" and expect = Array.make chunk None in
  for j = 0 to chunk - 1 do
    let i = Mt.next_below rng n in
    let r = Mt.next_below rng 10 in
    if r = 0 then keys.(j) <- absent_key c.sorted.(i)
    else if r = 1 then keys.(j) <- absent_year c.sorted.(i) j
    else begin
      keys.(j) <- c.sorted.(i);
      expect.(j) <- Some (value_of i)
    end
  done;
  (keys, expect)

let verify what keys expect got =
  Array.iteri
    (fun j e ->
      let ok = got.(j) = e in
      if not ok then fail "%s %S: wrong value" what keys.(j))
    expect;
  note_attempts (Array.length expect)

let get_chunk st rs ~parent keys expect =
  let sp = Span.enter ~parent "store.get_chunk" in
  let got = Array.make chunk None and call_ns = Array.make chunk 0 in
  let t0 = now_ns () in
  for j = 0 to chunk - 1 do
    let a = now_ns () in
    got.(j) <- S.get st keys.(j);
    call_ns.(j) <- now_ns () - a
  done;
  let d = now_ns () - t0 in
  Array.iter (Samples.add rs.get_hist) call_ns;
  Array.sort compare call_ns;
  rs.get_p50s <- float_of_int call_ns.(chunk / 2) :: rs.get_p50s;
  rs.get_ns <- rs.get_ns + d;
  rs.get_rates <- (float_of_int chunk *. 1e6 /. float_of_int d) :: rs.get_rates;
  rs.get_ops <- rs.get_ops + chunk;
  Span.leave sp;
  verify "get" keys expect got

let many_chunk args st rs ~parent keys expect =
  let sp = Span.enter ~parent "getmany.chunk" in
  let got = Array.make chunk None in
  let tag0 = if args.trace then tag_counter () else 0 in
  let pf0 = if args.trace then prefetch_counter () else 0 in
  let t0 = now_ns () in
  let j = ref 0 in
  while !j < chunk do
    let batch = Array.sub keys !j width in
    let a = now_ns () in
    let r = S.get_many ~width st batch in
    Samples.add rs.many_hist ((now_ns () - a) / width);
    Array.blit r 0 got !j width;
    j := !j + width
  done;
  let d = now_ns () - t0 in
  rs.many_ns <- rs.many_ns + d;
  rs.many_rates <- (float_of_int chunk *. 1e6 /. float_of_int d) :: rs.many_rates;
  rs.many_ops <- rs.many_ops + chunk;
  Span.leave sp;
  if args.trace then begin
    rs.tag_rejected <- rs.tag_rejected + (tag_counter () - tag0);
    rs.prefetch <- rs.prefetch + (prefetch_counter () - pf0)
  end;
  Array.iter (fun e -> if e = None then rs.absent_in_many <- rs.absent_in_many + 1) expect;
  verify "get_many" keys expect got

(* Lower bound of [k] in the sorted corpus. *)
let lower_bound sorted k =
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare sorted.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Puts the keys at load positions [lo, hi) in chunks.  Traced chunks run
   with library telemetry on, a span per chunk and every call timed into
   [hist]; untraced chunks run bare.  In a traced run every chunk is traced
   unless [alternate], which interleaves the two kinds and returns each
   kind's mean time per put. *)
let load args st (c : corpus) ~lo ~hi ~parent ~hist ~alternate =
  let on_ns = ref 0 and on_ops = ref 0 and off_ns = ref 0 and off_ops = ref 0 in
  let i = ref lo and k = ref 0 in
  while !i < hi do
    let top = min hi (!i + chunk) in
    let traced = args.trace && ((not alternate) || !k land 1 = 1) in
    Telemetry.set_enabled traced;
    let sp = if traced then Span.enter ~parent "store.put_chunk" else -1 in
    let c0 = now_ns () in
    if traced then
      for j = !i to top - 1 do
        let ix = c.order.(j) in
        let a = now_ns () in
        let r = S.put_result st c.sorted.(ix) (value_of ix) in
        Samples.add hist (now_ns () - a);
        if Result.is_error r then fail "put %S rejected" c.sorted.(ix)
      done
    else
      for j = !i to top - 1 do
        let ix = c.order.(j) in
        if Result.is_error (S.put_result st c.sorted.(ix) (value_of ix)) then
          fail "put %S rejected" c.sorted.(ix)
      done;
    let d = now_ns () - c0 in
    Span.leave sp;
    if traced then begin on_ns := !on_ns + d; on_ops := !on_ops + (top - !i) end
    else begin off_ns := !off_ns + d; off_ops := !off_ops + (top - !i) end;
    i := top;
    incr k
  done;
  note_attempts (hi - lo);
  let per_op ns ops = float_of_int ns /. float_of_int (max 1 ops) in
  (per_op !on_ns !on_ops, per_op !off_ns !off_ops)

let run args =
  let n = scaled args base_keys in
  let c, setup_s =
    median_setup ~reps:3 (fun () -> corpus ~seed:args.seed ~n)
  in
  progress "core_dram: %d keys generated (set-up median %.2f s)" n setup_s;
  let root = Span.enter "bench.core_dram" in
  let st = S.create ~config () in
  (* ---- load: random order, every put acknowledged ---- *)
  let put_hist = Samples.create () in
  let splits0 = counter "hyperion_container_split_total"
  and ejects0 = counter "hyperion_embedded_eject_total" in
  let ld = Span.enter ~parent:root "bench.load" in
  let put_kops, load_ns =
    median_segment_rate ~n (fun lo hi ->
        ignore (load args st c ~lo ~hi ~parent:ld ~hist:put_hist ~alternate:false))
  in
  Span.leave ld;
  let splits = counter "hyperion_container_split_total" - splits0
  and ejects = counter "hyperion_embedded_eject_total" - ejects0 in
  check (S.length st = n) "length after load: %d, expected %d" (S.length st) n;
  let resident = S.memory_usage st in
  progress "core_dram: loaded in %.2f s, %.1f MiB resident (%.1f B/key)"
    (float_of_int load_ns /. 1e9)
    (float_of_int resident /. 1048576.)
    (float_of_int resident /. float_of_int n);
  (* ---- point lookups: get and get_many, interleaved ---- *)
  let rs =
    {
      get_ops = 0; get_ns = 0; many_ops = 0; many_ns = 0; get_rates = []; many_rates = [];
      get_p50s = [];
      get_hist = Samples.create (); many_hist = Samples.create ();
      absent_in_many = 0; tag_rejected = 0; prefetch = 0; jt_hit = 0; jt_miss = 0;
    }
  in
  let rng = Mt.create (Int64.of_int (args.seed * 7919 + 1)) in
  let reads = Span.enter ~parent:root "bench.reads" in
  let jt_hit0 = jt ~hit:true and jt_miss0 = jt ~hit:false in
  let budget_ns = int_of_float (args.seconds *. 0.7 *. 1e9) in
  let r0 = now_ns () and round = ref 0 in
  while !round < 2 || now_ns () - r0 < budget_ns do
    let ka, ea = queries rng c and kb, eb = queries rng c in
    if args.corrupt && !round = 0 then
      ea.(0) <- (match ea.(0) with Some v -> Some (Int64.logxor v 1L) | None -> Some 0L);
    (* alternate which arm runs first *)
    if !round land 1 = 0 then begin
      get_chunk st rs ~parent:reads ka ea;
      many_chunk args st rs ~parent:reads kb eb
    end
    else begin
      many_chunk args st rs ~parent:reads kb eb;
      get_chunk st rs ~parent:reads ka ea
    end;
    incr round
  done;
  Span.leave reads;
  rs.jt_hit <- jt ~hit:true - jt_hit0;
  rs.jt_miss <- jt ~hit:false - jt_miss0;
  (* ---- range scans from random starts ---- *)
  let scans = Span.enter ~parent:root "bench.scans" in
  let scan_ns = ref 0 and scanned = ref 0 and nscans = ref 0 in
  let got_k = Array.make scan_len "" and got_v = Array.make scan_len None in
  let s0 = now_ns () in
  let scan_budget = int_of_float (args.seconds *. 0.3 *. 1e9) in
  while !nscans < 20 || now_ns () - s0 < scan_budget do
    let r = Mt.next_below rng n in
    let start = if Mt.next_below rng 2 = 0 then c.sorted.(r) else absent_key c.sorted.(r) in
    let lb = lower_bound c.sorted start in
    let cnt = ref 0 in
    let sp = Span.enter ~parent:scans "store.range" in
    let a = now_ns () in
    S.range st ~start (fun k v ->
        got_k.(!cnt) <- k;
        got_v.(!cnt) <- v;
        incr cnt;
        !cnt < scan_len);
    scan_ns := !scan_ns + (now_ns () - a);
    Span.leave sp;
    let expect = min scan_len (n - lb) in
    check (!cnt = expect) "range from %S: %d keys, expected %d" start !cnt expect;
    for j = 0 to min !cnt expect - 1 do
      if got_k.(j) <> c.sorted.(lb + j) || got_v.(j) <> Some (value_of (lb + j)) then
        fail "range from %S: entry %d is %S" start j got_k.(j)
    done;
    note_attempts (min !cnt expect);
    scanned := !scanned + !cnt;
    incr nscans
  done;
  Span.leave scans;
  Span.leave root;
  Telemetry.set_enabled false;
  let per_s ops ns = float_of_int ops /. (float_of_int ns /. 1e9) in
  (* Other tenants of the machine share its L3 and memory bandwidth, and
     their interference only ever slows a chunk of this DRAM-bound phase
     down: read figures are those the fastest tenth of the chunks reach
     (90th percentile of chunk rates, 10th of chunk per-call medians),
     which track the program's own speed more closely than the median
     chunk's. *)
  let get_kops = quantile rs.get_rates 0.9 and many_kops = quantile rs.many_rates 0.9 in
  let get_p50_ns = quantile rs.get_p50s 0.1 in
  let scan_mkeys = per_s !scanned !scan_ns /. 1e6 in
  progress "core_dram: get %.1f k/s (%d), get_many %.1f k/s (%d), scan %.2f M/s (%d scans)"
    get_kops rs.get_ops many_kops rs.many_ops scan_mkeys !nscans;
  if args.trace then begin
    let stats = S.stats st in
    let memman = memman_layers [ st ] in
    (* tracing overhead: a second store loaded with traced and untraced
       chunks interleaved *)
    let on, off =
      load args (S.create ~config ()) c ~lo:0 ~hi:(min n 500_000) ~parent:(-1)
        ~hist:(Samples.create ()) ~alternate:true
    in
    let per_op ns ops = float_of_int ns /. float_of_int (max 1 ops) in
    emit_layers
      ([
         ("store.put_ns_p50", q put_hist 0.5); ("store.put_ns_p99", q put_hist 0.99);
         ("store.container_splits", float_of_int splits);
         ("store.embedded_ejects", float_of_int ejects);
         ("store.get_ns_p50", q rs.get_hist 0.5); ("store.get_ns_p99", q rs.get_hist 0.99);
         ( "store.jt_hit_ratio",
           float_of_int rs.jt_hit /. float_of_int (max 1 (rs.jt_hit + rs.jt_miss)) );
         ("store.range_ns_per_key", per_op !scan_ns !scanned);
         ("store.containers", float_of_int stats.Hyperion.Stats.containers);
         ("getmany.ns_per_key_p50", q rs.many_hist 0.5);
         ("getmany.prefetch_issued", float_of_int rs.prefetch);
         ("getmany.tag_rejected", float_of_int rs.tag_rejected);
         ( "getmany.tag_reject_ratio",
           float_of_int rs.tag_rejected /. float_of_int (max 1 rs.absent_in_many) );
         ("telemetry.overhead_pct", (on /. off -. 1.0) *. 100.0);
       ]
      @ memman)
  end
  else begin
    emit_detail "core_dram"
      [
        m "scan_mkeys_s" "Mkeys/s" scan_mkeys;
        (* both arms run interleaved in one process, so their ratio shows
           the batched path's gain with little of the machine's noise *)
        m "get_many_speedup" "ratio" (many_kops /. get_kops);
        m "scans" "count" (float_of_int !nscans);
        m "get_p99_us" "us" (us (q rs.get_hist 0.99));
        m "get_samples" "count" (float_of_int rs.get_ops);
        m "get_many_samples" "count" (float_of_int rs.many_ops);
        m "resident_bytes" "B" (float_of_int resident);
      ];
    emit
      [
        m "setup_s" "s" setup_s;
        m "put_kops" "kops/s" put_kops;
        m "get_kops" "kops/s" get_kops;
        m "get_many_kops" "kkeys/s" many_kops;
        m "bytes_per_key" "B" (float_of_int resident /. float_of_int n);
        m "get_p50_us" "us" (us get_p50_ns);
      ]
  end

let fingerprint args = corpus_fingerprint (corpus ~seed:args.seed ~n:(scaled args base_keys))
