(* Shared plumbing of the benchmark: arguments, generated inputs, timing,
   answer checking, in-memory spans and the result line.

   Everything here runs in the benchmark process and only calls the
   repository's public library interfaces; nothing is added to lib/. *)

module Mt = Workload.Mt19937_64

let now_ns = Telemetry.now_ns

(* ---- arguments ------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;  (** length of the time-bounded measurement phases *)
  trace : bool;  (** traced run: per-layer metrics instead of end-to-end *)
  scale : float;  (** multiplies every input size; 1.0 = documented sizes *)
  corrupt : bool;  (** corrupt one oracle answer: the run must report it *)
  fingerprint : bool;  (** print input fingerprints and exit *)
  out_dir : string;  (** scratch directory for durable data and traces *)
}

let scaled args n = max 1 (int_of_float (Float.round (float_of_int n *. args.scale)))

(* ---- answer checking ------------------------------------------------- *)

(* Every answer the program gives is compared with the oracle; a wrong
   one is counted, and the first few are described on stderr. *)
let attempted = ref 0
let failed = ref 0

let note_attempts n = attempted := !attempted + n

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if !failed <= 10 then prerr_endline ("perfbench: wrong answer: " ^ msg))
    fmt

(* [check ok] counts one attempted operation, failed unless [ok]. *)
let check ok fmt =
  incr attempted;
  Printf.ksprintf (fun msg -> if not ok then fail "%s" msg) fmt

(* ---- generated inputs ------------------------------------------------ *)

(* Value stored under key index [i]: distinct per key, and below 2^40,
   where the values the serve workload writes start. *)
let value_of i = Int64.of_int i

(* Keys that are never stored.  [absent_key k] extends a stored key with
   '#', which no stored key contains: a miss found only after a full
   descent, ordered right after [k].  [absent_year k r] swaps [k]'s year for
   one past the corpus range (2010-2099): a miss at the year bytes, where a
   container's negative-lookup tag can reject it. *)
let absent_key k = k ^ "#"

let absent_year k r =
  String.sub k 0 (String.length k - 4) ^ Printf.sprintf "20%02d" (10 + (r mod 90))

type corpus = {
  sorted : string array;  (** distinct keys, ascending *)
  order : int array;  (** a seeded random load order: indices into [sorted] *)
}

(* A fast seeded generator (splitmix-style mixing on OCaml's 63-bit ints)
   for the bulk of the input draws; the vocabulary itself comes from the
   repository's Mt19937_64-driven word model. *)
module Rng = struct
  type t = { mutable s : int }

  let create seed = { s = (seed * 0x1E3779B97F4A7C15) + 0x2545F4914F6CDD1D }

  let next t =
    t.s <- t.s + 0x1E3779B97F4A7C15;
    let z = t.s in
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
    (z lxor (z lsr 31)) land max_int

  let below t n = next t mod n
  let float t = float_of_int (next t lsr 9) /. float_of_int (1 lsl 53)
end

(* Zipf(s) over ranks [0, n), sampled in O(1) with Vose's alias method. *)
type alias = { prob : float array; alias : int array }

let zipf_alias ~n ~s =
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let p = Array.map (fun x -> x *. float_of_int n /. total) w in
  let prob = Array.make n 1.0 and alias = Array.init n Fun.id in
  let small = Stack.create () and large = Stack.create () in
  Array.iteri (fun i x -> Stack.push i (if x < 1.0 then small else large)) p;
  while not (Stack.is_empty small || Stack.is_empty large) do
    let l = Stack.pop small and g = Stack.pop large in
    prob.(l) <- p.(l);
    alias.(l) <- g;
    p.(g) <- p.(g) +. p.(l) -. 1.0;
    Stack.push g (if p.(g) < 1.0 then small else large)
  done;
  { prob; alias }

let zipf_sample z rng =
  let i = Rng.below rng (Array.length z.prob) in
  if Rng.float rng < z.prob.(i) then i else z.alias.(i)

(* LSD radix sort of (a, b) pairs of non-negative ints, by a then b:
   11-bit digits, two passes over b's 22 bits and six over a's 56. *)
let radix_sort_pairs a b =
  let n = Array.length a in
  let src_a = ref a and src_b = ref b in
  let dst_a = ref (Array.make n 0) and dst_b = ref (Array.make n 0) in
  let pass of_a shift =
    let count = Array.make 2049 0 in
    let key i = ((if of_a then !src_a.(i) else !src_b.(i)) lsr shift) land 2047 in
    for i = 0 to n - 1 do
      let d = key i + 1 in
      count.(d) <- count.(d) + 1
    done;
    for d = 1 to 2048 do count.(d) <- count.(d) + count.(d - 1) done;
    for i = 0 to n - 1 do
      let d = key i in
      let p = count.(d) in
      count.(d) <- p + 1;
      !dst_a.(p) <- !src_a.(i);
      !dst_b.(p) <- !src_b.(i)
    done;
    let ta = !src_a and tb = !src_b in
    src_a := !dst_a; src_b := !dst_b; dst_a := ta; dst_b := tb
  in
  List.iter (fun sh -> pass false sh) [ 0; 11 ];
  List.iter (fun sh -> pass true sh) [ 0; 11; 22; 33; 44; 55 ];
  (!src_a, !src_b)

(* [n] distinct n-gram keys in the repository's corpus shape (2-5 words
   of the [Workload.Keystream] letter-frequency vocabulary of 8192 words,
   Zipf 1.07 word popularity, a tab, a year in 1800-2008), from [seed].

   Keys are drawn as codes whose integer order is the keys' byte order:
   a = the first four words' alphabetical ranks (14 bits each, 0 = no
   word), b = fifth word and year.  Every vocabulary byte sorts above ' ',
   which sorts above '	', so fewer words sort first exactly as the
   strings do.  Sorting and deduplicating the codes gives the sorted key
   array, which doubles as the range oracle, without comparing strings. *)
let corpus ~seed ~n =
  (* one vocabulary for every seed (the repository's default corpus seed):
     the seed picks the n-grams, so key lengths and trie shape do not
     drift from seed to seed *)
  let vocab = Workload.Keystream.build_vocabulary (Mt.create 20190301L) 8192 in
  let alpha = Array.init 8192 Fun.id in
  Array.sort (fun x y -> String.compare vocab.(x) vocab.(y)) alpha;
  let rank = Array.make 8192 0 in
  Array.iteri (fun r w -> rank.(w) <- r + 1) alpha;
  let zipf = zipf_alias ~n:8192 ~s:1.07 in
  let rng = Rng.create seed in
  let draw m =
    let a = Array.make m 0 and b = Array.make m 0 in
    for i = 0 to m - 1 do
      let words = 2 + Rng.below rng 4 in
      let w k = if k < words then rank.(zipf_sample zipf rng) else 0 in
      let w1 = w 0 in let w2 = w 1 in let w3 = w 2 in let w4 = w 3 in let w5 = w 4 in
      a.(i) <- (w1 lsl 42) lor (w2 lsl 28) lor (w3 lsl 14) lor w4;
      b.(i) <- (w5 lsl 8) lor Rng.below rng 209
    done;
    (a, b)
  in
  (* sorted distinct codes, at least [n] of them *)
  let rec gather (ha, hb) =
    let have = Array.length ha in
    if have >= n then (ha, hb)
    else begin
      let na, nb = draw (n - have + (n / 8) + 16) in
      let a, b = radix_sort_pairs (Array.append ha na) (Array.append hb nb) in
      let m = Array.length a in
      let k = ref 0 in
      for i = 0 to m - 1 do
        if i = 0 || a.(i) <> a.(i - 1) || b.(i) <> b.(i - 1) then begin
          a.(!k) <- a.(i);
          b.(!k) <- b.(i);
          incr k
        end
      done;
      gather (Array.sub a 0 !k, Array.sub b 0 !k)
    end
  in
  let a, b = gather ([||], [||]) in
  (* keep a seeded random subset of exactly [n], still in order *)
  let m = Array.length a in
  let keep = Array.make m true in
  let dropped = ref 0 in
  while !dropped < m - n do
    let i = Rng.below rng m in
    if keep.(i) then begin
      keep.(i) <- false;
      incr dropped
    end
  done;
  let words = Array.map (fun w -> vocab.(w)) alpha in
  let years = Array.init 209 (fun y -> "\t" ^ string_of_int (1800 + y)) in
  let key x y =
    let ws = [ x lsr 42; (x lsr 28) land 0x3FFF; (x lsr 14) land 0x3FFF; x land 0x3FFF; y lsr 8 ] in
    let ws = List.filter (fun r -> r > 0) ws in
    let len = List.fold_left (fun l r -> l + String.length words.(r - 1) + 1) 4 ws in
    let out = Bytes.create len in
    let pos = ref 0 in
    List.iter
      (fun r ->
        if !pos > 0 then begin Bytes.set out !pos ' '; incr pos end;
        let w = words.(r - 1) in
        Bytes.blit_string w 0 out !pos (String.length w);
        pos := !pos + String.length w)
      ws;
    Bytes.blit_string years.(y land 0xFF) 0 out !pos 5;
    Bytes.unsafe_to_string out
  in
  let sorted = Array.make n "" in
  let j = ref 0 in
  for i = 0 to m - 1 do
    if keep.(i) then begin
      sorted.(!j) <- key a.(i) b.(i);
      incr j
    end
  done;
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let k = Rng.below rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(k);
    order.(k) <- t
  done;
  { sorted; order }

(* FNV-1a over strings, for input fingerprints. *)
let fnv_strings xs =
  let h = ref 0x4bf29ce484222325 in
  List.iter
    (fun s ->
      String.iter
        (fun c -> h := (!h lxor Char.code c) * 0x100000001b3)
        s;
      h := (!h lxor 0xff) * 0x100000001b3)
    xs;
  Printf.sprintf "%016x" (!h land max_int)

(* [p]-quantile of a list of floats: the element at rank floor(p n) of
   the sorted list (the upper median for p = 0.5). *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (p *. float_of_int n)))

let median xs = quantile xs 0.5

(* Hashes of the first 1000 keys in load order and of their positions. *)
let corpus_fingerprint c =
  let first = Array.to_list (Array.sub c.order 0 (min 1000 (Array.length c.order))) in
  Printf.printf "{\"keys\": \"%s\", \"schedule\": \"%s\"}\n"
    (fnv_strings (List.map (fun i -> c.sorted.(i)) first))
    (fnv_strings (List.map string_of_int first))

(* Runs [f lo hi] over five equal consecutive segments of [0, n) and
   returns the median segment's rate in k items per second, with the total
   elapsed nanoseconds: one burst of interference from outside the process
   moves one segment, not the figure. *)
let segments = 5

let median_segment_rate ~n f =
  let t0 = now_ns () in
  let rates =
    List.init segments (fun i ->
        let lo = i * n / segments and hi = (i + 1) * n / segments in
        let a = now_ns () in
        f lo hi;
        float_of_int (hi - lo) *. 1e6 /. float_of_int (max 1 (now_ns () - a)))
  in
  (median rates, now_ns () - t0)

(* Runs [f] [reps] times and returns the last result with the median
   duration in seconds: set-up time is reported as a median so that a
   single slow repetition does not move it.  [before], untimed, runs ahead
   of each repetition (to tear down the previous one's leftovers). *)
let median_setup ?(before = ignore) ~reps f =
  let times = Array.make reps 0.0 and last = ref None in
  for r = 0 to reps - 1 do
    before ();
    (* every repetition starts from a compacted heap, as the first does *)
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let v = f () in
    times.(r) <- Unix.gettimeofday () -. t0;
    last := Some v
  done;
  match !last with
  | Some v -> (v, median (Array.to_list times))
  | None -> invalid_arg "median_setup: reps must be positive"

(* ---- latency histograms ---------------------------------------------- *)

module Hist = Telemetry.Hist

(* Raw samples with exact nearest-rank quantiles: the benchmark's own
   timings are reported unbucketed, so two runs never read the same by
   construction. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int; mutable sorted : bool }

  let create () = { a = Array.make 1024 0; n = 0; sorted = true }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1;
    t.sorted <- false

  let merge ~dst src = for i = 0 to src.n - 1 do add dst src.a.(i) done
  let count t = t.n

  let quantile t p =
    if t.n = 0 then nan
    else begin
      if not t.sorted then begin
        let s = Array.sub t.a 0 t.n in
        Array.sort compare s;
        t.a <- s;
        t.sorted <- true
      end;
      float_of_int t.a.(max 0 (min (t.n - 1) (int_of_float (Float.ceil (p *. float_of_int t.n)) - 1)))
    end
end

let q = Samples.quantile

(* Quantile of one of the program's own (bucketed) telemetry histograms. *)
let hq h p = Hist.quantile h p
let us ns = ns /. 1e3

(* ---- in-memory spans (traced runs only) ------------------------------ *)

(* A span is (name, start, end, parent, request id), kept in growable
   arrays and written out when the run ends.  The benchmark records spans
   around the calls it makes into each layer; layer self time is a span's
   duration minus the part of it its children cover.  Spans are recorded
   from the main thread only. *)
module Span = struct
  let on = ref false
  let names : (string, int) Hashtbl.t = Hashtbl.create 32
  let name_list = ref [||]
  let len = ref 0
  let name = ref [||]
  let start = ref [||]
  let stop = ref [||]
  let parent = ref [||]
  let rid = ref [||]

  let intern s =
    match Hashtbl.find_opt names s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names s i;
        name_list := Array.append !name_list [| s |];
        i

  let grow () =
    let cap = max 1024 (2 * Array.length !name) in
    let g a = let b = Array.make cap 0 in Array.blit !a 0 b 0 !len; a := b in
    List.iter g [ name; start; stop; parent; rid ]

  let add nm ~parent:p ~rid:r ~start:s ~stop:e =
    if not !on then -1
    else begin
      if !len = Array.length !name then grow ();
      let i = !len in
      !name.(i) <- intern nm;
      !start.(i) <- s;
      !stop.(i) <- e;
      !parent.(i) <- p;
      !rid.(i) <- r;
      incr len;
      i
    end

  let enter ?(parent = -1) nm =
    add nm ~parent ~rid:(-1) ~start:(now_ns ()) ~stop:(-1)

  let leave i = if i >= 0 then !stop.(i) <- now_ns ()

  (* [with_ nm f]: a span around [f ()]. *)
  let with_ ?parent nm f =
    let s = enter ?parent nm in
    Fun.protect ~finally:(fun () -> leave s) f

  let layer i =
    let n = !name_list.(!name.(i)) in
    match String.index_opt n '.' with Some d -> String.sub n 0 d | None -> n

  (* Self time per layer, in seconds: each span's duration minus the union
     of its children's intervals clipped to it. *)
  let self_seconds () =
    let kids = Array.make !len [] in
    for i = !len - 1 downto 0 do
      let p = !parent.(i) in
      if p >= 0 then kids.(p) <- i :: kids.(p)
    done;
    let per_layer = Hashtbl.create 16 in
    for i = 0 to !len - 1 do
      let s = !start.(i) and e = !stop.(i) in
      if e >= s then begin
        let ivs =
          List.map (fun c -> (max s !start.(c), min e !stop.(c))) kids.(i)
          |> List.filter (fun (a, b) -> b > a)
          |> List.sort compare
        in
        let covered, _ =
          List.fold_left
            (fun (acc, reach) (a, b) ->
              let a = max a reach in
              if b > a then (acc + (b - a), b) else (acc, reach))
            (0, s) ivs
        in
        let l = layer i in
        let prev = Option.value ~default:0 (Hashtbl.find_opt per_layer l) in
        Hashtbl.replace per_layer l (prev + (e - s - covered))
      end
    done;
    fun l ->
      float_of_int (Option.value ~default:0 (Hashtbl.find_opt per_layer l))
      /. 1e9

  let write path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        for i = 0 to !len - 1 do
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"rid\":%d}\n"
            i !name_list.(!name.(i)) !start.(i) !stop.(i) !parent.(i) !rid.(i)
        done)
end

(* ---- telemetry readers ----------------------------------------------- *)

(* Registering an existing name returns the program's own metric, so these
   read the counters and histograms the libraries already export. *)
let counter ?labels n = Telemetry.Counter.value (Telemetry.Counter.make ?labels n)

let histogram ?labels n =
  match Telemetry.Histogram.find ?labels n with
  | Some h -> Telemetry.Histogram.snapshot h
  | None -> Hist.create ()

(* Bytes this process has passed to write(2) so far (all threads). *)
let wchar () =
  match In_channel.with_open_text "/proc/self/io" In_channel.input_all with
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "wchar"; v ] -> int_of_string (String.trim v)
          | _ -> acc)
        0
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0

(* ---- result line ----------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name
           (json_number x.m_value) x.m_unit)
       ms)

(* The last stdout line: the verdict and the requested metric set.  A
   metric that could not be measured (not finite) makes the run fail. *)
let emit ms =
  List.iter
    (fun x ->
      if not (Float.is_finite x.m_value) then
        fail "metric %s is not finite" x.m_name)
    ms;
  let ms = List.map (fun x -> if Float.is_finite x.m_value then x else { x with m_value = -1.0 }) ms in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed (json_metrics ms)

(* A non-final line with the workload's own headline figures, which are
   not defined on every workload and so are not in the result line. *)
let emit_detail workload ms =
  let frac = float_of_int !failed /. float_of_int (max 1 !attempted) in
  Printf.printf "{\"detail\": \"%s\", \"metrics\": {%s}}\n%!" workload
    (json_metrics (ms @ [ m "failed_frac" "ratio" frac ]))

let progress fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---- per-layer metric set (traced runs) ------------------------------ *)

(* Every traced run prints all of these; a layer a workload does not
   exercise reads 0 there.  Each one's target end-to-end metric is listed
   in perfbench/README.md. *)
let per_layer_spec =
  [
    ("store.put_ns_p50", "ns"); ("store.put_ns_p99", "ns");
    ("store.container_splits", "count"); ("store.embedded_ejects", "count");
    ("store.get_ns_p50", "ns"); ("store.get_ns_p99", "ns");
    ("store.jt_hit_ratio", "ratio"); ("store.range_ns_per_key", "ns");
    ("store.containers", "count"); ("store.self_s", "s");
    ("getmany.ns_per_key_p50", "ns"); ("getmany.prefetch_issued", "count");
    ("getmany.tag_rejected", "count"); ("getmany.tag_reject_ratio", "ratio");
    ("getmany.self_s", "s");
    ("memman.resident_bytes", "B"); ("memman.allocated_chunks", "count");
    ("memman.empty_bytes_frac", "ratio"); ("memman.ext_bin_bytes", "B");
    ("compress.encode_ns_per_key", "ns"); ("compress.key_bytes_ratio", "ratio");
    ("compress.self_s", "s");
    ("persist.fsyncs", "count"); ("persist.ops_per_fsync", "ratio");
    ("persist.fsync_ns_p50", "ns"); ("persist.fsync_ns_p99", "ns");
    ("persist.rotations", "count"); ("persist.rotation_ns_p99", "ns");
    ("persist.wal_bytes", "B"); ("persist.snapshot_bytes", "B");
    ("persist.snapshot_keys", "count"); ("persist.replayed_ops", "count");
    ("persist.io_retries", "count"); ("persist.self_s", "s");
    ("shard.flush_ns_p50", "ns"); ("shard.flush_ns_p99", "ns");
    ("shard.batch_ops_mean", "count"); ("shard.drain_msgs_mean", "count");
    ("shard.mailbox_depth_hwm", "count"); ("shard.overload_rejections", "count");
    ("shard.self_s", "s");
    ("net.server_get_ns_p50", "ns"); ("net.server_get_ns_p99", "ns");
    ("net.server_put_ns_p50", "ns"); ("net.server_put_ns_p99", "ns");
    ("net.outside_server_p50_us", "us"); ("net.frame_encode_ns", "ns");
    ("net.frame_decode_ns", "ns"); ("net.gen_late_us_p99", "us");
    ("net.protocol_errors", "count"); ("net.self_s", "s");
    ("telemetry.overhead_pct", "%");
    ("failed_frac", "ratio");
  ]

(* Emits the per-layer set from the values a workload measured. *)
let emit_layers measured =
  let self = Span.self_seconds () in
  let value name =
    match List.assoc_opt name measured with
    | Some v -> v
    | None -> (
        match String.split_on_char '.' name with
        | [ l; "self_s" ] -> self l
        | _ -> 0.0)
  in
  let frac = float_of_int !failed /. float_of_int (max 1 !attempted) in
  emit
    (List.map
       (fun (name, u) ->
         m name u (if name = "failed_frac" then frac else value name))
       per_layer_spec)

let write_trace args =
  if args.trace then begin
    let path =
      Filename.concat args.out_dir
        (Printf.sprintf "trace-%s-seed%d.jsonl" args.workload args.seed)
    in
    Span.write path;
    progress "%d spans written to %s" !Span.len path
  end

(* Memory-manager figures summed over a set of stores. *)
let memman_layers stores =
  let resident = ref 0 and chunks = ref 0 and empty = ref 0 and alloc = ref 0
  and ext = ref 0 in
  List.iter
    (fun st ->
      resident := !resident + Hyperion.Store.memory_usage st;
      chunks := !chunks + Hyperion.Store.allocated_chunks st;
      Array.iteri
        (fun i (sb : Hyperion.Memman.superbin_stats) ->
          empty := !empty + sb.empty_bytes;
          alloc := !alloc + sb.allocated_bytes;
          if i = 0 then ext := !ext + sb.allocated_bytes)
        (Hyperion.Store.superbin_profile st))
    stores;
  [
    ("memman.resident_bytes", float_of_int !resident);
    ("memman.allocated_chunks", float_of_int !chunks);
    ( "memman.empty_bytes_frac",
      float_of_int !empty /. float_of_int (max 1 (!empty + !alloc)) );
    ("memman.ext_bin_bytes", float_of_int !ext);
  ]
