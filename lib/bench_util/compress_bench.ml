(* Key-compression experiment, shared by [bench/main.exe] and
   [hyperion_cli bench compress].

   Re-measures the Table-1 shape (bytes/key, insert and lookup cost) for
   a store that owns the trained order-preserving dictionary codec
   ({!Compress}, see {!Hyperion.Store.codec}), against an identity arm
   over the same seeded n-gram corpus.  The dictionary is trained on a
   {!Workload.Keystream.reservoir} sample of the corpus — the same helper
   the CLI [train] subcommand uses.  Both arms hand the store raw keys,
   so every dict-arm timing {e includes} the encode cost the store pays
   beneath its interface. *)

let default_config = { Hyperion.Config.strings with chunks_per_bin = 64 }

(* Per-op duration percentiles, computed directly from the sample
   population (no histogram bucketing error): the two arms are compared at
   p50, where a bucket boundary could otherwise eat the whole effect. *)
let percentiles durs =
  let a = Array.copy durs in
  Array.sort compare a;
  let n = Array.length a in
  let q p = float_of_int a.(min (n - 1) (int_of_float (p *. float_of_int n))) in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (max 1 n)
  in
  (q 0.5, q 0.9, q 0.99, q 0.999, mean)

let latency ~metric durs =
  let p50_ns, p90_ns, p99_ns, p999_ns, mean_ns = percentiles durs in
  {
    Json_out.metric;
    count = Array.length durs;
    p50_ns;
    p90_ns;
    p99_ns;
    p999_ns;
    mean_ns;
  }

type result = {
  rows : Json_out.row list;
  lats : Json_out.latency list;
  key_bytes_reduction_pct : float;
      (** mean encoded-key bytes vs raw, in percent saved *)
  resident_reduction_pct : float;
      (** store-resident bytes/key, dict arm vs identity arm *)
  get_p50_ratio : float;  (** dict get p50 / identity get p50 *)
  json_path : string option;
}

let run ?(n = 300_000) ?(sample = 4096) ?(config = default_config) ?json_dir
    () =
  let ds = Workload.Dataset.ngrams_random n in
  let pairs = ds.Workload.Dataset.pairs in
  Printf.printf "## Key-compression experiment (n = %d n-gram keys)\n\n" n;
  (* train on a deterministic reservoir sample of the raw key stream *)
  let sampled =
    Workload.Keystream.reservoir ~k:sample
      (Seq.map fst (Array.to_seq pairs))
  in
  let t_train = ref 0.0 in
  let dict =
    let t0 = Unix.gettimeofday () in
    let d = Compress.train (Array.to_seq sampled) in
    t_train := Unix.gettimeofday () -. t0;
    d
  in
  let enc = Compress.Dict dict in
  (* mean key length, raw vs encoded, over the whole corpus *)
  let raw_bytes = ref 0 and enc_bytes = ref 0 in
  Array.iter
    (fun (k, _) ->
      raw_bytes := !raw_bytes + String.length k;
      enc_bytes := !enc_bytes + Compress.encoded_length enc k)
    pairs;
  let key_bytes_reduction_pct =
    (1.0 -. (float_of_int !enc_bytes /. float_of_int (max 1 !raw_bytes)))
    *. 100.0
  in
  Gc.compact ();
  let store_id = Hyperion.Store.create ~config () in
  let store_dict =
    Hyperion.Store.create ~config:{ config with compress = 1 } ~compress:enc ()
  in
  let durs_id = Array.make n 0 and durs_dict = Array.make n 0 in
  (* the arms interleave op by op, order alternating every pair, so GC
     pauses and frequency drift land on both populations alike (same
     methodology as the telemetry insert experiment) *)
  let one_id i =
    let k, v = pairs.(i) in
    let t0 = Telemetry.now_ns () in
    Hyperion.Store.put store_id k v;
    durs_id.(i) <- Telemetry.now_ns () - t0
  in
  let one_dict i =
    let k, v = pairs.(i) in
    let t0 = Telemetry.now_ns () in
    Hyperion.Store.put store_dict k v;
    durs_dict.(i) <- Telemetry.now_ns () - t0
  in
  for i = 0 to n - 1 do
    if i land 1 = 0 then begin
      one_id i;
      one_dict i
    end
    else begin
      one_dict i;
      one_id i
    end
  done;
  (* point-lookup sweep, same interleaving; the dict arm's store encodes
     inside the timed region *)
  let gdurs_id = Array.make n 0 and gdurs_dict = Array.make n 0 in
  let get_id i =
    let k, _ = pairs.(i) in
    let t0 = Telemetry.now_ns () in
    ignore (Hyperion.Store.get store_id k);
    gdurs_id.(i) <- Telemetry.now_ns () - t0
  in
  let get_dict i =
    let k, _ = pairs.(i) in
    let t0 = Telemetry.now_ns () in
    ignore (Hyperion.Store.get store_dict k);
    gdurs_dict.(i) <- Telemetry.now_ns () - t0
  in
  for i = 0 to n - 1 do
    if i land 1 = 0 then begin
      get_id i;
      get_dict i
    end
    else begin
      get_dict i;
      get_id i
    end
  done;
  (* the dict store must hand every binding back under its raw key *)
  Array.iter
    (fun k ->
      if Hyperion.Store.get store_dict k <> Hyperion.Store.get store_id k then
        failwith ("compress bench: dict arm disagrees on " ^ k))
    sampled;
  Hyperion.Store.iter store_dict (fun _ _ -> ());
  assert (Hyperion.Store.length store_dict = Hyperion.Store.length store_id);
  let sum_ns a = Array.fold_left ( + ) 0 a in
  let t_id = float_of_int (sum_ns durs_id) *. 1e-9 in
  let t_dict = float_of_int (sum_ns durs_dict) *. 1e-9 in
  let tg_id = float_of_int (sum_ns gdurs_id) *. 1e-9 in
  let tg_dict = float_of_int (sum_ns gdurs_dict) *. 1e-9 in
  let bpk s =
    Measure.bytes_per_key
      (Hyperion.Store.memory_usage s)
      (Hyperion.Store.length s)
  in
  let bpk_id = bpk store_id and bpk_dict = bpk store_dict in
  let resident_reduction_pct = (1.0 -. (bpk_dict /. bpk_id)) *. 100.0 in
  let lats =
    [
      latency ~metric:"put-identity" durs_id;
      latency ~metric:"put-dict" durs_dict;
      latency ~metric:"get-identity" gdurs_id;
      latency ~metric:"get-dict" gdurs_dict;
    ]
  in
  let p50 metric =
    (List.find (fun l -> l.Json_out.metric = metric) lats).Json_out.p50_ns
  in
  let get_p50_ratio = p50 "get-dict" /. p50 "get-identity" in
  let fn = float_of_int n in
  let rows =
    [
      {
        Json_out.label = "insert-identity";
        domains = 1;
        ops_per_s = fn /. t_id;
        bytes_per_key = bpk_id;
      };
      {
        Json_out.label = "insert-dict";
        domains = 1;
        ops_per_s = fn /. t_dict;
        bytes_per_key = bpk_dict;
      };
      {
        Json_out.label = "lookup-identity";
        domains = 1;
        ops_per_s = fn /. tg_id;
        bytes_per_key = 0.0;
      };
      {
        Json_out.label = "lookup-dict";
        domains = 1;
        ops_per_s = fn /. tg_dict;
        bytes_per_key = 0.0;
      };
    ]
  in
  Printf.printf "%-22s %10s %12s\n" "phase" "Mops" "B/key";
  print_endline (String.make 46 '-');
  Printf.printf "%-22s %10.3f %12.1f\n" "insert (identity)"
    (Measure.mops n t_id) bpk_id;
  Printf.printf "%-22s %10.3f %12.1f\n" "insert (dict)"
    (Measure.mops n t_dict) bpk_dict;
  Printf.printf "%-22s %10.3f %12s\n" "lookup (identity)"
    (Measure.mops n tg_id) "-";
  Printf.printf "%-22s %10.3f %12s\n" "lookup (dict)"
    (Measure.mops n tg_dict) "-";
  print_newline ();
  List.iter
    (fun l ->
      Printf.printf
        "%-13s latency: count %d, p50 %.0f ns, p90 %.0f ns, p99 %.0f ns, \
         mean %.0f ns\n"
        l.Json_out.metric l.Json_out.count l.Json_out.p50_ns l.Json_out.p90_ns
        l.Json_out.p99_ns l.Json_out.mean_ns)
    lats;
  Printf.printf
    "dictionary: %d-key sample, trained in %.1f ms, hash 0x%Lx\n" sample
    (!t_train *. 1e3) (Compress.dict_hash dict);
  Printf.printf "encoded key bytes : %.1f%% smaller than raw\n"
    key_bytes_reduction_pct;
  Printf.printf "resident bytes/key: %.1f -> %.1f (%.1f%% reduction)\n" bpk_id
    bpk_dict resident_reduction_pct;
  Printf.printf "get p50           : %.2fx identity\n" get_p50_ratio;
  let json_path =
    match json_dir with
    | None -> None
    | Some dir ->
        let path =
          Json_out.write ~dir ~experiment:"compress" ~n
            ~config:
              [
                ( "chunks_per_bin",
                  string_of_int config.Hyperion.Config.chunks_per_bin );
                ("keys", "ngrams_random");
                ("sample", string_of_int sample);
                ("dict_hash", Printf.sprintf "0x%Lx" (Compress.dict_hash dict));
                ( "key_bytes_reduction_pct",
                  Printf.sprintf "%.2f" key_bytes_reduction_pct );
                ( "resident_reduction_pct",
                  Printf.sprintf "%.2f" resident_reduction_pct );
                ("get_p50_ratio", Printf.sprintf "%.3f" get_p50_ratio);
              ]
            ~telemetry:lats ~rows ()
        in
        Printf.printf "json -> %s\n" path;
        Some path
  in
  print_newline ();
  {
    rows;
    lats;
    key_bytes_reduction_pct;
    resident_reduction_pct;
    get_p50_ratio;
    json_path;
  }
