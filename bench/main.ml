(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section 4).  Run all experiments with [dune exec
   bench/main.exe], or a subset by name:

     dune exec bench/main.exe -- table1 fig14

   Scale knobs (environment):
     HYPERION_BENCH_N       integer keys per data set   (default 200_000)
     HYPERION_BENCH_NGRAMS  string keys per data set    (default 100_000)
     HYPERION_BENCH_BUDGET  fig13 memory budget, bytes  (default 64 MiB)

   [bechamel] runs one Bechamel micro-benchmark per table (put/get kernels
   for each structure) with confidence intervals. *)

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let n_int () = env_int "HYPERION_BENCH_N" 500_000
let n_str () = env_int "HYPERION_BENCH_NGRAMS" 300_000
let budget () = env_int "HYPERION_BENCH_BUDGET" (64 * 1024 * 1024)

(* ---- Bechamel micro-kernels: one Test.make per table ---- *)

let bechamel_tests () =
  let open Bechamel in
  let keys =
    let ds = Workload.Dataset.rand_ints 50_000 in
    Array.map fst ds.Workload.Dataset.pairs
  in
  let skeys =
    let ds = Workload.Dataset.ngrams_random 20_000 in
    Array.map fst ds.Workload.Dataset.pairs
  in
  let kernel_put name (d : Bench_util.Driver.driver) keys =
    Test.make_with_resource ~name Test.uniq
      ~allocate:(fun () -> (Bench_util.Driver.open_instance d, ref 0))
      ~free:(fun _ -> ())
      (Staged.stage (fun (inst, i) ->
           let k = keys.(!i mod Array.length keys) in
           incr i;
           Bench_util.Driver.put inst k 1L))
  in
  let kernel_get name (d : Bench_util.Driver.driver) keys =
    Test.make_with_resource ~name Test.uniq
      ~allocate:(fun () ->
        let inst = Bench_util.Driver.open_instance d in
        Array.iter (fun k -> Bench_util.Driver.put inst k 1L) keys;
        (inst, ref 0))
      ~free:(fun _ -> ())
      (Staged.stage (fun (inst, i) ->
           let k = keys.(!i mod Array.length keys) in
           incr i;
           ignore (Bench_util.Driver.get inst k)))
  in
  let per_driver make label keys drivers =
    List.map (fun d -> make (label ^ "/" ^ d.Bench_util.Driver.dname) d keys) drivers
  in
  [
    (* Table 2 kernels: integer keys *)
    Test.make_grouped ~name:"table2-put"
      (per_driver kernel_put "int-put" keys
         (List.filter
            (fun d -> d.Bench_util.Driver.dname <> "Hyperion_p")
            (Bench_util.Driver.for_integers ())));
    Test.make_grouped ~name:"table2-get"
      (per_driver kernel_get "int-get" keys
         (List.filter
            (fun d -> d.Bench_util.Driver.dname <> "Hyperion_p")
            (Bench_util.Driver.for_integers ())));
    (* Table 1 kernels: string keys *)
    Test.make_grouped ~name:"table1-put"
      (per_driver kernel_put "str-put" skeys (Bench_util.Driver.for_strings ()));
    Test.make_grouped ~name:"table1-get"
      (per_driver kernel_get "str-get" skeys (Bench_util.Driver.for_strings ()));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
             (Instance.monotonic_clock)
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "%-40s %12.1f ns/op\n" name est
          | _ -> Printf.printf "%-40s (no estimate)\n" name)
        results)
    (bechamel_tests ())

(* ---- Durability: snapshot bandwidth, WAL replay rate, cold load ---- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let durability () =
  let n = n_str () in
  let config = Hyperion.Config.strings in
  let ds = Workload.Dataset.ngrams_random n in
  let pairs = ds.Workload.Dataset.pairs in
  Printf.printf "## Durability (n = %d string keys)\n\n" n;
  let store = Hyperion.Store.create ~config () in
  let (), fresh_s =
    time (fun () -> Array.iter (fun (k, v) -> Hyperion.Store.put store k v) pairs)
  in
  (* snapshot write bandwidth *)
  let path = Filename.temp_file "hyperion_bench" ".hyp" in
  let bytes, write_s =
    time (fun () ->
        match Persist.save_snapshot store path with
        | Ok b -> b
        | Error e -> failwith (Hyperion.Hyperion_error.to_string e))
  in
  Printf.printf "snapshot write      %8.1f MB/s  (%d bytes in %.3f s)\n"
    (float_of_int bytes /. 1e6 /. write_s)
    bytes write_s;
  (* cold load vs fresh insertion *)
  let loaded, load_s =
    time (fun () ->
        match Persist.load_snapshot ~config path with
        | Ok s -> s
        | Error e -> failwith (Hyperion.Hyperion_error.to_string e))
  in
  assert (Hyperion.Store.length loaded = Hyperion.Store.length store);
  Printf.printf "cold load           %8.1f MB/s  (%.3f s; fresh insert %.3f s, %.2fx)\n"
    (float_of_int bytes /. 1e6 /. load_s)
    load_s fresh_s (fresh_s /. load_s);
  Sys.remove path;
  (* WAL replay rate: log everything, then measure recovery replay *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "hyperion_bench_wal" in
  rm_rf dir;
  let fail e = failwith (Hyperion.Hyperion_error.to_string e) in
  let p =
    match Persist.open_or_create ~config ~sync_every_ops:1024 dir with
    | Ok p -> p
    | Error e -> fail e
  in
  let (), append_s =
    time (fun () ->
        Array.iter
          (fun (k, v) ->
            match Persist.put p k v with Ok () -> () | Error e -> fail e)
          pairs)
  in
  (match Persist.close p with Ok () -> () | Error e -> fail e);
  Printf.printf "WAL append          %8.0f ops/s (group commit every 1024 ops)\n"
    (float_of_int n /. append_s);
  let p2, replay_s =
    time (fun () ->
        match Persist.open_or_create ~config dir with
        | Ok p -> p
        | Error e -> fail e)
  in
  let r = Persist.recovery p2 in
  Printf.printf "WAL replay          %8.0f ops/s (%d records in %.3f s)\n"
    (float_of_int r.Persist.replayed_ops /. replay_s)
    r.Persist.replayed_ops replay_s;
  ignore (Persist.close p2);
  rm_rf dir;
  print_newline ()

(* ---- Sharded front-end: domains vs. throughput ---- *)

let json_dir : string option ref = ref None

let shards_bench () =
  let n = max 1 (n_int () / 5) in
  let ds = Workload.Dataset.rand_ints n in
  let pairs = ds.Workload.Dataset.pairs in
  let cores = Domain.recommended_domain_count () in
  let config = { Hyperion.Config.default with chunks_per_bin = 64 } in
  Printf.printf
    "## Sharded front-end scaling (n = %d random integer keys, %d core(s))\n\n"
    n cores;
  if cores < 4 then
    Printf.printf
      "NOTE: fewer than 4 cores available — domain counts above %d time-slice\n\
       one another and cannot show real scaling.\n\n"
      cores;
  (* telemetry on for the whole experiment: worker domains feed the put
     histogram through the typed-result path, so the JSON gains real
     percentiles; the throughput cost is the documented overhead (< 5%) *)
  let was_enabled = Telemetry.enabled () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let rows = ref [] in
  let record label domains secs bytes_per_key =
    rows :=
      {
        Bench_util.Json_out.label;
        domains;
        ops_per_s = float_of_int (Array.length pairs) /. secs;
        bytes_per_key;
      }
      :: !rows
  in
  (* single-store, single-domain baseline *)
  let baseline label each =
    let store = Hyperion.Store.create ~config () in
    let secs = Bench_util.Measure.time (fun () -> each store) in
    record label 1 secs
      (if label = "baseline-insert" then
         Bench_util.Measure.bytes_per_key
           (Hyperion.Store.memory_usage store)
           (Hyperion.Store.length store)
       else 0.0);
    secs
  in
  let base_insert =
    baseline "baseline-insert" (fun store ->
        Array.iter (fun (k, v) -> Hyperion.Store.put store k v) pairs)
  in
  let base_mixed =
    baseline "baseline-mixed" (fun store ->
        Array.iteri
          (fun i (k, v) ->
            if i land 1 = 0 then Hyperion.Store.put store k v
            else ignore (Hyperion.Store.get store k))
          pairs)
  in
  Printf.printf "%-8s %10s %12s %12s %10s\n" "phase" "domains" "Mops" "speedup"
    "B/key";
  let hr () = print_endline (String.make 56 '-') in
  hr ();
  let mops secs = Bench_util.Measure.mops (Array.length pairs) secs in
  Printf.printf "%-8s %10d %12.3f %12s %10.1f\n" "insert" 1 (mops base_insert)
    "1.00x (st)"
    (List.find (fun r -> r.Bench_util.Json_out.label = "baseline-insert") !rows)
      .Bench_util.Json_out.bytes_per_key;
  Printf.printf "%-8s %10d %12.3f %12s %10s\n" "mixed" 1 (mops base_mixed)
    "1.00x (st)" "-";
  (* sharded: D client domains feeding D worker domains; inserts ship
     through the batch path (one mailbox round-trip per 128 ops per shard),
     reads are direct *)
  let sharded domains =
    let t = Hyperion_shard.create ~config ~shards:domains () in
    let chunk = Array.length pairs / domains in
    let slice d f =
      let lo = d * chunk in
      let hi = if d = domains - 1 then Array.length pairs else lo + chunk in
      for i = lo to hi - 1 do
        f i pairs.(i)
      done
    in
    let drive each =
      Bench_util.Measure.time (fun () ->
          let spawned =
            List.init (domains - 1) (fun d -> Domain.spawn (fun () -> each (d + 1)))
          in
          each 0;
          List.iter Domain.join spawned)
    in
    let client_batched pick d =
      let b = Hyperion_shard.Batch.create t in
      let flush () =
        match Hyperion_shard.Batch.flush b with
        | Ok _ -> ()
        | Error e -> failwith (Hyperion.Hyperion_error.to_string e)
      in
      slice d (fun i (k, v) ->
          pick b i k v;
          if Hyperion_shard.Batch.length b >= 128 then flush ());
      flush ()
    in
    let insert_s =
      drive (client_batched (fun b _ k v -> Hyperion_shard.Batch.put b k v))
    in
    if Hyperion_shard.length t <> Array.length pairs then
      failwith "sharded insert lost keys";
    let bpk =
      Bench_util.Measure.bytes_per_key
        (Hyperion_shard.memory_usage t)
        (Hyperion_shard.length t)
    in
    let lookup_s =
      drive (fun d ->
          slice d (fun _ (k, _) -> ignore (Hyperion_shard.get t k)))
    in
    let mixed_s =
      drive
        (client_batched (fun b i k v ->
             if i land 1 = 0 then Hyperion_shard.Batch.put b k v
             else ignore (Hyperion_shard.get t k)))
    in
    (match Hyperion_shard.close t with
    | Ok () -> ()
    | Error e -> failwith (Hyperion.Hyperion_error.to_string e));
    record "insert" domains insert_s bpk;
    record "lookup" domains lookup_s 0.0;
    record "mixed" domains mixed_s 0.0;
    Printf.printf "%-8s %10d %12.3f %11.2fx %10.1f\n" "insert" domains
      (mops insert_s) (base_insert /. insert_s) bpk;
    Printf.printf "%-8s %10d %12.3f %12s %10s\n" "lookup" domains
      (mops lookup_s) "-" "-";
    Printf.printf "%-8s %10d %12.3f %11.2fx %10s\n" "mixed" domains
      (mops mixed_s) (base_mixed /. mixed_s) "-"
  in
  List.iter sharded [ 1; 2; 4; 8 ];
  hr ();
  let telemetry = Bench_util.Telemetry_bench.latencies () in
  Telemetry.set_enabled was_enabled;
  (match !json_dir with
  | None -> ()
  | Some dir ->
      let path =
        Bench_util.Json_out.write ~dir ~experiment:"shards" ~n
          ~config:
            [
              ("chunks_per_bin", "64");
              ("cores", string_of_int cores);
              ("batch_flush", "128");
            ]
          ~telemetry ~rows:(List.rev !rows) ()
      in
      Printf.printf "json -> %s\n" path);
  print_newline ()

let all_experiments =
  [
    ("table1", fun () -> Bench_util.Experiments.table1 ~n:(n_str ()));
    ("table2", fun () -> Bench_util.Experiments.table2 ~n:(n_int ()));
    ( "table3",
      fun () ->
        Bench_util.Experiments.table3 ~n_int:(n_int ()) ~n_str:(n_str ()) );
    ("fig13", fun () -> Bench_util.Experiments.fig13 ~budget:(budget ()));
    ("fig14", fun () -> Bench_util.Experiments.fig14 ~n:(n_str ()));
    ("fig15", fun () -> Bench_util.Experiments.fig15 ~n:(n_int ()));
    ("fig16", fun () -> Bench_util.Experiments.fig16 ~n:(n_int ()));
    ( "arenas",
      fun () -> Bench_util.Experiments.arena_scaling ~n:(max 1 (n_int () / 5)) );
    ("ablation", fun () -> Bench_util.Experiments.ablation ~n:(n_str ()));
    ("durability", fun () -> durability ());
    ("shards", fun () -> shards_bench ());
    ( "insert",
      fun () ->
        ignore
          (Bench_util.Telemetry_bench.insert ~n:(n_str ())
             ?json_dir:!json_dir ()) );
    ( "probe",
      fun () ->
        ignore
          (Bench_util.Probe_bench.probe ~n:(n_str ()) ?json_dir:!json_dir ());
        Bench_util.Probe_bench.comparison ~n:(max 1 (n_str () / 6)) () );
  ]

let () =
  (* strip "--json DIR" (machine-readable output directory) from the
     experiment-name arguments *)
  let rec split_args = function
    | [] -> []
    | "--json" :: dir :: rest ->
        json_dir := Some dir;
        split_args rest
    | "--json" :: [] ->
        prerr_endline "--json needs a directory argument";
        exit 2
    | name :: rest -> name :: split_args rest
  in
  let args = split_args (Array.to_list Sys.argv |> List.tl) in
  let selected =
    match args with
    | [] -> List.map fst all_experiments
    | names -> names
  in
  List.iter
    (fun name ->
      if name = "bechamel" then run_bechamel ()
      else
        match List.assoc_opt name all_experiments with
        | Some f ->
            f ();
            flush stdout
        | None ->
            Printf.eprintf
              "unknown experiment %S (known: %s, bechamel)\n" name
              (String.concat ", " (List.map fst all_experiments));
            exit 2)
    selected
