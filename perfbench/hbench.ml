(* Benchmark entry point.

     hbench.exe --workload NAME --seed N --seconds S --trace 0|1
                [--scale F] [--corrupt-oracle] [--fingerprint]
     hbench.exe host ...      (the serve_zipf server process; see Serve_zipf)

   Prints progress on stderr and, as the last stdout line, one JSON object
   {correct, attempted, failed, metrics}.  Exits 1 when any answer was
   wrong, 2 on bad arguments. *)

open Common

let workloads =
  [
    ("core_dram", (Core_dram.run, Core_dram.fingerprint));
    ("serve_zipf", (Serve_zipf.run, Serve_zipf.fingerprint));
    ("durable_ingest", (Durable_ingest.run, Durable_ingest.fingerprint));
  ]

let usage () =
  prerr_endline
    "usage: hbench.exe --workload core_dram|serve_zipf|durable_ingest --seed N \
     --seconds S --trace 0|1 [--scale F] [--corrupt-oracle] [--fingerprint] \
     [--out-dir DIR]";
  exit 2

let parse argv =
  let a =
    ref
      {
        workload = ""; seed = 1; seconds = 10.0; trace = false; scale = 1.0;
        corrupt = false; fingerprint = false; out_dir = ".perfbench";
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> a := { !a with workload = v }; go r
    | "--seed" :: v :: r -> a := { !a with seed = int_of_string v }; go r
    | "--seconds" :: v :: r -> a := { !a with seconds = float_of_string v }; go r
    | "--trace" :: v :: r -> a := { !a with trace = v = "1" }; go r
    | "--scale" :: v :: r -> a := { !a with scale = float_of_string v }; go r
    | "--out-dir" :: v :: r -> a := { !a with out_dir = v }; go r
    | "--corrupt-oracle" :: r -> a := { !a with corrupt = true }; go r
    | "--fingerprint" :: r -> a := { !a with fingerprint = true }; go r
    | _ -> usage ()
  in
  (try go argv with Failure _ -> usage ());
  if not (List.mem_assoc !a.workload workloads) || !a.seconds <= 0.0 || !a.scale <= 0.0
  then usage ();
  !a

let () =
  match Array.to_list Sys.argv with
  | _ :: "host" :: rest -> Serve_zipf.host rest
  | _ :: rest ->
      let args = parse rest in
      let run, fingerprint = List.assoc args.workload workloads in
      if args.fingerprint then fingerprint args
      else begin
        (try Unix.mkdir args.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Telemetry.set_enabled false;
        Span.on := args.trace;
        run args;
        write_trace args;
        if !failed > 0 then exit 1
      end
  | [] -> usage ()
