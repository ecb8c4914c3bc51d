(* serve_zipf: open-loop binary-protocol load against a 2-shard in-memory
   Net.Server hosted in a separate process, so the load generator never
   shares an OCaml domain (or its runtime lock) with the server's threads.

   Phases: Batch-frame preload of 100k keys (put throughput over the wire);
   a fixed Poisson rate ladder on 2 connections, Zipf 0.99 keys, 90% Get /
   10% Put, every latency measured from the request's scheduled send time;
   then a read-back of the whole store (one-at-a-time Gets, then Gets
   pipelined 32 deep, which the server read-combines into batched reads),
   every answer checked against the writes the ladder made. *)

open Common
module Client = Hyperion_net.Client
module Frame = Hyperion_net.Frame
module Server = Hyperion_net.Server
module Sh = Hyperion_shard

let config = { Hyperion.Config.strings with chunks_per_bin = 64 }
let base_keys = 100_000
let shards = 2
let conns = 2
(* The busy rate runs five times in a row; its figures are the median of
   the five, which keeps one stall from deciding them. *)
let ladder =
  [| 1_000; 5_000; 10_000; 20_000; 20_000; 20_000; 20_000; 20_000; 30_000; 40_000;
     50_000; 60_000 |]

let light_rung = 0
let busy_rungs = [ 3; 4; 5; 6; 7 ]
let p99_limit_ns = 5_000_000
let max_outstanding = 4096
let put_value_base = 1 lsl 40

(* ---- the server process ---------------------------------------------- *)

(* [hbench.exe host TRACE]: serve a fresh 2-shard store on an ephemeral
   port, print "port N", then answer line commands on stdin until "quit"
   or end of input: "reset" zeroes telemetry, "tele 0|1" toggles it,
   "dump" prints the server-side figures as "name value" lines and "end". *)
let host rest =
  Telemetry.set_enabled (rest = [ "1" ]);
  let store = Sh.create ~config ~shards () in
  let srv =
    match Server.start ~config:{ Server.default_config with port = 0 } store with
    | Ok s -> s
    | Error e ->
        prerr_endline ("perfbench host: " ^ e);
        exit 3
  in
  Printf.printf "port %d\n%!" (Server.port srv);
  let hist op =
    histogram ~labels:[ ("op", op) ] "hyperion_net_server_latency_ns"
  in
  let dump () =
    let g, p = (hist "get", hist "put") in
    let stores = Sh.with_quiesced store Array.to_list in
    let mailbox_hwm =
      Telemetry.Gauge.value
        (Telemetry.Gauge.make ~merge:`Max "hyperion_shard_mailbox_depth_hwm")
    in
    List.iter
      (fun (k, v) -> Printf.printf "%s %.17g\n" k v)
      ([
         ("net.server_get_ns_p50", hq g 0.5); ("net.server_get_ns_p99", hq g 0.99);
         ("net.server_put_ns_p50", hq p 0.5); ("net.server_put_ns_p99", hq p 0.99);
         ("server_all_ns_p50",
           let all = Hist.create () in
           Telemetry.Hist.merge_into ~dst:all g;
           Telemetry.Hist.merge_into ~dst:all p;
           hq all 0.5);
         ("net.protocol_errors", float_of_int (counter "hyperion_net_protocol_errors_total"));
         ("shard.mailbox_depth_hwm", float_of_int mailbox_hwm);
         ( "shard.overload_rejections",
           float_of_int (counter "hyperion_shard_overload_rejections_total") );
         ("shard.drain_msgs_mean", Hist.mean (histogram "hyperion_shard_drain_msgs"));
         ("shard.batch_ops_mean", Hist.mean (histogram "hyperion_shard_batch_ops"));
         ( "store.containers",
           float_of_int
             (List.fold_left
                (fun a st -> a + (Hyperion.Store.stats st).Hyperion.Stats.containers)
                0 stores) );
       ]
      @ memman_layers stores);
    print_endline "end";
    flush stdout
  in
  let rec loop () =
    match In_channel.input_line stdin with
    | None | Some "quit" -> ()
    | Some "reset" -> Telemetry.reset (); print_endline "ok"; flush stdout; loop ()
    | Some "tele 0" -> Telemetry.set_enabled false; print_endline "ok"; flush stdout; loop ()
    | Some "tele 1" -> Telemetry.set_enabled true; print_endline "ok"; flush stdout; loop ()
    | Some "dump" -> dump (); loop ()
    | Some _ -> print_endline "?"; flush stdout; loop ()
  in
  loop ();
  Server.stop srv;
  ignore (Sh.close store)

type host_proc = { pid : int; to_host : out_channel; from_host : in_channel; port : int }

let spawn_host args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "host"; (if args.trace then "1" else "0") |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let to_host = Unix.out_channel_of_descr in_w
  and from_host = Unix.in_channel_of_descr out_r in
  match In_channel.input_line from_host with
  | Some l when String.length l > 5 && String.sub l 0 5 = "port " ->
      { pid; to_host; from_host; port = int_of_string (String.sub l 5 (String.length l - 5)) }
  | _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith "server process did not start"

let command h cmd =
  output_string h.to_host (cmd ^ "\n");
  flush h.to_host;
  let rec read acc =
    match In_channel.input_line h.from_host with
    | None | Some "end" | Some "ok" -> List.rev acc
    | Some l -> (
        match String.split_on_char ' ' l with
        | [ k; v ] -> read ((k, float_of_string v) :: acc)
        | _ -> read acc)
  in
  read []

let stop_host h =
  (try
     output_string h.to_host "quit\n";
     close_out h.to_host
   with Sys_error _ -> ());
  ignore (Unix.waitpid [] h.pid);
  close_in_noerr h.from_host

let connect h =
  match Client.connect ~port:h.port () with
  | Ok c -> c
  | Error e -> failwith e

(* ---- one connection's requests in one rung --------------------------- *)

type rung_conn = {
  mutable n : int;  (** requests issued *)
  sched : int array;  (** scheduled send time *)
  sent : int array;  (** actual send time *)
  recv : int array;  (** response time; 0 = none *)
  kind : int array;  (** 0 = Get, 1 = Put *)
  key : int array;
  value : int array;  (** Put: written; Get: returned (-1 absent, -2 error) *)
  base_id : int;
}

let rung_conn ~cap ~base_id =
  let z () = Array.make cap 0 in
  { n = 0; sched = z (); sent = z (); recv = z (); kind = z (); key = z ();
    value = z (); base_id }

(* A Put's value names the request that wrote it. *)
let put_value ~conn ~rung slot =
  put_value_base lor (conn lsl 38) lor (rung lsl 32) lor slot

let writer_of v = ((v lsr 32) land 0x3f, (v lsr 38) land 3, v land 0xFFFF_FFFF)

let schedule_rng args ~rung ~conn =
  Mt.create (Int64.of_int ((args.seed * 104_729) + (rung * 31) + conn))

(* The open loop of one connection: sends follow a seeded Poisson schedule
   and never wait for responses (only for the outstanding cap, which counts
   as generator lateness); responses are consumed whenever the generator
   would otherwise wait. *)
let drive args cl keys zipf ~rung ~conn ~qps ~t0 ~t_end rc =
  let rng = schedule_rng args ~rung ~conn in
  let gap_ns = 1e9 *. float_of_int conns /. float_of_int qps in
  let outstanding = ref 0 and dead = ref false in
  let on_response () =
    match Client.recv cl with
    | Error e ->
        fail "connection %d: %s" conn e;
        dead := true
    | Ok (id, resp) ->
        let s = id - rc.base_id in
        if s < 0 || s >= rc.n || rc.recv.(s) <> 0 then fail "stray response id %d" id
        else begin
          rc.recv.(s) <- now_ns ();
          decr outstanding;
          match resp with
          | Frame.Value (Some v) when rc.kind.(s) = 0 -> rc.value.(s) <- Int64.to_int v
          | Frame.Value None when rc.kind.(s) = 0 -> rc.value.(s) <- -1
          | Frame.Ack when rc.kind.(s) = 1 -> ()
          | _ -> rc.value.(s) <- -2
        end
  in
  let drain_ready () =
    while (not !dead) && !outstanding > 0 && Client.poll cl 0.0 do on_response () done
  in
  let sched = ref (float_of_int t0) in
  let continue = ref true in
  while !continue && not !dead do
    sched := !sched -. (gap_ns *. log (1.0 -. Mt.next_float rng));
    let due = int_of_float !sched in
    if due >= t_end then continue := false
    else if rc.n = Array.length rc.sched then begin
      fail "connection %d: request log full" conn;
      continue := false
    end
    else begin
      let rec wait () =
        let now = now_ns () in
        if (not !dead) && now < due then begin
          let w = float_of_int (due - now) /. 1e9 in
          if !outstanding > 0 then (if Client.poll cl w then drain_ready ())
          else Unix.sleepf w;
          wait ()
        end
      in
      wait ();
      while (not !dead) && !outstanding >= max_outstanding do on_response () done;
      let s = rc.n in
      let k = Workload.Zipf.sample zipf rng in
      let is_put = Mt.next_below rng 10 = 0 in
      let req =
        if is_put then begin
          let v = put_value ~conn ~rung s in
          rc.value.(s) <- v;
          Frame.Put (keys.(k), Int64.of_int v)
        end
        else Frame.Get keys.(k)
      in
      rc.sched.(s) <- due;
      rc.kind.(s) <- (if is_put then 1 else 0);
      rc.key.(s) <- k;
      rc.n <- s + 1;
      rc.sent.(s) <- now_ns ();
      match Client.send cl ~id:(rc.base_id + s) req with
      | Ok () -> incr outstanding
      | Error e ->
          fail "connection %d: send: %s" conn e;
          dead := true
    end
  done;
  (* collect what is still in flight, for at most 10 s *)
  let deadline = now_ns () + 10_000_000_000 in
  while (not !dead) && !outstanding > 0 && now_ns () < deadline do
    if Client.poll cl 0.5 then on_response ()
  done;
  if !outstanding > 0 then fail "connection %d: %d responses missing" conn !outstanding

(* ---- the ladder ------------------------------------------------------ *)

type rung_result = {
  r_qps : int;
  r_conns : rung_conn array;
  r_hist : Samples.t;  (** all requests, from scheduled send *)
  r_get_hist : Samples.t;  (** Gets only *)
  r_late : Samples.t;  (** actual minus scheduled send *)
  mutable r_achieved : float;
  mutable r_scheduled : int;
  mutable r_on_time : int;
  mutable r_errors : int;
  mutable r_server : (string * float) list;
}

let run_rung args h clients keys zipf ~rung ~qps ~seconds =
  let cap = int_of_float (float_of_int qps *. seconds /. float_of_int conns *. 1.5) + 1000 in
  let rcs = Array.init conns (fun c -> rung_conn ~cap ~base_id:((rung lsl 24) + (c lsl 22) + 1)) in
  if args.trace then ignore (command h "reset");
  let t0 = now_ns () + 1_000_000 in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let threads =
    Array.mapi
      (fun c cl ->
        Thread.create
          (fun cl ->
            try drive args cl keys zipf ~rung ~conn:c ~qps ~t0 ~t_end rcs.(c)
            with e -> fail "connection %d: %s" c (Printexc.to_string e))
          cl)
      clients
  in
  Array.iter Thread.join threads;
  let r =
    {
      r_qps = qps; r_conns = rcs; r_hist = Samples.create ();
      r_get_hist = Samples.create (); r_late = Samples.create (); r_achieved = 0.0; r_scheduled = 0; r_on_time = 0;
      r_errors = 0; r_server = [];
    }
  in
  (* achieved rate: requests answered by the end of the rung plus the
     latency limit, over the rung's length *)
  let on_time = ref 0 in
  Array.iter
    (fun rc ->
      for s = 0 to rc.n - 1 do
        Samples.add r.r_late (rc.sent.(s) - rc.sched.(s));
        if rc.recv.(s) = 0 || rc.value.(s) = -2 then r.r_errors <- r.r_errors + 1
        else begin
          if rc.recv.(s) <= t_end + p99_limit_ns then incr on_time;
          let lat = rc.recv.(s) - rc.sched.(s) in
          Samples.add r.r_hist lat;
          if rc.kind.(s) = 0 then Samples.add r.r_get_hist lat
        end
      done)
    rcs;
  r.r_on_time <- !on_time;
  r.r_achieved <- float_of_int !on_time /. seconds;
  r.r_scheduled <- Array.fold_left (fun a rc -> a + rc.n) 0 rcs;
  if args.trace then r.r_server <- command h "dump";
  r

(* ---- answer checking against the writes the ladder made -------------- *)

(* A Get may return the preloaded value until some Put to that key was
   acknowledged before the Get was sent, and otherwise only a value some
   Put to that key sent before the Get's response arrived. *)
let verify_ladder rungs ~n =
  let min_ack = Array.make n max_int in
  Array.iter
    (fun r ->
      Array.iter
        (fun rc ->
          for s = 0 to rc.n - 1 do
            if rc.kind.(s) = 1 && rc.recv.(s) > 0 then
              min_ack.(rc.key.(s)) <- min min_ack.(rc.key.(s)) rc.recv.(s)
          done)
        r.r_conns)
    rungs;
  (* the Put request that wrote [v], if any *)
  let find_put v =
    let rung, conn, slot = writer_of v in
    if v land put_value_base = 0 || rung >= Array.length rungs || conn >= conns then None
    else
      let rc = rungs.(rung).r_conns.(conn) in
      if slot < rc.n && rc.kind.(slot) = 1 then Some (rc, slot) else None
  in
  Array.iter
    (fun r ->
      Array.iter
        (fun rc ->
          for s = 0 to rc.n - 1 do
            let k = rc.key.(s) and v = rc.value.(s) in
            incr attempted;
            if rc.recv.(s) = 0 then fail "request %d of rung %d: no response" s r.r_qps
            else if v = -2 then fail "request %d of rung %d: error response" s r.r_qps
            else if rc.kind.(s) = 0 then
              if v = Int64.to_int (value_of k) then begin
                if rc.sent.(s) > min_ack.(k) then
                  fail "get key %d: stale preloaded value after an acknowledged put" k
              end
              else
                match find_put v with
                | Some (w, p) when w.key.(p) = k && w.sent.(p) < rc.recv.(s) -> ()
                | _ -> fail "get key %d returned %d" k v
          done)
        r.r_conns)
    rungs;
  (* final value candidates: a Put that no later-sent Put to the same key
     is known to have overwritten *)
  let last_send = Array.make n min_int in
  Array.iter
    (fun r ->
      Array.iter
        (fun rc ->
          for s = 0 to rc.n - 1 do
            if rc.kind.(s) = 1 then
              last_send.(rc.key.(s)) <- max last_send.(rc.key.(s)) rc.sent.(s)
          done)
        r.r_conns)
    rungs;
  fun k v ->
    if last_send.(k) = min_int then v = Int64.to_int (value_of k)
    else
      match find_put v with
      | Some (w, p) -> w.key.(p) = k && w.recv.(p) >= last_send.(k)
      | None -> false

(* ---- preload and read-back ------------------------------------------- *)

let batch_ops = 500
let slices = 5
let read_slices = 10

(* Each connection ships its half of keys [lo, hi) as Batch frames, up to
   4 in flight; every frame must report all of its operations applied. *)
let preload clients keys ~lo:slo ~hi:shi ~corrupt_ix =
  let n = shi - slo in
  let part c =
    let cl = clients.(c) in
    let lo = slo + (c * n / conns) and hi = slo + ((c + 1) * n / conns) in
    let next = ref lo and inflight = ref 0 and id = ref 0 in
    let sizes = Hashtbl.create 8 in
    let recv_one () =
      match Client.recv cl with
      | Ok (i, Frame.Applied a) ->
          decr inflight;
          check (Hashtbl.find_opt sizes i = Some a) "preload batch %d applied %d" i a
      | Ok (i, _) -> decr inflight; fail "preload batch %d: unexpected response" i
      | Error e -> failwith e
    in
    while !next < hi do
      if !inflight >= 4 then recv_one ();
      let b_hi = min hi (!next + batch_ops) in
      let ops =
        Array.init (b_hi - !next) (fun j ->
            let k = !next + j in
            let v = value_of k in
            Frame.Bput (keys.(k), if k = corrupt_ix then Int64.logxor v 1L else v))
      in
      incr id;
      Hashtbl.replace sizes !id (Array.length ops);
      (match Client.send cl ~id:!id (Frame.Batch ops) with
      | Ok () -> incr inflight
      | Error e -> failwith e);
      next := b_hi
    done;
    while !inflight > 0 do recv_one () done
  in
  let threads =
    Array.init conns (fun c ->
        Thread.create (fun () -> try part c with e -> fail "preload: %s" (Printexc.to_string e)) ())
  in
  Array.iter Thread.join threads

(* Pipelined read-back of [idx] on one connection, [depth] Gets in flight. *)
let read_back cl keys idx ~depth ~ok =
  let n = Array.length idx and next = ref 0 and inflight = ref 0 in
  let recv_one () =
    match Client.recv cl with
    | Ok (i, Frame.Value v) ->
        decr inflight;
        let k = idx.(i - 1) in
        let v = match v with Some v -> Int64.to_int v | None -> -1 in
        check (ok k v) "read-back of key %d returned %d" k v
    | Ok (i, _) -> decr inflight; fail "read-back %d: unexpected response" i
    | Error e -> failwith e
  in
  while !next < n do
    if !inflight >= depth then recv_one ();
    (match Client.send cl ~id:(!next + 1) (Frame.Get keys.(idx.(!next))) with
    | Ok () -> incr inflight
    | Error e -> failwith e);
    incr next
  done;
  while !inflight > 0 do recv_one () done

(* ---- the workload ---------------------------------------------------- *)

let rung_seconds args qps =
  (* the light rung runs longer so its p99 has >= 10 samples beyond it;
     the five busy repetitions share three rungs' time *)
  args.seconds /. 10.0 *. if qps <= 1_000 then 3.0 else if qps = 20_000 then 0.6 else 1.0

let keys_of (c : corpus) = Array.map (fun i -> c.sorted.(i)) c.order

let run args =
  let n = scaled args base_keys in
  let hosts = ref [] in
  at_exit (fun () ->
      List.iter
        (fun h -> try Unix.kill h.pid Sys.sigkill; ignore (Unix.waitpid [] h.pid) with Unix.Unix_error _ -> ())
        !hosts);
  let (keys, h, clients), setup_s =
    median_setup ~reps:5
      ~before:(fun () ->
        (* the previous repetition's server, outside the timed region *)
        List.iter stop_host !hosts;
        hosts := [])
      (fun () ->
        let keys = keys_of (corpus ~seed:args.seed ~n) in
        let h = spawn_host args in
        hosts := [ h ];
        (keys, h, Array.init conns (fun _ -> connect h)))
  in
  progress "serve_zipf: %d keys, server on port %d (set-up median %.3f s)" n h.port setup_s;
  let root = Span.enter "bench.serve_zipf" in
  let corrupt_ix = if args.corrupt then 0 else -1 in
  (* preload in five slices; put rate is the median slice's *)
  let put_kops =
    median
      (List.init slices (fun i ->
           let lo = i * n / slices and hi = (i + 1) * n / slices in
           let t0 = now_ns () in
           Span.with_ ~parent:root "net.preload" (fun () ->
               preload clients keys ~lo ~hi ~corrupt_ix);
           float_of_int (hi - lo) /. (float_of_int (now_ns () - t0) /. 1e9) /. 1e3))
  in
  let zipf = Workload.Zipf.create ~n ~s:0.99 in
  let rungs =
    Array.mapi
      (fun rung qps ->
        let sp = Span.enter ~parent:root (Printf.sprintf "bench.rung_%d" qps) in
        let r = run_rung args h clients keys zipf ~rung ~qps ~seconds:(rung_seconds args qps) in
        Span.leave sp;
        Array.iter
          (fun rc ->
            for s = 0 to rc.n - 1 do
              if rc.recv.(s) > 0 then
                ignore
                  (Span.add "net.request" ~parent:sp ~rid:(rc.base_id + s)
                     ~start:rc.sched.(s) ~stop:rc.recv.(s))
            done)
          r.r_conns;
        progress "serve_zipf: %6d QPS -> achieved %8.1f, p50 %7.1f us, p99 %8.1f us, late p99 %7.1f us, %d errors"
          qps r.r_achieved (us (q r.r_hist 0.5)) (us (q r.r_hist 0.99))
          (us (q r.r_late 0.99)) r.r_errors;
        Unix.sleepf 0.1;
        r)
      ladder
  in
  let final_ok = verify_ladder rungs ~n in
  (* one Get at a time on one connection, for a fixed time *)
  let rng = Mt.create (Int64.of_int (args.seed * 31 + 5)) in
  let window () =
    let single = Span.enter ~parent:root "net.get_single" in
    let g0 = now_ns () and gets = ref 0 in
    let budget = int_of_float (args.seconds *. 0.01 *. 1e9) in
    while !gets < 50 || now_ns () - g0 < budget do
      let k = Mt.next_below rng n in
      (match Client.request clients.(0) (Frame.Get keys.(k)) with
      | Ok (Frame.Value v) ->
          let v = match v with Some v -> Int64.to_int v | None -> -1 in
          check (final_ok k v) "get key %d returned %d" k v
      | Ok _ -> fail "get key %d: unexpected response" k
      | Error e -> failwith e);
      incr gets
    done;
    Span.leave single;
    float_of_int !gets /. (float_of_int (now_ns () - g0) /. 1e9) /. 1e3
  in
  (* keys [lo, hi), 32 Gets in flight per connection *)
  let pass lo hi =
    let piped = Span.enter ~parent:root "net.get_pipelined" in
    let p0 = now_ns () in
    let m = hi - lo in
    let threads =
      Array.init conns (fun c ->
          let idx = Array.init (((c + 1) * m / conns) - (c * m / conns)) (fun j -> lo + (c * m / conns) + j) in
          Thread.create
            (fun () ->
              try read_back clients.(c) keys idx ~depth:32 ~ok:final_ok
              with e -> fail "read-back: %s" (Printexc.to_string e))
            ())
    in
    Array.iter Thread.join threads;
    Span.leave piped;
    float_of_int m /. (float_of_int (now_ns () - p0) /. 1e9) /. 1e3
  in
  (* two sweeps over every key in ten slices, each slice preceded by a
     window of single Gets; rates are the median window's and slice's *)
  let windows = ref [] and slice_rates = ref [] in
  for i = 0 to (2 * read_slices) - 1 do
    let s = i mod read_slices in
    windows := window () :: !windows;
    slice_rates := pass (s * n / read_slices) ((s + 1) * n / read_slices) :: !slice_rates
  done;
  let get_kops = median !windows and many_kops = median !slice_rates in
  let bytes_per_key =
    match Client.request clients.(0) Frame.Stats with
    | Ok (Frame.Stats_r s) ->
        check (Int64.to_int s.st_keys = n) "server holds %Ld keys, expected %d" s.st_keys n;
        Int64.to_float s.st_resident_bytes /. Int64.to_float s.st_keys
    | _ -> fail "stats request failed"; nan
  in
  (* tracing overhead: the busy rate again, server telemetry off and on *)
  let overhead =
    if not args.trace then 0.0
    else begin
      let off = Samples.create () and on = Samples.create () in
      for i = 0 to 3 do
        let tele = i land 1 in
        ignore (command h (Printf.sprintf "tele %d" tele));
        let r =
          run_rung args h clients keys zipf ~rung:(Array.length ladder + i)
            ~qps:ladder.(List.hd busy_rungs) ~seconds:(args.seconds /. 20.0)
        in
        if r.r_errors > 0 then fail "%d failed requests while measuring overhead" r.r_errors;
        Samples.merge ~dst:(if tele = 1 then on else off) r.r_hist
      done;
      (q on 0.5 /. q off 0.5 -. 1.0) *. 100.0
    end
  in
  Span.leave root;
  let server_stats = command h "dump" in
  Array.iter Client.close clients;
  stop_host h;
  hosts := [];
  let light = rungs.(light_rung) in
  let busy = List.map (fun i -> rungs.(i)) busy_rungs in
  let busy_q f p = median (List.map (fun r -> q (f r) p) busy) in
  (* the middle repetition stands for the busy rate where one rung's
     figures are needed *)
  let busy_mid = rungs.(List.nth busy_rungs 2) in
  let max_qps =
    Array.fold_left
      (fun acc r ->
        (* the target is the seeded schedule's own count, so Poisson
           noise in the arrivals is not counted against the server *)
        if r.r_errors = 0 && q r.r_hist 0.99 <= float_of_int p99_limit_ns
           && float_of_int r.r_on_time >= 0.99 *. float_of_int r.r_scheduled
        then max acc r.r_qps
        else acc)
      0 rungs
  in
  if args.trace then begin
    let srv r k = Option.value ~default:0.0 (List.assoc_opt k r.r_server) in
    let sum k = Array.fold_left (fun a r -> a +. srv r k) 0.0 rungs in
    let maxv k = Array.fold_left (fun a r -> Float.max a (srv r k)) 0.0 rungs in
    (* frame codec cost, timed here on the busy rung's own requests *)
    let reqs =
      Array.concat
        (Array.to_list
           (Array.map
              (fun rc ->
                Array.init rc.n (fun s ->
                    let k = keys.(rc.key.(s)) in
                    if rc.kind.(s) = 1 then Frame.Put (k, Int64.of_int rc.value.(s))
                    else Frame.Get k))
              busy_mid.r_conns))
    in
    let buf = Buffer.create (64 * Array.length reqs) in
    let e0 = now_ns () in
    Array.iteri (fun i r -> Frame.encode_request buf ~id:i r) reqs;
    let enc_ns = float_of_int (now_ns () - e0) /. float_of_int (max 1 (Array.length reqs)) in
    let dec = Frame.Decoder.create () in
    let d0 = now_ns () in
    Frame.Decoder.feed_string dec (Buffer.contents buf);
    let decoded = ref 0 in
    let rec go () =
      match Frame.Decoder.next dec with
      | Frame.Frame (_, tag, payload) ->
          if Result.is_ok (Frame.parse_request ~tag payload) then incr decoded;
          go ()
      | Frame.Need_more | Frame.Corrupt _ -> ()
    in
    go ();
    let dec_ns = float_of_int (now_ns () - d0) /. float_of_int (max 1 !decoded) in
    check (!decoded = Array.length reqs) "decoded %d of %d frames" !decoded (Array.length reqs);
    emit_layers
      ([
         ("net.server_get_ns_p50", srv busy_mid "net.server_get_ns_p50");
         ("net.server_get_ns_p99", srv busy_mid "net.server_get_ns_p99");
         ("net.server_put_ns_p50", srv busy_mid "net.server_put_ns_p50");
         ("net.server_put_ns_p99", srv busy_mid "net.server_put_ns_p99");
         ("net.outside_server_p50_us", us (q light.r_hist 0.5 -. srv light "server_all_ns_p50"));
         ("net.frame_encode_ns", enc_ns);
         ("net.frame_decode_ns", dec_ns);
         ("net.gen_late_us_p99", us (busy_q (fun r -> r.r_late) 0.99));
         ("net.protocol_errors", sum "net.protocol_errors");
         ("shard.mailbox_depth_hwm", maxv "shard.mailbox_depth_hwm");
         ("shard.overload_rejections", sum "shard.overload_rejections");
         ("shard.drain_msgs_mean", srv busy_mid "shard.drain_msgs_mean");
         ("telemetry.overhead_pct", overhead);
       ]
      @ List.filter
          (fun (k, _) -> String.length k > 7 && (String.sub k 0 7 = "memman." || k = "store.containers"))
          server_stats)
  end
  else begin
    emit_detail "serve_zipf"
      [
        m "light_p50_us" "us" (us (q light.r_hist 0.5));
        m "light_p99_us" "us" (us (q light.r_hist 0.99));
        m "light_samples" "count" (float_of_int (Samples.count light.r_hist));
        m "light_gen_late_us_p99" "us" (us (q light.r_late 0.99));
        m "busy_p50_us" "us" (us (busy_q (fun r -> r.r_hist) 0.5));
        m "busy_p99_us" "us" (us (busy_q (fun r -> r.r_hist) 0.99));
        m "busy_samples" "count"
          (float_of_int (List.fold_left (fun a r -> a + Samples.count r.r_hist) 0 busy));
        m "busy_gen_late_us_p99" "us" (us (busy_q (fun r -> r.r_late) 0.99));
        m "max_qps_p99_5ms" "QPS" (float_of_int max_qps);
        m "get_p99_us" "us" (us (q light.r_get_hist 0.99));
        m "get_samples" "count" (float_of_int (Samples.count light.r_get_hist));
      ];
    emit
      [
        m "setup_s" "s" setup_s;
        m "put_kops" "kops/s" put_kops;
        m "get_kops" "kops/s" get_kops;
        m "get_many_kops" "kkeys/s" many_kops;
        m "bytes_per_key" "B" bytes_per_key;
        m "get_p50_us" "us" (us (q light.r_get_hist 0.5));
      ]
  end

let fingerprint args =
  let keys = keys_of (corpus ~seed:args.seed ~n:(scaled args base_keys)) in
  let rng = schedule_rng args ~rung:light_rung ~conn:0 in
  let zipf = Workload.Zipf.create ~n:(Array.length keys) ~s:0.99 in
  let arrivals =
    List.init 1000 (fun _ ->
        let gap = -.log (1.0 -. Mt.next_float rng) in
        let k = Workload.Zipf.sample zipf rng in
        ignore (Mt.next_below rng 10);
        Printf.sprintf "%.9f/%d" gap k)
  in
  Printf.printf "{\"keys\": \"%s\", \"schedule\": \"%s\"}\n"
    (fnv_strings (Array.to_list (Array.sub keys 0 (min 1000 (Array.length keys)))))
    (fnv_strings arrivals)
