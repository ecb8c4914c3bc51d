(* TCP serving front-end: an acceptor per listener and two threads per
   binary connection — a reader that decodes frames, answers reads inline
   and posts mutations to the shard mailboxes, and a writer that sends
   the shard workers' completions — plus an optional memcached-text
   listener.  See server.mli and DESIGN.md §13. *)

module Sh = Hyperion_shard
module E = Hyperion.Hyperion_error

type config = {
  host : string;
  port : int;
  memcached_port : int option;
  max_connections : int;
}

let default_config =
  { host = "127.0.0.1"; port = 7791; memcached_port = None; max_connections = 1024 }

(* ---- telemetry ------------------------------------------------------- *)

let g_conns =
  Telemetry.Gauge.make "hyperion_net_connections"
    ~help:"Open client connections (binary + memcached listeners)"

let c_proto_errors =
  Telemetry.Counter.make "hyperion_net_protocol_errors_total"
    ~help:"Malformed frames, unknown opcodes and framing corruption"

let op_names =
  [| "put"; "add"; "get"; "mem"; "delete"; "batch"; "stats"; "health" |]

let c_requests =
  Array.map
    (fun op ->
      Telemetry.Counter.make "hyperion_net_requests_total"
        ~help:"Requests received per opcode" ~labels:[ ("op", op) ])
    op_names

let h_latency =
  Array.map
    (fun op ->
      Telemetry.Histogram.make "hyperion_net_server_latency_ns"
        ~help:"Server-side latency from frame decode to response enqueue/write"
        ~labels:[ ("op", op) ])
    op_names

(* opcode (1-based on the wire) -> metric index *)
let metric_ix req = Frame.opcode req - 1

(* ---- sockets --------------------------------------------------------- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let quiet_close fd =
  match Unix.close fd with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) -> ignore err

let quiet_shutdown fd =
  match Unix.shutdown fd Unix.SHUTDOWN_ALL with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) -> ignore err

(* Responses are small and latency-bound: Nagle would hold each one back
   until the peer's delayed ACK of the previous one. *)
let set_nodelay fd =
  match Unix.setsockopt fd Unix.TCP_NODELAY true with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) -> ignore err

(* ---- request execution ----------------------------------------------- *)

let err_of e = Frame.Err (Frame.err_of_hyperion e, E.to_string e)
let of_result = function Ok () -> Frame.Ack | Error e -> err_of e

let bad_key k =
  if k = "" then Some (Frame.Err (Frame.E_empty_key, "empty key"))
  else if String.length k > Frame.max_key_len then
    Some
      (Frame.Err
         ( Frame.E_key_too_long,
           Printf.sprintf "key length %d exceeds %d" (String.length k)
             Frame.max_key_len ))
  else None

let stats store =
  let keys, bytes, saturated =
    Sh.with_quiesced store (fun stores ->
        Array.fold_left
          (fun (k, b, s) st ->
            ( k + Hyperion.Store.length st,
              b + Hyperion.Store.memory_usage st,
              s + Hyperion.Store.saturated_arenas st ))
          (0, 0, 0) stores)
  in
  Frame.Stats_r
    {
      st_keys = Int64.of_int keys;
      st_resident_bytes = Int64.of_int bytes;
      st_shards = Sh.shards store;
      st_saturated_arenas = saturated;
    }

let health store =
  Frame.Health_r
    (Array.of_list
       (List.map
          (fun h ->
            {
              Frame.sh_shard = h.Sh.hs_shard;
              sh_alive = h.Sh.hs_alive;
              sh_degraded = h.Sh.hs_degraded <> None;
              sh_backlog = h.Sh.hs_backlog;
            })
          (Sh.health store)))

(* Answers [req] through [k], exactly once.  Reads and the rare
   quiescing Stats/Health run here, on the calling thread; mutations are
   posted to their shard mailbox(es) and answered from the completing
   shard worker's domain (or here, when they fail before reaching one). *)
let run store (req : Frame.request) k =
  let inline f =
    k
      (match f () with
      | resp -> resp
      | exception E.Error e -> err_of e
      | exception Invalid_argument msg -> Frame.Err (Frame.E_bad_request, msg)
      | exception exn -> Frame.Err (Frame.E_internal, Printexc.to_string exn))
  in
  let with_key key f = match bad_key key with Some e -> k e | None -> f () in
  match req with
  | Get key -> with_key key (fun () -> inline (fun () -> Frame.Value (Sh.get store key)))
  | Mem key -> with_key key (fun () -> inline (fun () -> Frame.Found (Sh.mem store key)))
  | Stats -> inline (fun () -> stats store)
  | Health -> inline (fun () -> health store)
  | Put (key, v) ->
      with_key key (fun () -> Sh.put_async store key v (fun r -> k (of_result r)))
  | Add key -> with_key key (fun () -> Sh.add_async store key (fun r -> k (of_result r)))
  | Delete key ->
      with_key key (fun () ->
          Sh.delete_async store key (function
            | Ok existed -> k (Frame.Found existed)
            | Error e -> k (err_of e)))
  | Batch ops -> (
      let op_key = function Frame.Bput (key, _) | Frame.Badd key | Frame.Bdel key -> key in
      match Array.find_map (fun op -> bad_key (op_key op)) ops with
      | Some e -> k e
      | None ->
          let b = Sh.Batch.create store in
          Array.iter
            (function
              | Frame.Bput (key, v) -> Sh.Batch.put b key v
              | Frame.Badd key -> Sh.Batch.add b key
              | Frame.Bdel key -> Sh.Batch.delete b key)
            ops;
          Sh.Batch.flush_async b (function
            | Ok n -> k (Frame.Applied n)
            | Error e -> k (err_of e)))

(* ---- connections ----------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  wm : Mutex.t;  (* the fd mutex: one response burst on the wire at a time *)
  mutable broken : bool; [@guarded_by wm]  (* a write failed: peer gone *)
  om : Mutex.t;
  oc : Condition.t;  (* [out] gained bytes, or the connection may be done *)
  mutable out : Buffer.t; [@guarded_by om]  (* completions for the writer *)
  mutable posted : int; [@guarded_by om]  (* mutations not yet completed *)
  mutable reading : bool; [@guarded_by om]  (* the reader may still post *)
}

type t = {
  store : Sh.t;
  cfg : config;
  bin_sock : Unix.file_descr;
  bin_port : int;
  mc_sock : Unix.file_descr option;
  mc_port : int option;
  sm : Mutex.t;
  conns : (int, Unix.file_descr * Thread.t list) Hashtbl.t;
  mutable next_conn : int; [@guarded_by sm]
  mutable stopping : bool; [@guarded_by sm]
  mutable acceptors : Thread.t list;
      (* written once by [start] before any reader exists; joined by [stop] *)
}

let set_conn_gauge t =
  if Telemetry.enabled () then
    Telemetry.Gauge.set g_conns (Hashtbl.length t.conns)

let observe_latency req t0 =
  if Telemetry.enabled () && t0 >= 0 then
    Telemetry.Histogram.observe_ns
      h_latency.(metric_ix req)
      (Telemetry.now_ns () - t0)

let count_request req =
  if Telemetry.enabled () then Telemetry.Counter.incr c_requests.(metric_ix req)

let count_proto_error () =
  if Telemetry.enabled () then Telemetry.Counter.incr c_proto_errors

(* One write(2) burst under the fd mutex; once a write fails the peer is
   gone and later bursts are dropped. *)
let send conn s =
  Mutex.lock conn.wm;
  (if not conn.broken then
     match write_all conn.fd s 0 (String.length s) with
     | () -> ()
     | exception Unix.Unix_error (err, _, _) ->
         ignore err;
         conn.broken <- true);
  Mutex.unlock conn.wm

let post conn =
  Mutex.lock conn.om;
  conn.posted <- conn.posted + 1;
  Mutex.unlock conn.om

(* A mutation's completion, usually on a shard worker's domain: encode
   the response into the out buffer and wake the writer. *)
let complete conn ~id req t0 resp =
  Mutex.lock conn.om;
  Frame.encode_response conn.out ~id resp;
  conn.posted <- conn.posted - 1;
  Condition.signal conn.oc;
  Mutex.unlock conn.om;
  observe_latency req t0

let end_reading conn =
  Mutex.lock conn.om;
  conn.reading <- false;
  Condition.signal conn.oc;
  Mutex.unlock conn.om

(* Takes everything completed since its last wakeup and sends it as one
   write; exits once the reader is done and no completion is owed. *)
let writer_loop conn =
  let spare = ref (Buffer.create 4096) in
  let rec loop () =
    Mutex.lock conn.om;
    while Buffer.length conn.out = 0 && (conn.reading || conn.posted > 0) do
      Condition.wait conn.oc conn.om
    done;
    let full = conn.out in
    if Buffer.length full = 0 then Mutex.unlock conn.om
    else begin
      conn.out <- !spare;
      Mutex.unlock conn.om;
      send conn (Buffer.contents full);
      Buffer.clear full;
      spare := full;
      loop ()
    end
  in
  loop ()

(* Cap on reads drained into one batched descent: bounds the latency of
   the first response in a burst and the scratch arrays below. *)
let max_read_burst = 256

let reader_loop t conn =
  let buf = Bytes.create 65536 in
  let dec = Frame.Decoder.create () in
  let stop = ref false in
  (* Inline responses of one decode pass, sent as one write at its end. *)
  let replies = Buffer.create 4096 in
  let reply ~id req t0 resp =
    Frame.encode_response replies ~id resp;
    observe_latency req t0
  in
  let write_replies () =
    if Buffer.length replies > 0 then begin
      send conn (Buffer.contents replies);
      Buffer.clear replies
    end
  in
  (* Consecutive pipelined Get/Mem frames accumulate here (newest first)
     and flush through one batched store descent at batch boundaries: a
     non-read frame, the decode buffer running dry, burst cap, corruption
     or EOF. *)
  let pending = ref [] in
  let npending = ref 0 in
  let flush_reads () =
    if !npending > 0 then begin
      let frames = Array.of_list (List.rev !pending) in
      pending := [];
      npending := 0;
      let nf = Array.length frames in
      let resps = Array.make nf (Frame.Err (Frame.E_internal, "unset")) in
      (* Per-frame key validation stays per-frame (a bad key must not
         poison its neighbours); valid reads group by opcode. *)
      let gets = ref [] and mems = ref [] in
      Array.iteri
        (fun i (_, _, req) ->
          match req with
          | Frame.Get k -> (
              match bad_key k with
              | Some e -> resps.(i) <- e
              | None -> gets := (i, k) :: !gets)
          | Frame.Mem k -> (
              match bad_key k with
              | Some e -> resps.(i) <- e
              | None -> mems := (i, k) :: !mems)
          | _ -> resps.(i) <- Frame.Err (Frame.E_internal, "non-read batched"))
        frames;
      let scatter group batch =
        match List.rev group with
        | [] -> ()
        | l -> (
            let idx = Array.of_list (List.map fst l) in
            let keys = Array.of_list (List.map snd l) in
            match batch keys with
            | rs -> Array.iteri (fun j r -> resps.(idx.(j)) <- r) rs
            | exception (E.Error _ | Invalid_argument _) ->
                (* one failing batch must not fail the whole burst: re-run
                   the slice per frame so each response carries its own
                   typed error *)
                Array.iter
                  (fun i ->
                    let _, _, req = frames.(i) in
                    run t.store req (fun r -> resps.(i) <- r))
                  idx
            | exception exn ->
                let msg = Printexc.to_string exn in
                Array.iter
                  (fun i -> resps.(i) <- Frame.Err (Frame.E_internal, msg))
                  idx)
      in
      scatter !gets (fun keys ->
          Array.map (fun v -> Frame.Value v) (Sh.get_many t.store keys));
      scatter !mems (fun keys ->
          Array.map (fun b -> Frame.Found b) (Sh.mem_many t.store keys));
      Array.iteri (fun i (id, t0, req) -> reply ~id req t0 resps.(i)) frames
    end
  in
  let handle_frame id tag payload =
    match Frame.parse_request ~tag payload with
    | Error msg ->
        count_proto_error ();
        flush_reads ();
        Frame.encode_response replies ~id (Frame.Err (Frame.E_bad_request, msg))
    | Ok req -> (
        count_request req;
        let t0 = if Telemetry.enabled () then Telemetry.now_ns () else -1 in
        match req with
        | Frame.Get _ | Frame.Mem _ ->
            (* lock-free reads never touch a mailbox: serve them on the
               reader so they overtake queued mutations (pipelining);
               consecutive reads batch into one pipelined descent *)
            pending := (id, t0, req) :: !pending;
            incr npending;
            if !npending >= max_read_burst then flush_reads ()
        | Frame.Stats | Frame.Health ->
            flush_reads ();
            run t.store req (reply ~id req t0)
        | Frame.Put _ | Frame.Add _ | Frame.Delete _ | Frame.Batch _ ->
            flush_reads ();
            post conn;
            run t.store req (complete conn ~id req t0))
  in
  let drain_frames () =
    let continue = ref true in
    while !continue do
      match Frame.Decoder.next dec with
      | Frame.Frame (id, tag, payload) -> handle_frame id tag payload
      | Frame.Need_more -> continue := false
      | Frame.Corrupt msg ->
          count_proto_error ();
          Frame.encode_response replies ~id:0 (Frame.Err (Frame.E_too_large, msg));
          stop := true;
          continue := false
    done;
    flush_reads ();
    write_replies ()
  in
  while not !stop do
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 -> stop := true
    | n ->
        Frame.Decoder.feed dec buf 0 n;
        drain_frames ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (err, _, _) ->
        ignore err;
        stop := true
  done

(* Unregisters and closes under [sm], so [stop] never shuts down a
   descriptor number that has already been reused. *)
let finish_conn t cid fd =
  Mutex.lock t.sm;
  Hashtbl.remove t.conns cid;
  quiet_close fd;
  set_conn_gauge t;
  Mutex.unlock t.sm

(* ---- memcached-text listener ----------------------------------------- *)

(* Line-oriented reader with an explicit byte accumulator: memcached
   frames are CRLF lines except the [set] data block, which is an exact
   byte count. *)
module Mc = struct
  type r = {
    fd : Unix.file_descr;
    mutable buf : Bytes.t;
    mutable len : int;
    chunk : Bytes.t;
  }

  let make fd = { fd; buf = Bytes.create 4096; len = 0; chunk = Bytes.create 4096 }

  let refill r =
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> false
    | n ->
        if r.len + n > Bytes.length r.buf then begin
          let nb = Bytes.create (max (r.len + n) (2 * Bytes.length r.buf)) in
          Bytes.blit r.buf 0 nb 0 r.len;
          r.buf <- nb
        end;
        Bytes.blit r.chunk 0 r.buf r.len n;
        r.len <- r.len + n;
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    | exception Unix.Unix_error (err, _, _) ->
        ignore err;
        false

  let consume r n =
    Bytes.blit r.buf n r.buf 0 (r.len - n);
    r.len <- r.len - n

  (* One text line without its terminator; tolerates bare LF. *)
  let rec read_line r =
    let nl = Bytes.index_opt (Bytes.sub r.buf 0 r.len) '\n' in
    match nl with
    | Some i ->
        let stop = if i > 0 && Bytes.get r.buf (i - 1) = '\r' then i - 1 else i in
        let line = Bytes.sub_string r.buf 0 stop in
        consume r (i + 1);
        Some line
    | None -> if refill r then read_line r else None

  (* Exactly [n] data bytes followed by (CR)LF. *)
  let rec read_data r n =
    if r.len >= n + 1 then begin
      let data = Bytes.sub_string r.buf 0 n in
      let skip =
        if Bytes.get r.buf n = '\r' && r.len >= n + 2
           && Bytes.get r.buf (n + 1) = '\n'
        then n + 2
        else if Bytes.get r.buf n = '\n' then n + 1
        else n
      in
      consume r skip;
      Some data
    end
    else if refill r then read_data r n
    else None
end

let mc_send fd s =
  match write_all fd s 0 (String.length s) with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) -> ignore err

let mc_error_reply e =
  Printf.sprintf "SERVER_ERROR %s\r\n" (E.to_string e)

let mc_loop t fd =
  let r = Mc.make fd in
  let reply = Buffer.create 256 in
  let running = ref true in
  while !running do
    Buffer.clear reply;
    match Mc.read_line r with
    | None -> running := false
    | Some line -> (
        let words =
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun w -> w <> "")
        in
        match words with
        | [] -> ()
        | "get" :: keys when keys <> [] ->
            List.iter
              (fun k ->
                if k <> "" && String.length k <= Frame.max_key_len then
                  match Sh.get t.store k with
                  | Some v ->
                      let data = Int64.to_string v in
                      Buffer.add_string reply
                        (Printf.sprintf "VALUE %s 0 %d\r\n%s\r\n" k
                           (String.length data) data)
                  | None ->
                      if Sh.mem t.store k then
                        Buffer.add_string reply
                          (Printf.sprintf "VALUE %s 0 0\r\n\r\n" k))
              keys;
            Buffer.add_string reply "END\r\n";
            mc_send fd (Buffer.contents reply)
        | "set" :: k :: _flags :: _exptime :: nbytes :: rest -> (
            let noreply = rest = [ "noreply" ] in
            let say s = if not noreply then mc_send fd s in
            match int_of_string_opt nbytes with
            | None -> say "CLIENT_ERROR bad data chunk\r\n"
            | Some n when n < 0 || n > Frame.max_frame_len ->
                say "CLIENT_ERROR bad data chunk\r\n"
            | Some n -> (
                match Mc.read_data r n with
                | None -> running := false
                | Some data ->
                    if k = "" || String.length k > Frame.max_key_len then
                      say "CLIENT_ERROR bad key\r\n"
                    else if data = "" then (
                      match Sh.add_result t.store k with
                      | Ok () -> say "STORED\r\n"
                      | Error e -> say (mc_error_reply e))
                    else (
                      match Int64.of_string_opt (String.trim data) with
                      | None ->
                          say
                            "CLIENT_ERROR value must be a decimal 64-bit \
                             integer\r\n"
                      | Some v -> (
                          match Sh.put_result t.store k v with
                          | Ok () -> say "STORED\r\n"
                          | Error e -> say (mc_error_reply e)))))
        | "delete" :: k :: rest when rest = [] || rest = [ "noreply" ] -> (
            let say s = if rest = [] then mc_send fd s in
            if k = "" || String.length k > Frame.max_key_len then
              say "NOT_FOUND\r\n"
            else
              match Sh.delete_result t.store k with
              | Ok true -> say "DELETED\r\n"
              | Ok false -> say "NOT_FOUND\r\n"
              | Error e -> say (mc_error_reply e))
        | [ "stats" ] ->
            let keys, bytes =
              Sh.with_quiesced t.store (fun stores ->
                  Array.fold_left
                    (fun (k, b) st ->
                      ( k + Hyperion.Store.length st,
                        b + Hyperion.Store.memory_usage st ))
                    (0, 0) stores)
            in
            Buffer.add_string reply
              (Printf.sprintf "STAT curr_items %d\r\n" keys);
            Buffer.add_string reply (Printf.sprintf "STAT bytes %d\r\n" bytes);
            Buffer.add_string reply
              (Printf.sprintf "STAT threads %d\r\n" (Sh.shards t.store));
            Buffer.add_string reply
              (Printf.sprintf "STAT curr_connections %d\r\n"
                 (Mutex.lock t.sm;
                  let n = Hashtbl.length t.conns in
                  Mutex.unlock t.sm;
                  n));
            Buffer.add_string reply "END\r\n";
            mc_send fd (Buffer.contents reply)
        | [ "version" ] -> mc_send fd "VERSION hyperion-net 1.0\r\n"
        | [ "quit" ] -> running := false
        | _ -> mc_send fd "ERROR\r\n")
  done

(* ---- accept / lifecycle ---------------------------------------------- *)

(* Registers a connection served by [threads] (given its id), unless the
   server is stopping or full. *)
let spawn_conn t fd threads =
  Mutex.lock t.sm;
  if t.stopping || Hashtbl.length t.conns >= t.cfg.max_connections then begin
    Mutex.unlock t.sm;
    quiet_close fd
  end
  else begin
    let cid = t.next_conn in
    t.next_conn <- cid + 1;
    Hashtbl.replace t.conns cid (fd, threads cid);
    set_conn_gauge t;
    Mutex.unlock t.sm
  end

(* Shutdown cascade: the reader hits EOF and stops posting, the writer
   sends the completions still owed and exits, then the reader's thread
   closes the socket. *)
let spawn_binary_conn t fd =
  spawn_conn t fd (fun cid ->
      let conn =
        {
          fd;
          wm = Mutex.create ();
          broken = false;
          om = Mutex.create ();
          oc = Condition.create ();
          out = Buffer.create 4096;
          posted = 0;
          reading = true;
        }
      in
      let writer = Thread.create writer_loop conn in
      let reader =
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () ->
                end_reading conn;
                Thread.join writer;
                finish_conn t cid fd)
              (fun () -> reader_loop t conn))
          ()
      in
      [ reader; writer ])

let spawn_mc_conn t fd =
  spawn_conn t fd (fun cid ->
      [
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () -> finish_conn t cid fd)
              (fun () -> mc_loop t fd))
          ();
      ])

let acceptor_loop t sock spawn =
  let running = ref true in
  while !running do
    match Unix.accept ~cloexec:true sock with
    | fd, _ ->
        set_nodelay fd;
        spawn t fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (err, _, _) ->
        (* the listener was closed by [stop] (EBADF/EINVAL) or is beyond
           recovery; either way the accept loop is done *)
        ignore err;
        running := false
  done

let listen_on ~host ~port =
  let addr = Unix.inet_addr_of_string host in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (addr, port));
    Unix.listen sock 128;
    Unix.getsockname sock
  with
  | Unix.ADDR_INET (_, bound) -> Ok (sock, bound)
  | Unix.ADDR_UNIX _ ->
      quiet_close sock;
      Error "unexpected unix-domain listener"
  | exception Unix.Unix_error (err, fn, _) ->
      quiet_close sock;
      Error
        (Printf.sprintf "cannot listen on %s:%d: %s (%s)" host port
           (Unix.error_message err) fn)

let start ?(config = default_config) store =
  if config.max_connections < 1 then Error "max_connections must be >= 1"
  else begin
    (* a peer that disappears mid-write must surface as EPIPE, not kill
       the process *)
    (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | _old -> ()
    | exception Invalid_argument msg -> ignore msg);
    match listen_on ~host:config.host ~port:config.port with
    | Error _ as e -> e
    | Ok (bin_sock, bin_port) -> (
        let mc =
          match config.memcached_port with
          | None -> Ok None
          | Some p -> (
              match listen_on ~host:config.host ~port:p with
              | Ok (s, bound) -> Ok (Some (s, bound))
              | Error _ as e ->
                  quiet_close bin_sock;
                  (match e with Error m -> Error m | Ok _ -> Error "unreachable"))
        in
        match mc with
        | Error m -> Error m
        | Ok mc ->
            let t =
              {
                store;
                cfg = config;
                bin_sock;
                bin_port;
                mc_sock = Option.map fst mc;
                mc_port = Option.map snd mc;
                sm = Mutex.create ();
                conns = Hashtbl.create 64;
                next_conn = 0;
                stopping = false;
                acceptors = [];
              }
            in
            let acc =
              Thread.create
                (fun () -> acceptor_loop t bin_sock spawn_binary_conn)
                ()
            in
            let accs =
              match t.mc_sock with
              | None -> [ acc ]
              | Some s ->
                  let a =
                    Thread.create (fun () -> acceptor_loop t s spawn_mc_conn) ()
                  in
                  [ acc; a ]
            in
            t.acceptors <- accs;
            Ok t)
  end

let port t = t.bin_port
let memcached_port t = t.mc_port

let connections t =
  Mutex.lock t.sm;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.sm;
  n

let stop t =
  Mutex.lock t.sm;
  let already = t.stopping in
  t.stopping <- true;
  Mutex.unlock t.sm;
  if not already then begin
    (* shutdown() first: on Linux, close() alone does not wake a thread
       blocked in accept(2), shutdown does (the accept fails) *)
    quiet_shutdown t.bin_sock;
    quiet_close t.bin_sock;
    (match t.mc_sock with
    | Some s ->
        quiet_shutdown s;
        quiet_close s
    | None -> ());
    List.iter Thread.join t.acceptors;
    (* no connection registers once [stopping] is set: EOF every reader,
       then wait for each connection's cascade to finish *)
    Mutex.lock t.sm;
    let threads =
      Hashtbl.fold
        (fun _ (fd, ths) acc ->
          quiet_shutdown fd;
          ths @ acc)
        t.conns []
    in
    Mutex.unlock t.sm;
    List.iter Thread.join threads;
    if Telemetry.enabled () then Telemetry.Gauge.set g_conns 0
  end
