module H = Hyperion
module E = Hyperion.Hyperion_error
module T = Telemetry

(* Shard-layer telemetry.  The mailbox depth gauge is owned by the worker
   domains (single writer per shard): each drain records the backlog it
   found, so the summed gauge is the backlog observed at the most recent
   drains, and the high-watermark gauge keeps the worst backlog any worker
   ever saw.  Batch sizes and quiesce stalls get histograms — both shape
   tail latency directly. *)
let g_mailbox_depth =
  T.Gauge.make "hyperion_shard_mailbox_depth"
    ~help:"Messages found in shard mailboxes at the latest drain (summed)"

let g_mailbox_hwm =
  T.Gauge.make "hyperion_shard_mailbox_depth_hwm" ~merge:`Max
    ~help:"Highest backlog any shard worker has drained at once"

let m_drain =
  T.Histogram.make "hyperion_shard_drain_msgs"
    ~help:"Messages handled per mailbox drain"

let m_batch =
  T.Histogram.make "hyperion_shard_batch_ops"
    ~help:"Mutations per batched shard slice"

let m_quiesce =
  T.Histogram.make "hyperion_shard_quiesce_duration_ns"
    ~help:"Drain-and-pause barrier duration for quiesced reads"

let c_worker_crashes =
  T.Counter.make "hyperion_shard_worker_crashes_total"
    ~help:"Shard worker domains that died on an unexpected exception"

let c_restarts =
  T.Counter.make "hyperion_shard_restarts_total"
    ~help:"Dead shard workers restarted from their persist directories"

let c_overloads =
  T.Counter.make "hyperion_shard_overload_rejections_total"
    ~help:"Mutations rejected because a shard mailbox stayed full past the \
           enqueue deadline"

(* --- completions -------------------------------------------------------- *)

let c_callback_errors =
  T.Counter.make "hyperion_shard_callback_errors_total"
    ~help:"Completion callbacks that raised (contained; the worker survives)"

(* First-wins completion: worker cleanup may fail a message whose handler
   already completed it before raising, so only the first call takes
   effect.  A raising callback is contained here so it can never kill the
   shard worker that runs it. *)
let once k =
  let fired = Atomic.make false in
  fun v ->
    if not (Atomic.exchange fired true) then
      try k v
      with exn ->
        ignore exn;
        if T.enabled () then T.Counter.incr c_callback_errors

(* One-shot synchronisation cell: a blocking operation is the async one
   with a completion that fills this cell, which the caller waits on. *)
module Ivar = struct
  type 'a t = {
    m : Mutex.t;
    c : Condition.t;
    mutable v : 'a option; [@guarded_by m]
  }

  (* [await submit] passes [submit] a completion and blocks until it runs. *)
  let await submit =
    let t = { m = Mutex.create (); c = Condition.create (); v = None } in
    submit (fun v ->
        Mutex.lock t.m;
        t.v <- Some v;
        Condition.broadcast t.c;
        Mutex.unlock t.m);
    Mutex.lock t.m;
    let rec wait () =
      match t.v with
      | Some v ->
          Mutex.unlock t.m;
          v
      | None ->
          Condition.wait t.c t.m;
          wait ()
    in
    wait ()
end

type 'a completion = ('a, E.t) result -> unit

(* --- requests --------------------------------------------------------- *)

type op = Put of string * int64 | Add of string | Delete of string

(* Workers parked between two requests; the coordinator reads all stores
   while every [arrived] worker waits for [released]. *)
type barrier = {
  bm : Mutex.t;
  bc : Condition.t;
  mutable arrived : int; [@guarded_by bm]
  mutable released : bool; [@guarded_by bm]
}

(* Raised by a [Poison] message: the supervision test hook's stand-in for
   any unexpected worker exception. *)
exception Injected_worker_crash of string

(* The closures are {!once}-wrapped and run on the shard worker's domain. *)
type msg =
  | Mut of op * bool completion
      (** one mutation; the bool is [Delete]'s "was present" *)
  | Batched of op array * (int * E.t option -> unit)
      (** a per-shard batch slice; the int counts the applied prefix, the
          error (if any) is what stopped it *)
  | Quiesce of barrier
  | Poison of string  (** test hook: handling raises {!Injected_worker_crash} *)

(* --- MPSC mailbox: bounded ring, mutex + condvar ---------------------- *)

type mailbox = {
  mm : Mutex.t;
  not_empty : Condition.t;
  ring : msg option array;
  mutable head : int; [@guarded_by mm]  (* next slot to dequeue *)
  mutable len : int; [@guarded_by mm]
  mutable accepting : bool; [@guarded_by mm]
      (* senders rejected once the store closes *)
  mutable stopping : bool; [@guarded_by mm]
      (* worker exits after draining the backlog *)
}

let mailbox_create cap =
  {
    mm = Mutex.create ();
    not_empty = Condition.create ();
    ring = Array.make cap None;
    head = 0;
    len = 0;
    accepting = true;
    stopping = false;
  }

type send_result = Sent | Mailbox_closed | Enqueue_timeout

(* [timeout_ns <= 0] waits forever.  The stdlib has no timed condvar wait,
   so a full mailbox is waited out by unlock/sleep/relock polling with a
   doubling backoff — overload is the rare path, and a healthy worker
   drains whole backlogs at once, so the poll cost is invisible next to
   the full ring it is waiting on. *)
let send mb msg ~timeout_ns =
  let deadline = if timeout_ns <= 0 then max_int else T.now_ns () + timeout_ns in
  let cap = Array.length mb.ring in
  let backoff = ref 5e-5 in
  (* the lock is taken before [wait] is even defined so the whole retry
     loop is lexically a critical section (racecheck's guarded-by rule);
     the full-ring path drops it across the backoff sleep *)
  Mutex.lock mb.mm;
  let rec wait () =
    if not mb.accepting then begin
      Mutex.unlock mb.mm;
      Mailbox_closed
    end
    else if mb.len < cap then begin
      mb.ring.((mb.head + mb.len) mod cap) <- Some msg;
      mb.len <- mb.len + 1;
      Condition.signal mb.not_empty;
      Mutex.unlock mb.mm;
      Sent
    end
    else if T.now_ns () >= deadline then begin
      Mutex.unlock mb.mm;
      Enqueue_timeout
    end
    else begin
      Mutex.unlock mb.mm;
      Unix.sleepf !backoff;
      backoff := Float.min 1e-3 (!backoff *. 2.);
      Mutex.lock mb.mm;
      wait ()
    end
  in
  wait ()

(* Drain the whole backlog in one lock acquisition; [None] = shut down. *)
let drain mb =
  Mutex.lock mb.mm;
  while mb.len = 0 && not mb.stopping do
    Condition.wait mb.not_empty mb.mm
  done;
  if mb.len = 0 then begin
    Mutex.unlock mb.mm;
    None
  end
  else begin
    let cap = Array.length mb.ring in
    let n = mb.len in
    let out =
      Array.init n (fun i ->
          let slot = (mb.head + i) mod cap in
          let m = Option.get mb.ring.(slot) in
          mb.ring.(slot) <- None;
          m)
    in
    mb.head <- (mb.head + n) mod cap;
    mb.len <- 0;
    Mutex.unlock mb.mm;
    Some out
  end

let backlog mb =
  Mutex.lock mb.mm;
  let n = mb.len in
  Mutex.unlock mb.mm;
  n

let shut_down mb =
  Mutex.lock mb.mm;
  mb.accepting <- false;
  mb.stopping <- true;
  Condition.broadcast mb.not_empty;
  Mutex.unlock mb.mm

(* --- the sharded store ------------------------------------------------ *)

(* [store]/[persist]/[mb] are swapped only by {!restart_shard}, under
   [t.qlock] and only while the shard's worker is dead (its domain joined),
   so the single-writer discipline is preserved; concurrent readers of the
   swapped pointers see either the old frozen shard or the new one, both
   safe. *)
type shard = {
  id : int;
  mutable store : H.Store.t;
  mutable persist : Persist.t option;
  mutable mb : mailbox;
  health : string option Atomic.t;  (* [Some reason] = worker dead *)
  mutable domain : unit Domain.t option;
}

type shard_recovery = {
  shard : int;
  recovery : Persist.recovery;
}

(* Everything needed to rebuild a single shard after its worker died. *)
type knobs = {
  k_dir : string option;
  k_sync_every_ops : int option;
  k_sync_every_bytes : int option;
  k_rotate_bytes : int option;
  k_mailbox : int;
  k_io_for_shard : (int -> Persist.Io.t) option;
}

type t = {
  cfg : H.Config.t;
  codec : Compress.t;  (* the stores' codec: routing reads its first byte *)
  tab : shard array;
  recs : shard_recovery list;
  knobs : knobs;
  enqueue_timeout_ns : int;
  qlock : Mutex.t;  (* serializes quiesce barriers, restart, close/crash *)
  mutable closed : bool;
}

let shards t = Array.length t.tab
let durable t = Array.length t.tab > 0 && t.tab.(0).persist <> None
let config t = t.cfg
let compress t = t.codec
let recoveries t = t.recs

let shard_dir ~dir i = Filename.concat dir (Printf.sprintf "shard-%03d" i)
let manifest_file ~dir = Filename.concat dir "MANIFEST"

let route_byte d b = b * d / 256

(* Routing reads the first byte of the stored key: the codec is
   order-preserving, so the contiguous byte-range partition is still a
   global key order.  The empty key has no first byte under the identity
   codec; it goes to shard 0, whose store rejects it like any other
   invalid key. *)
let shard_of_key t key =
  if key = "" then 0
  else route_byte (Array.length t.tab) (Compress.first_byte t.codec key)

(* --- worker ----------------------------------------------------------- *)

let apply_op sh op : (bool, E.t) result =
  match sh.persist with
  | Some p -> (
      match op with
      | Put (k, v) -> (
          match Persist.put p k v with Ok () -> Ok true | Error _ as e -> e)
      | Add k -> (
          match Persist.add p k with Ok () -> Ok true | Error _ as e -> e)
      | Delete k -> Persist.delete p k)
  | None -> (
      match op with
      | Put (k, v) -> (
          match H.Store.put_result sh.store k v with
          | Ok () -> Ok true
          | Error _ as e -> e)
      | Add k -> (
          match H.Store.add_result sh.store k with
          | Ok () -> Ok true
          | Error _ as e -> e)
      | Delete k -> H.Store.delete_result sh.store k)

let participate b =
  Mutex.lock b.bm;
  b.arrived <- b.arrived + 1;
  Condition.broadcast b.bc;
  while not b.released do
    Condition.wait b.bc b.bm
  done;
  Mutex.unlock b.bm

let worker sh () =
  let handle = function
    | Mut (op, k) -> k (apply_op sh op)
    | Batched (ops, k) ->
        if T.enabled () then T.Histogram.observe_ns m_batch (Array.length ops);
        let n = Array.length ops in
        let rec go i applied =
          if i >= n then k (applied, None)
          else
            match apply_op sh ops.(i) with
            | Ok _ -> go (i + 1) (applied + 1)
            | Error e -> k (applied, Some e)
        in
        go 0 0
    | Quiesce b -> participate b
    | Poison reason -> raise (Injected_worker_crash reason)
  in
  (* Supervision: an unexpected exception must never strand a client.
     The dying worker marks itself unhealthy, fails every pending completion
     with a typed [Shard_down], still takes quiesce barriers it already
     received (a quiesced reader must not hang on a shard it posted to),
     seals its mailbox, and exits.  Siblings keep serving; the shard can
     be rebuilt with [restart_shard]. *)
  let cleanup exn msgs from =
    let reason = Printexc.to_string exn in
    Atomic.set sh.health (Some reason);
    if T.enabled () then T.Counter.incr c_worker_crashes;
    let fail_one = function
      | Mut (_, k) -> k (Error (E.Shard_down reason))
      | Batched (_, k) -> k (0, Some (E.Shard_down reason))
      | Quiesce b -> participate b
      | Poison _ -> ()
    in
    (* the message that raised first: it may be uncompleted (completions
       are first-wins, so a message that half-completed is safe to fail) *)
    for j = from to Array.length msgs - 1 do
      fail_one msgs.(j)
    done;
    shut_down sh.mb;
    let rec flush () =
      match drain sh.mb with
      | Some more ->
          Array.iter fail_one more;
          flush ()
      | None -> ()
    in
    flush ()
  in
  let rec loop () =
    match drain sh.mb with
    | None -> ()
    | Some msgs ->
        if T.enabled () then begin
          let n = Array.length msgs in
          T.Gauge.set g_mailbox_depth n;
          T.Gauge.set g_mailbox_hwm n;
          T.Histogram.observe_ns m_drain n
        end;
        let i = ref 0 in
        (try
           while !i < Array.length msgs do
             handle msgs.(!i);
             incr i
           done
         with exn -> cleanup exn msgs !i);
        if Atomic.get sh.health = None then begin
          if T.enabled () then T.Gauge.set g_mailbox_depth 0;
          loop ()
        end
  in
  loop ()

let start_workers tab =
  Array.iter (fun sh -> sh.domain <- Some (Domain.spawn (worker sh))) tab

(* --- construction ----------------------------------------------------- *)

let max_shards = 64  (* worker domains live for the store's lifetime *)

let check_geometry ~shards ~mailbox =
  if shards < 1 || shards > max_shards then
    invalid_arg
      (Printf.sprintf "Hyperion_shard: shards must be in [1, %d]" max_shards);
  if mailbox < 1 then invalid_arg "Hyperion_shard: mailbox must be >= 1"

let default_enqueue_timeout_ms = 30_000

let timeout_ns_of_ms ms =
  if ms < 0 then invalid_arg "Hyperion_shard: enqueue_timeout_ms must be >= 0";
  ms * 1_000_000

let create ?(config = H.Config.default) ?compress ?(shards = 4)
    ?(mailbox = 1024) ?(enqueue_timeout_ms = default_enqueue_timeout_ms) () =
  check_geometry ~shards ~mailbox;
  let enqueue_timeout_ns = timeout_ns_of_ms enqueue_timeout_ms in
  let tab =
    Array.init shards (fun i ->
        {
          id = i;
          store = H.Store.create ~config ?compress ();
          persist = None;
          mb = mailbox_create mailbox;
          health = Atomic.make None;
          domain = None;
        })
  in
  start_workers tab;
  {
    cfg = config;
    codec = H.Store.codec tab.(0).store;
    tab;
    recs = [];
    knobs =
      {
        k_dir = None;
        k_sync_every_ops = None;
        k_sync_every_bytes = None;
        k_rotate_bytes = None;
        k_mailbox = mailbox;
        k_io_for_shard = None;
      };
    enqueue_timeout_ns;
    qlock = Mutex.create ();
    closed = false;
  }

(* The manifest pins the shard count: reopening with a different partition
   would route keys to shards whose stores do not hold them. *)
let read_manifest dir =
  let path = manifest_file ~dir in
  if not (Sys.file_exists path) then Ok None
  else
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error (E.Io_error msg)
    | text -> (
        match int_of_string_opt (String.trim text) with
        | Some d when d >= 1 && d <= max_shards -> Ok (Some d)
        | _ ->
            Error
              (E.Io_error
                 (Printf.sprintf "%s: unreadable shard manifest %S" path text)))

let write_manifest dir d =
  try
    Out_channel.with_open_text (manifest_file ~dir) (fun oc ->
        Printf.fprintf oc "%d\n" d);
    Ok ()
  with Sys_error msg -> Error (E.Io_error msg)

let recovery_wave = 8  (* parallel recovery domains per wave *)

let open_durable ?(config = H.Config.default) ?compress ?shards ?sync_every_ops
    ?sync_every_bytes ?rotate_bytes ?(mailbox = 1024)
    ?(enqueue_timeout_ms = default_enqueue_timeout_ms) ?io_for_shard dir =
  let ( let* ) = Result.bind in
  let enqueue_timeout_ns = timeout_ns_of_ms enqueue_timeout_ms in
  let* () =
    match
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        raise (Sys_error (dir ^ ": not a directory"))
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, fn, _) ->
        Error (E.Io_error (Printf.sprintf "%s: %s: %s" dir fn (Unix.error_message e)))
    | exception Sys_error msg -> Error (E.Io_error msg)
  in
  let* recorded = read_manifest dir in
  let* d =
    match (recorded, shards) with
    | Some d, None -> Ok d
    | Some d, Some requested when d = requested -> Ok d
    | Some d, Some requested ->
        Error
          (E.Io_error
             (Printf.sprintf
                "%s: directory is partitioned into %d shard(s), not %d"
                dir d requested))
    | None, requested ->
        let d = Option.value requested ~default:4 in
        check_geometry ~shards:d ~mailbox;
        let* () = write_manifest dir d in
        Ok d
  in
  check_geometry ~shards:d ~mailbox;
  (* Parallel recovery: one domain per shard, in bounded waves. *)
  let results = Array.make d (Error (E.Io_error "recovery never ran")) in
  let rec waves i =
    if i < d then begin
      let n = min recovery_wave (d - i) in
      let doms =
        Array.init n (fun j ->
            let io = Option.map (fun f -> f (i + j)) io_for_shard in
            Domain.spawn (fun () ->
                Persist.open_or_create ~config ?compress ?io
                  ?sync_every_ops ?sync_every_bytes ?rotate_bytes
                  (shard_dir ~dir (i + j))))
      in
      Array.iteri (fun j dom -> results.(i + j) <- Domain.join dom) doms;
      waves (i + n)
    end
  in
  waves 0;
  let first_error =
    Array.fold_left
      (fun acc r ->
        match (acc, r) with None, Error e -> Some e | _ -> acc)
      None results
  in
  match first_error with
  | Some e ->
      Array.iter
        (function Ok p -> ignore (Persist.close p) | Error _ -> ())
        results;
      Error e
  | None ->
      let handles =
        Array.map
          (function
            | Ok p -> p
            | Error e ->
                (* unreachable: [first_error = None] covers every slot *)
                E.fail e)
          results
      in
      (* adopt the persisted codec (shard 0's) and insist every shard
         agrees: divergent dictionaries would route and compare
         incoherently across the partition *)
      let codec_of p = H.Store.codec (Persist.store p) in
      let codec = codec_of handles.(0) in
      let* () =
        if Array.for_all (fun p -> Compress.equal (codec_of p) codec) handles
        then Ok ()
        else begin
          Array.iter (fun p -> ignore (Persist.close p)) handles;
          Error
            (E.Corrupt_snapshot
               (dir ^ ": shards disagree about the key-compression dictionary"))
        end
      in
      let tab =
        Array.mapi
          (fun i p ->
            {
              id = i;
              store = Persist.store p;
              persist = Some p;
              mb = mailbox_create mailbox;
              health = Atomic.make None;
              domain = None;
            })
          handles
      in
      let recs =
        Array.to_list
          (Array.mapi
             (fun i p -> { shard = i; recovery = Persist.recovery p })
             handles)
      in
      start_workers tab;
      Ok
        {
          cfg = config;
          codec;
          tab;
          recs;
          knobs =
            {
              k_dir = Some dir;
              k_sync_every_ops = sync_every_ops;
              k_sync_every_bytes = sync_every_bytes;
              k_rotate_bytes = rotate_bytes;
              k_mailbox = mailbox;
              k_io_for_shard = io_for_shard;
            };
          enqueue_timeout_ns;
          qlock = Mutex.create ();
          closed = false;
        }

(* --- blocking operations ---------------------------------------------- *)

let closed_error t = E.Io_error ((if durable t then "durable " else "") ^ "sharded store closed")

(* Enqueue with supervision semantics: a dead worker yields [Shard_down],
   a full mailbox past the deadline yields [Overloaded], and a mailbox
   sealed by a concurrent restart is retried against the replacement. *)
let rec submit_msg t sh msg =
  match Atomic.get sh.health with
  | Some reason -> Error (E.Shard_down reason)
  | None -> (
      let mb = sh.mb in
      match send mb msg ~timeout_ns:t.enqueue_timeout_ns with
      | Sent -> Ok ()
      | Enqueue_timeout ->
          if T.enabled () then T.Counter.incr c_overloads;
          Error
            (E.Overloaded
               (Printf.sprintf "shard %d mailbox stayed full past the deadline"
                  sh.id))
      | Mailbox_closed -> (
          match Atomic.get sh.health with
          | Some reason -> Error (E.Shard_down reason)
          | None ->
              if t.closed then Error (closed_error t)
              else if sh.mb != mb then submit_msg t sh msg
              else Error (closed_error t)))

(* Completion-driven front door: [k] runs exactly once, on the caller
   when the request fails before reaching a mailbox (the empty key has no
   byte to route by), otherwise on the owning shard's worker domain after
   its store has validated the key and applied the mutation. *)
let submit_async t key op k =
  let k = once k in
  if key = "" then k (Error E.Empty_key)
  else
    match submit_msg t t.tab.(shard_of_key t key) (Mut (op, k)) with
    | Ok () -> ()
    | Error e -> k (Error e)

let unit_result k = function Ok _ -> k (Ok ()) | Error e -> k (Error e)

let put_async t key v k = submit_async t key (Put (key, v)) (unit_result k)
let add_async t key k = submit_async t key (Add key) (unit_result k)
let delete_async t key k = submit_async t key (Delete key) k
let put_result t key v = Ivar.await (put_async t key v)
let add_result t key = Ivar.await (add_async t key)
let delete_result t key = Ivar.await (delete_async t key)

let ok_or_raise = function Ok v -> v | Error e -> E.fail e

let put t key v =
  if String.length key = 0 then invalid_arg "Hyperion_shard: empty key";
  ok_or_raise (put_result t key v)

let add t key =
  if String.length key = 0 then invalid_arg "Hyperion_shard: empty key";
  ok_or_raise (add_result t key)

let delete t key =
  if String.length key = 0 then invalid_arg "Hyperion_shard: empty key";
  ok_or_raise (delete_result t key)

let get t key = H.Store.get t.tab.(shard_of_key t key).store key
let mem t key = H.Store.mem t.tab.(shard_of_key t key).store key

(* --- batched reads ---------------------------------------------------- *)

(* Like [get]/[mem], batched reads use the lock-free direct door: they
   run on the calling domain against each shard's store (which takes its
   own arena locks), never the mailbox — so they serve down shards too.
   Keys are grouped by owning shard, pushed through the store's
   memory-level-parallel batch path, and scattered back in input order. *)
let read_many t keys ~run ~default =
  let n = Array.length keys in
  let out = Array.make n default in
  let groups = Array.make (Array.length t.tab) [] in
  for i = n - 1 downto 0 do
    let s = shard_of_key t keys.(i) in
    groups.(s) <- i :: groups.(s)
  done;
  Array.iteri
    (fun s idxs ->
      if idxs <> [] then begin
        let idxa = Array.of_list idxs in
        let sub = Array.map (fun i -> keys.(i)) idxa in
        let r = run t.tab.(s).store sub in
        Array.iteri (fun j i -> out.(i) <- r.(j)) idxa
      end)
    groups;
  out

let get_many ?width t keys =
  read_many t keys ~default:None ~run:(fun store sub ->
      H.Store.get_many ?width store sub)

let mem_many ?width t keys =
  read_many t keys ~default:false ~run:(fun store sub ->
      H.Store.mem_many ?width store sub)

(* --- batched mutations ------------------------------------------------ *)

module Batch = struct
  type b = {
    owner : t;
    pending : op list array;  (* per shard, newest first *)
    mutable count : int;
  }

  type shard_flush = {
    fr_shard : int;
    fr_ops : int;
    fr_applied : int;
    fr_error : E.t option;
  }

  let create owner =
    {
      owner;
      pending = Array.make (Array.length owner.tab) [];
      count = 0;
    }

  let push b key op =
    let i = shard_of_key b.owner key in
    b.pending.(i) <- op :: b.pending.(i);
    b.count <- b.count + 1

  let put b key v = push b key (Put (key, v))
  let add b key = push b key (Add key)
  let delete b key = push b key (Delete key)
  let length b = b.count

  (* One flush fans out one [Batched] slice per involved shard; each
     shard's completion fills its slot and the last one to land reports
     the whole flush. *)
  type countdown = {
    cm : Mutex.t;
    slots : shard_flush array;  (* written under [cm] *)
    mutable remaining : int; [@guarded_by cm]
  }

  let flush_report_async b k =
    let involved = ref [] in
    for i = Array.length b.pending - 1 downto 0 do
      if b.pending.(i) <> [] then begin
        involved := (i, Array.of_list (List.rev b.pending.(i))) :: !involved;
        b.pending.(i) <- []
      end
    done;
    b.count <- 0;
    let involved = Array.of_list !involved in
    if involved = [||] then k []
    else begin
      let cd =
        {
          cm = Mutex.create ();
          slots =
            Array.map
              (fun (i, slice) ->
                { fr_shard = i; fr_ops = Array.length slice; fr_applied = 0;
                  fr_error = None })
              involved;
          remaining = Array.length involved;
        }
      in
      let complete j (applied, err) =
        Mutex.lock cd.cm;
        cd.slots.(j) <- { (cd.slots.(j)) with fr_applied = applied; fr_error = err };
        cd.remaining <- cd.remaining - 1;
        let report = if cd.remaining = 0 then Some (Array.to_list cd.slots) else None in
        Mutex.unlock cd.cm;
        Option.iter k report
      in
      Array.iteri
        (fun j (i, slice) ->
          let c = once (complete j) in
          match submit_msg b.owner b.owner.tab.(i) (Batched (slice, c)) with
          | Ok () -> ()
          | Error e -> c (0, Some e))
        involved
    end

  let reduce report =
    let applied = List.fold_left (fun acc r -> acc + r.fr_applied) 0 report in
    match List.find_map (fun r -> r.fr_error) report with
    | Some e -> Error e
    | None -> Ok applied

  let flush_report b = Ivar.await (flush_report_async b)
  let flush_async b k = flush_report_async b (fun r -> k (reduce r))
  let flush b = reduce (flush_report b)
end

(* --- quiescence barrier ----------------------------------------------- *)

let with_quiesced t f =
  Mutex.lock t.qlock;
  let stores = Array.map (fun sh -> sh.store) t.tab in
  if t.closed then
    (* workers are gone; the stores are frozen already *)
    Fun.protect ~finally:(fun () -> Mutex.unlock t.qlock) (fun () -> f stores)
  else begin
    let b =
      { bm = Mutex.create (); bc = Condition.create (); arrived = 0; released = false }
    in
    let t0 = if T.enabled () then T.now_ns () else 0 in
    (* dead shards return [Mailbox_closed] and are simply not counted:
       their stores are frozen, which is as quiescent as it gets.  The
       send never times out (timeout 0 = infinite) — skipping a live
       shard's barrier would break the consistent cut. *)
    let posted =
      Array.fold_left
        (fun n sh ->
          match send sh.mb (Quiesce b) ~timeout_ns:0 with
          | Sent -> n + 1
          | Mailbox_closed | Enqueue_timeout -> n)
        0 t.tab
    in
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.qlock)
      (fun () ->
        Mutex.lock b.bm;
        while b.arrived < posted do
          Condition.wait b.bc b.bm
        done;
        if T.enabled () then begin
          let d = T.now_ns () - t0 in
          T.Histogram.observe_ns m_quiesce d;
          T.Trace.maybe_record ~kind:"quiesce" ~key_len:(-1) ~dur_ns:d
        end;
        Fun.protect
          ~finally:(fun () ->
            b.released <- true;
            Condition.broadcast b.bc;
            Mutex.unlock b.bm)
          (fun () -> f stores))
  end
[@@lock_wrapper "Hyperion_shard.t.qlock"]

let iter t f =
  with_quiesced t (fun stores ->
      Array.iter
        (fun s -> H.Store.iter s f)
        stores)

let fold t ~init ~f =
  with_quiesced t (fun stores ->
      Array.fold_left
        (fun acc s ->
          H.Store.fold s ~init:acc ~f)
        init stores)

let length t =
  with_quiesced t (fun stores ->
      Array.fold_left (fun acc s -> acc + H.Store.length s) 0 stores)

let stats t =
  with_quiesced t (fun stores ->
      Array.fold_left
        (fun acc s -> H.Stats.add acc (H.Store.stats s))
        H.Stats.empty stores)

let memory_usage t =
  with_quiesced t (fun stores ->
      Array.fold_left (fun acc s -> acc + H.Store.memory_usage s) 0 stores)

let saturated_arenas t =
  with_quiesced t (fun stores ->
      Array.fold_left (fun acc s -> acc + H.Store.saturated_arenas s) 0 stores)

(* --- supervision ------------------------------------------------------ *)

type shard_health = {
  hs_shard : int;
  hs_alive : bool;
  hs_down : string option;
  hs_degraded : string option;
  hs_backlog : int;
}

let health t =
  Array.to_list
    (Array.map
       (fun sh ->
         let down = Atomic.get sh.health in
         {
           hs_shard = sh.id;
           hs_alive = down = None && not t.closed;
           hs_down = down;
           hs_degraded =
             (match sh.persist with
             | Some p -> Persist.degraded p
             | None -> None);
           hs_backlog = backlog sh.mb;
         })
       t.tab)

let restart_shard t i =
  if i < 0 || i >= Array.length t.tab then
    invalid_arg "Hyperion_shard.restart_shard: shard index out of range";
  Mutex.lock t.qlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.qlock)
    (fun () ->
      if t.closed then Error (closed_error t)
      else
        let sh = t.tab.(i) in
        match Atomic.get sh.health with
        | None ->
            Error
              (E.Io_error
                 (Printf.sprintf "shard %d is healthy; nothing to restart" i))
        | Some _ -> (
            (* the dying worker sealed its mailbox and is exiting (or has
               exited): reap its domain before rebuilding *)
            (match sh.domain with
            | Some d ->
                Domain.join d;
                sh.domain <- None
            | None -> ());
            let respawn () =
              Atomic.set sh.health None;
              sh.domain <- Some (Domain.spawn (worker sh));
              if T.enabled () then T.Counter.incr c_restarts
            in
            match sh.persist with
            | None ->
                (* in-memory shard: nothing to recover from — restart
                   empty (the data died with the worker's store being
                   orphaned; durable stores recover below) *)
                sh.store <- H.Store.create ~config:t.cfg ~compress:t.codec ();
                sh.mb <- mailbox_create t.knobs.k_mailbox;
                respawn ();
                Ok None
            | Some old -> (
                (* drop the old handle's descriptors (its WAL tail may be
                   unsynced — recovery treats it like a crash), then
                   rebuild the shard from its persist dir while siblings
                   keep serving *)
                Persist.crash old;
                let dir =
                  match t.knobs.k_dir with
                  | Some d -> shard_dir ~dir:d i
                  | None -> Persist.dir old
                in
                let io = Option.map (fun f -> f i) t.knobs.k_io_for_shard in
                match
                  Persist.open_or_create ~config:t.cfg ~compress:t.codec ?io
                    ?sync_every_ops:t.knobs.k_sync_every_ops
                    ?sync_every_bytes:t.knobs.k_sync_every_bytes
                    ?rotate_bytes:t.knobs.k_rotate_bytes dir
                with
                | Error _ as e -> e
                | Ok p ->
                    sh.store <- Persist.store p;
                    sh.persist <- Some p;
                    sh.mb <- mailbox_create t.knobs.k_mailbox;
                    respawn ();
                    Ok (Some (Persist.recovery p)))))

(* Test hook: enqueue a message whose handling raises, simulating an
   unexpected worker exception at a drain boundary. *)
let poison t ~shard ~reason =
  if shard < 0 || shard >= Array.length t.tab then
    invalid_arg "Hyperion_shard.poison: shard index out of range";
  match submit_msg t t.tab.(shard) (Poison reason) with
  | Ok () -> true
  | Error _ -> false

(* --- durability control ----------------------------------------------- *)

let first_error results =
  Array.fold_left
    (fun acc r -> match (acc, r) with None, Error e -> Some e | _ -> acc)
    None results

(* [sync]/[snapshot_now] go straight to the per-shard Persist handles: the
   handle serialises against its worker internally, and a quiescence
   barrier here would only narrow (not close) the race with in-flight
   mutations the caller has not been acknowledged for. *)
let on_handles t f =
  if t.closed then Error (closed_error t)
  else
    let results =
      Array.map
        (fun sh -> match sh.persist with Some p -> f p | None -> Ok ())
        t.tab
    in
    match first_error results with Some e -> Error e | None -> Ok ()

let sync t = on_handles t Persist.sync
let snapshot_now t = on_handles t Persist.snapshot_now
let heal t = on_handles t Persist.heal

let stop_workers t =
  Mutex.lock t.qlock;
  if t.closed then begin
    Mutex.unlock t.qlock;
    false
  end
  else begin
    t.closed <- true;
    Array.iter (fun sh -> shut_down sh.mb) t.tab;
    Array.iter
      (fun sh ->
        match sh.domain with
        | Some d ->
            Domain.join d;
            sh.domain <- None
        | None -> ())
      t.tab;
    Mutex.unlock t.qlock;
    true
  end

let close t =
  if not (stop_workers t) then Ok ()
  else begin
    let results =
      Array.map
        (fun sh ->
          match sh.persist with Some p -> Persist.close p | None -> Ok ())
        t.tab
    in
    match first_error results with Some e -> Error e | None -> Ok ()
  end

let crash t =
  if stop_workers t then
    Array.iter
      (fun sh -> match sh.persist with Some p -> Persist.crash p | None -> ())
      t.tab
