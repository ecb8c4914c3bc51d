type t = {
  cfg : Config.t;
  codec : Compress.t;  (** the dictionary stage of the key transform *)
  mms : Memman.t array;  (** one per arena *)
  locks : Mutex.t array;  (** one per arena *)
  tries : Types.trie array;  (** 1, or 256 routed by first key byte *)
  counts : int Atomic.t array;
      (** keys per trie; written under the arena lock, read lock-free by
          {!length} (atomic, so concurrent readers never see torn values) *)
}

let name = "Hyperion"

(* --- telemetry -------------------------------------------------------- *)

module T = Telemetry

(* One latency histogram family, labelled per operation.  All recording is
   guarded by [T.enabled ()], so with telemetry off every public op pays
   exactly one flag load and one branch, and no metric cell is written
   (test_telemetry.ml asserts both the zero-counter and the
   semantics-invariance halves of that contract). *)
let m_put =
  T.Histogram.make "hyperion_op_latency_ns"
    ~labels:[ ("op", "put") ]
    ~help:"Store operation latency in nanoseconds"

let m_add = T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "add") ]
let m_get = T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "get") ]

let m_delete =
  T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "delete") ]

let m_get_many =
  T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "get_many") ]

let m_mem_many =
  T.Histogram.make "hyperion_op_latency_ns" ~labels:[ ("op", "mem_many") ]

let create ?(config = Config.default) ?(compress = Compress.Identity) () =
  Config.validate config;
  if Compress.id compress <> config.compress then
    invalid_arg
      (Printf.sprintf
         "Store.create: config.compress = %d but the %s codec was passed"
         config.compress (Compress.name compress));
  let mms =
    Array.init config.arenas (fun _ ->
        Memman.create ~chunks_per_bin:config.chunks_per_bin
          ~max_metabins:config.max_metabins ())
  in
  let locks = Array.init config.arenas (fun _ -> Mutex.create ()) in
  let n_tries = if config.arenas = 1 then 1 else 256 in
  let tries =
    Array.init n_tries (fun i ->
        {
          Types.cfg = config;
          mm = mms.(i mod config.arenas);
          root = Hp.null;
        })
  in
  { cfg = config; codec = compress; mms; locks; tries;
    counts = Array.init n_tries (fun _ -> Atomic.make 0) }

let create_default () = create ()
let config t = t.cfg
let codec t = t.codec

(* --- the key transform ------------------------------------------------ *)

(* A user key reaches the trie through two stages: the dictionary codec
   turns it into its {e stored} form (what snapshots and WAL records
   hold), and the optional §3.4 pre-processing turns that into the trie
   form.  [of_key] is the one validator every entry point shares: the raw
   key must be non-empty and within the cap, and [check_stored] — which
   also vets bytes read back from disk — requires the stored form to
   survive pre-processing (>= 4 bytes) with a trie form within the cap. *)
let check_stored t stored =
  let n = String.length stored in
  if t.cfg.preprocess then
    if n < 4 then Error (Hyperion_error.Key_too_short n)
    else if n >= Ops.max_key_len then Error (Hyperion_error.Key_too_long (n + 1))
    else Ok stored
  else if n = 0 then Error Hyperion_error.Empty_key
  else if n > Ops.max_key_len then Error (Hyperion_error.Key_too_long n)
  else Ok stored

let of_key t key =
  match Ops.key_error key with
  | Some e -> Error e
  | None -> check_stored t (Compress.encode t.codec key)

let trie_key t stored = if t.cfg.preprocess then Preprocess.encode stored else stored

(* Reads and the exception API reject exactly the keys [of_key] rejects,
   as [Invalid_argument]. *)
let read_key t key =
  match of_key t key with
  | Ok stored -> trie_key t stored
  | Error Hyperion_error.Empty_key -> invalid_arg "Hyperion: empty key"
  | Error e -> invalid_arg ("Hyperion: " ^ Hyperion_error.to_string e)

let stored_of_trie t tk = if t.cfg.preprocess then Preprocess.decode tk else tk

let user_key t tk =
  let stored = stored_of_trie t tk in
  match t.codec with
  | Compress.Identity -> stored
  | Compress.Dict _ -> (
      match Compress.decode t.codec stored with
      | Ok k -> k
      | Error why ->
          Hyperion_error.fail
            (Hyperion_error.Chunk_corrupt ("stored key fails to decode: " ^ why)))

let route t key =
  if Array.length t.tries = 1 then 0 else Char.code key.[0]

let with_arena t idx f =
  let lock = t.locks.(idx mod Array.length t.locks) in
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
[@@lock_wrapper "Store.t.locks"]

let put_opt t key value =
  let key = read_key t key in
  let i = route t key in
  with_arena t i (fun () ->
      if Ops.put t.tries.(i) key value then Atomic.incr t.counts.(i))

(* Instrumented entry: run [op]'s body between two clock reads, feed the
   elapsed time into [metric], and hand slow ops (with whatever path flags
   the engine marked) to the trace ring.  Written as a per-call-site [if]
   rather than a closure-taking combinator to keep the enabled path
   allocation-free. *)

let put t key value =
  if T.enabled () then begin
    let t0 = T.op_start () in
    put_opt t key (Some value);
    T.op_end m_put ~kind:"put" ~key_len:(String.length key) t0
  end
  else put_opt t key (Some value)

let add t key =
  if T.enabled () then begin
    let t0 = T.op_start () in
    put_opt t key None;
    T.op_end m_add ~kind:"add" ~key_len:(String.length key) t0
  end
  else put_opt t key None

let find_trie t key =
  let i = route t key in
  with_arena t i (fun () -> Ops.find t.tries.(i) key)

let get_u t key =
  match find_trie t (read_key t key) with
  | Some (Some v) -> Some v
  | Some None | None -> None

let get t key =
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = get_u t key in
    T.op_end m_get ~kind:"get" ~key_len:(String.length key) t0;
    r
  end
  else get_u t key

let mem t key = find_trie t (read_key t key) <> None

(* --- batched reads -------------------------------------------------- *)

let find_many_u ?width t keys =
  let n = Array.length keys in
  (* every key is validated before any trie is touched, so a batch either
     runs whole or raises like the first invalid [get] would *)
  let ekeys = Array.map (read_key t) keys in
  if Array.length t.tries = 1 then
    with_arena t 0 (fun () -> Getmany.find_many ?width t.tries.(0) ekeys)
  else begin
    (* Group per routed trie, pipeline each group under its arena lock,
       then scatter results back to input positions. *)
    let out = Array.make n None in
    let groups = Array.make 256 [] in
    for i = n - 1 downto 0 do
      let r = Char.code ekeys.(i).[0] in
      groups.(r) <- i :: groups.(r)
    done;
    Array.iteri
      (fun tri idxs ->
        if idxs <> [] then begin
          let idxa = Array.of_list idxs in
          let sub = Array.map (fun i -> ekeys.(i)) idxa in
          let r =
            with_arena t tri (fun () ->
                Getmany.find_many ?width t.tries.(tri) sub)
          in
          Array.iteri (fun j i -> out.(i) <- r.(j)) idxa
        end)
      groups;
    out
  end

let get_many ?width t keys =
  let body () =
    Array.map
      (function Some (Some v) -> Some v | Some None | None -> None)
      (find_many_u ?width t keys)
  in
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = body () in
    T.op_end m_get_many ~kind:"get_many" ~key_len:(Array.length keys) t0;
    r
  end
  else body ()

let mem_many ?width t keys =
  let body () =
    Array.map (fun r -> r <> None) (find_many_u ?width t keys)
  in
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = body () in
    T.op_end m_mem_many ~kind:"mem_many" ~key_len:(Array.length keys) t0;
    r
  end
  else body ()

let delete_u t key =
  let key = read_key t key in
  let i = route t key in
  with_arena t i (fun () ->
      let removed = Ops.delete t.tries.(i) key in
      if removed then Atomic.decr t.counts.(i);
      removed)

let delete t key =
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = delete_u t key in
    T.op_end m_delete ~kind:"delete" ~key_len:(String.length key) t0;
    r
  end
  else delete_u t key

(* Ordered iteration over trie-form keys, from a trie-form [start]. *)
let range_trie t ?start f =
  let n = Array.length t.tries in
  if n = 1 then
    with_arena t 0 (fun () -> Range.range t.tries.(0) ?start f)
  else begin
    (* Tries are routed by first key byte, so visiting them in index order
       preserves the global key order. *)
    let stop = ref false in
    let f' key value =
      let continue = f key value in
      if not continue then stop := true;
      continue
    in
    let first = match start with Some s when s <> "" -> Char.code s.[0] | _ -> 0 in
    let i = ref first in
    while (not !stop) && !i < n do
      let idx = !i in
      let bound = if idx = first then start else None in
      with_arena t idx (fun () -> Range.range t.tries.(idx) ?start:bound f');
      incr i
    done
  end

let range t ?start f =
  let start = Option.map (fun s -> trie_key t (Compress.encode t.codec s)) start in
  range_trie t ?start (fun key value -> f (user_key t key) value)

let length t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.counts

(* --- typed-result mutation API ------------------------------------- *)

let put_stored_u t stored value =
  let key = trie_key t stored in
  let i = route t key in
  with_arena t i (fun () ->
      match Ops.put_checked t.tries.(i) key value with
      | Ok added ->
          if added then Atomic.incr t.counts.(i);
          Ok ()
      | Error _ as e -> e)

(* The typed-result paths feed the same histograms as the raising ones:
   these are what the WAL-logged and sharded front-ends call, so sharded
   benches and chaos runs surface their latencies under the same names. *)
let put_stored t stored value =
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = put_stored_u t stored value in
    let m, kind =
      match value with Some _ -> (m_put, "put") | None -> (m_add, "add")
    in
    T.op_end m ~kind ~key_len:(String.length stored) t0;
    r
  end
  else put_stored_u t stored value

let delete_stored_u t stored =
  let key = trie_key t stored in
  let i = route t key in
  with_arena t i (fun () ->
      match Ops.delete t.tries.(i) key with
      | removed ->
          if removed then Atomic.decr t.counts.(i);
          Ok removed
      | exception Hyperion_error.Error e -> Error e)

let delete_stored t stored =
  if T.enabled () then begin
    let t0 = T.op_start () in
    let r = delete_stored_u t stored in
    T.op_end m_delete ~kind:"delete" ~key_len:(String.length stored) t0;
    r
  end
  else delete_stored_u t stored

let put_opt_result t key value = Result.bind (of_key t key) (fun k -> put_stored t k value)
let put_result t key value = put_opt_result t key (Some value)
let add_result t key = put_opt_result t key None

let delete_result t key = Result.bind (of_key t key) (delete_stored t)

module Stored = struct
  type store = t
  type t = string

  let of_key = of_key
  let of_bytes = check_stored
  let put = put_stored
  let delete = delete_stored
  let mem (s : store) stored = find_trie s (trie_key s stored) <> None

  let iter (s : store) f =
    range_trie s (fun key value ->
        f (stored_of_trie s key) value;
        true)
end

(* --- fault injection and saturation -------------------------------- *)

let set_fault_plan t plan =
  Array.iter (fun mm -> Memman.set_fault mm plan) t.mms

let fault_plan t = Memman.fault t.mms.(0)

let saturated_arenas t =
  Array.fold_left
    (fun acc mm -> acc + if Memman.is_saturated mm then 1 else 0)
    0 t.mms

(* Readers of memory-manager state take the owning arena's lock so a
   concurrent mutator (another thread, or a shard worker domain) can never
   expose them to a half-updated manager. *)
let with_arena_of_mm t mm_idx f = with_arena t mm_idx f

let memory_usage t =
  let total = ref 0 in
  Array.iteri
    (fun i mm ->
      total := !total + with_arena_of_mm t i (fun () -> Memman.total_bytes mm))
    t.mms;
  !total

let stats t =
  (* Tries share memory managers when arenas < 256, so the per-trie
     saturation bit from [Stats.collect] would overcount; recompute it from
     the managers themselves.  Each trie is walked under its arena lock:
     the walk parses live container bytes, so racing a mutator would read
     mid-splice garbage. *)
  let s = ref Stats.empty in
  Array.iteri
    (fun i trie ->
      s := with_arena t i (fun () -> Stats.add !s (Stats.collect trie)))
    t.tries;
  { !s with Stats.saturated_arenas = saturated_arenas t }

let superbin_profile t =
  let merged =
    Array.init 64 (fun _ ->
        {
          Memman.chunk_size = 0;
          allocated_chunks = 0;
          empty_chunks = 0;
          allocated_bytes = 0;
          empty_bytes = 0;
        })
  in
  Array.iteri
    (fun mm_i mm ->
      let p = with_arena_of_mm t mm_i (fun () -> Memman.superbin_profile mm) in
      Array.iteri
        (fun i s ->
          merged.(i) <-
            {
              Memman.chunk_size = s.Memman.chunk_size;
              allocated_chunks =
                merged.(i).Memman.allocated_chunks + s.Memman.allocated_chunks;
              empty_chunks =
                merged.(i).Memman.empty_chunks + s.Memman.empty_chunks;
              allocated_bytes =
                merged.(i).Memman.allocated_bytes + s.Memman.allocated_bytes;
              empty_bytes =
                merged.(i).Memman.empty_bytes + s.Memman.empty_bytes;
            })
        p)
    t.mms;
  merged

let allocated_chunks t =
  let total = ref 0 in
  Array.iteri
    (fun i mm ->
      total :=
        !total + with_arena_of_mm t i (fun () -> Memman.allocated_chunk_count mm))
    t.mms;
  !total

let internal_tries t = t.tries

let iter t f =
  range t (fun k v ->
      f k v;
      true)

let fold t ~init ~f =
  let acc = ref init in
  range t (fun k v ->
      acc := f !acc k v;
      true);
  !acc

let starts_with ~prefix k =
  String.length k >= String.length prefix
  && String.sub k 0 (String.length prefix) = prefix

let prefix_iter t ~prefix f =
  if prefix = "" then range t f
  else
    range t ~start:prefix (fun k v ->
        if starts_with ~prefix k then f k v else false)
