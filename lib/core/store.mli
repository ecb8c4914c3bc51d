(** Hyperion key-value store: the public API.

    A store owns one or more tries (256 when arenas are enabled, paper
    Section 3.2) with one memory manager and one lock per arena.  Keys are
    arbitrary non-empty byte strings in binary-comparable form (see
    {!Kvcommon.Key_codec}); values are 64-bit words.  Keys can also be
    stored without a value (type-10 terminals, set semantics).

    {b The key codec.}  Every entry point takes and returns {e user} keys.
    Underneath, the store's order-preserving dictionary codec
    ({!Compress}, passed to {!create}) maps a key to its {e stored} form
    — the bytes snapshot and WAL records hold — and, when
    [config.preprocess] is on, the paper's §3.4 pre-processing
    ({!Preprocess}) maps that to the trie form.  Iteration undoes both.
    One validator ({!Stored.of_key}) decides which keys every entry point
    accepts: the raw key and its stored form must be non-empty and at
    most 2{^20} bytes, and with pre-processing the stored form must be at
    least 4 bytes.  The result API returns its typed error; reads and the
    exception API raise [Invalid_argument] on exactly the same keys. *)

type t

val name : string

val create : ?config:Config.t -> ?compress:Compress.t -> unit -> t
(** [create ~config ~compress ()] is an empty store whose keys pass
    through [compress] (default [Identity]).
    @raise Invalid_argument when [Compress.id compress <> config.compress]
    — in particular when [config.compress = 1] and no trained dictionary
    is passed. *)

val create_default : unit -> t
(** [create_default ()] is [create ()] — the {!Kv_intf} creation hook. *)

val config : t -> Config.t

val codec : t -> Compress.t
(** The dictionary codec this store's keys are stored under. *)

val put : t -> string -> int64 -> unit
val add : t -> string -> unit
(** Store the key without a value. *)

val get : t -> string -> int64 option
val mem : t -> string -> bool
val delete : t -> string -> bool

(** {1 Batched reads}

    The memory-level-parallel read path: up to [width] (default 32)
    descents per arena are software-pipelined, each operation's next
    container prefetched while the others advance, and per-container
    negative-lookup tags cut probe misses short.  Results are
    bit-identical to the equivalent sequential loop — both paths share
    the per-container probe code, and each routed group runs under its
    arena lock, so a batch linearizes against concurrent mutators at
    per-arena granularity exactly like a sequential loop would. *)

val get_many : ?width:int -> t -> string array -> int64 option array
(** [get_many t keys] is observably [Array.map (get t) keys],
    positionally (duplicates included).  Keys are validated up front, so
    an invalid key raises [Invalid_argument] before any trie is
    touched. *)

val mem_many : ?width:int -> t -> string array -> bool array
(** [mem_many t keys] is observably [Array.map (mem t) keys]. *)

(** {1 Typed-result mutation API}

    [put]/[add]/[delete] raise [Hyperion_error.Error] when the store cannot
    complete a mutation (arena saturation, allocation failure, injected
    fault); these variants surface the same failures as values instead.  A
    failed mutation leaves the store exactly as it was: splices roll back
    before any byte moves, and reads keep working on a saturated arena. *)

val put_result : t -> string -> int64 -> (unit, Hyperion_error.t) result
val add_result : t -> string -> (unit, Hyperion_error.t) result
val delete_result : t -> string -> (bool, Hyperion_error.t) result

(** {1 The stored-key door}

    Persistence works on stored keys, so records hold the encoded bytes
    and recovery needs neither retraining nor re-encoding. *)

module Stored : sig
  type store := t

  type t = private string
  (** A validated key, dictionary-encoded, before pre-processing. *)

  val of_key : store -> string -> (t, Hyperion_error.t) result
  (** The one key validator: [Empty_key] or [Key_too_long] for the raw
      key or its stored form, [Key_too_short] for a stored form under 4
      bytes when pre-processing is on. *)

  val of_bytes : store -> string -> (t, Hyperion_error.t) result
  (** Bytes read back from a snapshot or WAL record, checked by the same
      rules. *)

  val put : store -> t -> int64 option -> (unit, Hyperion_error.t) result
  (** Insert; [None] stores the key without a value. *)

  val delete : store -> t -> (bool, Hyperion_error.t) result
  val mem : store -> t -> bool

  val iter : store -> (t -> int64 option -> unit) -> unit
  (** Every binding in ascending key order, keys in stored form. *)
end

(** {1 Fault injection and saturation} *)

val set_fault_plan : t -> Fault.t -> unit
(** Install a fault-injection plan on every arena's memory manager
    ({!Fault.none} disables injection).  The plan object is shared, so a
    single operation budget spans all arenas. *)

val fault_plan : t -> Fault.t
(** The currently installed plan (of the first arena). *)

val saturated_arenas : t -> int
(** Arenas currently read-only because their memory pool is exhausted.
    Saturation is sticky until a delete frees memory in that arena. *)

val range : t -> ?start:string -> (string -> int64 option -> bool) -> unit
(** Ordered callback iteration from [start] (paper's range queries).  A
    stored key that fails to decode under the store's dictionary raises
    [Hyperion_error.Error (Chunk_corrupt _)]. *)

val length : t -> int
(** Number of stored keys.  Safe under concurrent mutators: the per-trie
    counters are [Atomic.t], so the sum never contains torn values (it may
    lag in-flight mutations by design). *)

val memory_usage : t -> int
(** Exact resident bytes of all memory managers (initialized bin segments,
    metabin metadata, extended-bin heap segments).  Takes each arena's lock
    while reading its manager, so it is safe under concurrent mutators. *)

val stats : t -> Stats.t
(** Full structural walk.  Each trie is walked under its arena lock, so
    calling this while other threads mutate the store yields a well-formed
    (per-arena-consistent) snapshot instead of parsing mid-splice bytes. *)

val superbin_profile : t -> Memman.superbin_stats array
(** Aggregated over all arenas; drives Figures 14 and 16. *)

val allocated_chunks : t -> int

(**/**)

val internal_tries : t -> Types.trie array
(** For {!Validate} and white-box tests only. *)

(** {1 Convenience iteration} *)

val iter : t -> (string -> int64 option -> unit) -> unit
(** Visit every binding in ascending key order. *)

val fold : t -> init:'a -> f:('a -> string -> int64 option -> 'a) -> 'a
(** Left fold over all bindings in ascending key order. *)

val prefix_iter : t -> prefix:string -> (string -> int64 option -> bool) -> unit
(** [prefix_iter t ~prefix f] invokes [f] for every stored key beginning
    with [prefix], in order, until [f] returns [false].  A common trie
    idiom built on {!range}; an empty prefix visits everything. *)
