(** Differential chaos harness: a seeded random workload executed against
    Hyperion and a red-black-tree oracle simultaneously, with faults
    injected from a {!Fault.t} plan.

    Every mutation is applied to both stores; a mutation that Hyperion
    rejects with a typed error must leave Hyperion observably unchanged
    (the oracle is not updated either, and the two are compared).  After
    every injected fault — and periodically — the whole store is audited
    with {!Hyperion.Validate}; any structural violation fails the run.

    Runs are deterministic in [(seed, ops, config, plan)], so a failure
    message, which embeds the seed and the plan's firing history, is a
    complete replay recipe. *)

type outcome = {
  ops : int;  (** operations executed *)
  mutations_ok : int;
  mutations_failed : int;  (** typed-error rejections (expected under faults) *)
  injected_faults : int;  (** plan firings over the whole run *)
  audits : int;  (** full Validate sweeps performed *)
  saturation_errors : int;  (** [Arena_saturated] rejections observed *)
  final_keys : int;
}

val pp_outcome : Format.formatter -> outcome -> unit

val key_for : int -> string
(** The deterministic key the workload derives from id [i] — a mix of
    short, suffixed and prefixed shapes. *)

val codec : Hyperion.Config.t -> Compress.t
(** The codec every mode runs under: [Identity] for [config.compress =
    0]; for [1], a dictionary trained on the closed key universe
    [Seq.init 4096 key_for] that every mode draws from.  Deterministic,
    so a reopened directory verifies against the same dictionary. *)

val run :
  ?config:Hyperion.Config.t ->
  ?plan:Fault.t ->
  ?validate_every:int ->
  ?key_space:int ->
  ?heapcheck:bool ->
  ?on_op:(int -> unit) ->
  ?store:Hyperion.Store.t ->
  seed:int64 ->
  ops:int ->
  unit ->
  (outcome, string) result
(** [run ~seed ~ops ()] executes [ops] random operations (puts, deletes,
    point lookups, length checks) over a bounded key space (default 4096
    distinct keys, so updates and deletes hit existing keys), then performs
    a final audit and a full ordered sweep comparing Hyperion against the
    oracle.  [validate_every] (default 1000) bounds the distance between
    audits even when no fault fires; every fault firing triggers an
    immediate audit.  [Error msg] carries the divergence or violation plus
    the seed and plan history needed to replay it.

    [?store] runs the workload against an existing store — e.g. one just
    recovered by {!Persist.open_or_create} — instead of a fresh one; its
    current bindings seed the oracle.

    [?heapcheck] (default [true]) additionally runs the
    {!Analyze.Heapcheck} mark-and-sweep heap sanitizer on every audit
    round, so an allocator leak or double-referenced chunk fails the run
    with the same replay recipe as a structural violation.

    [?on_op] is invoked after every completed operation with its index —
    a progress hook, e.g. for periodic telemetry dumps ([hyperion_cli
    chaos --metrics-every]).

    Under [config.compress = 1] the store runs with {!codec}'s
    dictionary (a passed [?store] keeps its own codec): the oracle holds
    user keys, the store encodes beneath its interface, and a stored key
    that fails to decode in the final sweep fails the run like any other
    mismatch. *)

(** {1 Sharded chaos}

    The multi-domain counterpart: several client domains hammer one
    {!Hyperion_shard} front-end concurrently — blocking mutations, batched
    flushes, direct reads — while the coordinator runs quiesced audits
    (per-shard {!Hyperion.Validate} sweep plus the iter/length
    point-in-time consistency check).  Clients own {e disjoint} key sets
    (ids congruent to the client index), so although the interleaving is
    nondeterministic, the final store state is deterministic in the seed
    and must match a red-black-tree oracle byte for byte.

    With [?dir], the store runs through the per-shard durability layer;
    after the workload the run group-commits, simulates a process kill,
    reopens the directory (parallel per-shard recovery) and demands the
    recovered store again be byte-identical to the oracle. *)

type sharded_outcome = {
  sh_shards : int;
  sh_clients : int;
  sh_ops : int;
  sh_mutations : int;  (** acknowledged mutations across all clients *)
  sh_batched : int;  (** of those, shipped through the batch/flush path *)
  sh_audits : int;  (** quiesced audits (concurrent + final) *)
  sh_final_keys : int;
  sh_recovered_shards : int;  (** shards reopened after the kill; 0 in-memory *)
  sh_replayed : int;  (** WAL records replayed across shards at reopen *)
}

val pp_sharded_outcome : Format.formatter -> sharded_outcome -> unit

val run_sharded :
  ?config:Hyperion.Config.t ->
  ?shards:int ->
  ?clients:int ->
  ?key_space:int ->
  ?heapcheck:bool ->
  ?dir:string ->
  seed:int64 ->
  ops:int ->
  unit ->
  (sharded_outcome, string) result
(** [run_sharded ~seed ~ops ()] splits [ops] across the clients (default
    [min shards 4]).  Fault injection is not supported here — plans are
    not domain-safe; the single-store chaos modes cover it.  [?dir] works
    in [dir/shard-chaos-<seed>] (wiped before and after).  [?heapcheck]
    (default [true]) runs the heap sanitizer on every shard store inside
    each quiesced audit.  [Error msg] embeds the seed and the failing
    check. *)

(** {1 Crash-recovery chaos}

    The durability counterpart: a seeded workload is driven through a
    {!Persist} logged handle, the process "dies" at a random write-ahead-log
    byte offset (at or past the group-commit watermark — fsynced bytes
    survive a crash, later ones may tear mid-record), optionally alongside a
    rotation caught mid-snapshot, and the directory is reopened.  The
    recovered store must reproduce {e exactly} a prefix of the logged
    mutations: at least every acknowledged (fsynced) one, never a torn or
    reordered state.  See DESIGN.md section 8 for the crash matrix. *)

type crash_outcome = {
  ops_logged : int;  (** mutations that reached the WAL before the kill *)
  acked : int;  (** of those, durable (group-committed) at the kill *)
  recovered : int;  (** prefix length the reopened store reproduced *)
  cut_bytes : int;  (** WAL bytes torn off by the simulated crash *)
  rotations : int;  (** snapshot rotations during the workload *)
  scenario : string;  (** which crash-matrix row was exercised *)
}

val pp_crash_outcome : Format.formatter -> crash_outcome -> unit

val run_crash :
  ?config:Hyperion.Config.t ->
  ?key_space:int ->
  ?sync_every_ops:int ->
  ?rotate_bytes:int ->
  ?heapcheck:bool ->
  dir:string ->
  seed:int64 ->
  ops:int ->
  unit ->
  (crash_outcome, string) result
(** [run_crash ~dir ~seed ~ops ()] is deterministic in [(seed, ops, config,
    sync_every_ops, rotate_bytes)].  It works in [dir/crash-<seed>] (wiped
    before and after).  Defaults force frequent group commits
    ([sync_every_ops = 16]) and rotations ([rotate_bytes = 8192]) so short
    runs still cross every crash window.  [?heapcheck] (default [true])
    heap-audits the recovered store after the post-crash reopen (on top of
    the audit {!Persist.open_or_create} performs itself).  [Error msg]
    embeds the seed, the scenario and the cut offset — a complete replay
    recipe. *)

(** {1 Disk-fault chaos}

    The storage-fault counterpart (DESIGN.md section 12): the workload runs
    through a {!Persist} handle whose syscalls are interposed by
    {!Persist.Io} with a seeded {!Fault} plan over {!Fault.io_sites}
    ([EIO], [ENOSPC], short writes, fsync failures, failed opens/reads/
    renames).  The run asserts the full degraded-mode contract: a storage
    failure surfaces as a typed [Degraded] rejection (or flips the handle
    after an acked group-commit failure), degradation is {e sticky} and
    strictly read-only, reads keep matching the oracle throughout,
    {!Persist.heal} (with injection disarmed) re-arms writes, and the run
    ends with the same kill-at-a-random-WAL-offset prefix-consistency check
    as {!run_crash}. *)

type diskfault_outcome = {
  df_ops : int;
  df_acked : int;  (** mutations acknowledged (and therefore logged) *)
  df_rejected : int;  (** typed [Degraded] rejections *)
  df_injected : int;  (** I/O faults injected across all plan cycles *)
  df_heals : int;  (** degraded → healed cycles *)
  df_audits : int;
  df_recovered : int;  (** prefix reproduced after the final crash *)
  df_final_keys : int;
}

val pp_diskfault_outcome : Format.formatter -> diskfault_outcome -> unit

val run_diskfault :
  ?config:Hyperion.Config.t ->
  ?key_space:int ->
  ?sync_every_ops:int ->
  ?rotate_bytes:int ->
  ?heapcheck:bool ->
  ?per_mille:int ->
  dir:string ->
  seed:int64 ->
  ops:int ->
  unit ->
  (diskfault_outcome, string) result
(** [run_diskfault ~dir ~seed ~ops ()] works in [dir/diskfault-<seed>]
    (wiped before and after).  [per_mille] (default 3) is the per-syscall
    injection probability; each heal cycle re-arms a fresh plan derived
    from [seed].  Deterministic in its parameters; [Error msg] embeds the
    seed. *)

type sharded_diskfault_outcome = {
  sdf_shards : int;
  sdf_clients : int;
  sdf_ops : int;
  sdf_acked : int;  (** acknowledged mutations across all clients *)
  sdf_rejected : int;  (** typed rejections clients absorbed *)
  sdf_injected : int;  (** I/O faults injected across shards and cycles *)
  sdf_heals : int;  (** degraded → healed cycles *)
  sdf_kills : int;  (** worker crashes injected via the poison hook *)
  sdf_restarts : int;  (** dead shards rebuilt with [restart_shard] *)
  sdf_audits : int;
  sdf_final_keys : int;
}

val pp_sharded_diskfault_outcome :
  Format.formatter -> sharded_diskfault_outcome -> unit

val run_sharded_diskfault :
  ?config:Hyperion.Config.t ->
  ?shards:int ->
  ?clients:int ->
  ?key_space:int ->
  ?heapcheck:bool ->
  ?per_mille:int ->
  dir:string ->
  seed:int64 ->
  ops:int ->
  unit ->
  (sharded_diskfault_outcome, string) result
(** [run_sharded_diskfault ~dir ~seed ~ops ()] drives fault-tolerant
    client domains over a durable {!Hyperion_shard} front-end whose
    per-shard durability syscalls carry seeded fault plans, while the
    coordinator interleaves quiesced audits, seeded worker kills (the
    supervision path: every pending request must complete with a typed
    error, never hang), single-shard restarts from their persist dirs, and
    cluster-wide heals.  Clients model exactly the acknowledged mutations —
    including partially applied batch slices via
    {!Hyperion_shard.Batch.flush_report} — and the final store, both before
    and after a group-commit + kill + parallel recovery, must equal the
    merged oracle of every client's acked log.  [per_mille] defaults to 2.
    Works in [dir/sharded-diskfault-<seed>] (wiped before and after). *)
