(** hyperion.net — the TCP serving front-end over {!Hyperion_shard}.

    One acceptor thread per listening socket; every accepted socket gets
    [TCP_NODELAY].  Each binary connection runs exactly two threads.  The
    {e reader} decodes frames, answers [Get]/[Mem] inline on the
    lock-free read path (consecutive reads batch into one
    {!Hyperion_shard.get_many}/[mem_many] descent), runs the rare
    quiescing [Stats]/[Health] itself, and sends each decode pass's
    inline responses as one write.  Mutations and [Batch] are posted to
    the shard mailboxes with a completion callback: the shard worker
    encodes the response into the connection's out buffer, and the
    {e writer} sends everything that accumulated since its last wakeup
    as one write.  Responses therefore leave in completion order, not
    arrival order: pipelined clients correlate by request id (see
    {!Frame}).  Typed store failures ({!Hyperion.Hyperion_error.t},
    including [Degraded]/[Shard_down]/[Overloaded]) map to protocol
    error codes; a malformed frame is answered [E_bad_request] without
    closing the connection, while an unrecoverable framing error
    (oversized length prefix) closes it.

    An optional second listener speaks a memcached-text subset
    ([get]/[set]/[delete]/[stats]/[version]/[quit]) so off-the-shelf
    clients can talk to the store: values are decimal 64-bit integers
    (an empty data block stores a valueless member), responses are
    in-order as that protocol requires (one thread per connection).

    Telemetry (when enabled): the [hyperion_net_connections] gauge,
    [hyperion_net_requests_total] counters per op,
    [hyperion_net_protocol_errors_total], and
    [hyperion_net_server_latency_ns{op=...}] histograms measured from
    frame decode to response enqueue/write (into the pass buffer for
    inline responses, into the out buffer for completions). *)

type t

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** binary listener; [0] picks an ephemeral port *)
  memcached_port : int option;
      (** when set, also serve the memcached-text subset there
          ([Some 0] = ephemeral) *)
  max_connections : int;  (** accepted connections beyond this are closed *)
}

val default_config : config

val start : ?config:config -> Hyperion_shard.t -> (t, string) result
(** Bind, listen and spawn the acceptor(s).  The server borrows the store:
    {!stop} does not close it. *)

val port : t -> int
(** The bound binary port (resolves an ephemeral request). *)

val memcached_port : t -> int option

val connections : t -> int
(** Currently-open connections across both listeners. *)

val stop : t -> unit
(** Close the listeners and shut down every connection, then join all
    threads: each reader sees EOF, the mutations it already posted
    complete (their responses are discarded if the peer is already
    gone), the writer exits and the socket is closed.  Idempotent. *)
