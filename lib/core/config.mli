(** Tunables of the Hyperion trie and its memory manager.

    Defaults follow the paper's evaluation setup (Section 4.1); tests shrink
    thresholds to force rare code paths (embedded-container ejection, path
    compression bursts, container splits) on tiny inputs. *)

type t = {
  embedded_eject_parent_limit : int;
      (** Eject embedded containers once the enclosing top-level container
          grows beyond this many bytes.  Paper: 8 KiB for integer keys,
          16 KiB for variable-length strings. *)
  embedded_max : int;
      (** Hard size cap of one embedded container in bytes; ejected as soon
          as it would exceed this.  Paper: 256 (the S-node size limit). *)
  pc_max : int;
      (** Maximum suffix length storable in a path-compressed node.
          Paper: 127 (7-bit size field). *)
  js_threshold : int;
      (** Append a jump-successor offset to a T-node once it has at least
          this many S-node children.  Paper default: 2. *)
  tnode_jt_threshold : int;
      (** Build a T-node jump table once the T-node has at least this many
          S-node children (the table references 15 of them). *)
  container_jt_threshold : int;
      (** Grow/rebalance the container jump table once a scan has traversed
          this many T-nodes.  Paper: 8. *)
  split_a : int;  (** Additive split constant a of Eq. (4).  Paper: 16 KiB. *)
  split_b : int;
      (** Split-delay multiplier b of Eq. (4).  Paper: 64 KiB. *)
  split_min_piece : int;
      (** Abort a split if either candidate would be smaller than this.
          Paper: 3 KiB. *)
  chunks_per_bin : int;
      (** Chunks per memory-manager bin.  Paper: 4096 (12 HP bits). *)
  max_metabins : int;
      (** Metabins a superbin may grow to before it reports saturation.
          Paper: 2^14 (14 HP bits), the default; tests shrink it to force
          arena exhaustion on tiny inputs. *)
  arenas : int;
      (** Number of separately locked arenas in [1, 256].  1 = single trie,
          no per-key routing. *)
  preprocess : bool;
      (** Enable the key pre-processing of Section 3.4 (requires all keys
          to be at least 4 bytes long). *)
  delta_encoding : bool;
      (** Delta-encode sibling key bytes (Section 3.3).  Default true;
          disabled only by the ablation benchmarks. *)
  compress : int;
      (** Scheme id of the order-preserving key codec the store owns: 0 =
          identity (default), 1 = trained dictionary ({!Compress}), which
          {!Store.create} must then be given.  The id is part of persisted
          fingerprints so a snapshot can never be reopened under the wrong
          codec; scheme 1 additionally mixes the dictionary hash into them
          (see {!Compress.mix_fingerprint}). *)
}

val default : t
(** Integer-key defaults: 8 KiB ejection limit, paper constants, 1 arena,
    no pre-processing. *)

val strings : t
(** String-key defaults: like {!default} with a 16 KiB ejection limit (the
    paper's setting "to better utilize path compression"). *)

val validate : t -> unit
(** @raise Invalid_argument if a field is out of its documented domain. *)

val fingerprint : t -> int64
(** A stable 64-bit hash of every tunable (FNV-1a over the field values).
    Embedded in persisted snapshot and WAL headers so that a durability
    directory is never silently reopened under a different configuration
    (see {!Persist} and DESIGN.md section 8). *)
