// StreamMonitor — one-stop sliding-window telemetry.
//
// Applications usually want several window statistics at once (the QoS
// example hand-rolls exactly this).  StreamMonitor bundles SHE-BF
// membership, SHE-BM or SHE-HLL cardinality, and SHE-CM frequency + heavy
// hitters behind a single insert(), with one memory budget split across
// the sketches, a consolidated report, and whole-monitor
// checkpoint/restore.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/io.hpp"
#include "runtime/ingest_pipeline.hpp"
#include "she/heavy_hitters.hpp"
#include "she/she_bloom.hpp"
#include "she/she_bitmap.hpp"
#include "she/she_hll.hpp"
#include "she/she_minhash.hpp"
#include "she/tuning.hpp"

namespace she {

/// Monitor configuration: one window, one budget, task toggles.
struct MonitorConfig {
  std::uint64_t window = 1u << 16;      ///< sliding window, in items
  std::size_t memory_bytes = 1u << 20;  ///< total budget across sketches
  bool track_membership = true;
  bool track_cardinality = true;
  bool track_frequency = true;
  bool track_similarity = false;  ///< keep a SHE-MH signature for jaccard()
  bool use_hll = false;        ///< cardinality via HLL instead of Bitmap
  double expected_cardinality = 0;  ///< 0 = assume window/4 (for Eq. 2)
  std::size_t heavy_hitter_slots = 64;
  std::size_t similarity_slots = 0;  ///< SHE-MH signature slots; 0 = auto
  std::uint32_t seed = 0;

  void validate() const;
};

/// A consolidated snapshot of the window.
struct MonitorReport {
  std::uint64_t items = 0;                  ///< stream position
  std::optional<double> cardinality;        ///< distinct keys in window
  std::vector<HeavyHitters::Entry> top;     ///< heaviest keys, descending

  /// Merge per-shard reports into one window view: items and cardinality
  /// sum (shards partition the key space), top lists concatenate, re-sort
  /// and truncate to `top_k`.  This is the merge ConcurrentMonitor::report
  /// performs — exposed so callers holding cached per-shard snapshots
  /// (the she_server query path) can combine them without fresh
  /// deserialization.
  [[nodiscard]] static MonitorReport combine(
      std::span<const MonitorReport> parts, std::size_t top_k);
};

class StreamMonitor {
 public:
  explicit StreamMonitor(const MonitorConfig& cfg);

  /// Feed one stream item to every enabled sketch.
  void insert(std::uint64_t key);

  /// Feed a batch (equivalent to insert() per key, in order): each enabled
  /// SHE sketch takes the whole batch through its pipelined insert_batch;
  /// heavy hitters update per key (candidate tracking is inherently
  /// per-item).  This is the path the ingest runtime's drain loop takes.
  void insert_batch(std::span<const std::uint64_t> keys);

  /// Was `key` seen in the window?  (Requires track_membership; one-sided.)
  [[nodiscard]] bool seen(std::uint64_t key) const;

  /// Window frequency of `key` (requires track_frequency).
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key) const;

  /// Consolidated snapshot (top-k limited to `top_k`).
  [[nodiscard]] MonitorReport report(std::size_t top_k = 10) const;

  /// Estimated Jaccard similarity of two monitors' windows (requires
  /// track_similarity on both).  Both must share the similarity
  /// configuration (slots, window, seed) and be at the same stream time —
  /// SHE-MH signatures compare slot-by-slot over lock-step streams; throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] static double jaccard(const StreamMonitor& a,
                                      const StreamMonitor& b);

  void clear();

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] const MonitorConfig& config() const { return cfg_; }

  /// Actual bytes across enabled sketches (close to, and never wildly
  /// above, cfg.memory_bytes).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Checkpoint / restore the whole monitor.
  void save(BinaryWriter& out) const;
  static StreamMonitor load(BinaryReader& in);

 private:
  MonitorConfig cfg_;
  std::uint64_t time_ = 0;
  std::optional<SheBloomFilter> membership_;
  std::optional<SheBitmap> card_bm_;
  std::optional<SheHyperLogLog> card_hll_;
  std::optional<HeavyHitters> freq_;
  std::optional<SheMinHash> sim_;
};

/// ConcurrentMonitor — StreamMonitor behind the ingest runtime.
///
/// Shards one logical monitor across `pipeline.shards` StreamMonitors
/// (window and budget split evenly, same key routing as Sharded<T>), feeds
/// them from `pipeline.producers` threads through lock-free rings, and
/// answers queries *while the stream is being ingested* from the shards'
/// seqlock-published snapshots: membership and frequency go to the owning
/// shard, cardinality sums across shards, top-k merges (shard key spaces
/// are disjoint).  Queries are safe from any thread at any time; push()
/// follows the IngestPipeline threading contract (one thread per producer
/// index, join producers before close()).
class ConcurrentMonitor {
 public:
  ConcurrentMonitor(const MonitorConfig& monitor,
                    const runtime::PipelineOptions& pipeline);

  /// Launch the shard workers (producers may enqueue before this).
  void start() { pipe_.start(); }

  /// Drain everything accepted, publish final snapshots, join workers.
  void close() { pipe_.close(); }

  /// Route one item from producer `producer`; false = rejected
  /// (DropNewest backpressure, BlockTimeout expiry, dead shard, or
  /// closing).
  bool push(std::size_t producer, std::uint64_t key) {
    return pipe_.push(producer, key);
  }

  /// push() each key in order; returns how many were accepted.
  std::size_t push_bulk(std::size_t producer,
                        std::span<const std::uint64_t> keys) {
    return pipe_.push_bulk(producer, keys);
  }

  /// push_bulk with a client idempotence identity (replays after lost
  /// acks dedupe per shard) and an absolute steady-clock deadline (0 =
  /// none) bounding any backpressure blocking.
  std::size_t push_bulk(std::size_t producer,
                        std::span<const std::uint64_t> keys,
                        std::uint64_t client_id, std::uint64_t client_seq,
                        std::int64_t deadline_ns = 0) {
    return pipe_.push_bulk(producer, keys, client_id, client_seq, deadline_ns);
  }

  /// Drain-then-publish barrier (IngestPipeline::sync): after this
  /// returns true, snapshot queries see every previously accepted push.
  bool flush(std::size_t timeout_ms = 5000) {
    return pipe_.sync(/*with_checkpoint=*/false, timeout_ms);
  }

  /// flush() plus a durable checkpoint frame per shard (no-op frames when
  /// the pipeline has no checkpoint_dir).
  bool save_now(std::size_t timeout_ms = 5000) {
    return pipe_.sync(/*with_checkpoint=*/true, timeout_ms);
  }

  /// Per-shard stream offset restored from a durable checkpoint when the
  /// pipeline options had `resume` set (0 otherwise); a replaying driver
  /// skips this many keys routed to shard `s`.
  [[nodiscard]] std::uint64_t resume_offset(std::size_t s) const {
    return pipe_.resume_offset(s);
  }

  /// True once any shard worker died for good (see
  /// IngestPipeline::faulted).
  [[nodiscard]] bool faulted() const { return pipe_.faulted(); }

  /// True while the pipeline is parked read-only after a disk fault
  /// (pushes throw runtime::DegradedError; queries keep working).
  [[nodiscard]] bool degraded() const { return pipe_.degraded(); }

  /// Snapshot queries (see class comment for semantics).
  [[nodiscard]] bool seen(std::uint64_t key) const;
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key) const;
  [[nodiscard]] MonitorReport report(std::size_t top_k = 10) const;

  /// Estimated Jaccard similarity between two concurrent monitors with
  /// identical configurations (same shard count, window, budget, seed and
  /// track_similarity on both): shard s of `a` and shard s of `b` cover
  /// the same key partition, so their SHE-MH signatures are compared
  /// pairwise and averaged.  Requires lock-step per-shard stream times
  /// (e.g. both monitors fed the same item count through the same
  /// routing); throws std::invalid_argument otherwise.
  [[nodiscard]] static double jaccard(const ConcurrentMonitor& a,
                                      const ConcurrentMonitor& b);

  /// Owning-shard snapshot for batching several queries against one read.
  [[nodiscard]] StreamMonitor shard_snapshot(std::size_t s) const {
    return pipe_.snapshot(s);
  }
  /// Shard `s`'s raw seqlock slot, for runtime::SnapshotReader-style
  /// cached readers that only re-deserialize when the version moves.
  [[nodiscard]] const runtime::SeqlockSlot& shard_slot(std::size_t s) const {
    return pipe_.snapshot_slot(s);
  }
  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const {
    return pipe_.shard_of(key);
  }
  [[nodiscard]] std::size_t shard_count() const { return pipe_.shard_count(); }

  [[nodiscard]] runtime::RuntimeStats stats() const { return pipe_.stats(); }
  [[nodiscard]] const runtime::PipelineOptions& options() const {
    return pipe_.options();
  }

  /// The pipeline's always-on metric registry, for Prometheus/JSON export.
  [[nodiscard]] const obs::Registry& metrics_registry() const {
    return pipe_.metrics_registry();
  }

 private:
  runtime::IngestPipeline<StreamMonitor> pipe_;
};

}  // namespace she
