// IngestPipeline — lock-free shard pipelines with queries under load and
// fault-tolerant operation.
//
// The hardware pipeline sustains one item per cycle because insertion and
// lazy cleaning are single-stage operations; this is the CPU serving-path
// analogue.  N producer threads route keys by the same hash Sharded<T>
// uses (so accuracy semantics carry over) into per-(producer, shard) SPSC
// rings; each shard worker thread exclusively owns one estimator, drains
// its rings in batches, and every `publish_interval` items publishes an
// immutable copy of it: a std::shared_ptr<const Estimator> swapped in
// under a per-shard mutex.  Producers never block on estimator state, and
// queries run concurrently against the published copies, which stay alive
// for as long as a reader holds them:
//
//   producer p ──ring[p][s]──▶ worker s ──owns──▶ Estimator s
//                                   └─publishes──▶ const copy s ◀─readers
//                                   └─checkpoints─▶ shard-s.ckpt (durable)
//
// Backpressure on a full ring is explicit: `Block` (spin-yield until
// space; never loses an accepted item), `DropNewest` (reject the push,
// counted per shard), or `BlockTimeout` (spin with exponential backoff up
// to `push_timeout_ms`, then fail the push explicitly — bounded worst-case
// latency instead of hanging forever behind a dead consumer).
//
// Fault tolerance (docs/INTERNALS.md §10):
//   * Durable checkpoints: with `checkpoint_dir` set, each worker writes
//     the image of its just-published copy into a CRC32-framed file (atomic
//     write-rename, common/checkpoint.hpp) every `checkpoint_interval`
//     items and at close.  `resume = true` reloads those frames at
//     construction — corrupted or truncated files are rejected with a
//     typed CheckpointError, never loaded silently — and records the
//     per-shard stream offsets (`resume_offset()`) so a driver can skip
//     the already-ingested per-shard prefix of its trace.
//   * Supervision: with `supervise = true`, a worker that dies by exception
//     recovers on its own thread: it copies the shard's last published
//     estimator back into the live one, replays the items applied since
//     from the backlog log (or, without the log, counts them lost),
//     counts the ring backlog replayed, and goes back to draining.  After
//     `kMaxRestarts` recoveries the shard is dead and pushes to it fail
//     fast.  The queue-depth sampler counts workers whose heartbeat went
//     stale (`heartbeat_timeout_ms`) as wedged; a wedged worker that wakes
//     simply carries on.
//   * Write-ahead backlog log (common/wal.hpp): checkpoints capture the
//     drained prefix, but items *accepted and still queued* used to be
//     lost by design at a crash.  With `wal_mode != kOff`, each accepted
//     per-shard sub-batch commits through the shard's WAL lane
//     (wal_push): one critical section that reserves ring space *first*
//     — a request deadline or BlockTimeout expiry sheds the batch before
//     anything reaches the log — then appends it to
//     `<checkpoint_dir>/shard-<s>.wal` and enqueues it whole, in log
//     order, on ring 0 regardless of producer index.  Drain order
//     therefore equals log-append order, which is what lets the
//     checkpoint offset (a count of drained items) identify the exact
//     log prefix a checkpoint covers: drain progress is the durable
//     low-water mark that retires frames at compaction, and resume
//     replays the logged suffix past the newest checkpoint — so kill -9
//     at any instant reconstructs the accepted stream byte-identically.
//     Only a terminally dead shard (faulted without supervision, or past
//     the recovery cap) accepts batches into the log without enqueueing
//     them; that is safe because nothing drains or checkpoints there
//     again, so the logged tail surfaces, in order, at the next resume.
//     Resume and in-place recovery replay the log through one function
//     (replay_log), so a recovery's rollback gap is healed from the log
//     instead of being counted lost.
//     Batches carrying a client identity (client_id, client_seq) are
//     deduplicated against a per-shard sequence table that survives
//     restarts inside the log, making client-side INSERT_BULK replay
//     exactly-once per shard.
//   * Fault injection: the deterministic hooks in
//     runtime/fault_injection.hpp (compiled out unless
//     SHE_FAULT_INJECTION) let tests and `she_tool pipeline --inject`
//     drive every one of those paths on purpose.
//
// Observability: every pipeline owns a private obs::Registry (always on,
// independent of the global obs::enabled() toggle) holding the per-shard
// counters, drain/publish latency histograms, queue-depth gauges,
// backpressure stall time, and the fault/recovery counters (restarts,
// faults, wedges, items lost/replayed, checkpoints, push timeouts);
// RuntimeStats is a plain-struct view over it (see stats()), including a
// windowed items/s rate (`rate_window_s`) that makes restart dips visible
// where the whole-run average would smooth them away.  Push latency is
// sampled (1 in 64) only while the global telemetry toggle is enabled, so
// the producer hot path stays one ring push + one counter increment
// otherwise.  An optional sampler thread
// (PipelineOptions::sample_interval_ms) refreshes the queue-depth gauges
// and the windowed rate during quiet periods.
//
// Estimator requirements: copyable, `insert(uint64_t)`,
// `save(BinaryWriter&) const`, `static load(BinaryReader&)`.  Every SHE
// estimator and StreamMonitor qualifies.  Estimators additionally exposing
// `insert_batch(std::span<const uint64_t>)` (all of the above do) get the
// hash-ahead + prefetch batch path on the worker drain.  Const queries on a
// published copy may run on several reader threads at once, so they must
// not write shared state without synchronization.
//
// Threading contract:
//   * push(producer, key): producer `p`'s pushes must be serialized (one
//     thread per producer index); different producers are independent.
//   * published()/snapshot()/stats()/shard_of()/metrics_registry()/faulted():
//     any thread, any time.
//   * start()/close(): one controlling thread; do not call push()
//     concurrently with close() — join your producers first.  close() on
//     a never-started pipeline drains the queues inline.
//
// Ordering: with a single producer, per-shard insertion order equals
// arrival order, so the result is bit-identical to sequential routing
// through Sharded<T> (tested), and a checkpoint+resume replay that skips
// each shard's recorded prefix reproduces the unfaulted run byte for byte.
// With several producers and no WAL the per-shard interleaving is
// nondeterministic, like any concurrent ingest.  With the WAL on, all
// producers serialize through the shard's WAL lane and drain order equals
// log-append order regardless of producer count — the interleaving is
// whatever order the lane admitted the batches, and crash+resume
// reproduces exactly that order.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bobhash.hpp"
#include "common/checkpoint.hpp"
#include "common/wal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/ring_buffer.hpp"
#include "runtime/runtime_stats.hpp"
#include "runtime/snapshot.hpp"

namespace she::runtime {

/// What a producer does when its ring to the owning shard is full.
enum class Backpressure {
  kBlock,        ///< spin-yield until space; lossless
  kDropNewest,   ///< reject the new item, count it in the shard's drop counter
  kBlockTimeout, ///< spin with exponential backoff, fail after push_timeout_ms
};

[[nodiscard]] const char* to_string(Backpressure p);
/// Parse "block" / "drop" / "block-timeout" (case-sensitive); throws
/// std::invalid_argument.
[[nodiscard]] Backpressure backpressure_from(const std::string& name);

/// A push was rejected because the pipeline is in degraded read-only mode
/// after a disk fault (ENOSPC/EIO from the WAL or checkpoint writer).
/// Queries and snapshots keep working; writes fail fast with this typed
/// error until a recovery probe finds the disk healthy again.
class DegradedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct PipelineOptions {
  std::size_t shards = 1;
  std::size_t producers = 1;
  std::size_t queue_capacity = 1024;   ///< per (producer, shard) ring
  std::size_t drain_batch = 256;       ///< max items popped per ring visit
  std::size_t publish_interval = 2048; ///< items between snapshot publishes
  Backpressure policy = Backpressure::kBlock;
  std::size_t push_timeout_ms = 100;   ///< kBlockTimeout: give up after this
  std::uint64_t route_seed = 0x5ead5eedULL;  ///< Sharded's default
  std::size_t sample_interval_ms = 0;  ///< queue-depth sampler period; 0 = no
                                       ///< background sampler thread

  // Fault tolerance.
  bool supervise = false;              ///< faulted workers recover in place
  std::size_t heartbeat_timeout_ms = 250;  ///< wedged when heartbeat older
                                           ///< (checked by the sampler)
  std::string checkpoint_dir;          ///< empty = no durable checkpoints
  std::uint64_t checkpoint_interval = 1u << 16;  ///< items between frames
  std::size_t checkpoint_keep = 1;     ///< retained frame generations per
                                       ///< shard (1 = overwrite in place)
  bool resume = false;                 ///< reload checkpoint_dir at startup
  std::size_t rate_window_s = 10;      ///< windowed items/s view width

  // Write-ahead backlog log (requires checkpoint_dir and a lossless
  // backpressure policy; see the class comment).
  WalMode wal_mode = WalMode::kOff;
  std::size_t wal_fsync_bytes = 0;     ///< kFsync group-commit bound;
                                       ///< 0 = fdatasync every append
  std::size_t wal_compact_bytes = std::size_t{4} << 20;  ///< rewrite floor

  /// Called after each durable WAL append with the shard index, the
  /// decoded frame, and its encoded bytes, under that shard's append
  /// lock (frames arrive in exact log order per shard).  Replication
  /// tails the pipeline through this; keep it cheap — enqueue, never
  /// block on a socket.
  std::function<void(std::size_t shard, const WalFrame& frame,
                     std::span<const char> encoded)>
      wal_observer;

  /// Degraded read-only mode: after a DiskFault from the WAL or
  /// checkpoint writer, at most one disk-recovery probe runs per this
  /// many milliseconds (on the push path); until one succeeds, writes
  /// throw DegradedError.
  std::size_t degraded_probe_ms = 1000;

  void validate() const;  ///< throws std::invalid_argument on bad fields
};

template <typename Estimator>
class IngestPipeline {
 public:
  using Factory = std::function<Estimator(std::size_t)>;

  /// Builds `opt.shards` estimators via `factory(shard_index)` — or, with
  /// `opt.resume`, from the shard's durable checkpoint when one exists
  /// (corrupt frames throw CheckpointError) — and publishes their initial
  /// snapshots; workers start with start().
  IngestPipeline(const PipelineOptions& opt, const Factory& factory)
      : opt_(opt), rate_window_(opt.rate_window_s) {
    opt_.validate();
    drain_hist_ = &registry_.histogram(
        "she_pipeline_drain_latency_ns",
        "wall time of one non-empty ring drain sweep, ns");
    publish_hist_ = &registry_.histogram(
        "she_pipeline_publish_latency_ns",
        "copy + swap publish of one shard snapshot, ns");
    push_hist_ = &registry_.histogram(
        "she_pipeline_push_latency_ns",
        "producer push() wall time, 1-in-64 sampled while telemetry is "
        "enabled, ns");
    checkpoint_hist_ = &registry_.histogram(
        "she_pipeline_checkpoint_latency_ns",
        "frame + atomic-replace of one durable checkpoint, ns");
    stall_ns_ = &registry_.counter(
        "she_pipeline_stall_ns_total",
        "producer time spent spin-yielding on full rings (Block policy), ns");
    stall_events_ = &registry_.counter(
        "she_pipeline_stall_events_total",
        "full-ring stall episodes entered by producers (Block policy)");
    push_timeouts_ = &registry_.counter(
        "she_pipeline_push_timeouts_total",
        "pushes that gave up after push_timeout_ms (BlockTimeout policy)");
    rate_gauge_ = &registry_.gauge(
        "she_pipeline_rate_items_per_sec",
        "drained items/s over the last rate_window_s seconds");
    degraded_gauge_ = &registry_.gauge(
        "she_degraded",
        "1 while the pipeline is read-only after a disk fault");
    disk_faults_ = &registry_.counter(
        "she_pipeline_disk_faults_total",
        "WAL/checkpoint writes that failed with a disk-unhealthy errno");
    if (!opt_.checkpoint_dir.empty())
      std::filesystem::create_directories(opt_.checkpoint_dir);
    shards_.reserve(opt_.shards);
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      std::optional<CheckpointData> ck;
      if (opt_.resume)
        ck = read_newest_checkpoint(checkpoint_path(s), opt_.checkpoint_keep);
      auto sh = ck ? std::make_unique<Shard>(deserialize<Estimator>(
                         ck->payload.data(), ck->payload.size()))
                   : std::make_unique<Shard>(factory(s));
      sh->index = s;
      bind_metrics(*sh, s);
      sh->producer_offsets.assign(opt_.producers, 0);
      if (ck) {
        sh->resume_offset = ck->stream_offset;
        sh->consumed = ck->stream_offset;
        sh->consumed_at_publish = ck->stream_offset;
        sh->last_checkpoint = ck->stream_offset;
        // Version-2 frames record each producer lane's contribution to
        // the stream offset; restore it so post-resume frames stay
        // cumulative.  (Version-1 frames and producer-count changes
        // degrade to zeros / truncation.)
        sh->producer_offsets = ck->producer_offsets;
        sh->producer_offsets.resize(opt_.producers, 0);
      }
      if (opt_.wal_mode != WalMode::kOff) {
        // Scan the backlog log, replay the accepted suffix past the
        // checkpoint into the estimator (in logged order — the WAL lane
        // enqueues in log order for any producer count, so logged order
        // is drain order and the result is byte-identical to the
        // unfaulted run), and open the log for appending with the torn
        // tail truncated.  The checkpoint offset identifies an exact log
        // prefix because a batch is only logged once ring space for it
        // is reserved: sheds happen before the append, and a frame past
        // the checkpoint is always un-applied in its entirety beyond
        // `consumed`.
        WalScan scan = read_wal(wal_path(s));
        if (opt_.resume) {
          if (scan.end_offset > sh->consumed) {
            replay_log(*sh, scan, sh->consumed, scan.end_offset);
            // WAL-mode items all drain through lane 0 (the WAL lane).
            sh->producer_offsets[0] += scan.end_offset - sh->consumed;
            sh->resume_offset = scan.end_offset;
            sh->consumed = scan.end_offset;
            sh->consumed_at_publish = scan.end_offset;
          }
          // If the checkpoint is ahead of the log (log file lost or
          // fully compacted away), new frames must still start at the
          // checkpoint offset — an append below `consumed` would be
          // skipped as "already checkpointed" at the next resume.
          scan.end_offset = std::max(scan.end_offset, sh->consumed);
        } else {
          // A fresh (non-resuming) pipeline must not append after stale
          // frames from an earlier life of this directory.
          std::error_code ec;
          std::filesystem::remove(wal_path(s), ec);
        }
        ShardWal::Options wopt;
        wopt.mode = opt_.wal_mode;
        wopt.fsync_interval_bytes = opt_.wal_fsync_bytes;
        wopt.compact_min_bytes = opt_.wal_compact_bytes;
        wopt.hooks.torn = [s](std::uint64_t seq, std::size_t frame_bytes) {
          return fault::maybe_torn_wal(s, seq, frame_bytes, kWalHeaderBytes);
        };
        wopt.hooks.fail_fsync = [s](std::uint64_t seq) {
          return fault::maybe_fail_fsync(s, seq);
        };
        wopt.hooks.fail_errno = [s](std::uint64_t seq) {
          return fault::maybe_disk_errno(s, seq);
        };
        if (opt_.wal_observer) {
          auto cb = opt_.wal_observer;
          wopt.observer = [cb, s](const WalFrame& f,
                                  std::span<const char> encoded) {
            cb(s, f, encoded);
          };
        }
        sh->wal = std::make_unique<ShardWal>(wal_path(s), std::move(wopt),
                                             opt_.resume ? scan : WalScan{});
        // Seed the generation history conservatively: checkpoint files
        // from before this restart may still be retained with offsets we
        // no longer know, so compaction must not pass the resume base
        // until `checkpoint_keep` fresh generations have rotated them out.
        sh->ckpt_history.assign(opt_.checkpoint_keep, sh->last_checkpoint);
      }
      sh->snap = std::make_shared<const Estimator>(sh->est);
      sh->rings.reserve(opt_.producers);
      for (std::size_t p = 0; p < opt_.producers; ++p)
        sh->rings.push_back(std::make_unique<SpscRing>(opt_.queue_capacity));
      shards_.push_back(std::move(sh));
    }
    produced_.reserve(opt_.producers);
    for (std::size_t p = 0; p < opt_.producers; ++p)
      produced_.push_back(&registry_.counter(
          "she_pipeline_produced_total", "accepted pushes per producer",
          {{"producer", std::to_string(p)}}));
    start_ns_.store(now_ns(), std::memory_order_relaxed);
  }

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  ~IngestPipeline() { close(); }

  [[nodiscard]] const PipelineOptions& options() const { return opt_; }
  [[nodiscard]] std::size_t shard_count() const { return opt_.shards; }

  /// Same routing as Sharded<T> with the same seed.
  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const {
    return static_cast<std::size_t>(hash64(key, opt_.route_seed) % opt_.shards);
  }

  /// Items shard `s`'s estimator already contained when this pipeline was
  /// constructed with `resume` (0 otherwise): a single-producer driver
  /// replaying the original trace should skip the first resume_offset(s)
  /// keys that route to shard s to reproduce the unfaulted run exactly.
  [[nodiscard]] std::uint64_t resume_offset(std::size_t s) const {
    return shards_[s]->resume_offset;
  }

  /// True once any shard worker died for good: by exception without
  /// supervision, or past kMaxRestarts recoveries.  Any thread.
  [[nodiscard]] bool faulted() const {
    for (const auto& sh : shards_)
      if (shard_dead(*sh)) return true;
    return false;
  }

  /// True while the pipeline is parked read-only after a disk fault
  /// (pushes throw DegradedError; queries and snapshots keep working).
  /// Any thread.
  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Launch one worker thread per shard (plus the queue-depth sampler when
  /// configured).
  void start() {
    if (started_.load(std::memory_order_relaxed))
      throw std::logic_error("IngestPipeline: already started");
    if (closed_.load(std::memory_order_relaxed))
      throw std::logic_error("IngestPipeline: already closed");
    started_.store(true, std::memory_order_relaxed);
    start_ns_.store(now_ns(), std::memory_order_relaxed);
    workers_.reserve(opt_.shards);
    for (std::size_t s = 0; s < opt_.shards; ++s)
      workers_.emplace_back([this, s] { worker_entry(s); });
    if (opt_.sample_interval_ms > 0)
      sampler_ = std::thread([this] { sampler_loop(); });
  }

  /// Route one key from producer `producer` to its shard's ring.
  /// Returns false iff the item was not accepted: DropNewest and the ring
  /// is full, a BlockTimeout push that timed out, a Block push against a
  /// dead shard (see faulted()), or the pipeline is closing.
  bool push(std::size_t producer, std::uint64_t key) {
    check_degraded();
    if (opt_.wal_mode != WalMode::kOff) {
      // Every accepted item must be logged, or the WAL's offsets stop
      // matching the checkpoint's consumed counts.
      return push_bulk(producer, std::span<const std::uint64_t>(&key, 1)) == 1;
    }
    return push_impl(producer, key, 0);
  }

 private:
  struct Shard;  // defined below; referenced by the push helpers' signatures

  /// The enqueue core.  `deadline_ns` (absolute, steady-clock ns; 0 =
  /// none) bounds any blocking spin on top of the configured policy —
  /// the server threads its per-request deadline through here so an
  /// overloaded or wedged shard sheds the push instead of wedging the
  /// handler thread.
  bool push_impl(std::size_t producer, std::uint64_t key,
                 std::int64_t deadline_ns) {
    thread_local std::uint64_t push_seq = 0;
    const bool timed = obs::enabled() && ((++push_seq & 63u) == 0);
    const std::int64_t t0 = timed ? now_ns() : 0;
    Shard& sh = *shards_[shard_of(key)];
    SpscRing& ring = *sh.rings[producer];
    if (!accepting_.load(std::memory_order_acquire)) return false;
    if (!ring.try_push(key)) {
      if (opt_.policy == Backpressure::kDropNewest) {
        sh.dropped->inc();
        return false;
      }
      const std::int64_t stall_start = now_ns();
      stall_events_->inc();  // one episode, however long the spin lasts
      std::int64_t deadline =
          opt_.policy == Backpressure::kBlockTimeout
              ? stall_start +
                    static_cast<std::int64_t>(opt_.push_timeout_ms) * 1'000'000
              : std::numeric_limits<std::int64_t>::max();
      if (deadline_ns != 0) deadline = std::min(deadline, deadline_ns);
      const auto charge_stall = [&] {
        stall_ns_->inc(static_cast<std::uint64_t>(now_ns() - stall_start));
      };
      std::int64_t backoff_us = 0;
      for (;;) {
        if (!accepting_.load(std::memory_order_acquire)) {
          charge_stall();
          return false;
        }
        if (shard_dead(sh)) {
          // Nobody will ever drain this ring: fail instead of spinning
          // forever behind a dead consumer.
          sh.dropped->inc();
          charge_stall();
          return false;
        }
        if (now_ns() >= deadline) {
          push_timeouts_->inc();
          charge_stall();
          return false;
        }
        if (backoff_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
          backoff_us = std::min<std::int64_t>(backoff_us * 2, 1000);
        } else {
          std::this_thread::yield();
          // Exponential backoff only under BlockTimeout: plain Block keeps
          // the latency-optimal pure spin-yield.
          if (opt_.policy == Backpressure::kBlockTimeout) backoff_us = 1;
        }
        if (ring.try_push(key)) break;
      }
      charge_stall();
    }
    // Traced request?  Leave the id on the shard so the drain worker can
    // attribute the next sweep to it (one relaxed store; see worker_loop).
    if (obs::trace::enabled()) {
      const std::uint64_t trace_id = obs::trace::current_trace_id();
      if (trace_id != 0)
        sh.last_trace_id.store(trace_id, std::memory_order_relaxed);
    }
    produced_[producer]->inc();
    if (timed)
      push_hist_->observe(static_cast<std::uint64_t>(now_ns() - t0));
    return true;
  }

  /// Wait until `ring` (the shard's WAL lane) has at least `want` free
  /// slots.  Returns true when the space is there — or when the shard
  /// went terminally dead mid-wait, which the caller re-checks and routes
  /// to the durable-only path.  Returns false when the batch must be
  /// shed: pipeline closing, request deadline passed, or BlockTimeout
  /// expiry.  The free-space count is exact from the producer side: the
  /// caller holds the shard's wal_mu (sole producer on this ring) and the
  /// consumer only ever frees slots.
  bool wait_ring_space(Shard& sh, SpscRing& ring, std::size_t want,
                       std::int64_t deadline_ns) {
    const auto free_now = [&ring] {
      return ring.capacity() - ring.size_approx();
    };
    if (free_now() >= want) return true;
    const std::int64_t stall_start = now_ns();
    stall_events_->inc();
    std::int64_t deadline =
        opt_.policy == Backpressure::kBlockTimeout
            ? stall_start +
                  static_cast<std::int64_t>(opt_.push_timeout_ms) * 1'000'000
            : std::numeric_limits<std::int64_t>::max();
    if (deadline_ns != 0) deadline = std::min(deadline, deadline_ns);
    bool ok = true;
    std::int64_t backoff_us = 0;
    for (;;) {
      if (!accepting_.load(std::memory_order_acquire)) {
        ok = false;
        break;
      }
      if (shard_dead(sh)) break;
      if (free_now() >= want) break;
      if (now_ns() >= deadline) {
        push_timeouts_->inc();
        ok = false;
        break;
      }
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        backoff_us = std::min<std::int64_t>(backoff_us * 2, 1000);
      } else {
        std::this_thread::yield();
        if (opt_.policy == Backpressure::kBlockTimeout || deadline_ns != 0)
          backoff_us = 1;
      }
    }
    stall_ns_->inc(static_cast<std::uint64_t>(now_ns() - stall_start));
    return ok;
  }

  /// The WAL lane: commit one per-shard sub-batch atomically — dedup
  /// check, ring-space admission, log append, enqueue — under the shard's
  /// wal_mu.  All WAL-mode enqueues go through ring 0 in log-append order
  /// regardless of `producer`, so drain order equals log order and the
  /// checkpoint's drained-item count identifies the exact log prefix it
  /// covers.  Returns g.size() when the batch is durable (acked) or a
  /// known duplicate, 0 when it was shed with nothing logged and nothing
  /// recorded (a retry is clean); a WalError from the append propagates
  /// with nothing acked.
  std::size_t wal_push(std::size_t producer, Shard& sh,
                       std::span<const std::uint64_t> g,
                       std::uint64_t client_id, std::uint64_t client_seq,
                       std::int64_t deadline_ns) {
    std::lock_guard<std::mutex> lk(sh.wal_mu);
    if (!accepting_.load(std::memory_order_acquire)) return 0;
    if (client_id != 0 &&
        client_seq <= sh.wal->seq_table().high(client_id)) {
      // Duplicate of an already-applied delivery: ack without waiting on
      // ring space — the retry must not block behind a full ring.
      sh.wal_dups->inc(g.size());
      return g.size();
    }
    SpscRing& ring = *sh.rings[0];
    if (!shard_dead(sh)) {
      // Admission before durability: reserve ring space for the whole
      // batch (capped at the ring's capacity for oversize batches) so a
      // request deadline or BlockTimeout expiry sheds it *before*
      // anything reaches the log.  A logged batch is therefore never
      // abandoned mid-log, which is what keeps checkpoint offsets
      // aligned with log positions.
      if (!wait_ring_space(sh, ring, std::min(g.size(), ring.capacity()),
                           deadline_ns))
        return 0;
    }
    bool logged = false;
    try {
      logged = sh.wal->append(g, client_id, client_seq);
    } catch (const DiskFault& e) {
      // The disk under the log is sick (ENOSPC/EIO): park the pipeline
      // read-only and tell the caller with the typed error.  Nothing was
      // acked and nothing reached the ring, so a post-recovery retry is
      // clean and deduplicated.
      enter_degraded(e.what());
      throw DegradedError(e.what());
    }
    if (!logged) {
      sh.wal_dups->inc(g.size());
      return g.size();  // the earlier delivery already covered it
    }
    if (!shard_dead(sh)) {
      // Committed: enqueue the whole batch in log order.  Space for
      // min(size, capacity) items is already reserved; an oversize tail
      // rides the live drain.  Only terminal shard death aborts the
      // loop, and then the logged tail surfaces, in order, at the next
      // resume — a dead shard never drains or checkpoints again, so no
      // later batch can be applied *behind* it.
      std::size_t i = 0;
      while (i < g.size()) {
        if (ring.try_push(g[i])) {
          ++i;
          continue;
        }
        if (shard_dead(sh)) break;
        std::this_thread::yield();
      }
      if (obs::trace::enabled()) {
        const std::uint64_t trace_id = obs::trace::current_trace_id();
        if (trace_id != 0)
          sh.last_trace_id.store(trace_id, std::memory_order_relaxed);
      }
    }
    produced_[producer]->inc(g.size());
    return g.size();
  }

 public:
  /// push() each key in order; returns how many were accepted.
  std::size_t push_bulk(std::size_t producer,
                        std::span<const std::uint64_t> keys) {
    return push_bulk(producer, keys, 0, 0, 0);
  }

  /// push_bulk with a client identity and an optional absolute deadline.
  ///
  /// Keys are grouped per shard (preserving arrival order within each
  /// shard); with the log configured each non-empty sub-batch commits
  /// through the shard's WAL lane (see wal_push): all-or-nothing — either
  /// the whole sub-batch is logged and enqueued in log order (counted
  /// accepted), or it is shed before anything reaches the log (counted
  /// rejected, retry is clean).  A sub-batch whose (client_id,
  /// client_seq) was already applied to that shard — a client replaying
  /// after a lost ack — is skipped and counted as accepted: the earlier
  /// delivery covered it, so the replay is exactly-once per shard.
  /// client_id 0 means "no identity" (no dedup).
  ///
  /// `deadline_ns` (steady-clock absolute, 0 = none) bounds blocking:
  /// past it, remaining sub-batches fail fast instead of wedging the
  /// caller.  Only a terminally dead shard still accepts a sub-batch
  /// into the log without enqueueing it (*durable but not yet live*);
  /// its items surface at the next resume, in order, and are counted
  /// accepted here because they are part of the recoverable stream.
  std::size_t push_bulk(std::size_t producer,
                        std::span<const std::uint64_t> keys,
                        std::uint64_t client_id, std::uint64_t client_seq,
                        std::int64_t deadline_ns = 0) {
    SHE_TRACE_SPAN("pipeline.push_bulk", "pipeline");
    check_degraded();
    if (opt_.wal_mode == WalMode::kOff && client_id == 0) {
      std::size_t accepted = 0;
      for (std::uint64_t k : keys)
        accepted += push_impl(producer, k, deadline_ns) ? 1 : 0;
      return accepted;
    }
    // Group per shard, preserving order.  thread_local scratch: bulk
    // callers are long-lived handler threads.
    thread_local std::vector<std::vector<std::uint64_t>> groups;
    groups.resize(opt_.shards);
    for (auto& g : groups) g.clear();
    for (std::uint64_t k : keys) groups[shard_of(k)].push_back(k);
    std::size_t accepted = 0;
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      const std::vector<std::uint64_t>& g = groups[s];
      if (g.empty()) continue;
      Shard& sh = *shards_[s];
      if (sh.wal != nullptr) {
        accepted += wal_push(producer, sh, g, client_id, client_seq,
                             deadline_ns);
        continue;
      }
      if (!sh.seqs.record(client_id, client_seq)) {
        sh.wal_dups->inc(g.size());
        accepted += g.size();  // the earlier delivery already covered it
        continue;
      }
      for (std::uint64_t k : g)
        accepted += push_impl(producer, k, deadline_ns) ? 1 : 0;
    }
    return accepted;
  }

  /// Stop accepting, drain every ring, publish final snapshots (and final
  /// checkpoints when configured), join workers.  Idempotent.  If start()
  /// was never called the queues are drained inline on the calling thread.
  void close() {
    if (closed_.load(std::memory_order_relaxed)) return;
    accepting_.store(false, std::memory_order_release);
    stopping_.store(true, std::memory_order_release);
    if (started_.load(std::memory_order_relaxed)) {
      for (auto& t : workers_)
        if (t.joinable()) t.join();
      workers_.clear();
      if (sampler_.joinable()) sampler_.join();
    } else {
      for (std::size_t s = 0; s < opt_.shards; ++s) worker_entry(s);
    }
    closed_.store(true, std::memory_order_relaxed);
    stop_ns_.store(now_ns(), std::memory_order_relaxed);
  }

  /// Drain-then-publish barrier: ask every live shard worker to finish
  /// draining its rings into a published snapshot, and — with
  /// `with_checkpoint` and a configured checkpoint_dir — write a durable
  /// frame, then wait for the acknowledgements.  This is what a serving
  /// front-end's FLUSH (make earlier accepted inserts visible to
  /// snapshot queries) and SAVE (checkpoint now, not at the next
  /// interval) commands ride on.
  ///
  /// Returns true when every shard acked within `timeout_ms`; false on
  /// timeout or when a shard is dead.  Workers ack only from their idle
  /// branch (rings momentarily empty), so under relentless concurrent
  /// ingest the barrier is best-effort and bounded by the timeout.  Any
  /// thread may call this; on a closed (or never-started) pipeline the
  /// final state is already published and checkpointed, so it returns
  /// true immediately.
  bool sync(bool with_checkpoint, std::size_t timeout_ms = 5000) {
    if (closed_.load(std::memory_order_acquire)) return true;
    if (!started_.load(std::memory_order_relaxed)) {
      // No workers yet: the construction-time snapshots are current.
      return true;
    }
    std::vector<std::uint64_t> want(opt_.shards);
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      Shard& sh = *shards_[s];
      if (with_checkpoint && !opt_.checkpoint_dir.empty())
        sh.sync_ckpt.store(true, std::memory_order_relaxed);
      want[s] = sh.sync_req.fetch_add(1, std::memory_order_acq_rel) + 1;
    }
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
    bool ok = true;
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      Shard& sh = *shards_[s];
      while (sh.sync_ack.load(std::memory_order_acquire) < want[s]) {
        if (closed_.load(std::memory_order_acquire)) return true;
        if (shard_dead(sh)) {  // nobody will ever ack this shard
          ok = false;
          break;
        }
        if (now_ns() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return ok;
  }

  /// Shard `s`'s latest published estimator: an immutable copy that
  /// stays valid, unchanged, for as long as the caller holds it, however
  /// many publishes follow.  Callable from any thread at any time.
  [[nodiscard]] std::shared_ptr<const Estimator> published(
      std::size_t s) const {
    const Shard& sh = *shards_[s];
    std::lock_guard<std::mutex> lk(sh.snap_mu);
    return sh.snap;
  }

  /// A private, mutable copy of published(s).
  [[nodiscard]] Estimator snapshot(std::size_t s) const {
    return *published(s);
  }

  /// The pipeline's private metric registry (always on); export it with
  /// obs::write_prometheus / obs::write_json, typically alongside
  /// obs::default_registry().
  [[nodiscard]] const obs::Registry& metrics_registry() const {
    return registry_;
  }

  /// Plain-struct view over the registry counters (see RuntimeStats).
  [[nodiscard]] RuntimeStats stats() const {
    RuntimeStats st;
    st.shards = opt_.shards;
    st.producers = opt_.producers;
    st.per_shard.reserve(opt_.shards);
    for (const auto& sh : shards_) {
      ShardStats ss;
      ss.inserted = sh->inserted->value();
      ss.dropped = sh->dropped->value();
      ss.drains = sh->drains->value();
      ss.publishes = sh->publishes->value();
      ss.queue_hwm = static_cast<std::uint64_t>(sh->queue_hwm->value());
      ss.restarts = sh->restarts->value();
      ss.faults = sh->faults->value();
      ss.lost = sh->lost->value();
      ss.replayed = sh->replayed->value();
      ss.checkpoints = sh->checkpoints->value();
      st.inserted += ss.inserted;
      st.dropped += ss.dropped;
      st.drains += ss.drains;
      st.publishes += ss.publishes;
      st.queue_hwm = std::max(st.queue_hwm, ss.queue_hwm);
      st.worker_restarts += ss.restarts;
      st.worker_faults += ss.faults;
      st.worker_wedged += sh->wedged->value();
      st.items_lost += ss.lost;
      st.items_replayed += ss.replayed;
      st.checkpoints += ss.checkpoints;
      st.per_shard.push_back(ss);
    }
    for (const obs::Counter* c : produced_) st.produced += c->value();
    st.stall_ns = stall_ns_->value();
    st.stall_events = stall_events_->value();
    st.push_timeouts = push_timeouts_->value();
    const std::int64_t start = start_ns_.load(std::memory_order_relaxed);
    const std::int64_t stop = closed_.load(std::memory_order_relaxed)
                                  ? stop_ns_.load(std::memory_order_relaxed)
                                  : now_ns();
    st.set_rate(static_cast<double>(stop - start) / 1e9);
    st.rate_window_s = opt_.rate_window_s;
    st.recent_items_per_sec = sample_rate(st.inserted);
    return st;
  }

 private:
  /// Per-shard cap on in-place recoveries; one more fault kills the shard.
  static constexpr std::size_t kMaxRestarts = 16;

  struct Shard {
    explicit Shard(Estimator e) : est(std::move(e)) {}
    Estimator est;  ///< worker-owned once start() runs
    std::size_t index = 0;
    /// The last published copy of `est`.  Only the worker replaces it, so
    /// the worker reads it without the lock; readers copy the pointer
    /// under snap_mu.
    std::shared_ptr<const Estimator> snap;
    mutable std::mutex snap_mu;
    std::vector<std::unique_ptr<SpscRing>> rings;  ///< one per producer
    std::uint64_t since_publish = 0;     ///< worker-only
    std::uint64_t consumed = 0;          ///< worker-only: items applied
    std::uint64_t consumed_at_publish = 0;  ///< worker-only
    std::uint64_t last_checkpoint = 0;   ///< worker-only: consumed at frame
    std::uint64_t ckpt_ordinal = 0;      ///< worker-only: frames written
    std::uint64_t resume_offset = 0;     ///< fixed at construction
    std::uint64_t hwm_local = 0;         ///< worker-only mirror
    /// Backlog log (wal_mode != kOff).
    std::unique_ptr<ShardWal> wal;
    /// The WAL lane: serializes every WAL-mode sub-batch commit for this
    /// shard (dedup peek, ring-space reservation, append, enqueue on
    /// ring 0) so log-append order equals enqueue order equals drain
    /// order for any number of producers.  See wal_push().
    std::mutex wal_mu;
    /// In-memory idempotence filter when the WAL is off but clients still
    /// send identities (the WAL embeds its own table when on).
    ClientSeqTable seqs;
    /// Worker-only: items each producer lane has contributed to
    /// `consumed` (recorded in version-2 checkpoint frames, restored at
    /// resume).  In WAL mode everything drains through lane 0, so lane 0
    /// carries the whole offset.  After a no-WAL rollback the lanes may
    /// overcount the restored `consumed` — contribution counters, not
    /// exact offsets, on that path.
    std::vector<std::uint64_t> producer_offsets;
    /// Worker-only: offsets of the last `checkpoint_keep` checkpoint
    /// frames, oldest first.  The WAL compaction low-water is the *oldest*
    /// retained generation — resume may fall back past a corrupt newest
    /// frame, and that older base still needs its replay suffix.
    std::vector<std::uint64_t> ckpt_history;
    /// Set once the worker gave up for good; nothing drains this shard
    /// again.
    std::atomic<bool> dead{false};
    /// Worker progress stamp, read by the sampler's wedge check.
    std::atomic<std::int64_t> heartbeat_ns{0};
    bool wedged_episode = false;  ///< sampler-only: heartbeat seen stale
    // Sync handshake (see sync()): a caller bumps sync_req; the worker
    // acks after its rings drained and a fresh snapshot (and, when
    // sync_ckpt was set, a durable frame) was published.
    std::atomic<std::uint64_t> sync_req{0};
    std::atomic<std::uint64_t> sync_ack{0};
    std::atomic<bool> sync_ckpt{false};
    /// Trace id of the most recent traced push routed here; the worker
    /// adopts (and clears) it at the start of a drain sweep so drain /
    /// publish / checkpoint spans carry the requester's id.
    std::atomic<std::uint64_t> last_trace_id{0};
    // Registry-owned metrics (see bind_metrics); plain pointers, the
    // registry outlives the shards.
    obs::Counter* inserted = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* drains = nullptr;
    obs::Counter* publishes = nullptr;
    obs::Counter* restarts = nullptr;
    obs::Counter* faults = nullptr;
    obs::Counter* wedged = nullptr;
    obs::Counter* lost = nullptr;
    obs::Counter* replayed = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* wal_replayed = nullptr;
    obs::Counter* wal_dups = nullptr;
    obs::Gauge* queue_hwm = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  void bind_metrics(Shard& sh, std::size_t s) {
    const obs::Labels shard_label = {{"shard", std::to_string(s)}};
    sh.inserted = &registry_.counter("she_pipeline_inserted_total",
                                     "items drained into the estimator",
                                     shard_label);
    sh.dropped = &registry_.counter(
        "she_pipeline_dropped_total",
        "pushes rejected (DropNewest full ring, or dead-shard abort)",
        shard_label);
    sh.drains = &registry_.counter("she_pipeline_drains_total",
                                   "non-empty drain sweeps", shard_label);
    sh.publishes = &registry_.counter("she_pipeline_publishes_total",
                                      "snapshot publications", shard_label);
    sh.restarts = &registry_.counter("she_pipeline_worker_restarts_total",
                                     "supervised in-place worker recoveries",
                                     shard_label);
    sh.faults = &registry_.counter("she_pipeline_worker_faults_total",
                                   "worker threads died by exception",
                                   shard_label);
    sh.wedged = &registry_.counter(
        "she_pipeline_worker_wedged_total",
        "heartbeat-stale episodes detected by the sampler", shard_label);
    sh.lost = &registry_.counter(
        "she_pipeline_items_lost_total",
        "items rolled back to the last published snapshot at a recovery",
        shard_label);
    sh.replayed = &registry_.counter(
        "she_pipeline_items_replayed_total",
        "ring backlog re-drained by a recovered worker", shard_label);
    sh.checkpoints = &registry_.counter("she_pipeline_checkpoints_total",
                                        "durable checkpoint frames written",
                                        shard_label);
    sh.wal_replayed = &registry_.counter(
        "she_pipeline_wal_replayed_total",
        "items re-inserted from the backlog log at resume", shard_label);
    sh.wal_dups = &registry_.counter(
        "she_pipeline_wal_duplicates_total",
        "keys skipped as already-applied client replays", shard_label);
    sh.queue_hwm = &registry_.gauge("she_pipeline_queue_hwm",
                                    "deepest single ring observed",
                                    shard_label);
    sh.queue_depth = &registry_.gauge(
        "she_pipeline_queue_depth",
        "queued items across the shard's rings (sweep/sampler refreshed)",
        shard_label);
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  [[nodiscard]] std::string checkpoint_path(std::size_t s) const {
    return opt_.checkpoint_dir + "/shard-" + std::to_string(s) + ".ckpt";
  }

  [[nodiscard]] std::string wal_path(std::size_t s) const {
    return opt_.checkpoint_dir + "/shard-" + std::to_string(s) + ".wal";
  }

  /// A shard whose ring will never drain again.
  [[nodiscard]] static bool shard_dead(const Shard& sh) {
    return sh.dead.load(std::memory_order_acquire);
  }

  void publish(Shard& sh) {
    SHE_TRACE_SPAN("pipeline.publish", "pipeline");
    const std::int64_t t0 = now_ns();
    auto fresh = std::make_shared<const Estimator>(sh.est);
    {
      std::lock_guard<std::mutex> lk(sh.snap_mu);
      sh.snap.swap(fresh);
    }
    fresh.reset();  // the old copy, freed here unless a reader still holds it
    publish_hist_->observe(static_cast<std::uint64_t>(now_ns() - t0));
    sh.publishes->inc();
    sh.since_publish = 0;
    sh.consumed_at_publish = sh.consumed;
    if (!opt_.checkpoint_dir.empty() &&
        sh.consumed_at_publish - sh.last_checkpoint >= opt_.checkpoint_interval)
      write_checkpoint(sh);
  }

  /// Frame the image of the just-published copy and atomically replace
  /// the shard's checkpoint file.  Runs on the worker thread; the
  /// injection hook may corrupt the frame on purpose.
  void write_checkpoint(Shard& sh) {
    SHE_TRACE_SPAN("pipeline.checkpoint", "pipeline");
    if (degraded_.load(std::memory_order_acquire))
      return;  // disk is sick: keep the previous generation until recovery
    const std::int64_t t0 = now_ns();
    std::vector<char> image;
    serialize_to(image, *sh.snap);
    std::vector<char> frame = frame_checkpoint(
        sh.consumed_at_publish,
        std::span<const std::uint64_t>(sh.producer_offsets.data(),
                                       sh.producer_offsets.size()),
        std::span<const char>(image.data(), image.size()));
    fault::maybe_corrupt_frame(sh.index, sh.ckpt_ordinal, frame);
    try {
      if (fault::maybe_ckpt_eio(sh.index, sh.ckpt_ordinal))
        throw DiskFault(
            "checkpoint: injected EIO on " + checkpoint_path(sh.index), EIO);
      rotate_checkpoints(checkpoint_path(sh.index), opt_.checkpoint_keep);
      write_file_atomic(checkpoint_path(sh.index),
                        std::span<const char>(frame.data(), frame.size()));
    } catch (const DiskFault& e) {
      // Survivable: the previous generation stays in place and the
      // pipeline parks read-only instead of killing the worker.
      enter_degraded(e.what());
      return;
    }
    ++sh.ckpt_ordinal;
    sh.checkpoints->inc();
    sh.last_checkpoint = sh.consumed_at_publish;
    if (sh.wal != nullptr) {
      // A durable checkpoint retires the WAL frames below the *oldest*
      // generation rotate_checkpoints still keeps: resume may fall back
      // that far past corrupt newer frames, and replays forward from it.
      sh.ckpt_history.push_back(sh.consumed_at_publish);
      while (sh.ckpt_history.size() > opt_.checkpoint_keep)
        sh.ckpt_history.erase(sh.ckpt_history.begin());
      try {
        sh.wal->compact(sh.ckpt_history.front());
      } catch (const WalError&) {
        // Compaction is an optimization; a failed rewrite leaves the old
        // (longer but valid) log in place and retries next checkpoint.
      }
    }
    checkpoint_hist_->observe(static_cast<std::uint64_t>(now_ns() - t0));
  }

  /// Park the pipeline read-only after a survivable disk fault.  Any
  /// thread (push callers and shard workers both land here).
  void enter_degraded(const std::string& why) {
    disk_faults_->inc();
    {
      std::lock_guard<std::mutex> lk(degraded_mu_);
      degraded_msg_ = why;
    }
    // Start the probe clock now so the first recovery attempt waits a
    // full interval — the fault is fresh, the disk almost certainly
    // still sick.
    last_probe_ns_.store(now_ns(), std::memory_order_relaxed);
    degraded_gauge_->set(1);
    degraded_.store(true, std::memory_order_release);
  }

  /// Push-path gate: fail fast with the typed error while degraded,
  /// running at most one disk-recovery probe per degraded_probe_ms.
  void check_degraded() {
    if (!degraded_.load(std::memory_order_acquire)) return;
    if (try_recover()) return;
    std::lock_guard<std::mutex> lk(degraded_mu_);
    throw DegradedError("pipeline degraded (read-only): " + degraded_msg_);
  }

  /// One caller per probe interval actually touches the disk: a tiny
  /// durable write-and-remove in the checkpoint directory — the same
  /// filesystem the WAL and checkpoint writers need.  Returns true when
  /// this call cleared degraded mode.
  bool try_recover() {
    const std::int64_t interval =
        static_cast<std::int64_t>(opt_.degraded_probe_ms) * 1'000'000;
    std::int64_t last = last_probe_ns_.load(std::memory_order_relaxed);
    const std::int64_t now = now_ns();
    if (now - last < interval) return false;
    if (!last_probe_ns_.compare_exchange_strong(last, now,
                                                std::memory_order_relaxed))
      return false;  // another pusher won this probe slot
    try {
      const std::string probe = opt_.checkpoint_dir + "/.probe";
      static constexpr char kProbe[] = {'o', 'k'};
      write_file_atomic(probe, std::span<const char>(kProbe, sizeof kProbe));
      std::error_code ec;
      std::filesystem::remove(probe, ec);
    } catch (const std::exception&) {
      return false;  // still sick; next probe after the interval
    }
    degraded_gauge_->set(0);
    degraded_.store(false, std::memory_order_release);
    return true;
  }

  /// Run shard `si`'s drain loop until close().  A fault (any exception
  /// out of the loop) is recovered in place when supervised, up to
  /// kMaxRestarts times; otherwise the shard is dead from then on.
  void worker_entry(std::size_t si) {
    Shard& sh = *shards_[si];
    for (std::size_t recoveries = 0;; ++recoveries) {
      try {
        if (recoveries > 0) recover(sh);
        worker_loop(si);
        return;
      } catch (const std::exception&) {
        sh.faults->inc();
        if (!opt_.supervise || recoveries == kMaxRestarts) {
          sh.dead.store(true, std::memory_order_release);
          return;
        }
      }
    }
  }

  /// In-place recovery on the worker thread.  The live estimator may be
  /// mid-batch garbage, so copy the shard's last published estimator back
  /// into it, then bring it back up to `consumed` from the log — or,
  /// without one, count the rolled-back items lost and rewind.  The ring
  /// backlog the worker re-drains next is counted replayed.
  void recover(Shard& sh) {
    std::uint64_t backlog = 0;
    for (const auto& r : sh.rings) backlog += r->size_approx();
    sh.est = *sh.snap;
    if (sh.wal != nullptr) {
      // Every consumed item was logged before it was enqueued, and its
      // append has long returned, so the range is in the file.
      replay_log(sh, read_wal(wal_path(sh.index)), sh.consumed_at_publish,
                 sh.consumed);
    } else {
      sh.lost->inc(sh.consumed - sh.consumed_at_publish);
      sh.consumed = sh.consumed_at_publish;
    }
    sh.since_publish = sh.consumed - sh.consumed_at_publish;
    sh.replayed->inc(backlog);
    sh.restarts->inc();
  }

  /// Apply the logged items in [from, to) to the shard's estimator in log
  /// order: resume replays to the end of the log, recovery up to
  /// `consumed`.  Items the log does not hold (a gap between frames, or a
  /// log that ends short of `to`) are skipped and counted lost.
  void replay_log(Shard& sh, const WalScan& scan, std::uint64_t from,
                  std::uint64_t to) {
    std::uint64_t pos = from;
    for (const WalFrame& f : scan.frames) {
      if (f.end_offset() <= pos) continue;  // already applied
      if (f.start_offset >= to) break;
      if (f.start_offset > pos) {
        sh.lost->inc(f.start_offset - pos);
        pos = f.start_offset;
      }
      const std::vector<std::uint64_t> keys = f.keys();
      const std::uint64_t end = std::min(f.end_offset(), to);
      apply(sh.est, std::span<const std::uint64_t>(keys).subspan(
                        static_cast<std::size_t>(pos - f.start_offset),
                        static_cast<std::size_t>(end - pos)));
      sh.wal_replayed->inc(end - pos);
      pos = end;
    }
    if (pos < to) sh.lost->inc(to - pos);
  }

  /// Insert `keys` in order, batched when the estimator can.
  static void apply(Estimator& est, std::span<const std::uint64_t> keys) {
    if constexpr (requires { est.insert_batch(keys); })
      est.insert_batch(keys);  // pipelined hash-ahead + prefetch
    else
      for (std::uint64_t k : keys) est.insert(k);
  }

  void worker_loop(std::size_t si) {
    Shard& sh = *shards_[si];
    std::vector<std::uint64_t> buf(opt_.drain_batch);
    for (;;) {
      const std::int64_t sweep_start = now_ns();
      // Adopt (and clear) the id of the most recent traced push routed to
      // this shard, so this sweep's drain/publish/checkpoint spans carry
      // it across the producer → worker thread hop.
      const bool tracing = obs::trace::enabled();
      obs::trace::TraceIdScope trace_scope(
          tracing ? sh.last_trace_id.exchange(0, std::memory_order_relaxed)
                  : 0);
      const std::uint64_t sweep_ticks =
          tracing ? obs::trace::now_ticks() : 0;
      std::size_t got = 0;
      std::size_t depth_total = 0;
      for (std::size_t p = 0; p < sh.rings.size(); ++p) {
        SpscRing& ring = *sh.rings[p];
        const std::size_t depth = ring.size_approx();
        depth_total += depth;
        if (depth > sh.hwm_local) {
          sh.hwm_local = depth;
          sh.queue_hwm->max_of(static_cast<std::int64_t>(depth));
        }
        for (;;) {
          // Before every block, not once per sweep: a sweep lasts as long
          // as producers keep up, and the heartbeat, an armed fault and
          // the publish interval must all track the item count within it.
          sh.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
          fault::maybe_stall(si, sh.consumed);
          fault::maybe_throw(si, sh.consumed);
          const std::size_t n = ring.drain(buf.data(), buf.size());
          if (n == 0) break;
          // Consumed the moment it leaves the ring: a throw while applying
          // it leaves recovery to replay (or count lost) this block too.
          sh.consumed += n;
          sh.since_publish += n;
          sh.producer_offsets[p] += n;
          got += n;
          {
            SHE_TRACE_SPAN("estimator.insert_batch", "estimator");
            apply(sh.est, std::span<const std::uint64_t>(buf.data(), n));
          }
          sh.inserted->inc(n);
          if (sh.since_publish >= opt_.publish_interval) publish(sh);
          if (n < buf.size()) break;  // ring (momentarily) empty; next ring
        }
      }
      sh.queue_depth->set(static_cast<std::int64_t>(depth_total));
      if (got > 0) {
        drain_hist_->observe(static_cast<std::uint64_t>(now_ns() - sweep_start));
        if (tracing)
          obs::trace::record("pipeline.drain", "pipeline", sweep_ticks,
                             obs::trace::now_ticks(),
                             obs::trace::current_trace_id());
        sh.drains->inc();
        continue;
      }
      // Idle: surface whatever arrived since the last publish so readers
      // see a fresh snapshot even in quiet periods.
      if (sh.since_publish > 0) publish(sh);
      // sync() barrier: rings are momentarily empty and the publish above
      // covers every applied item, so ack.
      const std::uint64_t syncreq = sh.sync_req.load(std::memory_order_acquire);
      if (syncreq != sh.sync_ack.load(std::memory_order_relaxed)) {
        // The empty-rings observation above predates this acquire load, so
        // it may have missed pushes made just before the sync() call.  The
        // acquire makes those pushes visible; re-check and re-drain before
        // acking, or the barrier acks a snapshot missing items it promised
        // to cover.
        if (!rings_empty(sh)) continue;
        if (sh.sync_ckpt.exchange(false, std::memory_order_acq_rel) &&
            !opt_.checkpoint_dir.empty())
          write_checkpoint(sh);
        sh.sync_ack.store(syncreq, std::memory_order_release);
      }
      if (stopping_.load(std::memory_order_acquire) && rings_empty(sh)) break;
      std::this_thread::yield();
    }
    publish(sh);  // final state, unconditionally
    if (!opt_.checkpoint_dir.empty() &&
        sh.consumed_at_publish != sh.last_checkpoint)
      write_checkpoint(sh);
  }

  /// Periodically refresh the queue-depth gauges (and high-water marks) so
  /// scrapes see backlog even when a worker is wedged inside a long drain,
  /// feed the windowed-rate view, and, when supervised, count each episode
  /// of a live worker's heartbeat going stale as one wedge.
  void sampler_loop() {
    const auto interval = std::chrono::milliseconds(opt_.sample_interval_ms);
    const std::int64_t heartbeat_timeout_ns =
        static_cast<std::int64_t>(opt_.heartbeat_timeout_ms) * 1'000'000;
    while (!stopping_.load(std::memory_order_acquire)) {
      std::uint64_t inserted_total = 0;
      for (const auto& sh : shards_) {
        std::size_t depth_total = 0;
        std::size_t deepest = 0;
        for (const auto& r : sh->rings) {
          const std::size_t d = r->size_approx();
          depth_total += d;
          deepest = std::max(deepest, d);
        }
        sh->queue_depth->set(static_cast<std::int64_t>(depth_total));
        sh->queue_hwm->max_of(static_cast<std::int64_t>(deepest));
        inserted_total += sh->inserted->value();
        if (opt_.supervise) {
          const std::int64_t hb =
              sh->heartbeat_ns.load(std::memory_order_relaxed);
          const bool stale = hb != 0 && !shard_dead(*sh) &&
                             now_ns() - hb > heartbeat_timeout_ns;
          if (stale && !sh->wedged_episode) sh->wedged->inc();
          sh->wedged_episode = stale;
        }
      }
      sample_rate(inserted_total);
      // Sleep in small slices so close() is never delayed by a long period.
      auto remaining = interval;
      while (remaining.count() > 0 &&
             !stopping_.load(std::memory_order_acquire)) {
        const auto slice = std::min(remaining, std::chrono::milliseconds(5));
        std::this_thread::sleep_for(slice);
        remaining -= slice;
      }
    }
  }

  /// Feed (now, total) into the windowed-rate view and return the current
  /// rate; callable from the sampler thread and stats() concurrently.
  double sample_rate(std::uint64_t inserted_total) const {
    std::lock_guard<std::mutex> lk(rate_mu_);
    rate_window_.sample(now_ns(), inserted_total);
    const double r = rate_window_.rate();
    rate_gauge_->set(static_cast<std::int64_t>(r));
    return r;
  }

  [[nodiscard]] static bool rings_empty(const Shard& sh) {
    for (const auto& r : sh.rings)
      if (r->size_approx() > 0) return false;
    return true;
  }

  PipelineOptions opt_;
  obs::Registry registry_;  ///< declared before anything holding handles
  obs::Histogram* drain_hist_ = nullptr;
  obs::Histogram* publish_hist_ = nullptr;
  obs::Histogram* push_hist_ = nullptr;
  obs::Histogram* checkpoint_hist_ = nullptr;
  obs::Counter* stall_ns_ = nullptr;
  obs::Counter* stall_events_ = nullptr;
  obs::Counter* push_timeouts_ = nullptr;
  obs::Gauge* rate_gauge_ = nullptr;
  obs::Gauge* degraded_gauge_ = nullptr;
  obs::Counter* disk_faults_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<obs::Counter*> produced_;  ///< one per producer
  std::vector<std::thread> workers_;     ///< indexed by shard
  std::thread sampler_;
  mutable std::mutex rate_mu_;
  mutable RateWindow rate_window_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> closed_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<std::int64_t> last_probe_ns_{0};
  std::mutex degraded_mu_;
  std::string degraded_msg_;  ///< guarded by degraded_mu_
  std::atomic<std::int64_t> start_ns_{0};
  std::atomic<std::int64_t> stop_ns_{0};
};

}  // namespace she::runtime
