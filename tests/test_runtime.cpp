// Concurrent ingest runtime tests.  This binary carries the ctest label
// `tsan`: build with -DSHE_SANITIZE=thread and run `ctest -L tsan` to
// check the whole surface under ThreadSanitizer (sizes are kept moderate
// so the instrumented run stays fast).
//
//   * SpscRing: FIFO order and wraparound, plus a cross-thread stress.
//   * Published snapshots: a held copy never changes, and released
//     copies are freed.
//   * IngestPipeline: single-producer drains are bit-identical to
//     sequential routing; DropNewest counts rejected pushes; Block loses
//     nothing; queries under load stay consistent.
//   * ConcurrentMonitor: queries under load within the same error bounds
//     as the single-threaded estimators.
#include "runtime/ingest_pipeline.hpp"

#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "she/monitor.hpp"
#include "she/sharded.hpp"
#include "she/she.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she::runtime {
namespace {

// ------------------------------ SpscRing -----------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing(1).capacity(), 1u);
  EXPECT_EQ(SpscRing(2).capacity(), 2u);
  EXPECT_EQ(SpscRing(3).capacity(), 4u);
  EXPECT_EQ(SpscRing(1000).capacity(), 1024u);
}

TEST(SpscRing, FifoWithWraparound) {
  SpscRing ring(4);
  std::uint64_t v = 0;
  for (std::uint64_t round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i)
      ASSERT_TRUE(ring.try_push(round * 4 + i));
    EXPECT_FALSE(ring.try_push(999));  // full
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(ring.try_pop(v));
      EXPECT_EQ(v, round * 4 + i);
    }
    EXPECT_FALSE(ring.try_pop(v));  // empty
  }
}

TEST(SpscRing, DrainPreservesOrder) {
  SpscRing ring(8);
  for (std::uint64_t i = 0; i < 6; ++i) ASSERT_TRUE(ring.try_push(i));
  std::uint64_t out[8];
  ASSERT_EQ(ring.drain(out, 4), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  ASSERT_EQ(ring.drain(out, 8), 2u);
  EXPECT_EQ(out[0], 4u);
  EXPECT_EQ(out[1], 5u);
  EXPECT_EQ(ring.drain(out, 8), 0u);
}

TEST(SpscRing, CrossThreadStressKeepsSequence) {
  constexpr std::uint64_t kItems = 200'000;
  SpscRing ring(64);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i)
      while (!ring.try_push(i)) std::this_thread::yield();
  });
  std::uint64_t expected = 0;
  std::uint64_t buf[32];
  while (expected < kItems) {
    std::size_t n = ring.drain(buf, 32);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], expected++);
    if (n == 0) std::this_thread::yield();
  }
  producer.join();
}

// ---------------------------- IngestPipeline -------------------------------

SheConfig bf_cfg(std::uint64_t window) {
  SheConfig cfg;
  cfg.window = window;
  cfg.cells = 1 << 14;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  return cfg;
}

IngestPipeline<SheBloomFilter>::Factory bf_factory(std::size_t shards,
                                                   std::uint64_t window) {
  return [shards, window](std::size_t s) {
    SheConfig cfg = bf_cfg(window / shards);
    cfg.seed = static_cast<std::uint32_t>(s);
    return SheBloomFilter(cfg, 8);
  };
}

TEST(IngestPipeline, ValidatesOptions) {
  PipelineOptions opt;
  opt.shards = 0;
  EXPECT_THROW(IngestPipeline<SheBloomFilter>(opt, bf_factory(1, 1024)),
               std::invalid_argument);
}

TEST(IngestPipeline, SingleProducerDrainBitIdenticalToSequential) {
  // One producer, bounded queues: per-shard order equals arrival order, so
  // each shard's final state must serialize to exactly the bytes the
  // sequential Sharded<T> routing produces.
  constexpr std::uint64_t kWindow = 8192;
  constexpr std::size_t kShards = 4;
  auto trace = stream::distinct_trace(4 * kWindow, 5);

  Sharded<SheBloomFilter> seq(kShards, [&](std::size_t s) {
    SheConfig cfg = bf_cfg(kWindow / kShards);
    cfg.seed = static_cast<std::uint32_t>(s);
    return SheBloomFilter(cfg, 8);
  });
  for (auto k : trace) seq.insert(k);

  PipelineOptions opt;
  opt.shards = kShards;
  opt.producers = 1;
  opt.queue_capacity = 256;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(kShards, kWindow));
  pipe.start();
  EXPECT_EQ(pipe.push_bulk(0, trace), trace.size());
  pipe.close();

  for (std::size_t s = 0; s < kShards; ++s) {
    std::stringstream expected_ss;
    BinaryWriter w(expected_ss);
    seq.shard(s).save(w);
    const std::string expected = expected_ss.str();

    std::stringstream got_ss;
    BinaryWriter gw(got_ss);
    pipe.snapshot(s).save(gw);
    ASSERT_EQ(got_ss.str(), expected) << "shard " << s;
  }

  auto st = pipe.stats();
  EXPECT_EQ(st.inserted, trace.size());
  EXPECT_EQ(st.produced, trace.size());
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_GT(st.publishes, 0u);
}

TEST(IngestPipeline, SyncBarrierSnapshotsCoverEveryAcceptedPush) {
  // Regression: the worker's "rings are empty" observation used to predate
  // its acquire-load of the sync request, so a stale ring view could ack
  // the flush barrier with items still queued — sync() returned true while
  // the published snapshots were short a late chunk of the stream.  The
  // race window is a few microseconds, hence many short rounds.
  constexpr std::uint64_t kWindow = 8192;
  constexpr std::size_t kShards = 2;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::uint64_t> trace(20000);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      trace[i] = (i * 7 + static_cast<std::uint64_t>(round)) % 4000;
    }
    PipelineOptions opt;
    opt.shards = kShards;
    opt.producers = 2;
    IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(kShards, kWindow));
    pipe.start();
    ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
    ASSERT_TRUE(pipe.sync(/*with_checkpoint=*/false));
    std::uint64_t seen = 0;
    for (std::size_t s = 0; s < kShards; ++s) seen += pipe.snapshot(s).time();
    ASSERT_EQ(seen, trace.size()) << "round " << round;
    pipe.close();
  }
}

TEST(IngestPipeline, BatchedDrainMatchesSequentialUnderConcurrentReads) {
  // The worker drain now hands whole blocks to StreamMonitor::insert_batch
  // (which fans out to the estimators' pipelined insert_batch).  With one
  // producer the per-shard arrival order is deterministic, so the drained
  // state must serialize byte-identically to scalar routing — while a
  // reader thread hammers the published snapshots mid-ingest (the surface
  // `ctest -L tsan` sweeps) and the tiny Block-policy rings force
  // backpressure so the stall counters are exercised.
  constexpr std::uint64_t kWindow = 1 << 14;
  constexpr std::size_t kShards = 2;
  auto trace = stream::distinct_trace(1 << 16, 11);

  auto factory = [](std::size_t s) {
    MonitorConfig m;
    m.window = kWindow / kShards;
    m.memory_bytes = 1 << 17;
    m.heavy_hitter_slots = 8;
    m.seed = static_cast<std::uint32_t>(s);
    return StreamMonitor(m);
  };

  PipelineOptions opt;
  opt.shards = kShards;
  opt.producers = 1;
  opt.queue_capacity = 64;  // keep the producer ahead of the drain
  IngestPipeline<StreamMonitor> pipe(opt, factory);
  pipe.start();

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last[kShards] = {};
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t s = 0; s < kShards; ++s) {
        StreamMonitor snap = pipe.snapshot(s);
        ASSERT_GE(snap.time(), last[s]);  // clock never runs backwards
        last[s] = snap.time();
        (void)snap.seen(trace[0]);
        (void)snap.frequency(trace[0]);
      }
    }
  });

  std::vector<StreamMonitor> seq;
  for (std::size_t s = 0; s < kShards; ++s) seq.push_back(factory(s));
  for (auto k : trace) seq[pipe.shard_of(k)].insert(k);

  EXPECT_EQ(pipe.push_bulk(0, trace), trace.size());
  pipe.close();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  for (std::size_t s = 0; s < kShards; ++s) {
    std::stringstream expected_ss, got_ss;
    BinaryWriter ew(expected_ss), gw(got_ss);
    seq[s].save(ew);
    pipe.snapshot(s).save(gw);
    ASSERT_EQ(got_ss.str(), expected_ss.str()) << "shard " << s;
  }

  auto st = pipe.stats();
  EXPECT_EQ(st.inserted, trace.size());
  EXPECT_EQ(st.dropped, 0u);
  // stall_ns only accumulates inside a counted stall episode.
  if (st.stall_ns > 0) {
    EXPECT_GT(st.stall_events, 0u);
  }
}

TEST(IngestPipeline, DropNewestCountsRejectedPushes) {
  // Workers not started: rings fill up and DropNewest must reject (and
  // count) exactly the overflow, then deliver the accepted remainder.
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 64;
  opt.policy = Backpressure::kDropNewest;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 1024));

  constexpr std::uint64_t kPushes = 200;
  std::uint64_t accepted = 0;
  for (std::uint64_t k = 0; k < kPushes; ++k)
    accepted += pipe.push(0, k) ? 1 : 0;
  EXPECT_EQ(accepted, opt.queue_capacity);

  auto st = pipe.stats();
  EXPECT_EQ(st.dropped, kPushes - opt.queue_capacity);
  EXPECT_EQ(st.per_shard[0].dropped, kPushes - opt.queue_capacity);

  pipe.close();  // never started: drains inline
  st = pipe.stats();
  EXPECT_EQ(st.inserted, accepted);
  EXPECT_EQ(pipe.snapshot(0).time(), accepted);
}

TEST(IngestPipeline, BlockPolicyLosesNothingThroughTinyQueues) {
  constexpr std::uint64_t kItems = 100'000;
  PipelineOptions opt;
  opt.shards = 2;
  opt.producers = 2;
  opt.queue_capacity = 16;  // force constant backpressure
  opt.drain_batch = 8;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(2, 1 << 16));
  pipe.start();
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kItems / 2; ++i)
        ASSERT_TRUE(pipe.push(p, i * 2 + p));
    });
  }
  for (auto& t : producers) t.join();
  pipe.close();
  auto st = pipe.stats();
  EXPECT_EQ(st.produced, kItems);
  EXPECT_EQ(st.inserted, kItems);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_GE(st.queue_hwm, 1u);
  EXPECT_LE(st.queue_hwm, 16u);
  // Pushing is far cheaper than draining into SHE-BF, so the 16-slot rings
  // must fill: every Block episode increments stall_events exactly once.
  EXPECT_GT(st.stall_events, 0u);
}

TEST(IngestPipeline, QueriesUnderLoadNeverSeeTornEstimator) {
  // Readers continuously take published snapshots while two producers
  // ingest.  A torn or stale-mixed copy would break SHE-BF's invariants;
  // we assert clock monotonicity and the no-false-negative guarantee for a
  // key that is always deep in every shard window.
  constexpr std::uint64_t kWindow = 1 << 14;
  constexpr std::size_t kShards = 2;
  constexpr std::uint64_t kHot = 0xB00F;
  constexpr std::uint64_t kItems = 120'000;

  PipelineOptions opt;
  opt.shards = kShards;
  opt.producers = 2;
  opt.queue_capacity = 1024;
  opt.publish_interval = 512;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(kShards, kWindow));
  pipe.start();

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last_time[kShards] = {0, 0};
    const std::size_t hot_shard = pipe.shard_of(kHot);
    while (!done.load(std::memory_order_acquire)) {
      for (std::size_t s = 0; s < kShards; ++s) {
        const auto held = pipe.published(s);
        const SheBloomFilter& snap = *held;
        ASSERT_GE(snap.time(), last_time[s]) << "clock went backwards";
        last_time[s] = snap.time();
        // kHot arrives every ~8 global items, so once the hot shard has
        // seen a full window the one-sided guarantee applies.
        if (s == hot_shard && snap.time() > kWindow / kShards) {
          ASSERT_TRUE(snap.contains(kHot));
        }
      }
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1234 + p);
      for (std::uint64_t i = 0; i < kItems / 2; ++i) {
        pipe.push(p, i % 4 == 0 ? kHot : (rng() | 1ull << 33));
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  pipe.close();
  EXPECT_EQ(pipe.stats().inserted, kItems);
}

template <typename Estimator>
std::string serialized(const Estimator& est) {
  std::stringstream ss;
  BinaryWriter w(ss);
  est.save(w);
  return ss.str();
}

TEST(IngestPipeline, HeldSnapshotsStayUnchangedAcrossPublishes) {
  // Readers hold published() copies while the worker publishes at least
  // kMinPublishes newer ones.  A held copy is immutable: its save() bytes
  // when released equal its bytes when taken.  Both readers also query
  // the copies they share, which must be race-free under tsan.
  constexpr std::size_t kReaders = 2;
  constexpr std::uint64_t kMinPublishes = 100;
  constexpr std::uint64_t kRounds = 3;  // per reader
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 256;
  opt.publish_interval = 64;
  IngestPipeline<StreamMonitor> pipe(opt, [](std::size_t) {
    MonitorConfig m;
    m.window = 4096;
    m.memory_bytes = 1 << 15;
    m.heavy_hitter_slots = 8;
    return StreamMonitor(m);
  });
  pipe.start();

  std::atomic<std::uint64_t> done_rounds{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        const std::shared_ptr<const StreamMonitor> held = pipe.published(0);
        const std::string taken = serialized(*held);
        const std::uint64_t base = pipe.stats().publishes;
        while (pipe.stats().publishes < base + kMinPublishes) {
          (void)held->seen(42);
          (void)held->frequency(42);
          (void)held->report(4);
          std::this_thread::yield();
        }
        EXPECT_EQ(serialized(*held), taken) << "a held snapshot changed";
        done_rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::uint64_t> chunk(1024);
  for (std::uint64_t next = 0;
       done_rounds.load(std::memory_order_relaxed) < kReaders * kRounds;) {
    for (auto& k : chunk) k = next++ % 5000;
    ASSERT_EQ(pipe.push_bulk(0, chunk), chunk.size());
  }
  for (auto& t : readers) t.join();
  pipe.close();
}

/// SHE-BF that counts its live instances.
struct CountedBloom {
  static inline std::atomic<std::int64_t> live{0};
  SheBloomFilter bf;

  explicit CountedBloom(SheBloomFilter b) : bf(std::move(b)) { ++live; }
  CountedBloom(const CountedBloom& o) : bf(o.bf) { ++live; }
  CountedBloom(CountedBloom&& o) noexcept : bf(std::move(o.bf)) { ++live; }
  CountedBloom& operator=(const CountedBloom&) = default;
  CountedBloom& operator=(CountedBloom&&) = default;
  ~CountedBloom() { --live; }
  void insert(std::uint64_t key) { bf.insert(key); }
  void insert_batch(std::span<const std::uint64_t> keys) {
    bf.insert_batch(keys);
  }
  void save(BinaryWriter& w) const { bf.save(w); }
  static CountedBloom load(BinaryReader& r) {
    return CountedBloom(SheBloomFilter::load(r));
  }
};

TEST(IngestPipeline, ReleasedSnapshotsAreFreed) {
  // Each shard keeps its live estimator and its last published copy;
  // every older copy lives only while a reader holds it.  So at a quiet
  // point (after sync) the live count is at most held + 2 per shard, and
  // exactly 2 per shard once the readers let go.
  constexpr std::size_t kShards = 2;
  PipelineOptions opt;
  opt.shards = kShards;
  opt.producers = 1;
  opt.publish_interval = 256;
  const auto bloom = bf_factory(kShards, 1 << 14);
  {
    IngestPipeline<CountedBloom> pipe(
        opt, [&](std::size_t s) { return CountedBloom(bloom(s)); });
    pipe.start();
    const auto trace = stream::distinct_trace(40'000, 17);
    std::vector<std::shared_ptr<const CountedBloom>> held;
    for (std::size_t i = 0; i < trace.size(); i += 4000) {
      ASSERT_EQ(pipe.push_bulk(0, std::span<const std::uint64_t>(
                                      trace.data() + i, 4000)),
                4000u);
      ASSERT_TRUE(pipe.sync(/*with_checkpoint=*/false));
      EXPECT_LE(CountedBloom::live.load(),
                static_cast<std::int64_t>(held.size() + 2 * kShards));
      held.push_back(pipe.published(i / 4000 % kShards));
    }
    EXPECT_GT(pipe.stats().publishes, held.size());
    const auto two_per_shard = static_cast<std::int64_t>(2 * kShards);
    held.clear();
    EXPECT_EQ(CountedBloom::live.load(), two_per_shard);
    pipe.close();
    EXPECT_EQ(CountedBloom::live.load(), two_per_shard);
  }
  EXPECT_EQ(CountedBloom::live.load(), 0);
}

// --------------------------- ConcurrentMonitor -----------------------------

TEST(ConcurrentMonitor, QueriesUnderLoadStayWithinSingleThreadBounds) {
  // Mirrors test_sharded.cpp's accuracy bounds, but with ingestion and
  // queries actually concurrent: cardinality RE vs the exact oracle stays
  // under 0.15, hot keys dominate the merged top-k, and recent keys are
  // always seen (one-sided membership).
  constexpr std::uint64_t kWindow = 1 << 14;
  MonitorConfig mcfg;
  mcfg.window = kWindow;
  mcfg.memory_bytes = 1 << 20;
  mcfg.heavy_hitter_slots = 32;

  runtime::PipelineOptions pcfg;
  pcfg.shards = 4;
  pcfg.producers = 1;
  pcfg.queue_capacity = 2048;
  pcfg.publish_interval = 1024;

  ConcurrentMonitor mon(mcfg, pcfg);
  mon.start();

  // Noise plus two persistent heavy keys.
  auto noise = stream::distinct_trace(4 * kWindow, 23);
  constexpr std::uint64_t kHotA = 111, kHotB = 222;
  stream::WindowOracle oracle(kWindow);
  std::thread producer([&] {
    for (std::size_t i = 0; i < noise.size(); ++i) {
      std::uint64_t k = i % 8 == 0 ? kHotA : (i % 8 == 4 ? kHotB : noise[i]);
      ASSERT_TRUE(mon.push(0, k));
    }
  });
  // Concurrent reads: must never throw, items must be monotone.
  std::uint64_t last_items = 0;
  std::uint64_t reads = 0;
  while (true) {
    MonitorReport rep = mon.report(4);
    ASSERT_GE(rep.items, last_items);
    last_items = rep.items;
    ++reads;
    if (rep.items >= noise.size()) break;
    if (last_items == 0) std::this_thread::yield();
  }
  producer.join();
  mon.close();
  EXPECT_GT(reads, 1u);

  for (std::size_t i = 0; i < noise.size(); ++i) {
    std::uint64_t k = i % 8 == 0 ? kHotA : (i % 8 == 4 ? kHotB : noise[i]);
    oracle.insert(k);
  }

  MonitorReport rep = mon.report(4);
  ASSERT_TRUE(rep.cardinality.has_value());
  EXPECT_LT(relative_error(static_cast<double>(oracle.cardinality()),
                           *rep.cardinality),
            0.15);
  ASSERT_GE(rep.top.size(), 2u);
  EXPECT_TRUE((rep.top[0].key == kHotA && rep.top[1].key == kHotB) ||
              (rep.top[0].key == kHotB && rep.top[1].key == kHotA));
  EXPECT_GT(mon.frequency(kHotA), 100u);
  EXPECT_TRUE(mon.seen(kHotA));
  EXPECT_EQ(mon.stats().dropped, 0u);
}

TEST(ConcurrentMonitor, DropNewestSurfacesInStats) {
  MonitorConfig mcfg;
  mcfg.window = 4096;
  mcfg.memory_bytes = 1 << 16;

  runtime::PipelineOptions pcfg;
  pcfg.shards = 1;
  pcfg.producers = 1;
  pcfg.queue_capacity = 32;
  pcfg.policy = runtime::Backpressure::kDropNewest;

  ConcurrentMonitor mon(mcfg, pcfg);  // not started: queue must overflow
  std::uint64_t accepted = 0;
  for (std::uint64_t k = 0; k < 100; ++k) accepted += mon.push(0, k) ? 1 : 0;
  EXPECT_EQ(accepted, 32u);
  EXPECT_EQ(mon.stats().dropped, 68u);
  mon.close();
  EXPECT_EQ(mon.report(1).items, 32u);
}

}  // namespace
}  // namespace she::runtime
