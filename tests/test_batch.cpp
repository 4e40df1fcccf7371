// Differential batch-vs-scalar equivalence for the generic batching layer
// (she/batch.hpp).  insert_batch must be *bit-for-bit* the scalar insert
// loop for all five estimators: same per-item time_ advancement, same lazy
// group-clean ordering, same observed bits/counters — verified by
// interleaving queries during the stream and comparing the serialized
// state byte-for-byte at the end.  Batched read paths must answer
// element-wise identically to their scalar counterparts.
//
// Workloads mix random keys with adversarial group-boundary streams:
// configurations whose last group is partial (cells % group_cells != 0),
// 1-bit marks with short cycles so lazy cleans fire constantly inside
// blocks, and chunk sizes chosen to split blocks across cleaning
// boundaries (1, primes, exact block multiples, one giant chunk).
#include <sstream>
#include <vector>

#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "she/she.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

template <typename T>
std::string serialized(const T& est) {
  std::stringstream ss;
  BinaryWriter w(ss);
  est.save(w);
  return ss.str();
}

/// Chunk sizes that exercise the tail path (shorter than a block), exact
/// block multiples, primes that misalign every block, and one whole-trace
/// chunk.
const std::size_t kChunks[] = {1, 3, 7, 16, 57, 256, 100000};

struct Scenario {
  SheConfig cfg;
  unsigned hashes;
  stream::Trace trace;
};

Scenario draw(std::uint64_t seed, bool boundary_adversarial) {
  Rng rng(seed);
  Scenario s;
  if (boundary_adversarial) {
    // Tiny groups, short window, 1-bit marks: every block straddles lazy
    // cleans, and cells % group_cells != 0 leaves a partial last group.
    s.cfg.window = 64 + rng.below(256);
    s.cfg.cells = 1000 + rng.below(100);  // not a multiple of group_cells
    s.cfg.group_cells = 16;
    s.cfg.alpha = 0.25;
    s.cfg.mark_bits = 1;
  } else {
    s.cfg.window = 256 + rng.below(4096);
    s.cfg.cells = 1024 << rng.below(4);
    const std::size_t choices[] = {1, 8, 16, 64, 128};
    s.cfg.group_cells = choices[rng.below(5)];
    s.cfg.alpha = 0.1 + rng.uniform() * 3.0;
    s.cfg.mark_bits = 1 + static_cast<unsigned>(rng.below(4));
  }
  s.cfg.beta = 0.7 + rng.uniform() * 0.29;
  s.cfg.seed = static_cast<std::uint32_t>(rng());
  s.hashes = 1 + static_cast<unsigned>(rng.below(10));
  std::uint64_t len = 3 * s.cfg.window + rng.below(4 * s.cfg.window);
  stream::ZipfTraceConfig tc;
  tc.length = len;
  tc.universe = 64 + rng.below(4 * s.cfg.window);
  tc.skew = rng.uniform() * 1.4;
  tc.seed = seed + 2;
  s.trace = stream::zipf_trace(tc);
  return s;
}

/// Drive `scalar` with insert() and `batched` with insert_batch() in
/// chunks, calling `check(scalar, batched, i)` after every chunk.
template <typename T, typename Check>
void drive(T& scalar, T& batched, const stream::Trace& trace,
           std::size_t chunk, Check&& check) {
  std::size_t i = 0;
  while (i < trace.size()) {
    const std::size_t n = std::min(chunk, trace.size() - i);
    for (std::size_t j = 0; j < n; ++j) scalar.insert(trace[i + j]);
    batched.insert_batch(
        std::span<const std::uint64_t>(trace.data() + i, n));
    i += n;
    check(scalar, batched, i);
  }
  ASSERT_EQ(serialized(scalar), serialized(batched))
      << "state diverged, chunk=" << chunk;
}

TEST(BatchDifferential, BloomInsertAndQueries) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const bool adversarial = trial % 2 == 1;
    auto s = draw(4000 + trial, adversarial);
    for (std::size_t chunk : kChunks) {
      SheBloomFilter scalar(s.cfg, s.hashes);
      SheBloomFilter batched(s.cfg, s.hashes);
      Rng probe_rng(trial * 97 + chunk);
      drive(scalar, batched, s.trace, chunk,
            [&](const SheBloomFilter& a, const SheBloomFilter& b,
                std::size_t i) {
              ASSERT_EQ(a.time(), b.time());
              std::uint64_t probes[3] = {probe_rng(), s.trace[i - 1],
                                         s.trace[i / 2]};
              std::uint8_t got[3];
              b.contains_batch(std::span<const std::uint64_t>(probes, 3),
                               std::span<std::uint8_t>(got, 3));
              for (int p = 0; p < 3; ++p) {
                ASSERT_EQ(a.contains(probes[p]), b.contains(probes[p]));
                ASSERT_EQ(a.contains(probes[p]), got[p] != 0)
                    << "contains_batch diverged at i=" << i;
              }
            });
    }
  }
}

TEST(BatchDifferential, BitmapInsertAndWindowBatch) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    auto s = draw(5000 + trial, trial % 2 == 1);
    for (std::size_t chunk : kChunks) {
      SheBitmap scalar(s.cfg);
      SheBitmap batched(s.cfg);
      drive(scalar, batched, s.trace, chunk,
            [&](const SheBitmap& a, const SheBitmap& b, std::size_t) {
              ASSERT_DOUBLE_EQ(a.cardinality(), b.cardinality());
            });
      const std::uint64_t windows[] = {1, s.cfg.window / 3 + 1,
                                       s.cfg.window / 2 + 1, s.cfg.window};
      auto batch_card = batched.cardinality_batch(windows);
      for (std::size_t j = 0; j < 4; ++j)
        ASSERT_DOUBLE_EQ(batch_card[j], scalar.cardinality(windows[j]))
            << "window " << windows[j];
    }
  }
}

TEST(BatchDifferential, HllInsertAndWindowBatch) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    auto s = draw(6000 + trial, trial % 2 == 1);
    s.cfg.group_cells = 1;  // SHE-HLL requires w = 1
    s.cfg.cells = 512 + (trial % 2 == 1 ? 13 : 0);
    for (std::size_t chunk : kChunks) {
      SheHyperLogLog scalar(s.cfg);
      SheHyperLogLog batched(s.cfg);
      drive(scalar, batched, s.trace, chunk,
            [&](const SheHyperLogLog& a, const SheHyperLogLog& b,
                std::size_t) {
              ASSERT_DOUBLE_EQ(a.cardinality(), b.cardinality());
            });
      const std::uint64_t windows[] = {1, s.cfg.window / 2 + 1, s.cfg.window};
      auto batch_card = batched.cardinality_batch(windows);
      for (std::size_t j = 0; j < 3; ++j)
        ASSERT_DOUBLE_EQ(batch_card[j], scalar.cardinality(windows[j]))
            << "window " << windows[j];
    }
  }
}

TEST(BatchDifferential, CountMinInsertAndFrequencyBatch) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    auto s = draw(7000 + trial, trial % 2 == 1);
    for (std::size_t chunk : kChunks) {
      SheCountMin scalar(s.cfg, s.hashes);
      SheCountMin batched(s.cfg, s.hashes);
      Rng probe_rng(trial * 31 + chunk);
      drive(scalar, batched, s.trace, chunk,
            [&](const SheCountMin& a, const SheCountMin& b, std::size_t i) {
              std::uint64_t probes[3] = {probe_rng(), s.trace[i - 1],
                                         s.trace[i / 2]};
              std::uint64_t got[3];
              b.frequency_batch(std::span<const std::uint64_t>(probes, 3),
                                std::span<std::uint64_t>(got, 3));
              for (int p = 0; p < 3; ++p) {
                ASSERT_EQ(a.frequency(probes[p]), b.frequency(probes[p]));
                ASSERT_EQ(a.frequency(probes[p]), got[p])
                    << "frequency_batch diverged at i=" << i;
              }
            });
    }
  }
}

TEST(BatchDifferential, MinHashInsertAndJaccardBatch) {
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    auto s = draw(8000 + trial, trial % 2 == 1);
    s.cfg.group_cells = 1;  // SHE-MH requires w = 1
    s.cfg.cells = 64 + 8 * (trial % 3);
    for (std::size_t chunk : {1ul, 7ul, 16ul, 100000ul}) {
      SheMinHash scalar(s.cfg);
      SheMinHash batched(s.cfg);
      drive(scalar, batched, s.trace, chunk,
            [](const SheMinHash& a, const SheMinHash& b, std::size_t) {
              ASSERT_EQ(a.time(), b.time());
            });
      // Lock-step pair: jaccard of (scalar, batched) must be exactly 1 in
      // every legal window, and jaccard_batch must equal per-window calls.
      const std::uint64_t windows[] = {1, s.cfg.window / 2 + 1, s.cfg.window};
      auto batch_sim = SheMinHash::jaccard_batch(scalar, batched, windows);
      for (std::size_t j = 0; j < 3; ++j)
        ASSERT_DOUBLE_EQ(batch_sim[j],
                         SheMinHash::jaccard(scalar, batched, windows[j]))
            << "window " << windows[j];
      ASSERT_DOUBLE_EQ(SheMinHash::jaccard(scalar, batched),
                       1.0);  // identical streams
    }
  }
}

/// Shapes that leave the vector block path: hash counts above the slot
/// budget (BF and CM with 257 hashes) and a signature wider than it
/// (MinHash with 300 slots).  Batch inserts and batched queries must still
/// equal the per-key loop byte for byte, natively and forced-scalar.
TEST(BatchDifferential, ShapesBeyondTheSlotBudget) {
  auto s = draw(9000, /*boundary_adversarial=*/true);
  SheConfig unit = s.cfg;  // SHE-MH requires w = 1
  unit.cells = 300;
  unit.group_cells = 1;
  for (bool scalar : {false, true}) {
    const simd::ScopedForceScalar pin(scalar);
    for (std::size_t chunk : {1ul, 7ul, 100000ul}) {
      SCOPED_TRACE(testing::Message()
                   << "scalar=" << scalar << " chunk=" << chunk);
      SheBloomFilter bf_scalar(s.cfg, 257), bf_batched(s.cfg, 257);
      drive(bf_scalar, bf_batched, s.trace, chunk,
            [&](const SheBloomFilter& a, const SheBloomFilter& b,
                std::size_t i) {
              std::uint64_t probes[3] = {i * 7919, s.trace[i - 1],
                                         s.trace[i / 2]};
              std::uint8_t got[3];
              b.contains_batch(std::span<const std::uint64_t>(probes, 3),
                               std::span<std::uint8_t>(got, 3));
              for (int p = 0; p < 3; ++p)
                ASSERT_EQ(a.contains(probes[p]), got[p] != 0) << "i=" << i;
            });
      SheCountMin cm_scalar(s.cfg, 257), cm_batched(s.cfg, 257);
      drive(cm_scalar, cm_batched, s.trace, chunk,
            [&](const SheCountMin& a, const SheCountMin& b, std::size_t i) {
              std::uint64_t probes[3] = {i * 7919, s.trace[i - 1],
                                         s.trace[i / 2]};
              std::uint64_t got[3];
              b.frequency_batch(std::span<const std::uint64_t>(probes, 3),
                                std::span<std::uint64_t>(got, 3));
              for (int p = 0; p < 3; ++p)
                ASSERT_EQ(a.frequency(probes[p]), got[p]) << "i=" << i;
            });
      SheMinHash mh_scalar(unit), mh_batched(unit);
      drive(mh_scalar, mh_batched, s.trace, chunk,
            [](const SheMinHash& a, const SheMinHash& b, std::size_t) {
              ASSERT_EQ(a.time(), b.time());
            });
      ASSERT_DOUBLE_EQ(SheMinHash::jaccard(mh_scalar, mh_batched), 1.0);
    }
  }
}

TEST(BatchDifferential, MonitorBatchMatchesScalar) {
  MonitorConfig mcfg;
  mcfg.window = 4096;
  mcfg.memory_bytes = 1 << 18;
  mcfg.heavy_hitter_slots = 16;
  StreamMonitor scalar(mcfg);
  StreamMonitor batched(mcfg);
  auto trace = stream::distinct_trace(3 * mcfg.window, 99);
  std::size_t i = 0;
  const std::size_t chunks[] = {1, 5, 64, 333, 4096};
  std::size_t c = 0;
  while (i < trace.size()) {
    const std::size_t n = std::min(chunks[c % 5], trace.size() - i);
    for (std::size_t j = 0; j < n; ++j) scalar.insert(trace[i + j]);
    batched.insert_batch(std::span<const std::uint64_t>(trace.data() + i, n));
    i += n;
    ++c;
    ASSERT_EQ(scalar.time(), batched.time());
    ASSERT_EQ(scalar.seen(trace[i - 1]), batched.seen(trace[i - 1]));
    ASSERT_EQ(scalar.frequency(trace[i - 1]), batched.frequency(trace[i - 1]));
  }
  ASSERT_EQ(serialized(scalar), serialized(batched));
}

TEST(BatchDifferential, ShardedBulkUsesBatchPathAndMatchesSequential) {
  // insert_bulk now feeds shards through insert_batch: final state must
  // still be byte-identical to per-key sequential routing.
  SheConfig cfg;
  cfg.window = 2048;
  cfg.cells = 1 << 12;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;
  auto factory = [&](std::size_t s) {
    SheConfig c = cfg;
    c.seed = static_cast<std::uint32_t>(s);
    return SheCountMin(c, 6);
  };
  auto trace = stream::distinct_trace(16384, 7);
  for (unsigned threads : {1u, 4u}) {
    Sharded<SheCountMin> bulk(4, factory);
    Sharded<SheCountMin> seq(4, factory);
    bulk.insert_bulk(trace, threads);
    for (auto k : trace) seq.insert(k);
    for (std::size_t s = 0; s < 4; ++s)
      ASSERT_EQ(serialized(bulk.shard(s)), serialized(seq.shard(s)))
          << "shard " << s << " threads " << threads;
  }
}

}  // namespace
}  // namespace she
