// Golden serialized images: checkpoints, WAL resume and replication all
// ship save() bytes between processes and versions, so the byte format of
// every SHE estimator and of StreamMonitor is pinned against fixtures under
// tests/data/golden/.
//
// Each fixture is the save() image after one fixed seeded trace goes
// through insert(), insert_batch() and insert_at_batch(), on a geometry
// with a partial last group (cells % group_cells != 0) and 1-bit marks, so
// lazy group cleans fire inside batch blocks.  The test rebuilds every
// image from the trace (native dispatch and forced scalar) and re-saves
// every loaded fixture, and requires both to match the file byte for byte.
//
// On a mismatch the produced bytes are written to the gtest temp directory
// (golden_<name>.bin) so a deliberate format change can be inspected and
// copied over the fixture.
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "she/monitor.hpp"
#include "she/she.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

#ifndef SHE_GOLDEN_DIR
#error "SHE_GOLDEN_DIR must point at tests/data/golden"
#endif

namespace she {
namespace {

template <typename T>
std::string serialized(const T& est) {
  std::stringstream ss;
  BinaryWriter w(ss);
  est.save(w);
  return ss.str();
}

template <typename T>
T reloaded(const std::string& bytes) {
  std::stringstream ss(bytes);
  BinaryReader r(ss);
  return T::load(r);
}

std::string fixture(const std::string& name) {
  std::ifstream in(std::string(SHE_GOLDEN_DIR) + "/" + name + ".bin",
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void expect_matches(const std::string& name, const std::string& got,
                    const std::string& want) {
  if (got == want) return;
  const std::string out = ::testing::TempDir() + "/golden_" + name + ".bin";
  std::ofstream(out, std::ios::binary) << got;
  ADD_FAILURE() << name << ": " << got.size() << " bytes differ from the "
                << want.size() << "-byte fixture; produced image written to "
                << out;
}

/// The shared seeded zipf trace.
stream::Trace make_trace(std::uint64_t len) {
  stream::ZipfTraceConfig tc;
  tc.length = len;
  tc.universe = len / 2;
  tc.skew = 0.9;
  tc.seed = 2024;
  return stream::zipf_trace(tc);
}

/// Drive `est` with per-key insert() over the first third, insert_batch()
/// in uneven chunks over the second, and insert_at_batch() with bursty,
/// gapped timestamps over the last.
template <typename T>
void feed(T& est, const stream::Trace& keys) {
  const std::size_t n = keys.size();
  const std::size_t a = n / 3, b = 2 * n / 3;
  for (std::size_t i = 0; i < a; ++i) est.insert(keys[i]);
  const std::size_t chunks[] = {1, 7, 32, 57, 300};
  for (std::size_t i = a, c = 0; i < b; ++c) {
    const std::size_t len = std::min(chunks[c % 5], b - i);
    est.insert_batch(std::span<const std::uint64_t>(keys.data() + i, len));
    i += len;
  }
  Rng rng(99);
  std::vector<std::uint64_t> times(n - b);
  std::uint64_t t = est.time();
  for (auto& ti : times) {
    t += rng.below(4) == 0 ? rng.below(40) : 1;
    ti = t;
  }
  for (std::size_t i = b, c = 0; i < n; ++c) {
    const std::size_t len = std::min(chunks[c % 5], n - i);
    est.insert_at_batch(
        std::span<const std::uint64_t>(keys.data() + i, len),
        std::span<const std::uint64_t>(times.data() + (i - b), len));
    i += len;
  }
}

SheConfig grouped() {
  SheConfig cfg;
  cfg.window = 200;
  cfg.cells = 1009;  // 63 groups of 16 plus a partial group of 1
  cfg.group_cells = 16;
  cfg.alpha = 0.5;
  cfg.beta = 0.85;
  cfg.mark_bits = 1;
  cfg.seed = 31;
  return cfg;
}

SheConfig per_cell(std::size_t cells) {
  SheConfig cfg = grouped();
  cfg.cells = cells;
  cfg.group_cells = 1;  // SHE-HLL and SHE-MH fix w = 1
  return cfg;
}

/// Build under native dispatch and under forced scalar; both must equal
/// the fixture, and the loaded fixture must re-save to the same bytes.
template <typename T, typename Make>
void check_estimator(const std::string& name, Make&& make) {
  const std::string want = fixture(name);
  const stream::Trace trace = make_trace(2400);
  for (bool scalar : {false, true}) {
    const simd::ScopedForceScalar pin(scalar);
    T est = make();
    feed(est, trace);
    expect_matches(name + (scalar ? "_scalar" : ""), serialized(est), want);
  }
  expect_matches(name + "_resaved", serialized(reloaded<T>(want)), want);
}

TEST(GoldenBytes, SheBloomFilter) {
  check_estimator<SheBloomFilter>("she_bloom",
                                  [] { return SheBloomFilter(grouped(), 5); });
}

TEST(GoldenBytes, SheBitmap) {
  check_estimator<SheBitmap>("she_bitmap", [] { return SheBitmap(grouped()); });
}

TEST(GoldenBytes, SheHyperLogLog) {
  check_estimator<SheHyperLogLog>(
      "she_hll", [] { return SheHyperLogLog(per_cell(509)); });
}

TEST(GoldenBytes, SheCountMin) {
  check_estimator<SheCountMin>("she_cm",
                               [] { return SheCountMin(grouped(), 4); });
}

TEST(GoldenBytes, SheMinHash) {
  check_estimator<SheMinHash>("she_minhash",
                              [] { return SheMinHash(per_cell(37)); });
}

TEST(GoldenBytes, StreamMonitor) {
  MonitorConfig mcfg;
  mcfg.window = 512;
  mcfg.memory_bytes = 1 << 13;
  mcfg.track_similarity = true;
  mcfg.heavy_hitter_slots = 8;
  mcfg.seed = 5;
  const std::string want = fixture("monitor");
  const stream::Trace trace = make_trace(3000);
  for (bool scalar : {false, true}) {
    const simd::ScopedForceScalar pin(scalar);
    StreamMonitor mon(mcfg);
    const std::size_t half = trace.size() / 2;
    for (std::size_t i = 0; i < half; ++i) mon.insert(trace[i]);
    for (std::size_t i = half; i < trace.size(); i += 61) {
      const std::size_t len = std::min<std::size_t>(61, trace.size() - i);
      mon.insert_batch(std::span<const std::uint64_t>(trace.data() + i, len));
    }
    expect_matches(scalar ? "monitor_scalar" : "monitor", serialized(mon),
                   want);
  }
  expect_matches("monitor_resaved",
                 serialized(reloaded<StreamMonitor>(want)), want);
}

}  // namespace
}  // namespace she
