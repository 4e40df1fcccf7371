// StreamMonitor façade tests.
#include "she/monitor.hpp"

#include <sstream>

#include "common/bobhash.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she {
namespace {

MonitorConfig small_cfg() {
  MonitorConfig cfg;
  cfg.window = 4096;
  cfg.memory_bytes = 256 * 1024;
  return cfg;
}

TEST(Monitor, ConfigValidation) {
  MonitorConfig cfg = small_cfg();
  cfg.window = 0;
  EXPECT_THROW(StreamMonitor{cfg}, std::invalid_argument);

  cfg = small_cfg();
  cfg.memory_bytes = 100;
  EXPECT_THROW(StreamMonitor{cfg}, std::invalid_argument);

  cfg = small_cfg();
  cfg.track_membership = cfg.track_cardinality = cfg.track_frequency = false;
  EXPECT_THROW(StreamMonitor{cfg}, std::invalid_argument);

  cfg = small_cfg();
  cfg.heavy_hitter_slots = 0;
  EXPECT_THROW(StreamMonitor{cfg}, std::invalid_argument);
}

TEST(Monitor, DisabledTasksThrowOnQuery) {
  MonitorConfig cfg = small_cfg();
  cfg.track_membership = false;
  StreamMonitor mon(cfg);
  EXPECT_THROW((void)mon.seen(1), std::logic_error);

  MonitorConfig cfg2 = small_cfg();
  cfg2.track_frequency = false;
  StreamMonitor mon2(cfg2);
  EXPECT_THROW((void)mon2.frequency(1), std::logic_error);
}

TEST(Monitor, BudgetRoughlyRespected) {
  MonitorConfig cfg = small_cfg();
  StreamMonitor mon(cfg);
  EXPECT_LE(mon.memory_bytes(), cfg.memory_bytes + cfg.memory_bytes / 4);
  EXPECT_GE(mon.memory_bytes(), cfg.memory_bytes / 4);
}

TEST(Monitor, TracksAllThreeSignals) {
  MonitorConfig cfg = small_cfg();
  StreamMonitor mon(cfg);
  stream::WindowOracle oracle(cfg.window);

  stream::ZipfTraceConfig tc;
  tc.length = 4 * cfg.window;
  tc.universe = 2 * cfg.window;
  tc.skew = 1.1;
  tc.seed = 3;
  auto trace = stream::zipf_trace(tc);
  for (auto k : trace) {
    mon.insert(k);
    oracle.insert(k);
  }

  EXPECT_TRUE(mon.seen(trace.back()));
  auto rep = mon.report(5);
  EXPECT_EQ(rep.items, trace.size());
  ASSERT_TRUE(rep.cardinality.has_value());
  EXPECT_NEAR(*rep.cardinality, static_cast<double>(oracle.cardinality()),
              0.25 * static_cast<double>(oracle.cardinality()));
  ASSERT_EQ(rep.top.size(), 5u);
  // The top-1 key's reported estimate should be near its exact frequency.
  EXPECT_GE(rep.top[0].estimate + 5, oracle.frequency(rep.top[0].key));
}

TEST(Monitor, HllVariant) {
  MonitorConfig cfg = small_cfg();
  cfg.use_hll = true;
  cfg.window = 1 << 15;
  StreamMonitor mon(cfg);
  auto trace = stream::distinct_trace(3 * cfg.window, 5);
  for (auto k : trace) mon.insert(k);
  auto rep = mon.report(1);
  ASSERT_TRUE(rep.cardinality.has_value());
  EXPECT_NEAR(*rep.cardinality, static_cast<double>(cfg.window),
              0.3 * static_cast<double>(cfg.window));
}

TEST(Monitor, CheckpointRoundTrip) {
  MonitorConfig cfg = small_cfg();
  StreamMonitor mon(cfg);
  auto trace = stream::distinct_trace(2 * cfg.window, 7);
  for (auto k : trace) mon.insert(k);

  std::stringstream ss;
  BinaryWriter w(ss);
  mon.save(w);
  BinaryReader r(ss);
  StreamMonitor back = StreamMonitor::load(r);

  EXPECT_EQ(back.time(), mon.time());
  // Membership answers identical.
  for (std::uint64_t p = 0; p < 1000; ++p) {
    std::uint64_t probe = hash64(p, 9);
    ASSERT_EQ(back.seen(probe), mon.seen(probe));
  }
  // Point frequencies identical (sketch roundtrips exactly).
  for (std::size_t i = trace.size() - 200; i < trace.size(); ++i)
    ASSERT_EQ(back.frequency(trace[i]), mon.frequency(trace[i]));
  // Heavy-hitter candidates travel with the checkpoint, so top-k answers
  // are identical immediately after restore (not only after a re-warm).
  {
    auto before = mon.report(5).top;
    auto after = back.report(5).top;
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(after[i].key, before[i].key);
      EXPECT_EQ(after[i].estimate, before[i].estimate);
    }
  }
  // Both continue identically.
  auto more = stream::distinct_trace(1000, 11);
  for (auto k : more) {
    mon.insert(k);
    back.insert(k);
  }
  EXPECT_EQ(back.report(1).items, mon.report(1).items);
}

TEST(Monitor, ResumeAtAnyCutMatchesUnfaultedBytes) {
  // save -> load at a cut, then 100K more skewed keys: the resumed monitor
  // must serialize exactly like one that never stopped.  Heavy-hitter
  // eviction ties and the refresh phase are where a resume can drift; the
  // cuts sit on, just past and away from refresh boundaries.  The
  // default (CAIDA-like) universe keeps many one-hit candidates tied at
  // the table's minimum, so cuts 4096 and 5000 pin the tie-break, and
  // cuts 1000 and 1001 the refresh phase.
  MonitorConfig cfg;
  cfg.window = 1 << 14;
  cfg.memory_bytes = 256 * 1024;
  constexpr std::uint64_t kMore = 100'000;
  stream::ZipfTraceConfig z;
  z.length = 5000 + kMore;
  z.seed = 3;
  const auto trace = stream::zipf_trace(z);
  const auto bytes = [](const StreamMonitor& m) {
    std::stringstream ss;
    BinaryWriter w(ss);
    m.save(w);
    return ss.str();
  };
  for (const std::uint64_t cut : {1000u, 1001u, 1037u, 5000u, 1024u, 4096u}) {
    StreamMonitor live(cfg);
    for (std::uint64_t i = 0; i < cut; ++i) live.insert(trace[i]);
    std::stringstream ss;
    BinaryWriter w(ss);
    live.save(w);
    BinaryReader r(ss);
    StreamMonitor resumed = StreamMonitor::load(r);
    for (std::uint64_t i = cut; i < cut + kMore; ++i) {
      live.insert(trace[i]);
      resumed.insert(trace[i]);
    }
    EXPECT_EQ(bytes(resumed), bytes(live)) << "cut " << cut;
  }
}

TEST(Monitor, ClearResets) {
  StreamMonitor mon(small_cfg());
  mon.insert(1);
  mon.clear();
  EXPECT_EQ(mon.time(), 0u);
  EXPECT_EQ(mon.report(3).items, 0u);
}

TEST(Monitor, MembershipOnlyConfiguration) {
  MonitorConfig cfg = small_cfg();
  cfg.track_cardinality = false;
  cfg.track_frequency = false;
  StreamMonitor mon(cfg);
  for (std::uint64_t k = 0; k < 1000; ++k) mon.insert(k);
  EXPECT_TRUE(mon.seen(500));
  auto rep = mon.report(3);
  EXPECT_FALSE(rep.cardinality.has_value());
  EXPECT_TRUE(rep.top.empty());
  // The full budget flows to the one enabled sketch.
  EXPECT_GE(mon.memory_bytes(), cfg.memory_bytes / 2);
}

}  // namespace
}  // namespace she
