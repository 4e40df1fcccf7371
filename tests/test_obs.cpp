// Telemetry subsystem tests: lock-free metric primitives, registry
// identity, Prometheus/JSON export invariants, the RuntimeStats view over
// the pipeline registry, the global enabled() gate around SHE-internals
// instrumentation, and the she_tool surface (`metrics`, `pipeline
// --metrics-out`).  Runs under both the default suite and `ctest -L tsan`
// — the multi-writer tests are the thread-safety surface.
#include "obs/metrics.hpp"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "commands.hpp"
#include "obs/export.hpp"
#include "obs/she_metrics.hpp"
#include "runtime/runtime_stats.hpp"
#include "she/monitor.hpp"
#include "she/she.hpp"
#include <gtest/gtest.h>

namespace she::obs {
namespace {

// ------------------------------ primitives ---------------------------------

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, MaxOfIsMonotoneUnderConcurrency) {
  Gauge g;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&g, t] {
      for (std::int64_t v = t; v < 10000; v += 4) g.max_of(v);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(g.value(), 9999);
  g.max_of(12);  // lower value must not regress the ratchet
  EXPECT_EQ(g.value(), 9999);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(Histogram, BucketCountsEqualObservationCount) {
  Histogram h;
  // One sample per power of two plus the edge cases.
  std::vector<std::uint64_t> samples = {0, 1, 2, 3, 4, 7, 8, 1023, 1024,
                                        (1ull << 40) + 17, ~0ull};
  std::uint64_t expect_sum = 0;
  for (std::uint64_t s : samples) {
    h.observe(s);
    expect_sum += s;
  }
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.sum, expect_sum);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  // Every bucket's samples respect its [lower, upper) range.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(~0ull), Histogram::kBuckets - 1);
  for (std::size_t i = 1; i + 1 < Histogram::kBuckets; ++i)
    EXPECT_GT(Histogram::upper_bound(i), Histogram::upper_bound(i - 1));
}

TEST(Histogram, ConcurrentObserversSum) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(i & 1023);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
}

// ------------------------------- registry ----------------------------------

TEST(Registry, SameNameAndLabelsIsSameObject) {
  Registry r;
  Counter& a = r.counter("x_total", "help");
  Counter& b = r.counter("x_total", "help");
  EXPECT_EQ(&a, &b);
  Counter& c = r.counter("x_total", "help", {{"shard", "1"}});
  EXPECT_NE(&a, &c);  // distinct label set = distinct series
  Counter& d = r.counter("x_total", "help", {{"shard", "1"}});
  EXPECT_EQ(&c, &d);
}

TEST(Registry, KindConflictThrows) {
  Registry r;
  r.counter("x_total", "help");
  EXPECT_THROW(r.gauge("x_total", "help"), std::logic_error);
  EXPECT_THROW(r.histogram("x_total", "help"), std::logic_error);
}

TEST(Registry, ResetZeroesValuesKeepsRegistrations) {
  Registry r;
  r.counter("c", "h").inc(7);
  r.gauge("g", "h").set(3);
  r.histogram("hist", "h").observe(9);
  r.reset();
  EXPECT_EQ(r.counter("c", "h").value(), 0u);
  EXPECT_EQ(r.gauge("g", "h").value(), 0);
  EXPECT_EQ(r.histogram("hist", "h").count(), 0u);
  EXPECT_EQ(r.entries().size(), 3u);
}

TEST(Registry, ConcurrentRegistrationIsSafe) {
  Registry r;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&r] {
      for (int i = 0; i < 64; ++i)
        r.counter("series_total", "h", {{"i", std::to_string(i & 7)}}).inc();
    });
  for (auto& t : ts) t.join();
  std::uint64_t total = 0;
  for (const Registry::Entry& e : r.entries()) total += e.counter->value();
  EXPECT_EQ(total, 4u * 64);
  EXPECT_EQ(r.entries().size(), 8u);
}

// -------------------------------- export -----------------------------------

// Pull `metric{...} value` / `metric value` samples out of Prometheus text.
std::uint64_t prom_value(const std::string& text, const std::string& line_prefix) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind(line_prefix, 0) == 0)
      return std::stoull(line.substr(line.find_last_of(' ') + 1));
  ADD_FAILURE() << "no sample line starts with: " << line_prefix;
  return 0;
}

TEST(Export, PrometheusHistogramIsCumulativeAndEndsAtCount) {
  Registry r;
  Histogram& h = r.histogram("lat_ns", "latency");
  h.observe(1);    // bucket le="2"
  h.observe(3);    // bucket le="4"
  h.observe(3);
  h.observe(500);  // bucket le="512"
  std::ostringstream os;
  write_prometheus(os, r);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE lat_ns histogram"), std::string::npos);
  EXPECT_EQ(prom_value(text, "lat_ns_bucket{le=\"2\"}"), 1u);
  EXPECT_EQ(prom_value(text, "lat_ns_bucket{le=\"4\"}"), 3u);  // cumulative
  EXPECT_EQ(prom_value(text, "lat_ns_bucket{le=\"512\"}"), 4u);
  EXPECT_EQ(prom_value(text, "lat_ns_bucket{le=\"+Inf\"}"), 4u);
  EXPECT_EQ(prom_value(text, "lat_ns_count"), 4u);
  EXPECT_EQ(prom_value(text, "lat_ns_sum"), 507u);
}

TEST(Export, PrometheusLabelsAndHelpEscaping) {
  Registry r;
  r.counter("c_total", "help with \\ and \n newline",
            {{"path", "a\"b\\c"}})
      .inc(2);
  std::ostringstream os;
  write_prometheus(os, r);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP c_total help with \\\\ and \\n newline"),
            std::string::npos);
  EXPECT_NE(text.find("c_total{path=\"a\\\"b\\\\c\"} 2"), std::string::npos);
}

TEST(Export, JsonIsStructurallyValidAndCarriesSchema) {
  Registry r;
  r.counter("c_total", "h", {{"k", "v"}}).inc(5);
  r.gauge("g", "h").set(-3);
  Histogram& h = r.histogram("lat", "h");
  h.observe(10);
  h.observe(100);
  std::ostringstream os;
  write_json(os, r);
  const std::string text = os.str();
  // Structural sanity: balanced braces/brackets outside strings.
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char ch = text[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
    } else if (ch == '"') {
      in_str = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      ASSERT_GT(depth, 0);
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
  EXPECT_NE(text.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"c_total\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":5"), std::string::npos);
  EXPECT_NE(text.find("\"value\":-3"), std::string::npos);
  EXPECT_NE(text.find("\"count\":2"), std::string::npos);
}

TEST(Export, JsonEscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

// --------------------------- RuntimeStats view ------------------------------

// Minimal field extractor for the flat JSON RuntimeStats::to_json emits.
std::uint64_t json_u64(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key;
  if (at == std::string::npos) return 0;
  at += needle.size();
  std::uint64_t v = 0;
  while (at < text.size() && std::isdigit(static_cast<unsigned char>(text[at])))
    v = v * 10 + static_cast<std::uint64_t>(text[at++] - '0');
  return v;
}

TEST(RuntimeStatsView, SetRateGuardsDegenerateElapsed) {
  runtime::RuntimeStats st;
  st.inserted = 1000;
  st.set_rate(0.0);
  EXPECT_EQ(st.items_per_sec, 0.0);
  st.set_rate(-1.0);
  EXPECT_EQ(st.items_per_sec, 0.0);
  st.set_rate(1e-15);
  EXPECT_EQ(st.items_per_sec, 0.0);
  st.set_rate(0.5);
  EXPECT_DOUBLE_EQ(st.items_per_sec, 2000.0);
}

TEST(RuntimeStatsView, ToJsonCarriesSchemaAndPerShardSumsMatch) {
  MonitorConfig mcfg;
  mcfg.window = 1 << 12;
  mcfg.memory_bytes = 1 << 16;
  runtime::PipelineOptions pcfg;
  pcfg.shards = 2;
  pcfg.producers = 2;
  ConcurrentMonitor mon(mcfg, pcfg);
  mon.start();
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < pcfg.producers; ++p)
    producers.emplace_back([&mon, p] {
      for (std::uint64_t i = 0; i < 20000; ++i)
        while (!mon.push(p, i * 2 + p)) {
        }
    });
  for (auto& t : producers) t.join();
  mon.close();

  runtime::RuntimeStats st = mon.stats();
  const std::string text = st.to_json();
  EXPECT_EQ(json_u64(text, "schema_version"),
            static_cast<std::uint64_t>(runtime::RuntimeStats::kSchemaVersion));
  EXPECT_EQ(json_u64(text, "inserted"), 40000u);
  EXPECT_EQ(json_u64(text, "produced"), 40000u);

  // Per-shard rows must sum to the totals, both in the struct and as
  // re-extracted from the serialized form.
  std::uint64_t shard_inserted = 0, shard_drains = 0, shard_publishes = 0;
  for (const runtime::ShardStats& sh : st.per_shard) {
    shard_inserted += sh.inserted;
    shard_drains += sh.drains;
    shard_publishes += sh.publishes;
  }
  EXPECT_EQ(shard_inserted, st.inserted);
  EXPECT_EQ(shard_drains, st.drains);
  EXPECT_EQ(shard_publishes, st.publishes);

  std::size_t arr = text.find("\"per_shard\":[");
  ASSERT_NE(arr, std::string::npos);
  std::uint64_t json_shard_inserted = 0;
  for (std::size_t at = text.find("{\"inserted\":", arr);
       at != std::string::npos; at = text.find("{\"inserted\":", at + 1))
    json_shard_inserted += json_u64(text.substr(at), "inserted");
  EXPECT_EQ(json_shard_inserted, st.inserted);
}

TEST(RuntimeStatsView, StatsAgreeWithPipelineRegistry) {
  MonitorConfig mcfg;
  mcfg.window = 1 << 12;
  mcfg.memory_bytes = 1 << 16;
  runtime::PipelineOptions pcfg;
  pcfg.shards = 2;
  ConcurrentMonitor mon(mcfg, pcfg);
  mon.start();
  for (std::uint64_t i = 0; i < 30000; ++i)
    while (!mon.push(0, i)) {
    }
  mon.close();

  runtime::RuntimeStats st = mon.stats();
  std::uint64_t reg_inserted = 0, reg_produced = 0;
  for (const Registry::Entry& e : mon.metrics_registry().entries()) {
    if (e.name == "she_pipeline_inserted_total")
      reg_inserted += e.counter->value();
    if (e.name == "she_pipeline_produced_total")
      reg_produced += e.counter->value();
  }
  EXPECT_EQ(reg_inserted, st.inserted);
  EXPECT_EQ(reg_produced, st.produced);
  EXPECT_EQ(st.inserted, 30000u);
}

// ----------------------------- enabled() gate -------------------------------

TEST(EnabledGate, SheInstrumentationFrozenWhenDisabled) {
  set_enabled(false);
  default_registry().reset();
  SheConfig cfg;
  cfg.window = 1000;
  cfg.cells = 1 << 12;
  cfg.group_cells = 64;
  cfg.alpha = 1.0;

  SheBloomFilter off(cfg, 4);
  for (std::uint64_t k = 0; k < 2000; ++k) off.insert(k);
  for (std::uint64_t k = 0; k < 100; ++k) (void)off.contains(k);
  EXPECT_EQ(she_metrics().hash_calls.value(), 0u);
  EXPECT_EQ(she_metrics().queries.value(), 0u);
  EXPECT_EQ(she_metrics().groupclock_lazy_clean.value(), 0u);

  set_enabled(true);
  SheBloomFilter on(cfg, 4);
  for (std::uint64_t k = 0; k < 2000; ++k) on.insert(k);
  for (std::uint64_t k = 0; k < 100; ++k) (void)on.contains(k);
  set_enabled(false);

  EXPECT_GT(she_metrics().hash_calls.value(), 0u);
  EXPECT_EQ(she_metrics().queries.value(), 100u);
  std::uint64_t cells = she_metrics().query_cells_young.value() +
                        she_metrics().query_cells_perfect.value() +
                        she_metrics().query_cells_aged.value();
  EXPECT_GT(cells, 0u);
  default_registry().reset();
}

// --------------------------- SHE call telemetry -----------------------------
//
// Exact per-call deltas of she_hash_calls_total, she_query_cells_total
// {age_class} and she_cm_all_young_queries_total for every public insert and
// query entry point of the five estimators, including the accounting quirks
// operators read dashboards against:
//   * SHE-BF contains() charges i + 1 hash calls when probe i proves absence;
//   * SHE-CM frequency() charges 2k (its telemetry pass re-hashes);
//   * batched inserts and queries charge exactly k per key.

struct SheDelta {
  std::uint64_t hash = 0, young = 0, perfect = 0, aged = 0, all_young = 0;
  bool operator==(const SheDelta&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SheDelta& d) {
  return os << "{" << d.hash << ", " << d.young << ", " << d.perfect << ", "
            << d.aged << ", " << d.all_young << "}";
}

SheDelta she_counters() {
  const SheMetrics& m = she_metrics();
  return {m.hash_calls.value(), m.query_cells_young.value(),
          m.query_cells_perfect.value(), m.query_cells_aged.value(),
          m.cm_all_young_queries.value()};
}

template <typename Fn>
SheDelta delta_of(Fn&& fn) {
  const SheDelta a = she_counters();
  fn();
  const SheDelta b = she_counters();
  return {b.hash - a.hash, b.young - a.young, b.perfect - a.perfect,
          b.aged - a.aged, b.all_young - a.all_young};
}

TEST(SheTelemetry, ExactDeltasForEveryPublicCall) {
  set_enabled(true);
  default_registry().reset();
  SheConfig cfg;
  cfg.window = 100;
  cfg.cells = 1009;
  cfg.group_cells = 16;
  cfg.alpha = 0.2;
  cfg.seed = 3;
  SheConfig unit = cfg;  // SHE-HLL / SHE-MH: one cell per group
  unit.cells = 61;
  unit.group_cells = 1;

  SheBloomFilter bf(cfg, 4);
  SheCountMin cm(cfg, 3);
  SheBitmap bm(cfg);
  SheHyperLogLog hll(unit);
  SheMinHash mh(unit), mh2(unit);
  for (std::uint64_t i = 0; i < 260; ++i) {
    const std::uint64_t k = i * 2654435761u % 97;
    bf.insert(k);
    cm.insert(k);
    bm.insert(k);
    hll.insert(k);
    mh.insert(k);
    mh2.insert(k ^ (i % 3));
  }
  std::vector<std::uint64_t> keys(10), times(10);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 7 * i + 1;
  const std::span<const std::uint64_t> ks(keys);
  const std::uint64_t windows[] = {10, 60, 100};
  const std::uint64_t probes[] = {1, 8, 5000001, 5000002, 5000003,
                                  5000004, 5000005, 5000006};
  auto stamp = [&](std::uint64_t t0) {
    for (std::size_t i = 0; i < times.size(); ++i) times[i] = t0 + 3 * i;
    return std::span<const std::uint64_t>(times);
  };
#define SHE_EXPECT_DELTA(call, ...) \
  EXPECT_EQ(delta_of([&] { call; }), (SheDelta{__VA_ARGS__})) << #call

  // Inserts: k hash calls per key on every path (HLL: 2, MH: one per slot).
  SHE_EXPECT_DELTA(bf.insert(42), 4, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(bf.insert_at(43, bf.time() + 2), 4, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(bf.insert_batch(ks), 40, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(bf.insert_at_batch(ks, stamp(bf.time() + 1)), 40, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(cm.insert(42), 3, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(cm.insert_at(43, cm.time() + 2), 3, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(cm.insert_batch(ks), 30, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(cm.insert_at_batch(ks, stamp(cm.time() + 1)), 30, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(bm.insert(42), 1, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(bm.insert_at(43, bm.time() + 2), 1, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(bm.insert_batch(ks), 10, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(bm.insert_at_batch(ks, stamp(bm.time() + 1)), 10, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(hll.insert(42), 2, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(hll.insert_at(43, hll.time() + 2), 2, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(hll.insert_batch(ks), 20, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(hll.insert_at_batch(ks, stamp(hll.time() + 1)), 20, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(mh.insert(42), 61, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(mh.insert_at(43, mh.time() + 2), 61, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(mh.insert_batch(ks), 610, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(mh.insert_at_batch(ks, stamp(mh.time() + 1)), 610, 0, 0, 0, 0);
  SHE_EXPECT_DELTA(mh2.insert_batch(ks), 610, 0, 0, 0, 0);
  mh2.advance_to(mh.time());
  SHE_EXPECT_DELTA(bf.advance_to(bf.time() + 5), 0, 0, 0, 0, 0);

  // Point queries, one per probe key (recorded per key: the BF early exit
  // and the CM all-young fallback depend on the probed cells), then the
  // batched forms.
  const SheDelta want_bf[8] = {
      {4, 0, 1, 3, 0}, {4, 3, 0, 1, 0}, {4, 3, 0, 1, 0}, {4, 4, 0, 0, 0},
      {2, 1, 0, 1, 0}, {4, 4, 0, 0, 0}, {3, 2, 0, 1, 0}, {4, 4, 0, 0, 0}};
  const SheDelta want_bf40[8] = {
      {4, 0, 0, 4, 0}, {4, 1, 0, 3, 0}, {1, 0, 0, 1, 0}, {1, 0, 0, 1, 0},
      {2, 1, 0, 1, 0}, {2, 1, 0, 1, 0}, {1, 0, 1, 0, 0}, {2, 1, 0, 1, 0}};
  const SheDelta want_cm[8] = {
      {6, 1, 0, 2, 0}, {6, 3, 0, 0, 1}, {6, 2, 0, 1, 0}, {6, 3, 0, 0, 1},
      {6, 1, 0, 2, 0}, {6, 3, 0, 0, 1}, {6, 2, 0, 1, 0}, {6, 2, 0, 1, 0}};
  const SheDelta want_cm40[8] = {
      {6, 0, 0, 3, 0}, {6, 1, 0, 2, 0}, {6, 0, 0, 3, 0}, {6, 1, 0, 2, 0},
      {6, 1, 0, 2, 0}, {6, 2, 0, 1, 0}, {6, 2, 0, 1, 0}, {6, 1, 0, 2, 0}};
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t p = probes[i];
    EXPECT_EQ(delta_of([&] { (void)bf.contains(p); }), want_bf[i])
        << "bf.contains(" << p << ")";
    EXPECT_EQ(delta_of([&] { (void)bf.contains(p, 40); }), want_bf40[i])
        << "bf.contains(" << p << ", 40)";
    EXPECT_EQ(delta_of([&] { (void)cm.frequency(p); }), want_cm[i])
        << "cm.frequency(" << p << ")";
    EXPECT_EQ(delta_of([&] { (void)cm.frequency(p, 40); }), want_cm40[i])
        << "cm.frequency(" << p << ", 40)";
  }
  std::uint8_t present[8];
  std::uint64_t freq[8];
  SHE_EXPECT_DELTA(bf.contains_batch(probes, present), 32, 21, 1, 7, 0);
  SHE_EXPECT_DELTA(bf.contains_batch(probes, present, 40), 32, 4, 1, 12, 0);
  SHE_EXPECT_DELTA(cm.frequency_batch(probes, freq), 24, 17, 0, 7, 3);
  SHE_EXPECT_DELTA(cm.frequency_batch(probes, freq, 40), 24, 8, 0, 16, 0);

  // Window scans classify every group once per queried window.
  SHE_EXPECT_DELTA((void)bm.cardinality(), 0, 54, 0, 10, 0);
  SHE_EXPECT_DELTA((void)bm.cardinality(40), 0, 22, 0, 42, 0);
  SHE_EXPECT_DELTA((void)bm.cardinality_batch(windows), 0, 92, 1, 99, 0);
  SHE_EXPECT_DELTA((void)bm.legal_groups(), 0, 0, 0, 0, 0);
  SHE_EXPECT_DELTA((void)hll.cardinality(), 0, 51, 0, 10, 0);
  SHE_EXPECT_DELTA((void)hll.cardinality(40), 0, 20, 1, 40, 0);
  SHE_EXPECT_DELTA((void)hll.cardinality_batch(windows), 0, 86, 2, 95, 0);
  SHE_EXPECT_DELTA((void)hll.legal_groups(), 0, 0, 0, 0, 0);
  SHE_EXPECT_DELTA((void)SheMinHash::jaccard(mh, mh2), 0, 51, 0, 10, 0);
  SHE_EXPECT_DELTA((void)SheMinHash::jaccard(mh, mh2, 40), 0, 20, 1, 40, 0);
  SHE_EXPECT_DELTA((void)SheMinHash::jaccard_batch(mh, mh2, windows), 0, 86,
                   2, 95, 0);
#undef SHE_EXPECT_DELTA
  set_enabled(false);
  default_registry().reset();
}

// --------------------------------- CLI --------------------------------------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(Cli, PipelineMetricsOutExposesRequiredFamilies) {
  const std::string path = temp_path("pipeline_metrics.prom");
  std::ostringstream out;
  int rc = tools::run_cli(
      {"she_tool", "pipeline", "--dataset", "caida", "--length", "60000",
       "--window", "4096", "--shards", "2", "--producers", "2",
       "--metrics-out", path},
      out);
  ASSERT_EQ(rc, 0) << out.str();
  const std::string text = slurp(path);
  // SHE internals (global registry, enabled for the run).
  EXPECT_GT(prom_value(text, "she_groupclock_lazy_clean_total"), 0u);
  EXPECT_NE(text.find("she_query_cells_total{age_class=\"young\"}"),
            std::string::npos);
  EXPECT_NE(text.find("she_query_cells_total{age_class=\"perfect\"}"),
            std::string::npos);
  EXPECT_NE(text.find("she_query_cells_total{age_class=\"aged\"}"),
            std::string::npos);
  // Pipeline registry (always-on, merged into the same dump).
  EXPECT_NE(text.find("she_pipeline_drain_latency_ns_bucket"),
            std::string::npos);
  EXPECT_GT(prom_value(text, "she_pipeline_drain_latency_ns_count"), 0u);
  EXPECT_NE(text.find("she_pipeline_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("she_pipeline_publish_latency_ns"), std::string::npos);
  EXPECT_GT(prom_value(text, "she_pipeline_publish_latency_ns_count"), 0u);
  // The run must not leak an enabled toggle into the rest of the process.
  EXPECT_FALSE(enabled());
}

TEST(Cli, MetricsSubcommandJsonFormat) {
  std::ostringstream out;
  int rc = tools::run_cli(
      {"she_tool", "metrics", "--dataset", "caida", "--length", "30000",
       "--window", "2048", "--format", "json"},
      out);
  ASSERT_EQ(rc, 0) << out.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"she_hash_calls_total\""), std::string::npos);
  EXPECT_NE(text.find("\"age_class\":\"young\""), std::string::npos);
  EXPECT_FALSE(enabled());
}

TEST(Cli, MetricsRejectsBadFormat) {
  std::ostringstream out;
  EXPECT_EQ(tools::run_cli({"she_tool", "metrics", "--dataset", "caida",
                            "--length", "1000", "--format", "xml"},
                           out),
            2);
}

// ------------------------- Prometheus conformance ---------------------------

TEST(Export, PrometheusBucketBoundsStrictlyIncreaseAndStayMonotone) {
  Registry r;
  Histogram& h = r.histogram("wide_ns", "full-range exercise",
                             {{"op", "query"}});
  // One observation per power of two plus extremes: every bucket moves.
  h.observe(0);
  for (unsigned p = 0; p < 48; ++p) h.observe(std::uint64_t{1} << p);
  h.observe(~std::uint64_t{0});
  std::ostringstream os;
  write_prometheus(os, r);
  const std::string text = os.str();
  // Walk the exposition in order: `le` bounds strictly increase, cumulative
  // counts never decrease, and the series ends at le="+Inf" == _count.
  std::istringstream in(text);
  std::string line;
  double prev_le = -1;
  std::uint64_t prev_count = 0, buckets = 0, inf_count = 0;
  while (std::getline(in, line)) {
    const std::size_t le = line.find("le=\"");
    if (line.rfind("wide_ns_bucket{", 0) != 0 || le == std::string::npos)
      continue;
    ++buckets;
    const std::string bound = line.substr(le + 4, line.find('"', le + 4) -
                                                     (le + 4));
    const std::uint64_t count =
        std::stoull(line.substr(line.find_last_of(' ') + 1));
    EXPECT_GE(count, prev_count) << line;
    prev_count = count;
    if (bound == "+Inf") {
      inf_count = count;
    } else {
      const double b = std::stod(bound);
      EXPECT_GT(b, prev_le) << line;
      prev_le = b;
    }
  }
  EXPECT_GT(buckets, 2u);
  EXPECT_EQ(inf_count, 50u);
  EXPECT_EQ(prom_value(text, "wide_ns_count"), 50u);
}

TEST(Export, PrometheusHelpAndTypePrecedeSamples) {
  Registry r;
  r.counter("a_total", "a").inc();
  r.histogram("b_ns", "b").observe(7);
  std::ostringstream os;
  write_prometheus(os, r);
  const std::string text = os.str();
  for (const char* name : {"a_total", "b_ns"}) {
    const std::size_t help = text.find(std::string("# HELP ") + name);
    const std::size_t type = text.find(std::string("# TYPE ") + name);
    // Samples start at column 0 (comment lines also contain the name, but
    // never at a line start); histograms expose name_bucket/name_sum/... so
    // match on the common prefix.
    const std::size_t first_sample = text.find(std::string("\n") + name);
    ASSERT_NE(help, std::string::npos) << name;
    ASSERT_NE(type, std::string::npos) << name;
    EXPECT_LT(help, type) << name;
    EXPECT_LT(type, first_sample) << name;
  }
}

TEST(Cli, PipelineJsonModeStillEmitsStats) {
  const std::string path = temp_path("pipeline_metrics.json");
  std::ostringstream out;
  int rc = tools::run_cli(
      {"she_tool", "pipeline", "--dataset", "caida", "--length", "20000",
       "--window", "2048", "--json", "--metrics-out", path,
       "--metrics-format", "json"},
      out);
  ASSERT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("\"schema_version\":" +
                           std::to_string(runtime::RuntimeStats::kSchemaVersion)),
            std::string::npos);
  EXPECT_NE(slurp(path).find("\"schema_version\":1"), std::string::npos);
}

// --------------------------------- tracing ----------------------------------

/// Every trace test starts from a clean, enabled collector and leaves the
/// process-wide toggle off (other tests must not inherit it).
struct TraceFixture : ::testing::Test {
  void SetUp() override {
    trace::set_enabled(true);
    trace::reset();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
  }
};

TEST_F(TraceFixture, DisabledMacroRecordsNothing) {
  trace::set_enabled(false);
  for (int i = 0; i < 100; ++i) {
    SHE_TRACE_SPAN("off.span", "test");
  }
  EXPECT_TRUE(trace::collect().empty());
}

TEST_F(TraceFixture, SpanCarriesNameCategoryAndTraceId) {
  {
    trace::TraceIdScope scope(0xabcdef);
    SHE_TRACE_SPAN("outer", "test");
    SHE_TRACE_SPAN("inner", "test2");
  }
  const auto spans = trace::collect();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start: outer opened first, closed last.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[0].cat, "test");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_STREQ(spans[1].cat, "test2");
  for (const auto& s : spans) {
    EXPECT_EQ(s.trace_id, 0xabcdefu);
    EXPECT_GE(s.start_ns, 0);
  }
  EXPECT_GE(spans[0].dur_ns, spans[1].dur_ns);  // outer encloses inner
}

TEST_F(TraceFixture, TraceIdScopeRestoresPrevious) {
  trace::set_current_trace_id(7);
  {
    trace::TraceIdScope scope(99);
    EXPECT_EQ(trace::current_trace_id(), 99u);
  }
  EXPECT_EQ(trace::current_trace_id(), 7u);
  trace::set_current_trace_id(0);
}

TEST_F(TraceFixture, RingOverwritesOldestAndStaysBounded) {
  const std::size_t n = 2 * trace::kRingCapacity + 17;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t t = trace::now_ticks();
    trace::record("bounded", "test", t, t, 0);
  }
  const auto spans = trace::collect();
  EXPECT_LE(spans.size(), trace::kRingCapacity);
  EXPECT_GT(spans.size(), trace::kRingCapacity / 2);
  for (const auto& s : spans) EXPECT_STREQ(s.name, "bounded");
}

TEST_F(TraceFixture, ResetHidesRetainedSpans) {
  { SHE_TRACE_SPAN("pre.reset", "test"); }
  ASSERT_FALSE(trace::collect().empty());
  trace::reset();
  EXPECT_TRUE(trace::collect().empty());
  { SHE_TRACE_SPAN("post.reset", "test"); }
  const auto spans = trace::collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "post.reset");
}

TEST_F(TraceFixture, ThreadCursorSeesOnlyNewSpans) {
  { SHE_TRACE_SPAN("before.cursor", "test"); }
  const trace::ThreadCursor cur = trace::thread_cursor();
  { SHE_TRACE_SPAN("first", "test"); }
  { SHE_TRACE_SPAN("second", "test"); }
  const auto spans = trace::spans_since(cur);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "first");  // oldest first
  EXPECT_STREQ(spans[1].name, "second");
}

TEST_F(TraceFixture, CollectWindowFiltersOldSpans) {
  { SHE_TRACE_SPAN("old", "test"); }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  { SHE_TRACE_SPAN("recent", "test"); }
  const auto recent = trace::collect(/*window_ns=*/30'000'000);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_STREQ(recent[0].name, "recent");
  EXPECT_EQ(trace::collect(0).size(), 2u);  // 0 = everything retained
}

TEST_F(TraceFixture, ConcurrentRecordersAndCollectorsStayCoherent) {
  // The tsan surface: writers hammer their rings while collectors scrape.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&stop, w] {
      trace::TraceIdScope scope(static_cast<std::uint64_t>(w) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        SHE_TRACE_SPAN("worker.span", "test");
      }
    });
  }
  std::size_t total = 0;
  for (int i = 0; i < 200 && total < 10'000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (const auto& s : trace::collect()) {
      // Torn reads must have been discarded: every span is well-formed.
      ASSERT_STREQ(s.name, "worker.span");
      ASSERT_STREQ(s.cat, "test");
      ASSERT_GE(s.trace_id, 1u);
      ASSERT_LE(s.trace_id, 4u);
      ++total;
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(total, 0u);
}

TEST_F(TraceFixture, RingsRecycleAcrossThreadChurn) {
  // Many short-lived threads must not grow the ring registry without
  // bound; their spans stay collectable after the threads are gone.
  for (int round = 0; round < 32; ++round) {
    std::thread([] { SHE_TRACE_SPAN("churn.span", "test"); }).join();
  }
  const auto spans = trace::collect();
  std::size_t churn = 0;
  std::set<std::uint32_t> tids;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "churn.span") {
      ++churn;
      tids.insert(s.tid);
    }
  }
  EXPECT_EQ(churn, 32u);
  // Sequential churn reuses parked rings instead of minting new ids.
  EXPECT_LE(tids.size(), 4u);
}

TEST_F(TraceFixture, ChromeTraceExportIsWellFormed) {
  {
    trace::TraceIdScope scope(0x2a);
    SHE_TRACE_SPAN("chrome \"quoted\"\n", "test");
  }
  std::ostringstream os;
  trace::export_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"trace_id\":\"0x2a\""), std::string::npos);
  // The name's quote and newline must arrive escaped (control characters
  // go out as \u00XX).
  EXPECT_NE(text.find("chrome \\\"quoted\\\"\\u000a"), std::string::npos);
  // Structural sanity: balanced braces/brackets outside strings.
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
    } else if (ch == '"') {
      in_str = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      ASSERT_GT(depth, 0);
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

TEST_F(TraceFixture, TickClockIsMonotoneAndCalibrated) {
  const std::uint64_t a = trace::now_ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const std::uint64_t b = trace::now_ticks();
  ASSERT_GT(b, a);
  const std::uint64_t ns = trace::ticks_to_ns(b - a);
  // 10ms sleep must convert to something in [5ms, 500ms] — generous
  // bounds, but a mis-calibrated clock is off by orders of magnitude.
  EXPECT_GT(ns, 5'000'000u);
  EXPECT_LT(ns, 500'000'000u);
}

}  // namespace
}  // namespace she::obs
