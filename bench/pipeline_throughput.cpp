// Concurrent ingest runtime — producers x shards throughput sweep.
//
// Replays a Zipf (CAIDA-like) stream through IngestPipeline<SheBloomFilter>
// for every (producers, shards) combination, with an optional concurrent
// reader hammering snapshot queries, and reports aggregate insert
// throughput.  Each row is also emitted as one JSON object (the
// RuntimeStats report plus the sweep coordinates) so runs are
// machine-comparable across hosts.
//
// The interesting acceptance signal is insert scaling with shard count
// (>=2x from 1 to 4 shards on multi-core hosts); on a single-core host the
// sweep degenerates to context-switch overhead, which is why the physical
// concurrency is part of the banner.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/stats.hpp"
#include "runtime/ingest_pipeline.hpp"
#include "she/she.hpp"
#include "stream/oracle.hpp"

namespace she::bench {
namespace {

using runtime::IngestPipeline;
using runtime::PipelineOptions;

constexpr std::uint64_t kN = kWindow;
constexpr std::uint64_t kItems = 4'000'000;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

IngestPipeline<SheBloomFilter>::Factory bf_factory(std::size_t shards) {
  return [shards](std::size_t s) {
    SheConfig cfg;
    cfg.window = kN / shards;
    cfg.cells = (1u << 20) / shards;
    cfg.group_cells = 64;
    cfg.alpha = 3.0;
    cfg.seed = static_cast<std::uint32_t>(s);
    return SheBloomFilter(cfg, 8);
  };
}

struct RunResult {
  double mips = 0;
  double queries_per_sec = 0;
  runtime::RuntimeStats stats;
};

RunResult run_once(const stream::Trace& trace, std::size_t producers,
                   std::size_t shards, bool with_reader) {
  PipelineOptions opt;
  opt.shards = shards;
  opt.producers = producers;
  opt.queue_capacity = 4096;
  opt.publish_interval = 4096;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(shards));
  pipe.start();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::thread reader;
  if (with_reader) {
    reader = std::thread([&] {
      std::uint64_t q = 0;
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t s = 0; s < shards; ++s) {
          (void)pipe.published(s)->contains(0xFEEDu + q);
          ++q;
        }
      }
      queries.store(q, std::memory_order_relaxed);
    });
  }

  MopsTimer timer;
  timer.start();
  std::vector<std::thread> pool;
  pool.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    pool.emplace_back([&, p] {
      const std::size_t lo = trace.size() * p / producers;
      const std::size_t hi = trace.size() * (p + 1) / producers;
      for (std::size_t i = lo; i < hi; ++i) pipe.push(p, trace[i]);
    });
  }
  for (auto& t : pool) t.join();
  pipe.close();
  RunResult r;
  r.mips = timer.stop(trace.size());
  r.stats = pipe.stats();
  if (with_reader) {
    done.store(true, std::memory_order_release);
    reader.join();
    r.queries_per_sec = static_cast<double>(queries.load()) /
                        r.stats.elapsed_seconds;
  }
  return r;
}

void sweep(std::vector<std::string>& json_rows) {
  auto trace = caida_like(kItems);
  std::printf("\n--- Ingest throughput: producers x shards (SHE-BF, %llu "
              "items, Zipf) ---\n",
              static_cast<unsigned long long>(kItems));
  std::printf("(hardware_concurrency on this machine: %u — scaling is capped "
              "by the physical core count)\n",
              std::thread::hardware_concurrency());
  Table table({"producers", "shards", "Mips", "speedup-vs-1shard", "q/s",
               "hwm"});
  for (std::size_t producers : {1u, 2u, 4u}) {
    double base = 0;
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      RunResult r = run_once(trace, producers, shards, /*with_reader=*/true);
      if (shards == 1) base = r.mips;
      table.add(producers, shards, fmt(r.mips), fmt(r.mips / base),
                fmt(r.queries_per_sec), r.stats.queue_hwm);
      std::ostringstream row;
      row << "{\"producers\":" << producers << ",\"shards\":" << shards
          << ",\"mips\":" << r.mips
          << ",\"queries_per_sec\":" << r.queries_per_sec
          << ",\"stats\":" << r.stats.to_json() << "}";
      json_rows.push_back(row.str());
      std::printf("JSON %s\n", row.str().c_str());
    }
  }
  table.print(std::cout);
}

void accuracy_under_load(std::vector<std::string>& json_rows) {
  // Concurrent queries must stay within the single-threaded sharded error
  // envelope: compare final snapshot cardinality (SHE-BM) to the exact
  // oracle, as test_sharded.cpp does offline.
  std::printf("\n--- Queries-under-load accuracy (SHE-BM cardinality RE) ---\n");
  auto trace = caida_like(4 * kN);
  Table table({"shards", "RE"});
  for (std::size_t shards : {1u, 2u, 4u}) {
    PipelineOptions opt;
    opt.shards = shards;
    opt.producers = 1;
    IngestPipeline<SheBitmap> pipe(opt, [shards](std::size_t s) {
      SheConfig cfg;
      cfg.window = kN / shards;
      cfg.cells = (1u << 16) / shards;
      cfg.group_cells = 64;
      cfg.alpha = 0.2;
      cfg.seed = static_cast<std::uint32_t>(s);
      return SheBitmap(cfg);
    });
    pipe.start();
    stream::WindowOracle oracle(kN);
    RunningStats err;
    std::size_t fed = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      pipe.push(0, trace[i]);
      oracle.insert(trace[i]);
      if (i > 2 * kN && i % (kN / 2) == 0) {
        // Let the worker catch up, then query the live snapshots.
        while (pipe.stats().inserted < i - opt.queue_capacity)
          std::this_thread::yield();
        double est = 0;
        for (std::size_t s = 0; s < shards; ++s)
          est += pipe.published(s)->cardinality();
        err.add(relative_error(static_cast<double>(oracle.cardinality()), est));
        ++fed;
      }
    }
    pipe.close();
    (void)fed;
    table.add(shards, fmt(err.mean()));
    std::ostringstream row;
    row << "{\"shards\":" << shards << ",\"mean_re\":" << err.mean()
        << ",\"samples\":" << fed << "}";
    json_rows.push_back(row.str());
  }
  table.print(std::cout);
}

/// Write every sweep and accuracy row into one machine-readable document so
/// CI can diff runs across hosts without scraping stdout.
void write_report(const std::string& path,
                  const std::vector<std::string>& sweep_rows,
                  const std::vector<std::string>& accuracy_rows) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  auto emit = [&os](const std::vector<std::string>& rows) {
    for (std::size_t i = 0; i < rows.size(); ++i)
      os << (i ? ",\n    " : "") << rows[i];
  };
  os << "{\n  \"schema_version\": 1,\n  \"bench\": \"pipeline_throughput\",\n"
     << "  \"items\": " << kItems << ",\n  \"window\": " << kN << ",\n"
     << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n  \"sweep\": [\n    ";
  emit(sweep_rows);
  os << "\n  ],\n  \"accuracy_under_load\": [\n    ";
  emit(accuracy_rows);
  os << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace she::bench

int main(int argc, char** argv) {
  she::bench::banner("Pipeline throughput — concurrent ingest runtime",
                     "Lock-free shard pipelines: aggregate insert throughput "
                     "across producers x shards with concurrent snapshot "
                     "queries, plus queries-under-load accuracy.");
  std::vector<std::string> sweep_rows;
  std::vector<std::string> accuracy_rows;
  she::bench::sweep(sweep_rows);
  she::bench::accuracy_under_load(accuracy_rows);
  she::bench::write_report(argc > 1 ? argv[1] : "BENCH_pipeline.json",
                           sweep_rows, accuracy_rows);
  return 0;
}
