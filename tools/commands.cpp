#include "commands.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/wal.hpp"
#include "obs/trace.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "common/stats.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault_injection.hpp"
#include "she/csm.hpp"
#include "she/monitor.hpp"
#include "she/she.hpp"
#include "stream/oracle.hpp"
#include "stream/trace.hpp"
#include "stream/trace_io.hpp"

namespace she::tools {
namespace {

/// Load --trace FILE, or generate --dataset NAME --length L --seed S.
stream::Trace input_trace(const ArgMap& args) {
  if (args.has("trace-text"))
    return stream::load_text_keys_file(args.require("trace-text"));
  if (args.has("trace")) return stream::load_trace_file(args.require("trace"));
  std::string dataset = args.get("dataset", "caida");
  std::uint64_t length = args.get_u64("length", 1u << 20);
  std::uint64_t seed = args.get_u64("seed", 1);
  if (dataset == "distinct") return stream::distinct_trace(length, seed);
  return stream::named_dataset(dataset, length, seed);
}

void reject_unused(const ArgMap& args) {
  auto stray = args.unused();
  if (!stray.empty())
    throw std::invalid_argument("unknown flag --" + stray.front());
}

/// RAII guard around the process-wide telemetry toggle: zeroes the default
/// registry and enables collection for the command's lifetime, restoring
/// the disabled state even when the command throws (run_cli catches and
/// other in-process callers — tests — must not inherit an enabled toggle).
struct TelemetryScope {
  explicit TelemetryScope(bool on) : active(on) {
    if (active) {
      obs::default_registry().reset();
      obs::set_enabled(true);
    }
  }
  ~TelemetryScope() {
    if (active) obs::set_enabled(false);
  }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;
  bool active;
};

void write_registries(std::ostream& os, const std::string& format,
                      std::span<const obs::Registry* const> registries) {
  if (format == "json") {
    obs::write_json(os, registries);
    os << "\n";
  } else if (format == "prom") {
    obs::write_prometheus(os, registries);
  } else {
    throw std::invalid_argument("--metrics-format must be 'prom' or 'json'");
  }
}

/// RAII guard around the process-global fault injector: arms the
/// comma-separated `--inject` specs for the command's lifetime and clears
/// them afterwards (even on throw) so in-process callers — tests — never
/// inherit armed faults.
struct FaultScope {
  explicit FaultScope(const std::string& specs) {
    if (specs.empty()) return;
#if !defined(SHE_FAULT_INJECTION)
    throw std::invalid_argument(
        "--inject needs the fault-injection harness, which this build has "
        "compiled out (reconfigure with -DSHE_FAULT_INJECTION=ON)");
#else
    std::size_t start = 0;
    while (start <= specs.size()) {
      const std::size_t comma = specs.find(',', start);
      const std::string one = comma == std::string::npos
                                  ? specs.substr(start)
                                  : specs.substr(start, comma - start);
      if (!one.empty())
        runtime::fault::injector().arm(runtime::fault::parse_spec(one));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    armed = true;
#endif
  }
  ~FaultScope() {
    if (armed) runtime::fault::injector().clear();
  }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
  bool armed = false;
};

SheConfig she_config_from(const ArgMap& args, std::size_t cell_bits,
                          std::size_t group_cells, double default_alpha) {
  SheConfig cfg;
  cfg.window = args.get_u64("window", 1u << 16);
  std::uint64_t bytes = args.get_u64("memory", 64 * 1024);
  cfg.cells = static_cast<std::size_t>(bytes * 8 / cell_bits);
  cfg.group_cells = args.get_u64("group", group_cells);
  cfg.alpha = args.get_f64("alpha", default_alpha);
  cfg.seed = static_cast<std::uint32_t>(args.get_u64("hash-seed", 0));
  cfg.mark_bits = static_cast<unsigned>(args.get_u64("mark-bits", 1));
  return cfg;
}

}  // namespace

int cmd_generate(const ArgMap& args, std::ostream& out) {
  std::string path = args.require("out");
  auto trace = input_trace(args);
  reject_unused(args);
  stream::save_trace_file(path, trace);
  out << "wrote " << trace.size() << " items (" << stream::distinct_count(trace)
      << " distinct) to " << path << "\n";
  return 0;
}

int cmd_membership(const ArgMap& args, std::ostream& out) {
  auto trace = input_trace(args);
  std::uint64_t probes = args.get_u64("probes", 50000);
  std::string save_path = args.get("save", "");
  std::string resume_path = args.get("resume", "");

  SheBloomFilter bf = [&] {
    if (!resume_path.empty()) {
      // --resume: continue from a checkpoint; sizing flags are ignored.
      std::ifstream is(resume_path, std::ios::binary);
      if (!is) throw std::invalid_argument("cannot open " + resume_path);
      BinaryReader in(is);
      return SheBloomFilter::load(in);
    }
    unsigned hashes = static_cast<unsigned>(args.get_u64("hashes", 8));
    SheConfig cfg = she_config_from(args, /*cell_bits=*/1, 64, /*alpha*/ 0.0);
    if (cfg.alpha == 0.0) {
      // Auto-tune via Eq. (2) using the measured window cardinality.
      stream::WindowOracle probe(cfg.window);
      std::size_t prefix = std::min<std::size_t>(trace.size(), 2 * cfg.window);
      for (std::size_t i = 0; i < prefix; ++i) probe.insert(trace[i]);
      cfg.alpha = optimal_alpha_bf(cfg.cells, cfg.group_cells,
                                   static_cast<double>(probe.cardinality()),
                                   hashes);
    }
    return SheBloomFilter(cfg, hashes);
  }();
  const SheConfig& cfg = bf.config();
  unsigned hashes = bf.hash_count();
  reject_unused(args);

  stream::WindowOracle oracle(cfg.window);
  std::uint64_t false_negatives = 0;
  std::uint64_t checks = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    bf.insert(trace[i]);
    oracle.insert(trace[i]);
    if (i % 997 == 0 && i > cfg.window) {
      ++checks;
      if (!bf.contains(trace[i - cfg.window / 2])) ++false_negatives;
    }
  }
  std::uint64_t fp = 0;
  for (std::uint64_t p = 0; p < probes; ++p)
    if (bf.contains((std::uint64_t{1} << 40) + p)) ++fp;

  out << "SHE-BF  window=" << cfg.window << " memory=" << bf.memory_bytes()
      << "B alpha=" << cfg.alpha << " hashes=" << hashes << "\n";
  out << "  false-positive rate: " << static_cast<double>(fp) / static_cast<double>(probes)
      << " (" << fp << "/" << probes << " absent probes)\n";
  out << "  false negatives:     " << false_negatives << "/" << checks
      << " in-window checks (must be 0)\n";
  if (!save_path.empty()) {
    std::ofstream os(save_path, std::ios::binary);
    if (!os) throw std::invalid_argument("cannot open " + save_path);
    BinaryWriter w(os);
    bf.save(w);
    out << "  checkpoint saved to " << save_path << " (resume with --resume)\n";
  }
  return false_negatives == 0 ? 0 : 1;
}

int cmd_cardinality(const ArgMap& args, std::ostream& out) {
  auto trace = input_trace(args);
  std::string algo = args.get("algo", "bitmap");
  SheConfig cfg = algo == "hll" ? she_config_from(args, 6, 1, 0.2)
                                : she_config_from(args, 1, 64, 0.2);
  reject_unused(args);

  stream::WindowOracle oracle(cfg.window);
  RunningStats err;
  auto measure = [&](auto& est) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      est.insert(trace[i]);
      oracle.insert(trace[i]);
      if (i > 2 * cfg.window && i % (cfg.window / 2) == 0)
        err.add(relative_error(static_cast<double>(oracle.cardinality()),
                               est.cardinality()));
    }
    out << "SHE-" << (algo == "hll" ? "HLL" : "BM") << "  window=" << cfg.window
        << " memory=" << est.memory_bytes() << "B alpha=" << cfg.alpha << "\n";
    out << "  final estimate: " << est.cardinality()
        << "  (exact: " << oracle.cardinality() << ")\n";
    out << "  mean relative error over " << err.count()
        << " checkpoints: " << err.mean() << "\n";
  };
  if (algo == "hll") {
    SheHyperLogLog est(cfg);
    measure(est);
  } else if (algo == "bitmap") {
    SheBitmap est(cfg);
    measure(est);
  } else {
    throw std::invalid_argument("--algo must be 'bitmap' or 'hll'");
  }
  return 0;
}

int cmd_frequency(const ArgMap& args, std::ostream& out) {
  auto trace = input_trace(args);
  unsigned hashes = static_cast<unsigned>(args.get_u64("hashes", 8));
  std::uint64_t k = args.get_u64("top", 10);
  SheConfig cfg = she_config_from(args, 32, 64, 1.0);
  reject_unused(args);

  HeavyHitters hh(cfg, hashes, static_cast<std::size_t>(4 * k));
  stream::WindowOracle oracle(cfg.window);
  for (auto key : trace) {
    hh.insert(key);
    oracle.insert(key);
  }
  out << "SHE-CM heavy hitters  window=" << cfg.window
      << " memory=" << hh.memory_bytes() << "B\n";
  out << "  key              estimate   exact\n";
  for (const auto& e : hh.top(static_cast<std::size_t>(k))) {
    out << "  " << e.key << "  " << e.estimate << "  "
        << oracle.frequency(e.key) << "\n";
  }
  return 0;
}

int cmd_similarity(const ArgMap& args, std::ostream& out) {
  stream::Trace a, b;
  if (args.has("trace-a") || args.has("trace-b")) {
    a = stream::load_trace_file(args.require("trace-a"));
    b = stream::load_trace_file(args.require("trace-b"));
  } else {
    std::uint64_t length = args.get_u64("length", 1u << 17);
    double overlap = args.get_f64("overlap", 0.6);
    std::uint64_t seed = args.get_u64("seed", 1);
    auto pair = stream::relevant_pair(length, length / 4, overlap, 0.8, seed);
    a = std::move(pair.a);
    b = std::move(pair.b);
  }
  if (a.size() != b.size())
    throw std::invalid_argument("similarity: traces must have equal length");
  std::uint64_t slots = args.get_u64("slots", 512);
  SheConfig cfg;
  cfg.window = args.get_u64("window", 1u << 14);
  cfg.cells = slots;
  cfg.group_cells = 1;
  cfg.alpha = args.get_f64("alpha", 0.2);
  reject_unused(args);

  SheMinHash sa(cfg), sb(cfg);
  stream::JaccardOracle oracle(cfg.window);
  for (std::size_t i = 0; i < a.size(); ++i) {
    sa.insert(a[i]);
    sb.insert(b[i]);
    oracle.insert(a[i], b[i]);
  }
  out << "SHE-MH  window=" << cfg.window << " slots=" << slots << " memory="
      << sa.memory_bytes() + sb.memory_bytes() << "B\n";
  out << "  estimated Jaccard: " << SheMinHash::jaccard(sa, sb) << "\n";
  out << "  exact Jaccard:     " << oracle.jaccard() << "\n";
  return 0;
}

int cmd_pipeline(const ArgMap& args, std::ostream& out) {
  auto trace = input_trace(args);

  MonitorConfig mcfg;
  mcfg.window = args.get_u64("window", 1u << 16);
  mcfg.memory_bytes = args.get_u64("memory", 1u << 20);
  mcfg.heavy_hitter_slots = args.get_u64("top", 10) * 4;
  mcfg.seed = static_cast<std::uint32_t>(args.get_u64("hash-seed", 0));

  runtime::PipelineOptions pcfg;
  pcfg.shards = args.get_u64("shards", 4);
  pcfg.producers = args.get_u64("producers", 2);
  pcfg.queue_capacity = args.get_u64("queue", 4096);
  pcfg.publish_interval = args.get_u64("publish", 2048);
  pcfg.policy = runtime::backpressure_from(args.get("policy", "block"));
  pcfg.push_timeout_ms = args.get_u64("push-timeout-ms", 100);
  pcfg.supervise = !args.has("no-supervise");  // CLI default: supervised
  pcfg.checkpoint_dir = args.get("checkpoint-dir", "");
  pcfg.checkpoint_interval = args.get_u64("checkpoint-every", 1u << 16);
  pcfg.checkpoint_keep = args.get_u64("checkpoint-keep", 1);
  pcfg.resume = args.has("resume");
  // Deterministic replay needs one producer: resume offsets are per-shard
  // prefix counts of the original single arrival order.
  if (pcfg.resume) pcfg.producers = 1;
  if (pcfg.resume) {
    // A --resume that finds nothing would silently run a fresh start —
    // exactly what someone recovering real state must not get.  Demand the
    // directory, and at least one frame for this shard layout.
    if (pcfg.checkpoint_dir.empty())
      throw std::invalid_argument("--resume requires --checkpoint-dir");
    bool any_frame = false;
    for (std::size_t s = 0; s < pcfg.shards && !any_frame; ++s) {
      const std::string base =
          pcfg.checkpoint_dir + "/shard-" + std::to_string(s) + ".ckpt";
      for (std::size_t gen = 0; gen < pcfg.checkpoint_keep && !any_frame;
           ++gen) {
        any_frame = std::filesystem::exists(
            checkpoint_generation_path(base, gen));
      }
    }
    if (!any_frame)
      throw std::invalid_argument(
          "--resume: no checkpoint frames under '" + pcfg.checkpoint_dir +
          "' for --shards " + std::to_string(pcfg.shards) +
          " (expected " + pcfg.checkpoint_dir +
          "/shard-<0.." + std::to_string(pcfg.shards - 1) +
          ">.ckpt); pass the directory and shard count the checkpoints "
          "were written with, or drop --resume for a fresh start");
  }

  const std::uint64_t rate = args.get_u64("rate", 0);  // items/s; 0 = flat out
  const std::uint64_t query_ms = args.get_u64("query-interval-ms", 20);
  const std::size_t top_k = args.get_u64("top", 10);
  const bool json = args.has("json");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string metrics_format = args.get("metrics-format", "prom");
  const std::string inject = args.get("inject", "");
  // Queue-depth sampler (and, when supervised, wedge detection): on by
  // default when supervised or dumping metrics.
  pcfg.sample_interval_ms = args.get_u64(
      "sample-ms", pcfg.supervise || !metrics_out.empty() ? 5 : 0);
  reject_unused(args);

  TelemetryScope telemetry(!metrics_out.empty());
  FaultScope faults(inject);
  ConcurrentMonitor mon(mcfg, pcfg);

  // With --resume, each shard reports how much of the stream its restored
  // checkpoint already covers; skip that per-shard prefix of the replay.
  std::vector<std::uint64_t> skip(mon.shard_count(), 0);
  std::uint64_t skip_total = 0;
  for (std::size_t s = 0; s < mon.shard_count(); ++s) {
    skip[s] = mon.resume_offset(s);
    skip_total += skip[s];
  }
  mon.start();

  // Producers replay disjoint contiguous slices of the trace; --rate is
  // split evenly between them (sleep-based pacing, coarse but honest).
  std::vector<std::thread> producers;
  producers.reserve(pcfg.producers);
  for (std::size_t p = 0; p < pcfg.producers; ++p) {
    producers.emplace_back([&, p] {
      const std::size_t lo = trace.size() * p / pcfg.producers;
      const std::size_t hi = trace.size() * (p + 1) / pcfg.producers;
      const double per_producer_rate =
          rate == 0 ? 0 : static_cast<double>(rate) / pcfg.producers;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = lo; i < hi; ++i) {
        if (skip_total > 0) {  // resume mode: single producer, no races
          const std::size_t s = mon.shard_of(trace[i]);
          if (skip[s] > 0) {
            --skip[s];
            continue;
          }
        }
        mon.push(p, trace[i]);
        if (per_producer_rate > 0 && (i - lo) % 256 == 0) {
          auto due = t0 + std::chrono::duration<double>(
                              static_cast<double>(i - lo) / per_producer_rate);
          std::this_thread::sleep_until(due);
        }
      }
    });
  }

  // Interleaved queries from this thread while the producers run.
  std::uint64_t queries = 0;
  MonitorReport last;
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    for (auto& t : producers) t.join();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    last = mon.report(top_k);
    ++queries;
    std::this_thread::sleep_for(std::chrono::milliseconds(query_ms));
  }
  waiter.join();
  mon.close();

  auto st = mon.stats();
  auto rep = mon.report(top_k);

  // Accuracy reference: exact cardinality over the same trace replayed
  // sequentially (the sharded window approximates the global last-N).
  stream::WindowOracle oracle(mcfg.window);
  for (auto k : trace) oracle.insert(k);
  const double exact = static_cast<double>(oracle.cardinality());
  const double est = rep.cardinality.value_or(0);

  if (!metrics_out.empty()) {
    std::ofstream ms(metrics_out);
    if (!ms) throw std::invalid_argument("cannot open " + metrics_out);
    const obs::Registry* regs[] = {&obs::default_registry(),
                                   &mon.metrics_registry()};
    write_registries(ms, metrics_format, regs);
    if (!json) out << "  metrics written to " << metrics_out << "\n";
  }

  // Lossy runs must be visible to scripts: anything dropped, timed out, or
  // faulted makes the exit status nonzero, with a one-line summary on
  // stderr regardless of the output format.
  const bool faulty =
      st.dropped > 0 || st.worker_faults > 0 || st.push_timeouts > 0;
  if (faulty) {
    std::cerr << "she_tool pipeline: faults detected: dropped=" << st.dropped
              << " worker_faults=" << st.worker_faults
              << " restarts=" << st.worker_restarts
              << " items_lost=" << st.items_lost
              << " push_timeouts=" << st.push_timeouts << "\n";
  }
  const int rc = faulty ? 1 : 0;

  if (json) {
    out << "{\"stats\":" << st.to_json() << ",\"queries_during_ingest\":"
        << queries << ",\"skipped_on_resume\":" << skip_total
        << ",\"cardinality\":" << est << ",\"cardinality_exact\":"
        << exact << ",\"cardinality_re\":" << relative_error(exact, est)
        << "}\n";
    return rc;
  }
  st.print(out);
  if (skip_total > 0)
    out << "  resumed from checkpoints: skipped " << skip_total
        << " already-ingested items\n";
  out << "  queries during ingest: " << queries << "\n";
  out << "  final cardinality: " << est << "  (exact: " << exact
      << ", RE " << relative_error(exact, est) << ")\n";
  out << "  top-" << top_k << " keys under load:\n";
  for (const auto& e : rep.top)
    out << "    " << e.key << "  ~" << e.estimate << "\n";
  return rc;
}

int cmd_metrics(const ArgMap& args, std::ostream& out) {
  auto trace = input_trace(args);

  MonitorConfig mcfg;
  mcfg.window = args.get_u64("window", 1u << 14);
  mcfg.memory_bytes = args.get_u64("memory", 1u << 18);
  mcfg.use_hll = args.get("algo", "bitmap") == "hll";
  mcfg.heavy_hitter_slots = args.get_u64("top", 10) * 4;
  mcfg.seed = static_cast<std::uint32_t>(args.get_u64("hash-seed", 0));

  const std::size_t top_k = args.get_u64("top", 10);
  // Query cadence: exercise every query path (membership, cardinality,
  // frequency, top-k) this often so the classification counters fill up.
  const std::uint64_t query_every =
      args.get_u64("query-every", std::max<std::uint64_t>(1, mcfg.window / 4));
  const std::string format = args.get("format", "prom");
  const std::string out_path = args.get("out", "");
  reject_unused(args);
  if (format != "prom" && format != "json")
    throw std::invalid_argument("--format must be 'prom' or 'json'");

  TelemetryScope telemetry(true);
  StreamMonitor mon(mcfg);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    mon.insert(trace[i]);
    if ((i + 1) % query_every == 0) {
      (void)mon.seen(trace[i]);
      (void)mon.frequency(trace[i]);
      (void)mon.report(top_k);
    }
  }
  (void)mon.report(top_k);

  const obs::Registry* regs[] = {&obs::default_registry()};
  if (out_path.empty()) {
    write_registries(out, format, regs);
  } else {
    std::ofstream os(out_path);
    if (!os) throw std::invalid_argument("cannot open " + out_path);
    write_registries(os, format, regs);
    out << "replayed " << trace.size() << " items (window " << mcfg.window
        << "); metrics written to " << out_path << "\n";
  }
  return 0;
}

int cmd_info(const ArgMap& args, std::ostream& out) {
  std::string path = args.require("file");
  reject_unused(args);
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::invalid_argument("cannot open " + path);
  char magic[4] = {};
  is.read(magic, 4);
  std::string tag(magic, 4);
  is.seekg(0);

  if (tag == "SHTR") {
    auto trace = stream::load_trace(is);
    out << path << ": trace, " << trace.size() << " items, "
        << stream::distinct_count(trace) << " distinct\n";
    return 0;
  }
  if (tag == "SHCP") {
    // A durable pipeline checkpoint: validate the frame (CRC and all),
    // then describe the estimator payload by recursing on its own tag.
    const CheckpointData ck = read_checkpoint_file(path);
    out << path << ": CRC-framed pipeline checkpoint (valid)\n"
        << "  stream offset: " << ck.stream_offset << " items, payload "
        << ck.payload.size() << " bytes\n";
    const std::string inner(ck.payload.data(),
                            ck.payload.size() < 4 ? ck.payload.size() : 4);
    out << "  payload magic: '" << inner << "'\n";
    return 0;
  }
  auto describe = [&](const char* name, const SheConfig& cfg,
                      std::uint64_t time) {
    out << path << ": " << name << " checkpoint\n";
    out << "  window=" << cfg.window << " cells=" << cfg.cells
        << " group_cells=" << cfg.group_cells << " alpha=" << cfg.alpha
        << " mark_bits=" << cfg.mark_bits << "\n";
    out << "  stream position: " << time << " items\n";
  };
  BinaryReader in(is);
  if (tag == "SHBF") {
    auto bf = SheBloomFilter::load(in);
    describe("SHE-BF", bf.config(), bf.time());
  } else if (tag == "SHBM") {
    auto bm = SheBitmap::load(in);
    describe("SHE-BM", bm.config(), bm.time());
  } else if (tag == "SHLL") {
    auto hll = SheHyperLogLog::load(in);
    describe("SHE-HLL", hll.config(), hll.time());
  } else if (tag == "SHCM") {
    auto cm = SheCountMin::load(in);
    describe("SHE-CM", cm.config(), cm.time());
  } else if (tag == "SHMH") {
    auto mh = SheMinHash::load(in);
    describe("SHE-MH", mh.config(), mh.time());
  } else {
    out << path << ": unknown format (magic '" << tag << "')\n";
    return 1;
  }
  return 0;
}

int cmd_client(const ArgMap& args, std::ostream& out) {
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_u64("port", 7070));
  const std::string endpoints = args.get("endpoints", "");
  const std::string op = args.require("op");
  const auto require_u64 = [&](const char* flag) {
    if (!args.has(flag))
      throw std::invalid_argument("--op " + op + " needs --" + flag);
    return args.get_u64(flag, 0);
  };

  // Deadline-aware transport: --timeout-ms bounds every connect and
  // socket read/write; a missed deadline exits 3 (distinct from usage
  // errors' 2 and server errors' 1) so scripts can tell "slow" apart
  // from "wrong".  --retries enables reconnect + idempotent replay.
  server::ClientOptions copt;
  copt.io_timeout_ms = args.get_u64("timeout-ms", 0);
  copt.connect_timeout_ms = args.get_u64("connect-timeout-ms",
                                         copt.io_timeout_ms);
  copt.auth_token = args.get("token", "");
  copt.max_retries = static_cast<std::size_t>(args.get_u64("retries", 0));
  // --endpoints "h1:p1,h2:p2" builds the failover client: a dead or
  // read-only (standby) server rotates the request to the next endpoint;
  // seq-tagged inserts make the replay exactly-once.
  server::SheClient client = [&] {
    if (endpoints.empty()) return server::SheClient(host, port, copt);
    std::vector<std::string> eps;
    std::size_t start = 0;
    while (start <= endpoints.size()) {
      const std::size_t comma = endpoints.find(',', start);
      const std::string one = comma == std::string::npos
                                  ? endpoints.substr(start)
                                  : endpoints.substr(start, comma - start);
      if (!one.empty()) eps.push_back(one);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return server::SheClient(eps, copt);
  }();
  // Optional trace correlation: every request this invocation sends is
  // prefixed with the trace-header wire extension carrying this id, so a
  // server running with --trace attributes the spans to it.
  if (args.has("trace-id")) client.set_trace_id(args.get_u64("trace-id", 0));
  if (op == "ping") {
    reject_unused(args);
    client.ping();
    out << "pong\n";
  } else if (op == "create") {
    const std::string name = args.require("name");
    const std::string spec = args.get("spec", "");
    reject_unused(args);
    client.create(name, spec);
    out << "created " << name << "\n";
  } else if (op == "insert") {
    const std::string name = args.require("name");
    const std::uint64_t key = require_u64("key");
    reject_unused(args);
    out << "accepted " << client.insert(name, key) << "/1\n";
  } else if (op == "bulk") {
    // Deterministic synthetic keys: key-base + i, wrapping at --distinct
    // so repeated-key workloads are one flag away.
    const std::string name = args.require("name");
    const std::uint64_t count = args.get_u64("count", 1u << 16);
    const std::uint64_t base = args.get_u64("key-base", 0);
    const std::uint64_t distinct = args.get_u64("distinct", 0);
    reject_unused(args);
    std::uint64_t accepted = 0;
    std::vector<std::uint64_t> chunk;
    for (std::uint64_t i = 0; i < count;) {
      chunk.clear();
      const std::uint64_t n = std::min<std::uint64_t>(count - i, 65536);
      for (std::uint64_t j = 0; j < n; ++j, ++i)
        chunk.push_back(base + (distinct ? i % distinct : i));
      accepted += client.insert_bulk(name, chunk);
    }
    out << "accepted " << accepted << "/" << count << "\n";
  } else if (op == "query") {
    const std::string name = args.require("name");
    const std::string type = args.get("type", "cardinality");
    if (type == "membership") {
      const std::uint64_t key = require_u64("key");
      reject_unused(args);
      out << "present " << (client.query_membership(name, key) ? "true" : "false")
          << "\n";
    } else if (type == "frequency") {
      const std::uint64_t key = require_u64("key");
      reject_unused(args);
      out << "frequency " << client.query_frequency(name, key) << "\n";
    } else if (type == "cardinality") {
      reject_unused(args);
      out << "cardinality " << client.query_cardinality(name) << "\n";
    } else if (type == "topk") {
      const auto k = static_cast<std::uint32_t>(args.get_u64("k", 10));
      reject_unused(args);
      for (const auto& [key, est] : client.query_topk(name, k))
        out << key << "  ~" << est << "\n";
    } else if (type == "jaccard") {
      const std::string other = args.require("other");
      reject_unused(args);
      out << "jaccard " << client.query_jaccard(name, other) << "\n";
    } else {
      throw std::invalid_argument("unknown query --type '" + type + "'");
    }
  } else if (op == "stats") {
    const std::string name = args.require("name");
    reject_unused(args);
    out << client.stats_json(name) << "\n";
  } else if (op == "drop") {
    const std::string name = args.require("name");
    reject_unused(args);
    client.drop(name);
    out << "dropped " << name << "\n";
  } else if (op == "save") {
    const std::string name = args.require("name");
    reject_unused(args);
    client.save(name);
    out << "saved " << name << "\n";
  } else if (op == "flush") {
    const std::string name = args.require("name");
    reject_unused(args);
    client.flush(name);
    out << "flushed " << name << "\n";
  } else if (op == "list") {
    reject_unused(args);
    for (const std::string& n : client.list()) out << n << "\n";
  } else if (op == "shutdown") {
    reject_unused(args);
    client.shutdown_server();
    out << "shutdown requested\n";
  } else if (op == "promote") {
    reject_unused(args);
    client.promote();
    out << "promoted\n";
  } else {
    throw std::invalid_argument("unknown --op '" + op + "'");
  }
  return 0;
}

int cmd_trace(const ArgMap& args, std::ostream& out) {
  // Traced end-to-end replay: run an in-process she_server with tracing
  // on, drive it over the real wire protocol (trace-id headers and all),
  // and export everything the span rings captured as Chrome trace-event
  // JSON.  Load the result in chrome://tracing or Perfetto to see each
  // request's server op over the pipeline drains and estimator batches it
  // caused.
  const std::string out_path = args.get("out", "trace.json");
  const std::uint64_t count = args.get_u64("count", 1u << 16);
  const std::uint64_t queries = args.get_u64("queries", 8);
  const std::string spec = args.get("spec", "");
  reject_unused(args);

  std::vector<obs::trace::CollectedSpan> spans;
  {
    server::ServerOptions opt;
    opt.port = 0;       // ephemeral; nothing else should connect
    opt.http_port = -1;
    opt.enable_tracing = true;
    server::SheServer server(std::move(opt));
    server.start();
    server::SheClient client("127.0.0.1", server.port());
    std::uint64_t trace_id = 1;
    client.set_trace_id(trace_id++);
    client.create("traced", spec);
    std::vector<std::uint64_t> chunk;
    for (std::uint64_t i = 0; i < count;) {
      chunk.clear();
      const std::uint64_t n = std::min<std::uint64_t>(count - i, 8192);
      for (std::uint64_t j = 0; j < n; ++j, ++i) chunk.push_back(i);
      client.set_trace_id(trace_id++);
      client.insert_bulk("traced", chunk);
    }
    client.set_trace_id(trace_id++);
    client.flush("traced");
    for (std::uint64_t q = 0; q < queries; ++q) {
      client.set_trace_id(trace_id++);
      (void)client.query_cardinality("traced");
      client.set_trace_id(trace_id++);
      (void)client.query_topk("traced", 8);
      client.set_trace_id(trace_id++);
      (void)client.query_membership("traced", q);
    }
    server.request_stop();
    server.stop();  // final drains land in the rings before collection
    spans = obs::trace::collect(0);
  }
  obs::trace::set_enabled(false);  // in-process callers must not inherit
  obs::trace::reset();

  std::ofstream os(out_path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot write '" + out_path + "'");
  obs::trace::write_chrome_trace(os, spans);
  out << "wrote " << out_path << " (" << spans.size() << " spans, "
      << count << " keys, " << 3 * queries << " queries)\n";
  return 0;
}

int cmd_verify(const ArgMap& args, std::ostream& out) {
  // Offline scrub of a server checkpoint root (or one pipeline's
  // directory, or a single file): every checkpoint generation is parsed
  // through the same CRC-framed reader a resume uses, and every WAL is
  // scanned frame by frame.  Anything that fails — bad magic, CRC
  // mismatch, torn or corrupt tail bytes — is listed, counted in
  // she_scrub_corrupt_total, and makes the exit status nonzero, so a cron
  // job can page before a failover discovers the damage the hard way.
  namespace fs = std::filesystem;
  const std::string root = args.require("dir");
  const bool json = args.has("json");
  const bool quiet = args.has("quiet");
  reject_unused(args);
  if (!fs::exists(root))
    throw std::invalid_argument("verify: no such path '" + root + "'");

  TelemetryScope telemetry(true);
  auto& corrupt_total = obs::default_registry().counter(
      "she_scrub_corrupt_total",
      "files the offline scrub found damaged (bad CRC, torn tail)");

  std::vector<fs::path> paths;
  if (fs::is_regular_file(root)) {
    paths.emplace_back(root);
  } else {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec)) paths.push_back(it->path());
    }
    std::sort(paths.begin(), paths.end());
  }

  std::uint64_t scanned = 0, frames = 0, corrupt = 0;
  const auto note = [&](const fs::path& p, const std::string& why) {
    ++corrupt;
    corrupt_total.inc();
    if (!json) out << "CORRUPT  " << p.string() << ": " << why << "\n";
  };
  for (const fs::path& p : paths) {
    const std::string name = p.filename().string();
    if (name.find(".ckpt") != std::string::npos) {
      ++scanned;
      try {
        const CheckpointData ck = read_checkpoint_file(p.string());
        ++frames;
        if (!json && !quiet)
          out << "ok       " << p.string() << ": checkpoint, offset "
              << ck.stream_offset << ", " << ck.payload.size()
              << " payload bytes\n";
      } catch (const CheckpointError& e) {
        note(p, e.what());
      }
    } else if (name.size() >= 4 && name.ends_with(".wal")) {
      ++scanned;
      try {
        const WalScan scan = read_wal(p.string());
        frames += scan.frames.size();
        if (scan.dropped_bytes > 0) {
          note(p, std::to_string(scan.dropped_bytes) +
                      " torn/corrupt tail bytes after a valid prefix of " +
                      std::to_string(scan.valid_bytes));
        } else if (!json && !quiet) {
          out << "ok       " << p.string() << ": wal, "
              << scan.frames.size() << " data frames, end offset "
              << scan.end_offset << "\n";
        }
      } catch (const WalError& e) {
        note(p, e.what());
      }
    }
    // Everything else (traces, tmp files, foreign data) is not ours to
    // judge; skip it silently.
  }

  if (json) {
    out << "{\"scanned\":" << scanned << ",\"frames\":" << frames
        << ",\"corrupt\":" << corrupt << "}\n";
  } else {
    out << "scrubbed " << scanned << " files (" << frames << " valid frames), "
        << corrupt << " corrupt\n";
  }
  return corrupt == 0 ? 0 : 1;
}

std::string usage() {
  return
      "she_tool — sliding-window stream mining (SHE framework)\n"
      "\n"
      "usage: she_tool <command> [--flag value ...]\n"
      "\n"
      "commands:\n"
      "  generate     --out FILE [--dataset caida|campus|webpage|distinct]\n"
      "               [--length N] [--seed S]\n"
      "  membership   [--trace FILE | --dataset ... --length N] [--window N]\n"
      "               [--memory BYTES] [--hashes K] [--alpha A (0 = Eq. 2)]\n"
      "               [--probes P] [--save CKPT] [--resume CKPT]\n"
      "  cardinality  [--algo bitmap|hll] [--trace FILE | --dataset ...]\n"
      "               [--window N] [--memory BYTES] [--alpha A]\n"
      "  frequency    [--trace FILE | --dataset ...] [--window N]\n"
      "               [--memory BYTES] [--hashes K] [--top K]\n"
      "  similarity   [--trace-a FILE --trace-b FILE | --length N\n"
      "               --overlap F] [--window N] [--slots M] [--alpha A]\n"
      "  pipeline     [--trace FILE | --dataset ... --length N] [--window N]\n"
      "               [--memory BYTES] [--shards S] [--producers P]\n"
      "               [--queue N] [--policy block|drop|block-timeout]\n"
      "               [--push-timeout-ms MS] [--rate ITEMS/S] [--publish N]\n"
      "               [--query-interval-ms MS] [--top K] [--json]\n"
      "               [--metrics-out FILE] [--metrics-format prom|json]\n"
      "               [--sample-ms MS] [--no-supervise]\n"
      "               [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "               [--checkpoint-keep K] [--resume]\n"
      "               [--inject SPEC[,SPEC...]]\n"
      "               (concurrent ingest, queries under load; a supervised\n"
      "               worker that faults recovers in place from its last\n"
      "               snapshot, one that stalls is counted wedged by the\n"
      "               --sample-ms sampler, default 5 when supervised;\n"
      "               --checkpoint-dir writes CRC-framed durable\n"
      "               checkpoints and --resume replays from them;\n"
      "               SPEC = point[:shard[:at[:param]]] with\n"
      "               point throw|stall|ckpt-bitflip|ckpt-truncate;\n"
      "               exit 1 when items were dropped, timed out, or a\n"
      "               worker faulted)\n"
      "  metrics      [--trace FILE | --dataset ... --length N] [--window N]\n"
      "               [--memory BYTES] [--algo bitmap|hll] [--top K]\n"
      "               [--query-every N] [--format prom|json] [--out FILE]\n"
      "               (replay with telemetry on, dump SHE-internals metrics)\n"
      "  info         --file FILE   (trace, estimator checkpoint, or\n"
      "               CRC-framed pipeline checkpoint — frames are\n"
      "               validated before being described)\n"
      "  client       --op ping|create|insert|bulk|query|stats|drop|save|\n"
      "               flush|list|shutdown|promote [--host A] [--port N]\n"
      "               [--endpoints H1:P1,H2:P2,...] [--name X]\n"
      "               [--spec \"window=64K shards=2 ...\"] [--key K]\n"
      "               [--count N --key-base B --distinct D]\n"
      "               [--type membership|frequency|cardinality|topk|jaccard]\n"
      "               [--k N] [--other NAME] [--trace-id ID]\n"
      "               [--timeout-ms N] [--connect-timeout-ms N]\n"
      "               [--token T] [--retries N]\n"
      "               (drive a running she_server over its binary protocol;\n"
      "               --trace-id tags requests for a --trace'd server;\n"
      "               --timeout-ms bounds connect + every read/write and\n"
      "               exits 3 on a missed deadline; --token authenticates\n"
      "               against --auth-token-file servers; --retries replays\n"
      "               idempotent requests over a fresh connection;\n"
      "               --endpoints enables failover: a dead or read-only\n"
      "               standby server rotates the request to the next one)\n"
      "  verify       --dir DIR [--json] [--quiet]\n"
      "               (offline CRC scrub of a checkpoint root: validates\n"
      "               every checkpoint generation and WAL frame; lists\n"
      "               damage, counts it in she_scrub_corrupt_total, and\n"
      "               exits 1 when anything is corrupt)\n"
      "  trace        [--out FILE (default trace.json)] [--count N]\n"
      "               [--queries N] [--spec \"window=64K ...\"]\n"
      "               (traced in-process server replay; writes Chrome\n"
      "               trace-event JSON for chrome://tracing / Perfetto)\n"
      "\n"
      "sizes accept K/M/G suffixes (binary), e.g. --memory 64K\n"
      "every command also accepts --trace-text FILE (one key per line;\n"
      "non-numeric tokens such as '10.0.0.1:443' are hashed)\n";
}

int run_cli(const std::vector<std::string>& argv, std::ostream& out) {
  if (argv.size() < 2) {
    out << usage();
    return 2;
  }
  std::vector<std::string> rest(argv.begin() + 2, argv.end());
  try {
    ArgMap args = ArgMap::parse(rest);
    const std::string& cmd = argv[1];
    if (cmd == "generate") return cmd_generate(args, out);
    if (cmd == "membership") return cmd_membership(args, out);
    if (cmd == "cardinality") return cmd_cardinality(args, out);
    if (cmd == "frequency") return cmd_frequency(args, out);
    if (cmd == "similarity") return cmd_similarity(args, out);
    if (cmd == "pipeline") return cmd_pipeline(args, out);
    if (cmd == "metrics") return cmd_metrics(args, out);
    if (cmd == "info") return cmd_info(args, out);
    if (cmd == "client") return cmd_client(args, out);
    if (cmd == "trace") return cmd_trace(args, out);
    if (cmd == "verify") return cmd_verify(args, out);
    if (cmd == "help" || cmd == "--help") {
      out << usage();
      return 0;
    }
    out << "unknown command '" << cmd << "'\n\n" << usage();
    return 2;
  } catch (const server::IoTimeout& e) {
    out << "timeout: " << e.what() << "\n";
    return 3;
  } catch (const server::ClientError& e) {
    // A server-side deadline shed is still a deadline: same exit as a
    // transport timeout so callers need one check.
    if (e.status() == server::Status::kTimeout) {
      out << "timeout: " << e.what() << "\n";
      return 3;
    }
    out << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace she::tools
