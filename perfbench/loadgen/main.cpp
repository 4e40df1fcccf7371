// she_loadgen — the load generator of the she_server benchmark.
//
//   she_loadgen --workload NAME --seed N --seconds S --trace 0|1
//               --server PATH --work-dir DIR [--trace-out FILE]
//               [--git-sha SHA] [--source-digest HEX] [--smoke]
//               [--wrong-reference]
//
// Spawns she_server, drives one workload over loopback TCP, checks every
// closing-phase answer against an exact window, and prints a stamp line,
// a human summary, and as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
// Exit 0 when every answer passed the gate, 1 when the gate failed, 2 on
// a usage or set-up error (no result line then).
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/bobhash.hpp"
#include "common/build_info.hpp"
#include "runtime/ingest_pipeline.hpp"
#include "stream/trace.hpp"

namespace perfbench {

// ------------------------------------------------------------- workloads --

// Rates of query_under_ingest, both below saturation.  The inserter runs
// at about a third of what `ingest` sustains on a 4-core x86-64 box
// (1.6M keys/s).  At 150 queries/s a handler thread mostly finds its
// cached snapshot republished, so the median query pays one snapshot
// load; 500/s put the median on the edge between a load and a cache hit,
// and it jumped between the two from run to run.
inline constexpr double kPacedFramesPerS = 60;    // 491,520 keys/s
inline constexpr double kQueriesPerS = 150;       // per query connection

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "ingest" || name == "ingest_wal") {
    w.wal = name == "ingest_wal";
    w.insert_conns = 2;
  } else if (name == "query_under_ingest") {
    w.insert_conns = 1;
    w.paced_frames_per_s = kPacedFramesPerS;
    w.query_conns = 2;
    w.queries_per_s = kQueriesPerS;
    w.poller = true;
    w.prefill_windows = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (ingest, ingest_wal, query_under_ingest)");
  }
  return w;
}

// --------------------------------------------------------------- helpers --

double Samples::pct(double q) const {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v_.size())));
  return v_[std::clamp<std::size_t>(rank, 1, v_.size()) - 1];
}

double Samples::tail_q() const {
  const double n = static_cast<double>(v_.size());
  if (n <= 10) return 1.0;
  return std::min(0.99, 1.0 - 10.0 / n);
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  she::obs::trace::write_chrome_trace(out, spans_);
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

Trace make_trace(std::uint64_t seed, std::size_t frames) {
  return Trace{she::stream::named_dataset("caida", frames * kFrameKeys, seed)};
}

std::size_t shard_of(std::uint64_t key) {
  static const std::uint64_t seed = she::runtime::PipelineOptions{}.route_seed;
  return static_cast<std::size_t>(she::hash64(key, seed) % kShards);
}

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"ingest_items_per_s", "items/s"},
    {"insert_bulk_p50_us", "us"},
    {"query_p50_us", "us"},
    {"card_re", "fraction"},
    {"freq_are", "fraction"},
    {"server_rss_mb", "MiB"},
};

const Metric kPerLayer[] = {
    {"common.hash_ns_per_key", "ns/key"},
    {"common.wal_append_ns_per_key", "ns/key"},
    {"she.bf_insert_ns_per_key", "ns/key"},
    {"she.bm_insert_ns_per_key", "ns/key"},
    {"she.cm_insert_ns_per_key", "ns/key"},
    {"she.hh_insert_ns_per_key", "ns/key"},
    {"she.monitor_insert_ns_per_key", "ns/key"},
    {"she.monitor_save_us", "us"},
    {"she.monitor_load_us", "us"},
    {"she.seen_ns", "ns"},
    {"she.frequency_ns", "ns"},
    {"she.report_us", "us"},
    {"runtime.push_bulk_ns_per_key", "ns/key"},
    {"runtime.push_bulk_wal_ns_per_key", "ns/key"},
    {"runtime.flush_us", "us"},
    {"runtime.stall_ns_per_key", "ns/key"},
    {"runtime.queue_hwm", "items"},
    {"runtime.publishes_per_mkey", "1/Mkey"},
    {"runtime.drain_items_per_s", "items/s"},
    {"runtime.query_seen_us", "us"},
    {"runtime.query_report_us", "us"},
    {"server.manager_insert_bulk_us", "us"},
    {"server.wire_insert_self_us", "us"},
    {"server.wire_query_self_us", "us"},
    {"server.query_member_us", "us"},
    {"server.query_freq_us", "us"},
    {"server.query_card_us", "us"},
    {"server.query_topk_us", "us"},
    {"server.rejected", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"trace.overhead_frac", "fraction"},
    {"insert.rung_sum_us", "us"},
    {"insert.gap_us", "us"},
    {"e2e.insert_bulk_p99_us", "us"},
    {"e2e.query_p99_us", "us"},
    {"e2e.visible_p50_us", "us"},
    {"e2e.visible_p99_us", "us"},
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) {
      if (!out.empty()) out += ',';
      out += std::to_string(c);
    }
  return out;
}

std::string stamp(const Options& opt) {
  std::ostringstream os;
  os << "{\"git_sha\":" << json_str(opt.git_sha)
     << ",\"source_digest\":" << json_str(opt.source_digest)
     << ",\"compiler\":" << json_str(she::build_compiler())
     << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
     << ",\"simd_isa\":" << json_str(she::simd::active_isa_name())
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"affinity\":" << json_str(affinity_list())
     << ",\"workload\":" << json_str(opt.workload) << ",\"seed\":" << opt.seed
     << ",\"seconds\":" << num(opt.seconds) << ",\"trace\":" << (opt.trace ? 1 : 0)
     << "}";
  return os.str();
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::stoull(val());
    else if (a == "--seconds") o.seconds = std::stod(val());
    else if (a == "--trace") o.trace = val() == "1";
    else if (a == "--server") o.server = val();
    else if (a == "--work-dir") o.work_dir = val();
    else if (a == "--trace-out") o.trace_out = val();
    else if (a == "--git-sha") o.git_sha = val();
    else if (a == "--source-digest") o.source_digest = val();
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--wrong-reference") o.wrong_reference = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty() || o.server.empty() || o.work_dir.empty())
    throw std::invalid_argument("--workload, --server and --work-dir are required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// The insert ladder: per-frame cost of each rung, the self time of each
/// layer, their sum beside the end-to-end frame, and the gap named.
void insert_ladder(const Workload& w, Result& r) {
  auto& m = r.metrics;
  const double she = m["_she_rung_us"];
  const double runtime = m["_runtime_rung_us"];
  const double manager = m["server.manager_insert_bulk_us"];
  const double wire = m["_wire_insert_us"];
  m["server.wire_insert_self_us"] = wire - manager;
  m["server.wire_query_self_us"] = m["_wire_member_us"] - m["she.seen_ns"] / 1e3;
  const double sum = she + (runtime - she) + (manager - runtime) + (wire - manager);
  const double e2e = m["insert_bulk_p50_us"];
  m["insert.rung_sum_us"] = sum;
  m["insert.gap_us"] = e2e - sum;
  std::printf(
      "insert ladder, us per frame of %zu keys (self time of each layer):\n"
      "  she (slowest shard's StreamMonitor::insert_batch)      %10.1f\n"
      "  runtime (ConcurrentMonitor::push_bulk, minus she)      %+10.1f\n"
      "  server (Entry::insert_bulk, minus runtime)             %+10.1f\n"
      "  wire (SheClient::insert_bulk, 1 conn, minus server)    %+10.1f\n"
      "  sum of self times                                      %10.1f\n"
      "  end-to-end insert_bulk_p50_us                          %10.1f\n"
      "  gap                                                    %+10.1f\n",
      kFrameKeys, she, runtime - she, manager - runtime, wire - manager, sum, e2e,
      e2e - sum);
  const std::size_t others = w.connections() - 1;
  if (e2e >= sum)
    std::printf(
        "  the gap is time no rung contains: the end-to-end frame shares the server "
        "with %zu other connection(s), while each rung replays frames one at a time\n",
        others);
  else if (w.paced_frames_per_s > 0)
    std::printf(
        "  the gap is negative: the workload paces its frames, so each meets a drained "
        "pipeline, while each rung replays frames back to back and every frame waits "
        "for the drain of the one before\n");
  else
    std::printf(
        "  the gap is negative: run-to-run noise between the traced quarters and the "
        "rungs exceeds the queueing behind the other connection(s)\n");
}

void print_summary(const Options& opt, const Result& r, const Metric* list,
                   std::size_t n) {
  const auto line = [&](const std::string& name, const char* unit, const char* tag) {
    const auto note = r.notes.find(name);
    const auto value = r.metrics.find(name);
    std::string text = note == r.notes.end() ? "" : note->second;
    if (*tag) {
      if (!text.empty()) text += "; ";
      text += tag;
    }
    std::printf("  %-34s %16.6g %s%s%s%s\n", name.c_str(),
                value == r.metrics.end() ? 0.0 : value->second, unit,
                text.empty() ? "" : "  (", text.c_str(), text.empty() ? "" : ")");
    if (const auto p = r.parts.find(name); p != r.parts.end()) {
      std::printf("  %-34s", "    per part:");
      for (double v : p->second) std::printf(" %.6g", v);
      std::printf("\n");
    }
  };
  std::printf("workload %s seed %llu (%s run):\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? "traced" : "untraced");
  for (std::size_t i = 0; i < n; ++i) line(list[i].name, list[i].unit, "");
  // End-to-end figures whose run-to-run spread is too wide for a bound
  // (README.md): printed in every run, and per-layer e2e.* when traced.
  for (const char* v : {"insert_bulk_p99_us", "query_p99_us", "visible_p50_us",
                        "visible_p99_us"})
    line(v, "us", "unbounded");
  // Gated, never result metrics: both read 0 on a healthy run at the
  // serving default (attempted/failed carry the error rate).
  line("member_fpr", "fraction", "gated, not a result metric");
  std::printf("  %-34s %16.6g fraction  (%llu failed of %llu ops)\n", "error_rate",
              static_cast<double>(r.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const auto& why : r.failures) std::printf("  GATE: %s\n", why.c_str());
}

}  // namespace

int run(int argc, char** argv) {
  Options opt;
  Workload w;
  try {
    opt = parse(argc, argv);
    w = workload_by_name(opt.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "she_loadgen: %s\n", e.what());
    return 2;
  }
  const std::size_t conns = w.connections();
  if (conns > std::thread::hardware_concurrency()) {
    std::fprintf(stderr,
                 "she_loadgen: workload %s needs %zu threads and connections; "
                 "this host has %u CPUs\n",
                 w.name.c_str(), conns, std::thread::hardware_concurrency());
    return 2;
  }
  std::printf("stamp %s\n", stamp(opt).c_str());
  std::fflush(stdout);

  Result r;
  SpanLog spans;
  spans.set_enabled(opt.trace);
  try {
    std::filesystem::create_directories(opt.work_dir);
    split_cpus();
    run_end_to_end(opt, w, r, spans);
    join_cpus();  // the in-process rungs run their own shard workers
    if (opt.trace) {
      run_layers(opt, w, r, spans);
      insert_ladder(w, r);
      if (!opt.trace_out.empty()) spans.write(opt.trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "she_loadgen: %s\n", e.what());
    return 2;
  }

  const Metric* list = opt.trace ? kPerLayer : kEndToEnd;
  const std::size_t n = opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  print_summary(opt, r, list, n);
  const bool correct = r.failed == 0;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    js << (i ? ", " : "") << json_str(list[i].name) << ": {\"value\": "
       << num(r.metrics[list[i].name]) << ", \"unit\": " << json_str(list[i].unit)
       << "}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
