// Shared pieces of the she_server load generator: workload table, sample
// sets, span log, the spawned server process and the phase entry points.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

inline constexpr std::size_t kFrameKeys = 8192;  // keys per INSERT_BULK
inline constexpr std::uint64_t kWindow = 64 * 1024;
inline constexpr std::size_t kShards = 4;
inline constexpr const char* kPipeline = "bench";
inline constexpr const char* kSpec = "window=64K memory=1M shards=4";
inline constexpr const char* kWalSpec =
    " wal=fsync wal-fsync-bytes=1M";  // appended for ingest_wal
// Probe keys never inserted: generated keys lie below 2.4M (caida_like
// hashes 600K ranks into 4x that range); markers live above the absent range.
inline constexpr std::uint64_t kAbsentBase = std::uint64_t{1} << 40;
inline constexpr std::uint64_t kMarkerBase = std::uint64_t{1} << 41;

struct Workload {
  std::string name;
  bool wal = false;
  std::size_t insert_conns = 0;
  double paced_frames_per_s = 0;  // 0 = closed loop
  std::size_t query_conns = 0;
  double queries_per_s = 0;  // per query connection, open loop
  bool poller = false;       // freshness poller connection
  std::size_t prefill_windows = 0;

  /// Threads and connections the timed phase uses (one per role).
  [[nodiscard]] std::size_t connections() const {
    return insert_conns + query_conns + (poller ? 1 : 0);
  }
};

/// The benchmark's workloads; throws std::invalid_argument on other names.
Workload workload_by_name(const std::string& name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;            // tiny sizes, for the benchmark's own test
  bool wrong_reference = false;  // corrupt the oracle: the gate must trip
  std::string server;            // she_server binary
  std::string work_dir;          // scratch (checkpoint roots, WAL rungs)
  std::string trace_out;         // Chrome trace-event JSON (trace runs)
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A set of timings (or other samples) with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double pct(double q) const;
  [[nodiscard]] double median() const { return pct(0.5); }
  /// The highest quantile at or below 0.99 that leaves at least ten
  /// samples above it (the p99 when there are 1000 or more samples).
  [[nodiscard]] double tail_q() const;
  [[nodiscard]] double tail() const { return pct(tail_q()); }

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

/// Spans recorded from the benchmark's own code, around calls into the
/// layers; written at the end as Chrome trace-event JSON.
class SpanLog {
 public:
  void set_enabled(bool on) { on_ = on; }
  /// `name`/`cat` must be string literals.
  void add(std::uint32_t tid, const char* name, const char* cat,
           std::int64_t start_ns, std::int64_t end_ns, std::uint64_t id = 0) {
    if (!on_) return;
    spans_.push_back({name, cat, start_ns,
                      static_cast<std::uint64_t>(end_ns - start_ns), id, tid});
  }
  void append(const SpanLog& o) {
    spans_.insert(spans_.end(), o.spans_.begin(), o.spans_.end());
  }
  void write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<she::obs::trace::CollectedSpan> spans_;
};

/// Give the load generator the last CPU of its mask and every server
/// spawned later the others, so the two never compete for a core
/// (call before starting threads); join_cpus() undoes it.
void split_cpus();
void join_cpus();

/// she_server running as a child process.  The destructor stops it
/// (SIGTERM, then SIGKILL after a grace period) and reaps it.
class ServerProc {
 public:
  ServerProc(const std::string& exe, const std::vector<std::string>& args,
             const std::string& log_path);
  ~ServerProc();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  void stop();
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint16_t http_port() const { return http_port_; }
  /// Peak resident set (VmHWM) so far, MiB.
  [[nodiscard]] double vm_hwm_mib() const;
  /// GET `path` from the HTTP listener; the response body.
  [[nodiscard]] std::string http_get(const std::string& path) const;

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;
  std::string log_path_;
};

/// Value of `"key":<number>` in a flat JSON object (first occurrence).
double json_number(const std::string& json, const std::string& key);
/// Sum of every sample of Prometheus metric `name` (all label sets).
double prom_sum(const std::string& text, const std::string& name);

/// Trace frames: the caida_like key stream cut into kFrameKeys frames.
struct Trace {
  std::vector<std::uint64_t> keys;
  [[nodiscard]] std::size_t frames() const { return keys.size() / kFrameKeys; }
  [[nodiscard]] std::span<const std::uint64_t> frame(std::size_t i) const {
    return {keys.data() + (i % frames()) * kFrameKeys, kFrameKeys};
  }
};
Trace make_trace(std::uint64_t seed, std::size_t frames);

/// Shard the server routes `key` to (the pipeline's default route seed).
std::size_t shard_of(std::uint64_t key);

/// Everything one run measured, by metric name.
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> parts;  // per-part values
  std::map<std::string, std::string> notes;          // quantile, sample count
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // why each gate failure happened
  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
};

/// The end-to-end run against a spawned she_server: set-up (repeated),
/// the timed phase and the closing accuracy phase.  With opt.trace the
/// timed phase alternates untraced and traced quarters and the wire rungs
/// of the insert and query ladders run before the server stops.
void run_end_to_end(const Options& opt, const Workload& w, Result& r,
                    SpanLog& spans);

/// In-process rungs: calls into the public functions of common, she,
/// runtime and server on the workload's frames, no socket.
void run_layers(const Options& opt, const Workload& w, Result& r,
                SpanLog& spans);

}  // namespace perfbench
