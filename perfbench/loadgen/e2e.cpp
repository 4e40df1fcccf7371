// End-to-end phases against a spawned she_server: set-up, the timed
// workload, and the closing accuracy phase checked against an exact window.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "bench.hpp"
#include "server/client.hpp"
#include "stream/oracle.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using she::server::ClientError;
using she::server::SheClient;
using she::server::Status;

namespace {

// Closing-phase gate: an answer outside these bounds fails the run.  The
// bounds sit well above what the serving default measures (README.md).
constexpr double kMaxCardRe = 0.15;
constexpr double kMaxFreqAre = 5.0;
constexpr double kMaxMemberFpr = 0.01;
// SHE-CM never underestimates except when every probed counter is young
// (probability about 2^-8 per query at the serving default).
constexpr double kMaxFreqUnderRate = 0.02;
// A marker frame that is still not visible after this long fails the run.
constexpr std::int64_t kVisibleTimeoutNs = 2'000'000'000;
// Open-loop validity: the sender may run this late against its schedule
// (beyond waiting on a reply) at p99 before the run is declared invalid.
constexpr double kMaxLagP99Us = 5000;

enum QueryKind { kMember = 0, kFreq = 1, kCard = 2, kTopk = 3, kKinds = 4 };
const char* const kKindSpan[kKinds] = {"QUERY membership", "QUERY frequency",
                                       "QUERY cardinality", "QUERY topk"};

/// Per-thread tallies of one phase, merged after the threads join.
struct Tally {
  Samples insert_rtt_us;
  Samples query_us;              // from the scheduled (or send) time
  Samples kind_us[kKinds];       // send to reply, per kind
  Samples visible_us;
  Samples lag_us;
  std::uint64_t keys = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::vector<std::string> why;
  std::int64_t last_ack_ns = 0;
  double wall_s = 0;  // timed phases: first send to last ack
  double rss_mib = 0;  // timed phases: the server's VmHWM at the end
  SpanLog spans;

  void merge(Tally& o) {
    insert_rtt_us.append(o.insert_rtt_us);
    query_us.append(o.query_us);
    for (int k = 0; k < kKinds; ++k) kind_us[k].append(o.kind_us[k]);
    visible_us.append(o.visible_us);
    lag_us.append(o.lag_us);
    keys += o.keys;
    ops += o.ops;
    failed += o.failed;
    rejected += o.rejected;
    why.insert(why.end(), o.why.begin(), o.why.end());
    last_ack_ns = std::max(last_ack_ns, o.last_ack_ns);
    wall_s += o.wall_s;
    spans.append(o.spans);
  }
  void fail(std::string w) {
    ++failed;
    if (why.size() < 8) why.push_back(std::move(w));
  }
};

/// Run `op` as one counted request; a refused or failed request counts
/// against the error rate instead of aborting the run.
template <typename F>
bool counted(Tally& t, const char* what, F&& op) {
  ++t.ops;
  try {
    op();
    return true;
  } catch (const ClientError& e) {
    if (e.status() == Status::kOverloaded || e.status() == Status::kTimeout)
      ++t.rejected;
    t.fail(std::string(what) + ": " + e.what());
    return false;
  }
}

std::uint64_t insert_frame(SheClient& cl, std::span<const std::uint64_t> keys,
                           Tally& t) {
  std::uint64_t acc = 0;
  if (!counted(t, "INSERT_BULK", [&] { acc = cl.insert_bulk(kPipeline, keys); }))
    return 0;
  if (acc != keys.size())
    t.fail("INSERT_BULK accepted " + std::to_string(acc) + " of " +
           std::to_string(keys.size()) + " keys on a lossless pipeline");
  t.keys += acc;
  return acc;
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Membership-poll `marker` until the server reports it, timing from
/// `ack_ns`; false (and a failure) when it never shows.
bool await_visible(SheClient& cl, std::uint64_t marker, std::int64_t ack_ns,
                   Tally& t) {
  for (;;) {
    bool present = false;
    if (!counted(t, "QUERY membership", [&] {
          present = cl.query_membership(kPipeline, marker);
        }))
      return false;
    const std::int64_t reply = now_ns();
    if (present) {
      t.visible_us.add(us(reply - ack_ns));
      return true;
    }
    if (reply - ack_ns > kVisibleTimeoutNs) {
      t.fail("marker " + std::to_string(marker) + " not visible after 2 s");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

/// Next marker the server currently reports absent (a marker the sketch
/// already answers "present" for would measure nothing).
std::uint64_t fresh_marker(SheClient& cl, std::uint64_t& next, Tally& t) {
  for (;;) {
    const std::uint64_t m = next++;
    bool present = true;
    counted(t, "QUERY membership",
            [&] { present = cl.query_membership(kPipeline, m); });
    if (!present) return m;
  }
}

std::vector<std::string> server_args(const Workload& w, const std::string& ckpt) {
  std::vector<std::string> a{"--port", "0", "--http-port", "0"};
  if (w.wal) {
    a.push_back("--checkpoint-root");
    a.push_back(ckpt);
  }
  return a;
}

struct Live {
  std::unique_ptr<ServerProc> server;
  std::vector<SheClient> clients;
  double setup_s = 0;
};

/// Spawn, connect `conns` clients, CREATE, pre-fill: the timed set-up.
Live set_up(const Options& opt, const Workload& w, const Trace& trace,
            std::size_t conns, int attempt, Tally& t) {
  const std::string ckpt = opt.work_dir + "/ckpt-" + std::to_string(attempt);
  fs::remove_all(ckpt);
  Live live;
  const std::int64_t t0 = now_ns();
  live.server = std::make_unique<ServerProc>(
      opt.server, server_args(w, ckpt),
      opt.work_dir + "/server-" + std::to_string(attempt) + ".log");
  for (std::size_t c = 0; c < conns; ++c)
    live.clients.emplace_back("127.0.0.1", live.server->port());
  SheClient& ctl = live.clients.front();
  ctl.create(kPipeline, std::string(kSpec) + (w.wal ? kWalSpec : ""));
  const std::size_t prefill = w.prefill_windows * (kWindow / kFrameKeys);
  for (std::size_t f = 0; f < prefill; ++f) insert_frame(ctl, trace.frame(f), t);
  if (prefill > 0) ctl.flush(kPipeline);
  live.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return live;
}

/// Shared state of one timed phase.
struct Phase {
  const Trace* trace = nullptr;
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::int64_t start_ns = 0;
  std::int64_t deadline_ns = 0;
  bool traced = false;
  std::atomic<std::size_t>* cursor = nullptr;  // next trace frame
  std::atomic<std::size_t> last_sent{0};       // newest frame the pacer sent
  std::atomic<std::uint64_t> pending_marker{0};
  std::atomic<std::uint64_t> acked_marker{0};
  std::atomic<std::int64_t> acked_ns{0};
  std::uint64_t* next_marker = nullptr;
};

void closed_loop_inserter(Phase& p, SheClient& cl, std::uint32_t tid, Tally& t) {
  t.spans.set_enabled(p.traced);
  while (now_ns() < p.deadline_ns) {
    const std::size_t i = p.cursor->fetch_add(1, std::memory_order_relaxed);
    const std::int64_t t0 = now_ns();
    insert_frame(cl, p.trace->frame(i), t);
    const std::int64_t t1 = now_ns();
    t.insert_rtt_us.add(us(t1 - t0));
    t.spans.add(tid, "INSERT_BULK", "wire", t0, t1, i + 1);
    t.last_ack_ns = t1;
  }
}

void paced_inserter(Phase& p, SheClient& cl, std::uint32_t tid, Tally& t) {
  t.spans.set_enabled(p.traced);
  const double period_ns = 1e9 / p.w->paced_frames_per_s;
  std::vector<std::uint64_t> buf;
  std::int64_t prev_done = p.start_ns;
  for (std::size_t n = 0;; ++n) {
    const auto sched = p.start_ns + static_cast<std::int64_t>(n * period_ns);
    if (sched >= p.deadline_ns) break;
    sleep_until_ns(sched);
    const std::int64_t send = now_ns();
    t.lag_us.add(us(send - std::max(sched, prev_done)));
    const std::size_t i = p.cursor->fetch_add(1, std::memory_order_relaxed);
    std::span<const std::uint64_t> frame = p.trace->frame(i);
    const std::uint64_t marker = p.pending_marker.exchange(0);
    if (marker != 0) {
      buf.assign(frame.begin(), frame.end());
      buf.back() = marker;
      frame = buf;
    }
    insert_frame(cl, frame, t);
    const std::int64_t done = now_ns();
    p.last_sent.store(i, std::memory_order_relaxed);
    t.insert_rtt_us.add(us(done - send));
    t.spans.add(tid, "INSERT_BULK", "wire", send, done, i + 1);
    t.last_ack_ns = prev_done = done;
    if (marker != 0) {
      p.acked_ns.store(done, std::memory_order_relaxed);
      p.acked_marker.store(marker, std::memory_order_release);
    }
  }
}

void open_loop_querier(Phase& p, SheClient& cl, std::uint32_t tid,
                       std::size_t index, Tally& t) {
  t.spans.set_enabled(p.traced);
  std::mt19937_64 rng(p.seed * 1000003 + index);
  const double period_ns = 1e9 / p.w->queries_per_s;
  const double phase_ns = period_ns * static_cast<double>(index) /
                          static_cast<double>(p.w->query_conns);
  std::int64_t prev_done = p.start_ns;
  for (std::size_t n = 0;; ++n) {
    const auto sched =
        p.start_ns + static_cast<std::int64_t>(phase_ns + n * period_ns);
    if (sched >= p.deadline_ns) break;
    const int roll = static_cast<int>(rng() % 100);
    const QueryKind kind = roll < 45 ? kMember
                           : roll < 90 ? kFreq
                           : roll < 95 ? kCard
                                       : kTopk;
    std::uint64_t key = kAbsentBase + rng() % (std::uint64_t{1} << 30);
    if (rng() & 1) {  // a key from the frames the pacer sent last
      const std::size_t newest = p.last_sent.load(std::memory_order_relaxed);
      const std::size_t f = newest - std::min<std::size_t>(newest, rng() % 8);
      key = p.trace->frame(f)[rng() % kFrameKeys];
    }
    sleep_until_ns(sched);
    const std::int64_t send = now_ns();
    t.lag_us.add(us(send - std::max(sched, prev_done)));
    counted(t, kKindSpan[kind], [&] {
      switch (kind) {
        case kMember: (void)cl.query_membership(kPipeline, key); break;
        case kFreq: (void)cl.query_frequency(kPipeline, key); break;
        case kCard: (void)cl.query_cardinality(kPipeline); break;
        default: (void)cl.query_topk(kPipeline, 10); break;
      }
    });
    const std::int64_t done = now_ns();
    prev_done = done;
    t.query_us.add(us(done - sched));
    t.kind_us[kind].add(us(done - send));
    t.spans.add(tid, kKindSpan[kind], "wire", send, done, n + 1);
  }
}

void freshness_poller(Phase& p, SheClient& cl, std::uint32_t tid, Tally& t) {
  t.spans.set_enabled(p.traced);
  while (now_ns() < p.deadline_ns) {
    const std::uint64_t m = fresh_marker(cl, *p.next_marker, t);
    p.pending_marker.store(m);
    while (p.acked_marker.load(std::memory_order_acquire) != m) {
      if (now_ns() >= p.deadline_ns) return;  // the pacer has stopped
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const std::int64_t ack = p.acked_ns.load(std::memory_order_relaxed);
    await_visible(cl, m, ack, t);
    t.spans.add(tid, "visible", "freshness", ack, now_ns(), m);
  }
}

/// One timed phase of `seconds`; threads = roles, one connection each.
Tally timed_phase(const Workload& w, const Trace& trace, std::vector<SheClient>& cl,
                  std::atomic<std::size_t>& cursor, std::uint64_t& next_marker,
                  std::uint64_t seed, double seconds, bool traced) {
  Phase p;
  p.trace = &trace;
  p.w = &w;
  p.seed = seed;
  p.traced = traced;
  p.cursor = &cursor;
  p.next_marker = &next_marker;
  p.last_sent.store(cursor.load());
  const std::size_t roles = w.connections();
  std::vector<Tally> tallies(roles);
  const auto role = [&](std::size_t r) {
    const auto tid = static_cast<std::uint32_t>(r + 1);
    if (r < w.insert_conns) {
      if (w.paced_frames_per_s > 0) paced_inserter(p, cl[r], tid, tallies[r]);
      else closed_loop_inserter(p, cl[r], tid, tallies[r]);
    } else if (r < w.insert_conns + w.query_conns) {
      open_loop_querier(p, cl[r], tid, r - w.insert_conns, tallies[r]);
    } else {
      freshness_poller(p, cl[r], tid, tallies[r]);
    }
  };
  p.start_ns = now_ns();
  p.deadline_ns = p.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  {
    // The calling thread takes the last role: `roles` threads in all.
    std::vector<std::jthread> threads;
    for (std::size_t r = 0; r + 1 < roles; ++r) threads.emplace_back(role, r);
    role(roles - 1);
  }
  Tally all;
  for (auto& t : tallies) all.merge(t);
  if (all.last_ack_ns == 0) all.last_ack_ns = now_ns();
  if (all.lag_us.size() == 0) all.lag_us.add(0);  // closed loops: no schedule
  all.wall_s = static_cast<double>(all.last_ack_ns - p.start_ns) / 1e9;
  all.spans.add(0, "timed phase", "loadgen", p.start_ns, all.last_ack_ns);
  return all;
}

struct Oracle {
  explicit Oracle(bool wrong) : scale(wrong ? 2.0 : 1.0) {
    for (std::size_t s = 0; s < kShards; ++s)
      shard.emplace_back(kWindow / kShards);
  }
  void insert(std::uint64_t k) { shard[shard_of(k)].insert(k); }
  [[nodiscard]] double frequency(std::uint64_t k) const {
    return scale * static_cast<double>(shard[shard_of(k)].frequency(k));
  }
  [[nodiscard]] double cardinality() const {
    double c = 0;
    for (const auto& o : shard) c += static_cast<double>(o.cardinality());
    return scale * c;
  }
  std::vector<she::stream::WindowOracle> shard;
  double scale;  // != 1 only for the deliberately wrong reference
};

struct Accuracy {
  double card_re_sum = 0;
  std::uint64_t card_n = 0;
  double freq_are_sum = 0;
  std::uint64_t freq_n = 0;
  std::uint64_t freq_under = 0;  // estimates below the true frequency
  double worst_re = 0;
  std::string worst;             // the answer with the largest error
  std::uint64_t fp = 0;
  std::uint64_t absent_n = 0;
};

/// One probe round against the exact window: in-window keys (membership
/// must hold, frequency error), absent keys (false positives), the
/// cardinality and the top-10 list.
void probe_round(SheClient& cl, const Oracle& oracle, std::mt19937_64& rng,
                 std::size_t probes, Accuracy& acc, Tally& t) {
  std::vector<std::uint64_t> distinct;
  std::uint64_t heaviest = 0;
  std::uint64_t heaviest_n = 0;
  for (const auto& o : oracle.shard)
    for (const auto& [k, n] : o.counts()) {
      distinct.push_back(k);
      if (n > heaviest_n || (n == heaviest_n && k < heaviest)) {
        heaviest = k;
        heaviest_n = n;
      }
    }
  const auto timed = [&](QueryKind kind, auto&& op) {
    const std::int64_t t0 = now_ns();
    const bool ok = counted(t, kKindSpan[kind], op);
    const std::int64_t t1 = now_ns();
    t.query_us.add(us(t1 - t0));
    t.kind_us[kind].add(us(t1 - t0));
    t.spans.add(0, kKindSpan[kind], "closing", t0, t1);
    return ok;
  };
  for (std::size_t i = 0; i < probes; ++i) {
    const std::uint64_t k = distinct[rng() % distinct.size()];
    bool present = false;
    if (timed(kMember, [&] { present = cl.query_membership(kPipeline, k); }) &&
        !present)
      t.fail("in-window key " + std::to_string(k) + " reported absent");
    std::uint64_t est = 0;
    if (timed(kFreq, [&] { est = cl.query_frequency(kPipeline, k); })) {
      const double truth = oracle.frequency(k);
      acc.freq_are_sum += std::fabs(static_cast<double>(est) - truth) / truth;
      if (std::fabs(static_cast<double>(est) - truth) / truth > acc.worst_re) {
        acc.worst_re = std::fabs(static_cast<double>(est) - truth) / truth;
        acc.worst = "worst: key " + std::to_string(k) + " estimated " + std::to_string(est) +
                    ", true " + std::to_string(static_cast<std::uint64_t>(truth));
      }
      acc.freq_under += static_cast<double>(est) < truth ? 1 : 0;
      ++acc.freq_n;
    }
    const std::uint64_t a = kAbsentBase + rng() % (std::uint64_t{1} << 30);
    if (timed(kMember, [&] { present = cl.query_membership(kPipeline, a); })) {
      acc.fp += present ? 1 : 0;
      ++acc.absent_n;
    }
  }
  double card = 0;
  if (timed(kCard, [&] { card = cl.query_cardinality(kPipeline); })) {
    const double truth = oracle.cardinality();
    acc.card_re_sum += std::fabs(card - truth) / truth;
    ++acc.card_n;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> top;
  if (timed(kTopk, [&] { top = cl.query_topk(kPipeline, 10); })) {
    const bool found = std::any_of(top.begin(), top.end(),
                                   [&](const auto& e) { return e.first == heaviest; });
    if (top.size() != 10 || !found)
      t.fail("top-10 misses the window's heaviest key " + std::to_string(heaviest));
  }
}

/// The untimed closing phase on one connection: frames with a FLUSH after
/// each (so drain order equals send order), a fresh marker per frame
/// (idle-server freshness), and probe rounds once every shard's exact
/// window is full.
Tally closing_phase(const Options& opt, SheClient& cl, std::uint64_t& next_marker,
                    Accuracy& acc) {
  const std::size_t warm = 2 * kWindow / kFrameKeys;
  const std::size_t probe_frames = opt.smoke ? 8 : 224;
  const std::size_t probes = 64;
  // Closing frames come from their own stream so they are the same for
  // every workload at a given seed.
  const Trace closing = make_trace(opt.seed ^ 0xC105ED, warm + probe_frames);
  Oracle oracle(opt.wrong_reference);
  std::mt19937_64 rng(opt.seed * 7919 + 17);
  Tally t;
  t.spans.set_enabled(opt.trace);
  std::vector<std::uint64_t> keys;
  for (std::size_t f = 0; f < warm + probe_frames; ++f) {
    const auto frame = closing.frame(f);
    keys.assign(frame.begin(), frame.end());
    keys.back() = fresh_marker(cl, next_marker, t);
    const std::int64_t t0 = now_ns();
    insert_frame(cl, keys, t);
    const std::int64_t ack = now_ns();
    t.spans.add(0, "INSERT_BULK", "closing", t0, ack, f + 1);
    await_visible(cl, keys.back(), ack, t);
    counted(t, "FLUSH", [&] { cl.flush(kPipeline); });
    for (std::uint64_t k : keys) oracle.insert(k);
    if (f >= warm) probe_round(cl, oracle, rng, probes, acc, t);
  }
  return t;
}

}  // namespace

void run_end_to_end(const Options& opt, const Workload& w, Result& r,
                    SpanLog& spans) {
  // Enough frames that a run at full speed cycles the trace a few times
  // rather than replaying a handful of frames.
  const Trace trace = make_trace(opt.seed, opt.smoke ? 64 : 512);
  const std::size_t conns = w.connections();
  Tally setup_tally;

  // The timed phase runs in parts, each on a freshly spawned server, and
  // every figure is the median of its per-part values.  The server's
  // threads settle into a different placement on each spawn, and one
  // placement can hold for seconds; independent parts keep one of them
  // from setting the run's figures.  Each spawn is also one set-up
  // sample.  A traced run alternates untraced and traced quarters, so the
  // overhead of its spans is measured the same way.
  const int nparts = opt.trace ? 4 : 7;
  Samples setup_s;
  Live live;
  std::vector<Tally> parts;
  Tally timed;
  Tally untraced;
  std::atomic<std::size_t> cursor{0};
  std::uint64_t next_marker = kMarkerBase;
  std::map<std::string, double> counters;  // STATS deltas, traced parts
  for (int q = 0; q < nparts; ++q) {
    live = Live{};  // stops the previous server first
    live = set_up(opt, w, trace, conns, q, setup_tally);
    setup_s.add(live.setup_s);
    cursor = w.prefill_windows * (kWindow / kFrameKeys);
    const bool traced = opt.trace && q % 2 == 1;
    const std::string before = live.clients.front().stats_json(kPipeline);
    const std::int64_t t0 = now_ns();
    parts.push_back(timed_phase(w, trace, live.clients, cursor, next_marker,
                                opt.seed + q, opt.seconds / nparts, traced));
    parts.back().rss_mib = live.server->vm_hwm_mib();
    if (traced) {
      const std::string after = live.clients.front().stats_json(kPipeline);
      for (const char* k : {"produced", "inserted", "stall_ns", "publishes", "dropped",
                            "push_timeouts"})
        counters[k] += json_number(after, k) - json_number(before, k);
      counters["queue_hwm"] = std::max(counters["queue_hwm"], json_number(after, "queue_hwm"));
      counters["seconds"] += static_cast<double>(now_ns() - t0) / 1e9;
    }
    if (!opt.trace || traced) timed.merge(parts.back());
    else untraced.merge(parts.back());
  }
  r.metrics["setup_s"] = setup_s.median();
  r.notes["setup_s"] = "median of " + std::to_string(nparts) + " set-ups";
  SheClient& ctl = live.clients.front();
  if (opt.trace) {  // per-layer figures come from the traced quarters
    std::erase_if(parts, [i = 0](const Tally&) mutable { return i++ % 2 == 0; });
  }
  const auto median_of = [&](const char* name, auto stat) {
    Samples s;
    for (const Tally& t : parts) {
      s.add(stat(t));
      r.parts[name].push_back(stat(t));
    }
    return s.median();
  };
  Accuracy acc;
  Tally closing = closing_phase(opt, ctl, next_marker, acc);
  const std::string prom = live.server->http_get("/metrics");

  // Paced and open-loop workloads report their timed phase; closed-loop
  // ingest has no queries or markers there, so it reports the idle server
  // of the closing phase.
  const bool loaded_reads = w.query_conns > 0;
  r.metrics["ingest_items_per_s"] = median_of("ingest_items_per_s",
      [](const Tally& t) { return static_cast<double>(t.keys) / t.wall_s; });
  r.metrics["insert_bulk_p50_us"] =
      median_of("insert_bulk_p50_us", [](const Tally& t) { return t.insert_rtt_us.median(); });
  r.metrics["insert_bulk_p99_us"] =
      median_of("insert_bulk_p99_us", [](const Tally& t) { return t.insert_rtt_us.tail(); });
  const Tally& reads = loaded_reads ? timed : closing;
  r.metrics["query_p50_us"] =
      loaded_reads ? median_of("query_p50_us", [](const Tally& t) { return t.query_us.median(); })
                   : closing.query_us.median();
  r.metrics["query_p99_us"] =
      loaded_reads ? median_of("query_p99_us", [](const Tally& t) { return t.query_us.tail(); })
                   : closing.query_us.tail();
  r.metrics["visible_p50_us"] =
      w.poller ? median_of("visible_p50_us", [](const Tally& t) { return t.visible_us.median(); })
               : closing.visible_us.median();
  r.metrics["visible_p99_us"] =
      w.poller ? median_of("visible_p99_us", [](const Tally& t) { return t.visible_us.tail(); })
               : closing.visible_us.tail();
  for (const char* k : {"insert_bulk_p99_us", "query_p99_us", "visible_p50_us",
                        "visible_p99_us"})
    r.metrics[std::string("e2e.") + k] = r.metrics[k];
  r.notes["card_re"] = std::to_string(acc.card_n) + " probes";
  r.metrics["card_re"] = acc.card_re_sum / static_cast<double>(std::max<std::uint64_t>(1, acc.card_n));
  r.metrics["freq_are"] = acc.freq_are_sum / static_cast<double>(std::max<std::uint64_t>(1, acc.freq_n));
  r.notes["freq_are"] = std::to_string(acc.freq_n) + " probes; " + acc.worst;
  r.metrics["member_fpr"] = static_cast<double>(acc.fp) /
                            static_cast<double>(std::max<std::uint64_t>(1, acc.absent_n));
  r.notes["member_fpr"] = std::to_string(acc.fp) + " of " + std::to_string(acc.absent_n) +
                          " absent probes";
  // Peak RSS swings with how the allocator's arenas meet the handler
  // threads, so it too is the median over the parts' servers.
  r.metrics["server_rss_mb"] =
      median_of("server_rss_mb", [](const Tally& t) { return t.rss_mib; });
  r.metrics["loadgen.lag_p99_us"] = timed.lag_us.tail();

  // Quantile and sample count behind each timing, for the human summary;
  // timed-phase figures are medians over parts, so their counts are per part.
  const auto note = [&](const char* name, const Samples& s, bool tail, bool per_part) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "q%.4g of n=%zu%s", tail ? s.tail_q() : 0.5, s.size(),
                  per_part ? " per part, median of the parts" : "");
    r.notes[name] = buf;
  };
  const Tally& first = parts.front();
  note("insert_bulk_p50_us", first.insert_rtt_us, false, true);
  note("insert_bulk_p99_us", first.insert_rtt_us, true, true);
  note("query_p50_us", (loaded_reads ? first : closing).query_us, false, loaded_reads);
  note("query_p99_us", (loaded_reads ? first : closing).query_us, true, loaded_reads);
  note("visible_p50_us", (w.poller ? first : closing).visible_us, false, w.poller);
  note("visible_p99_us", (w.poller ? first : closing).visible_us, true, w.poller);

  // The gate.
  Tally all;
  all.merge(setup_tally);
  all.merge(timed);
  all.merge(untraced);
  all.merge(closing);
  if (r.metrics["card_re"] > kMaxCardRe)
    all.fail("card_re " + std::to_string(r.metrics["card_re"]) + " above its bound");
  if (r.metrics["freq_are"] > kMaxFreqAre)
    all.fail("freq_are " + std::to_string(r.metrics["freq_are"]) + " above its bound");
  const double under = static_cast<double>(acc.freq_under) /
                       static_cast<double>(std::max<std::uint64_t>(1, acc.freq_n));
  if (under > kMaxFreqUnderRate)
    all.fail("frequency underestimated for " + std::to_string(under) +
             " of in-window probes, above its bound");
  if (r.metrics["member_fpr"] > kMaxMemberFpr)
    all.fail("member_fpr " + std::to_string(r.metrics["member_fpr"]) + " above its bound");
  if (w.paced_frames_per_s > 0 && r.metrics["loadgen.lag_p99_us"] > kMaxLagP99Us)
    all.fail("invalid run: the load generator fell " +
             std::to_string(r.metrics["loadgen.lag_p99_us"]) +
             " us behind its schedule at p99 (bound " +
             std::to_string(kMaxLagP99Us) + " us); not a server measurement");
  r.attempted += all.ops;
  r.failed += all.failed;
  r.failures.insert(r.failures.end(), all.why.begin(), all.why.end());

  if (opt.trace) {
    const auto kind_p50 = [&](int k) { return reads.kind_us[k].median(); };
    r.metrics["server.query_member_us"] = kind_p50(kMember);
    r.metrics["server.query_freq_us"] = kind_p50(kFreq);
    r.metrics["server.query_card_us"] = kind_p50(kCard);
    r.metrics["server.query_topk_us"] = kind_p50(kTopk);
    r.metrics["server.rejected"] +=
        static_cast<double>(all.rejected) +
        prom_sum(prom, "she_server_overloaded_total") +
        prom_sum(prom, "she_server_deadline_shed_total");
    const double produced = std::max(1.0, counters["produced"]);
    const double inserted = std::max(1.0, counters["inserted"]);
    r.metrics["runtime.stall_ns_per_key"] = counters["stall_ns"] / produced;
    r.metrics["runtime.queue_hwm"] = counters["queue_hwm"];
    r.metrics["runtime.publishes_per_mkey"] = counters["publishes"] / inserted * 1e6;
    r.metrics["runtime.drain_items_per_s"] = counters["inserted"] / counters["seconds"];
    r.metrics["server.rejected"] += counters["dropped"] + counters["push_timeouts"];
    // Tracing overhead on the workload's headline number.
    if (loaded_reads)
      r.metrics["trace.overhead_frac"] =
          timed.kind_us[kMember].median() / untraced.kind_us[kMember].median() - 1;
    else
      r.metrics["trace.overhead_frac"] =
          (static_cast<double>(untraced.keys) / untraced.wall_s) /
              (static_cast<double>(timed.keys) / timed.wall_s) - 1;

    // Wire rungs of the two ladders: one connection, quiescent server,
    // the same frames the in-process rungs replay.
    const std::size_t nf = opt.smoke ? 8 : 64;
    const std::int64_t t0 = now_ns();
    Tally wire;
    for (std::size_t f = 0; f < nf; ++f) insert_frame(ctl, trace.frame(f), wire);
    ctl.flush(kPipeline);
    r.metrics["_wire_insert_us"] = us(now_ns() - t0) / static_cast<double>(nf);
    spans.add(0, "rung wire insert", "rung", t0, now_ns());
    Samples member;
    std::mt19937_64 rng(opt.seed);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t k = i % 2 ? trace.frame(nf - 1)[rng() % kFrameKeys]
                                    : kAbsentBase + rng() % (std::uint64_t{1} << 30);
      const std::int64_t q0 = now_ns();
      (void)ctl.query_membership(kPipeline, k);
      member.add(us(now_ns() - q0));
    }
    r.metrics["_wire_member_us"] = member.median();
    r.failed += wire.failed;
    r.attempted += wire.ops + 2000;
  }
  spans.append(setup_tally.spans);
  spans.append(untraced.spans);
  spans.append(timed.spans);
  spans.append(closing.spans);
  live.server->stop();
}

}  // namespace perfbench
