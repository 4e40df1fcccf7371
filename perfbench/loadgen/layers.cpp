// In-process rungs of the traced run: the workload's frames replayed
// through successively deeper public entry points of common, she, runtime
// and server, each call wrapped in a span.  A layer's self time is its
// rung minus the rung below on the same frames.
#include <algorithm>
#include <filesystem>
#include <random>

#include "bench.hpp"
#include "common/simd_hash.hpp"
#include "common/wal.hpp"
#include "runtime/snapshot.hpp"
#include "server/pipeline_manager.hpp"
#include "she/monitor.hpp"
#include "she/tuning.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using she::MonitorConfig;
using she::StreamMonitor;

namespace {

double per(std::int64_t ns, std::size_t n) {
  return static_cast<double>(ns) / static_cast<double>(std::max<std::size_t>(1, n));
}

/// Median over `reps` repetitions of `body()`'s wall time, ns.
template <typename F>
double median_ns(int reps, F&& body) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    body();
    s.add(static_cast<double>(now_ns() - t0));
  }
  return s.median();
}

/// Shard `idx`'s slice of the monitor config, as ConcurrentMonitor builds it.
MonitorConfig shard_config(const MonitorConfig& g, std::size_t idx) {
  MonitorConfig c = g;
  c.window = std::max<std::uint64_t>(1, g.window / kShards);
  c.memory_bytes = std::max<std::size_t>(1024, g.memory_bytes / kShards);
  c.seed = g.seed + static_cast<std::uint32_t>(idx) * 0x9e3779b9u;
  return c;
}

/// The sub-sketches of one shard's StreamMonitor, sized by its budget split
/// (membership 3 : frequency 2 : cardinality 1).  Checked against the
/// monitor's own memory_bytes() so a change to the split cannot go unseen.
struct ShardSketches {
  explicit ShardSketches(const MonitorConfig& m) {
    const double unit = static_cast<double>(m.memory_bytes) / 6;
    const double hint = static_cast<double>(m.window) / 4;
    she::SheConfig bf;
    bf.window = m.window;
    bf.cells = std::max<std::size_t>(1024, static_cast<std::size_t>(3 * unit) * 8);
    bf.group_cells = 64;
    bf.seed = m.seed;
    bf.alpha = she::optimal_alpha_bf(bf.cells, bf.group_cells, hint, 8);
    she::SheConfig bm;
    bm.window = m.window;
    bm.seed = m.seed + 1;
    bm.alpha = 0.2;
    bm.cells = std::clamp<std::size_t>(static_cast<std::size_t>(unit) * 8, 1024,
                                       std::max<std::size_t>(1024, static_cast<std::size_t>(32 * hint)));
    bm.group_cells = 64;
    const std::size_t max_groups = she::max_groups_for_failure(hint, 1, bm.alpha, 0.5);
    if (bm.groups() > max_groups) bm.group_cells = (bm.cells + max_groups - 1) / max_groups;
    she::SheConfig cm;
    cm.window = m.window;
    cm.cells = std::max<std::size_t>(1024, static_cast<std::size_t>(2 * unit) / 4);
    cm.group_cells = 64;
    cm.seed = m.seed + 2;
    cm.alpha = 1.0;
    bf_cfg = bf;
    bm_cfg = bm;
    cm_cfg = cm;
    hh_slots = m.heavy_hitter_slots;
  }
  she::SheConfig bf_cfg, bm_cfg, cm_cfg;
  std::size_t hh_slots = 0;
};

}  // namespace

void run_layers(const Options& opt, const Workload& w, Result& r,
                SpanLog& spans) {
  const std::size_t nf = opt.smoke ? 8 : 64;  // the wire rung's frames
  const int reps = opt.smoke ? 1 : 5;
  const Trace trace = make_trace(opt.seed, nf);
  const std::size_t keys = nf * kFrameKeys;
  const she::server::PipelineSpec spec = she::server::parse_sketch_spec(kSpec);
  const auto span = [&](const char* name, std::int64_t t0) {
    spans.add(0, name, "rung", t0, now_ns());
  };

  // Per-shard sub-streams, in arrival order (what each shard worker drains).
  std::vector<std::vector<std::uint64_t>> sub(kShards);
  std::vector<std::vector<std::size_t>> frame_end(kShards);  // per frame
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::uint64_t k : trace.frame(f)) sub[shard_of(k)].push_back(k);
    for (std::size_t s = 0; s < kShards; ++s) frame_end[s].push_back(sub[s].size());
  }
  const std::vector<std::uint64_t>& s0 = sub[0];

  // common: the SIMD hash kernel, and the WAL append with 1 MiB group commit.
  {
    std::vector<std::uint32_t> out(keys);
    std::int64_t t0 = now_ns();
    const double ns = median_ns(reps * 4, [&] {
      she::simd::bobhash32_keys(trace.keys.data(), keys, 0x5eed, out.data());
    });
    span("rung common.bobhash32_keys", t0);
    r.metrics["common.hash_ns_per_key"] = ns / static_cast<double>(keys);

    int rep = 0;
    t0 = now_ns();
    const double wal_ns = median_ns(reps, [&] {
      const std::string dir = opt.work_dir + "/wal-rung-" + std::to_string(rep++);
      fs::create_directories(dir);
      she::ShardWal::Options wo;
      wo.mode = she::WalMode::kFsync;
      wo.fsync_interval_bytes = std::size_t{1} << 20;
      std::vector<std::unique_ptr<she::ShardWal>> logs;
      for (std::size_t s = 0; s < kShards; ++s) {
        const std::string path = dir + "/shard-" + std::to_string(s) + ".wal";
        logs.push_back(std::make_unique<she::ShardWal>(path, wo, she::read_wal(path)));
      }
      for (std::size_t f = 0; f < nf; ++f)
        for (std::size_t s = 0; s < kShards; ++s) {
          const std::size_t b = f == 0 ? 0 : frame_end[s][f - 1];
          logs[s]->append({sub[s].data() + b, frame_end[s][f] - b}, 0, 0);
        }
      for (auto& l : logs) l->flush();
    });
    span("rung common.ShardWal::append", t0);
    r.metrics["common.wal_append_ns_per_key"] = wal_ns / static_cast<double>(keys);
  }

  // she: each sub-sketch and the whole shard monitor on shard 0's stream.
  const MonitorConfig m0 = shard_config(spec.monitor, 0);
  {
    const ShardSketches cfg(m0);
    {
      she::SheBloomFilter bf(cfg.bf_cfg, 8);
      she::SheBitmap bm(cfg.bm_cfg);
      she::HeavyHitters hh(cfg.cm_cfg, 8, cfg.hh_slots);
      if (bf.memory_bytes() + bm.memory_bytes() + hh.memory_bytes() !=
          StreamMonitor(m0).memory_bytes())
        r.fail("layer rungs: sub-sketch sizes no longer match StreamMonitor's split");
    }
    const auto per_key = [&](const char* name, auto make, auto feed) {
      const std::int64_t t0 = now_ns();
      const double ns = median_ns(reps, [&] {
        auto sk = make();
        feed(sk);
      });
      span(name, t0);
      return ns / static_cast<double>(s0.size());
    };
    // Construction is inside the timed body for every sketch alike; it is
    // small next to ~130K inserts.
    r.metrics["she.bf_insert_ns_per_key"] = per_key(
        "rung she.SheBloomFilter::insert_batch",
        [&] { return she::SheBloomFilter(cfg.bf_cfg, 8); },
        [&](auto& sk) { sk.insert_batch(s0); });
    r.metrics["she.bm_insert_ns_per_key"] = per_key(
        "rung she.SheBitmap::insert_batch", [&] { return she::SheBitmap(cfg.bm_cfg); },
        [&](auto& sk) { sk.insert_batch(s0); });
    r.metrics["she.cm_insert_ns_per_key"] = per_key(
        "rung she.SheCountMin::insert_batch",
        [&] { return she::SheCountMin(cfg.cm_cfg, 8); },
        [&](auto& sk) { sk.insert_batch(s0); });
    r.metrics["she.hh_insert_ns_per_key"] = per_key(
        "rung she.HeavyHitters::insert",
        [&] { return she::HeavyHitters(cfg.cm_cfg, 8, cfg.hh_slots); },
        [&](auto& sk) {
          for (std::uint64_t k : s0) sk.insert(k);
        });
  }

  // The she rung of the insert ladder: every shard's monitor fed its part
  // of each frame, as the four shard workers do in parallel.
  std::vector<StreamMonitor> mons;
  for (std::size_t s = 0; s < kShards; ++s) mons.emplace_back(shard_config(spec.monitor, s));
  {
    std::int64_t shard_ns[kShards] = {};
    for (std::size_t f = 0; f < nf; ++f)
      for (std::size_t s = 0; s < kShards; ++s) {
        const std::size_t b = f == 0 ? 0 : frame_end[s][f - 1];
        const std::int64_t t0 = now_ns();
        mons[s].insert_batch({sub[s].data() + b, frame_end[s][f] - b});
        shard_ns[s] += now_ns() - t0;
        spans.add(1 + static_cast<std::uint32_t>(s), "StreamMonitor::insert_batch", "rung", t0, now_ns(), f + 1);
      }
    r.metrics["she.monitor_insert_ns_per_key"] =
        per(shard_ns[0], sub[0].size());
    // Shards drain in parallel: the frame waits for the slowest one.
    r.metrics["_she_rung_us"] =
        per(*std::max_element(shard_ns, shard_ns + kShards), nf) / 1e3;
  }

  // she: publish image, snapshot-cache miss, and the reads a query makes.
  {
    const StreamMonitor& mon = mons[0];
    std::vector<char> img;
    std::int64_t t0 = now_ns();
    r.metrics["she.monitor_save_us"] =
        median_ns(reps * 8, [&] { she::runtime::serialize_to(img, mon); }) / 1e3;
    span("rung she.StreamMonitor::save", t0);
    t0 = now_ns();
    r.metrics["she.monitor_load_us"] = median_ns(reps * 8, [&] {
      const auto copy = she::runtime::deserialize<StreamMonitor>(img.data(), img.size());
      if (copy.time() != mon.time()) r.fail("StreamMonitor::load lost the stream clock");
    }) / 1e3;
    span("rung she.StreamMonitor::load", t0);

    std::mt19937_64 rng(opt.seed);
    std::vector<std::uint64_t> probes;
    for (int i = 0; i < 4096; ++i)
      probes.push_back(i % 2 ? s0[s0.size() - 1 - rng() % 4096]
                             : kAbsentBase + rng() % (std::uint64_t{1} << 30));
    std::uint64_t sink = 0;
    t0 = now_ns();
    r.metrics["she.seen_ns"] = median_ns(reps, [&] {
      for (std::uint64_t k : probes) sink += mon.seen(k) ? 1 : 0;
    }) / static_cast<double>(probes.size());
    r.metrics["she.frequency_ns"] = median_ns(reps, [&] {
      for (std::uint64_t k : probes) sink += mon.frequency(k);
    }) / static_cast<double>(probes.size());
    r.metrics["she.report_us"] = median_ns(reps * 8, [&] {
      sink += mon.report(10).top.size();
    }) / 1e3;
    span("rung she.StreamMonitor queries", t0);
    if (sink == 0) r.fail("she query rungs answered nothing");
  }

  // runtime: ConcurrentMonitor::push_bulk from one producer, WAL off and
  // fsync; per frame including the final drain.
  const auto push_rung = [&](bool wal, const char* name) {
    she::runtime::PipelineOptions po = spec.pipeline;
    if (wal) {
      po.checkpoint_dir = opt.work_dir + "/runtime-wal";
      fs::remove_all(po.checkpoint_dir);
      po.wal_mode = she::WalMode::kFsync;
      po.wal_fsync_bytes = std::size_t{1} << 20;
    }
    she::ConcurrentMonitor cm(spec.monitor, po);
    cm.start();
    const std::int64_t t0 = now_ns();
    for (std::size_t f = 0; f < nf; ++f) {
      const std::int64_t f0 = now_ns();
      if (cm.push_bulk(0, trace.frame(f), 0, 0) != kFrameKeys)
        r.fail(std::string(name) + " accepted fewer keys than pushed");
      spans.add(0, name, "rung", f0, now_ns(), f + 1);
    }
    cm.flush();
    const std::int64_t dt = now_ns() - t0;
    span(name, t0);
    cm.close();
    return dt;
  };
  const auto median_rung = [&](bool wal, const char* name) {
    Samples s;
    for (int i = 0; i < std::max(1, reps / 2); ++i)
      s.add(static_cast<double>(push_rung(wal, name)));
    return static_cast<std::int64_t>(s.median());
  };
  const std::int64_t push_ns = median_rung(false, "rung runtime.push_bulk");
  const std::int64_t push_wal_ns = median_rung(true, "rung runtime.push_bulk wal=fsync");
  r.metrics["runtime.push_bulk_ns_per_key"] = per(push_ns, keys);
  r.metrics["runtime.push_bulk_wal_ns_per_key"] = per(push_wal_ns, keys);
  r.metrics["_runtime_rung_us"] = per(w.wal ? push_wal_ns : push_ns, nf) / 1e3;

  // runtime: flush after one frame, and uncached snapshot queries.
  {
    she::ConcurrentMonitor cm(spec.monitor, spec.pipeline);
    cm.start();
    Samples flush_us;
    for (std::size_t f = 0; f < nf; ++f) {
      cm.push_bulk(0, trace.frame(f), 0, 0);
      const std::int64_t t0 = now_ns();
      cm.flush();
      flush_us.add(static_cast<double>(now_ns() - t0) / 1e3);
      spans.add(0, "ConcurrentMonitor::flush", "rung", t0, now_ns(), f + 1);
    }
    r.metrics["runtime.flush_us"] = flush_us.median();
    const std::uint64_t in_key = trace.frame(nf - 1)[0];
    std::int64_t t0 = now_ns();
    std::uint64_t sink = 0;
    r.metrics["runtime.query_seen_us"] = median_ns(reps * 8, [&] {
      sink += cm.seen(in_key) ? 1 : 0;
    }) / 1e3;
    r.metrics["runtime.query_report_us"] = median_ns(reps * 4, [&] {
      sink += cm.report(10).top.size();
    }) / 1e3;
    span("rung runtime.ConcurrentMonitor queries", t0);
    if (sink == 0) r.fail("runtime query rungs answered nothing");
    cm.close();
  }

  // server: PipelineManager::Entry::insert_bulk in-process (no socket).
  Samples manager_us;
  for (int rep = 0; rep < std::max(1, reps / 2); ++rep) {
    // The workload's own pipeline: durable, with the WAL, for ingest_wal.
    she::server::PipelineManager::Options mo;
    if (w.wal) {
      mo.checkpoint_root = opt.work_dir + "/manager-rung";
      fs::remove_all(mo.checkpoint_root);
    }
    she::server::PipelineManager mgr(mo);
    auto entry = mgr.create(kPipeline, std::string(kSpec) + (w.wal ? kWalSpec : ""));
    const std::int64_t t0 = now_ns();
    for (std::size_t f = 0; f < nf; ++f) {
      const std::int64_t f0 = now_ns();
      if (entry->insert_bulk(trace.frame(f)) != kFrameKeys)
        r.fail("PipelineManager::Entry::insert_bulk accepted fewer keys than sent");
      spans.add(0, "Entry::insert_bulk", "rung", f0, now_ns(), f + 1);
    }
    entry->monitor().flush();
    const std::int64_t dt = now_ns() - t0;
    span("rung server.Entry::insert_bulk", t0);
    manager_us.add(per(dt, nf) / 1e3);
    mgr.close_all();
  }
  r.metrics["server.manager_insert_bulk_us"] = manager_us.median();
}

}  // namespace perfbench
