#include "server/pipeline_manager.hpp"

#include "server/replica.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace she::server {
namespace fs = std::filesystem;

namespace {

/// u64 with an optional K/M/G suffix (powers of 1024), e.g. "64K".
std::uint64_t parse_size(const std::string& key, const std::string& text) {
  if (text.empty()) throw std::invalid_argument(key + ": empty value");
  std::size_t end = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(text, &end);
  } catch (const std::exception&) {
    throw std::invalid_argument(key + ": bad number '" + text + "'");
  }
  if (end + 1 == text.size()) {
    switch (std::tolower(static_cast<unsigned char>(text[end]))) {
      case 'k': return v << 10;
      case 'm': return v << 20;
      case 'g': return v << 30;
      default: break;
    }
  } else if (end == text.size()) {
    return v;
  }
  throw std::invalid_argument(key + ": bad number '" + text + "'");
}

double parse_f64(const std::string& key, const std::string& text) {
  std::size_t end = 0;
  double v = 0;
  try {
    v = std::stod(text, &end);
  } catch (const std::exception&) {
    end = text.size() + 1;
  }
  if (end != text.size()) {
    throw std::invalid_argument(key + ": bad number '" + text + "'");
  }
  return v;
}

}  // namespace

PipelineSpec parse_sketch_spec(const std::string& text) {
  PipelineSpec spec;
  // Serving defaults: modest window, supervised workers (a long-running
  // service must outlive one worker exception) with the sampler watching
  // for wedged ones, one producer slot per likely-concurrent client batch.
  spec.pipeline.producers = 4;
  spec.pipeline.supervise = true;
  spec.pipeline.sample_interval_ms = 5;

  std::istringstream is(text);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : tok.substr(eq + 1);
    const auto need = [&]() -> const std::string& {
      if (eq == std::string::npos) {
        throw std::invalid_argument(key + " requires =value");
      }
      return val;
    };
    if (key == "window") {
      spec.monitor.window = parse_size(key, need());
    } else if (key == "memory") {
      spec.monitor.memory_bytes = parse_size(key, need());
    } else if (key == "shards") {
      spec.pipeline.shards = parse_size(key, need());
    } else if (key == "producers") {
      spec.pipeline.producers = parse_size(key, need());
    } else if (key == "queue") {
      spec.pipeline.queue_capacity = parse_size(key, need());
    } else if (key == "publish") {
      spec.pipeline.publish_interval = parse_size(key, need());
    } else if (key == "batch") {
      spec.pipeline.drain_batch = parse_size(key, need());
    } else if (key == "policy") {
      if (need() == "block") {
        spec.pipeline.policy = runtime::Backpressure::kBlock;
      } else if (val == "drop") {
        spec.pipeline.policy = runtime::Backpressure::kDropNewest;
      } else if (val == "block-timeout") {
        spec.pipeline.policy = runtime::Backpressure::kBlockTimeout;
      } else {
        throw std::invalid_argument("policy: unknown '" + val + "'");
      }
    } else if (key == "push-timeout-ms") {
      spec.pipeline.push_timeout_ms = parse_size(key, need());
    } else if (key == "checkpoint-every") {
      spec.pipeline.checkpoint_interval = parse_size(key, need());
    } else if (key == "degraded-probe-ms") {
      spec.pipeline.degraded_probe_ms = parse_size(key, need());
    } else if (key == "wal") {
      spec.wal = wal_mode_from(need());
    } else if (key == "wal-fsync-bytes") {
      spec.wal_fsync_bytes = parse_size(key, need());
    } else if (key == "hll") {
      spec.monitor.use_hll = true;
    } else if (key == "similarity") {
      spec.monitor.track_similarity = true;
    } else if (key == "similarity-slots") {
      spec.monitor.similarity_slots = parse_size(key, need());
    } else if (key == "hh-slots") {
      spec.monitor.heavy_hitter_slots = parse_size(key, need());
    } else if (key == "expected-cardinality") {
      spec.monitor.expected_cardinality = parse_f64(key, need());
    } else if (key == "seed") {
      spec.monitor.seed = static_cast<std::uint32_t>(parse_size(key, need()));
    } else if (key == "no-membership") {
      spec.monitor.track_membership = false;
    } else if (key == "no-cardinality") {
      spec.monitor.track_cardinality = false;
    } else if (key == "no-frequency") {
      spec.monitor.track_frequency = false;
    } else {
      throw std::invalid_argument("unknown spec token '" + tok + "'");
    }
  }
  if (spec.monitor.track_similarity && spec.pipeline.shards != 1) {
    throw std::invalid_argument(
        "similarity requires shards=1: SHE-MH jaccard compares signatures "
        "over lock-step streams, which per-shard hash routing breaks");
  }
  spec.monitor.validate();
  spec.pipeline.validate();
  return spec;
}

bool valid_pipeline_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
  });
}

// ------------------------------------------------------------------ Entry --

namespace {
std::atomic<std::uint64_t> g_next_entry_id{1};
}  // namespace

PipelineManager::Entry::Entry(std::string name, std::string spec_text,
                              const PipelineSpec& spec)
    : name_(std::move(name)),
      id_(g_next_entry_id.fetch_add(1, std::memory_order_relaxed)),
      spec_text_(std::move(spec_text)),
      monitor_(spec.monitor, spec.pipeline),
      slot_mu_(new std::mutex[spec.pipeline.producers]),
      slots_(spec.pipeline.producers) {}

std::size_t PipelineManager::Entry::insert_bulk(
    std::span<const std::uint64_t> keys, std::uint64_t client_id,
    std::uint64_t client_seq, std::int64_t deadline_ns) {
  // Producer slots serialize push() per index (the IngestPipeline
  // contract) while letting up to `slots_` handler threads ingest
  // concurrently: sweep for a free slot, fall back to blocking on the
  // round-robin one so load spreads instead of convoying on slot 0.
  const std::size_t start = rr_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < slots_; ++i) {
    const std::size_t s = (start + i) % slots_;
    std::unique_lock<std::mutex> lk(slot_mu_[s], std::try_to_lock);
    if (lk.owns_lock()) {
      return monitor_.push_bulk(s, keys, client_id, client_seq, deadline_ns);
    }
  }
  const std::size_t s = start % slots_;
  std::lock_guard<std::mutex> lk(slot_mu_[s]);
  return monitor_.push_bulk(s, keys, client_id, client_seq, deadline_ns);
}

void PipelineManager::Entry::close_once() {
  std::call_once(close_flag_, [this] { monitor_.close(); });
}

// ---------------------------------------------------------------- manager --

PipelineManager::PipelineManager(Options opt) : opt_(std::move(opt)) {
  if (!opt_.checkpoint_root.empty()) {
    fs::create_directories(opt_.checkpoint_root);
    if (opt_.resume) resume_all();
  }
}

PipelineManager::~PipelineManager() { close_all(); }

std::string PipelineManager::dir_for(const std::string& name) const {
  return (fs::path(opt_.checkpoint_root) / name).string();
}

std::shared_ptr<PipelineManager::Entry> PipelineManager::create(
    const std::string& name, const std::string& spec_text) {
  auto entry = create_internal(name, spec_text, /*resume=*/false);
  // Announce after the pipeline is live so a standby applying the record
  // can never observe the name before the primary serves it.
  if (opt_.hub) opt_.hub->publish_create(name, spec_text);
  return entry;
}

std::shared_ptr<PipelineManager::Entry> PipelineManager::create_internal(
    const std::string& name, const std::string& spec_text, bool resume) {
  if (!valid_pipeline_name(name)) {
    throw std::invalid_argument("invalid pipeline name '" + name +
                                "' (want [A-Za-z0-9_-], 1..64 chars)");
  }
  PipelineSpec spec = parse_sketch_spec(spec_text);
  const bool durable = !opt_.checkpoint_root.empty();
  if (durable) {
    spec.pipeline.checkpoint_dir = dir_for(name);
    spec.pipeline.checkpoint_keep = opt_.checkpoint_keep;
    spec.pipeline.resume = resume;
    spec.pipeline.wal_mode = spec.wal.value_or(opt_.default_wal_mode);
    spec.pipeline.wal_fsync_bytes =
        spec.wal_fsync_bytes.value_or(opt_.wal_fsync_bytes);
    if (opt_.hub && spec.pipeline.wal_mode != WalMode::kOff) {
      // Fan durable WAL appends out to REPLICATE subscribers.  The
      // observer runs under the shard's append lock, so the hub only
      // enqueues (bounded per-subscriber queues, never a socket write).
      ReplicationHub* hub = opt_.hub;
      spec.pipeline.wal_observer = [hub, name](std::size_t shard,
                                               const WalFrame& f,
                                               std::span<const char> enc) {
        hub->publish_wal(name, shard, f, enc);
      };
    }
    spec.pipeline.validate();  // wal x policy combinations re-checked
  } else if (spec.wal.value_or(WalMode::kOff) != WalMode::kOff) {
    throw std::invalid_argument(
        "wal=" + std::string(to_string(*spec.wal)) +
        " needs a durable server (start she_server with --checkpoint-root)");
  }

  std::unique_lock lock(mu_);
  for (const auto& [n, e] : entries_) {
    if (n == name) throw AlreadyExists("pipeline '" + name + "' exists");
  }
  const bool fresh_dir = durable && !fs::exists(dir_for(name));
  if (durable) {
    // Spec on disk before the pipeline exists: a crash between the two
    // leaves a spec with no frames, which resume_all() brings back fresh.
    fs::create_directories(dir_for(name));
    std::ofstream spec_out(fs::path(dir_for(name)) / "spec",
                           std::ios::trunc);
    spec_out << spec_text << '\n';
    if (!spec_out) {
      throw std::runtime_error("cannot write spec for '" + name + "'");
    }
  }
  std::shared_ptr<Entry> entry;
  try {
    entry = std::make_shared<Entry>(name, spec_text, spec);
  } catch (...) {
    // A fresh CREATE that failed to construct must not leave a ghost spec
    // for resume_all(); a resume that failed keeps its directory for
    // post-mortem.
    if (fresh_dir) {
      std::error_code ec;
      fs::remove_all(dir_for(name), ec);
    }
    throw;
  }
  entry->monitor().start();
  entries_.emplace_back(name, entry);
  return entry;
}

std::shared_ptr<PipelineManager::Entry> PipelineManager::find(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  for (const auto& [n, e] : entries_) {
    if (n == name) return e;
  }
  return nullptr;
}

bool PipelineManager::drop(const std::string& name) {
  // Close + delete under the exclusive lock: a racing CREATE of the same
  // name cannot interleave with the directory removal, and late INSERTs
  // holding the old shared_ptr see rejected pushes rather than a free.
  std::unique_lock lock(mu_);
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [&](const auto& p) { return p.first == name; });
  if (it == entries_.end()) return false;
  const std::shared_ptr<Entry> entry = it->second;
  entries_.erase(it);
  entry->close_once();
  if (!opt_.checkpoint_root.empty()) {
    std::error_code ec;
    fs::remove_all(dir_for(name), ec);
  }
  if (opt_.hub) opt_.hub->publish_drop(name);
  return true;
}

std::shared_ptr<PipelineManager::Entry> PipelineManager::adopt(
    const std::string& name, const std::string& spec_text) {
  // Forget any resident instance WITHOUT touching its directory: the
  // replica client has already replaced the files with the primary's, and
  // close_once() on the old entry must happen before the resume so its
  // workers are gone (it may still write final checkpoint frames into the
  // directory, which is why the client drops stale pipelines *before*
  // receiving files — adopt's close here is a belt-and-braces fallback).
  std::shared_ptr<Entry> old;
  {
    std::unique_lock lock(mu_);
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const auto& p) { return p.first == name; });
    if (it != entries_.end()) {
      old = it->second;
      entries_.erase(it);
    }
  }
  if (old) old->close_once();
  return create_internal(name, spec_text, /*resume=*/true);
}

std::size_t PipelineManager::degraded_count() const {
  std::shared_lock lock(mu_);
  std::size_t n = 0;
  for (const auto& [name, e] : entries_) {
    if (e->monitor().degraded()) ++n;
  }
  return n;
}

std::vector<PipelineManager::BootstrapItem>
PipelineManager::bootstrap_snapshot() const {
  std::shared_lock lock(mu_);
  std::vector<BootstrapItem> out;
  out.reserve(entries_.size());
  for (const auto& [n, e] : entries_) {
    out.push_back({n, e->spec_text(),
                   opt_.checkpoint_root.empty() ? std::string() : dir_for(n)});
  }
  return out;
}

std::vector<std::string> PipelineManager::names() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [n, e] : entries_) out.push_back(n);
  return out;
}

std::size_t PipelineManager::size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

std::size_t PipelineManager::resume_all() {
  if (opt_.checkpoint_root.empty()) return 0;
  std::size_t resumed = 0;
  for (const auto& dirent : fs::directory_iterator(opt_.checkpoint_root)) {
    if (!dirent.is_directory()) continue;
    const std::string name = dirent.path().filename().string();
    const fs::path spec_path = dirent.path() / "spec";
    if (!fs::exists(spec_path)) continue;
    std::string spec_text;
    {
      std::ifstream in(spec_path);
      std::getline(in, spec_text);
      if (!in && spec_text.empty()) {
        std::cerr << "she_server: skipping '" << name
                  << "': unreadable spec\n";
        continue;
      }
    }
    try {
      create_internal(name, spec_text, /*resume=*/true);
      ++resumed;
    } catch (const std::exception& e) {
      std::cerr << "she_server: skipping '" << name << "': " << e.what()
                << '\n';
    }
  }
  return resumed;
}

void PipelineManager::close_all() {
  // Snapshot under the lock, close outside it: close() drains rings and
  // joins workers, which must not stall concurrent find()/LIST.
  std::vector<std::shared_ptr<Entry>> all;
  {
    std::shared_lock lock(mu_);
    all.reserve(entries_.size());
    for (const auto& [n, e] : entries_) all.push_back(e);
  }
  for (const auto& e : all) e->close_once();
}

PipelineManager::ExportSet PipelineManager::export_registries() const {
  ExportSet out;
  std::shared_lock lock(mu_);
  out.keepalive.reserve(entries_.size());
  out.registries.reserve(entries_.size());
  for (const auto& [n, e] : entries_) {
    out.keepalive.push_back(e);
    out.registries.push_back(
        {&e->monitor().metrics_registry(), {{"pipeline", n}}});
  }
  return out;
}

}  // namespace she::server
