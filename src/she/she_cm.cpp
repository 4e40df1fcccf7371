#include "she/she_cm.hpp"

namespace she {

namespace {
constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
}  // namespace

std::uint64_t SheCountMin::settle(std::uint64_t best_mature,
                                  std::uint64_t best_any, bool track) const {
  if (best_mature != kNone) return best_mature;
  // Every probe young: best-effort answer, may underestimate.
  all_young_.n.fetch_add(1, std::memory_order_relaxed);
  if (track) obs::she_metrics().cm_all_young_queries.inc();
  return best_any;
}

void SheCountMin::frequency_batch(std::span<const std::uint64_t> keys,
                                  std::span<std::uint64_t> out,
                                  std::uint64_t window) const {
  check_window(window);
  if (out.size() < keys.size())
    throw std::invalid_argument("SheCountMin: frequency_batch output too small");
  const bool track = obs::enabled();
  // Same min-over-mature logic as frequency(), over staged probes.
  query_batch(keys, [&](std::size_t i, const QueryProbe* probes) {
    std::uint64_t best_mature = kNone;
    std::uint64_t best_any = kNone;
    obs::AgeClassCounts cls;
    for (unsigned h = 0; h < k_; ++h) {
      if (track) cls.add(probes[h].age, window);
      const std::uint64_t value = probes[h].stale ? 0 : cells_[probes[h].pos];
      best_any = std::min(best_any, value);
      if (probes[h].age >= window) best_mature = std::min(best_mature, value);
    }
    cls.commit(track);
    out[i] = settle(best_mature, best_any, track);
  });
}

std::uint64_t SheCountMin::frequency(std::uint64_t key,
                                     std::uint64_t window) const {
  check_window(window);
  std::uint64_t best_mature = kNone;
  std::uint64_t best_any = kNone;
  for (unsigned i = 0; i < k_; ++i) {
    std::size_t pos = CountMinPolicy::probe(cfg_, key, i).pos;
    std::size_t gid = group_of(pos);
    std::uint64_t value = clock_.stale(gid, time_) ? 0 : cells_[pos];
    best_any = std::min(best_any, value);
    if (clock_.age(gid, time_) >= window)
      best_mature = std::min(best_mature, value);
  }
  // Telemetry runs as a separate pass so the hot loop above stays exactly
  // as tight with the toggle off; redoing the position math with the
  // toggle on is an accepted enabled-mode cost.
  const bool track = obs::enabled();
  if (track) {
    obs::AgeClassCounts cls;
    for (unsigned i = 0; i < k_; ++i) {
      std::size_t gid = group_of(CountMinPolicy::probe(cfg_, key, i).pos);
      cls.add(clock_.age(gid, time_), window);
    }
    cls.commit(true);
    obs::she_metrics().hash_calls.inc(2 * k_);
  }
  return settle(best_mature, best_any, track);
}

}  // namespace she
