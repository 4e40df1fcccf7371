#include "she/heavy_hitters.hpp"

#include <algorithm>
#include <stdexcept>

namespace she {

HeavyHitters::HeavyHitters(const SheConfig& cfg, unsigned hashes,
                           std::size_t capacity)
    : sketch_(cfg, hashes), capacity_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("HeavyHitters: capacity must be > 0");
  candidates_.reserve(capacity + 1);
}

void HeavyHitters::insert(std::uint64_t key) {
  sketch_.insert(key);
  // Periodic refresh: stored candidate estimates decay with the window, so
  // re-estimate the whole table once per `capacity_` inserts (amortized
  // O(1) sketch queries per item).
  if (++since_refresh_ >= capacity_) {
    since_refresh_ = 0;
    for (auto& [cand, est] : candidates_) est = sketch_.frequency(cand);
  }
  maybe_admit(key, sketch_.frequency(key));
}

void HeavyHitters::maybe_admit(std::uint64_t key, std::uint64_t estimate) {
  auto it = candidates_.find(key);
  if (it != candidates_.end()) {
    it->second = estimate;
    return;
  }
  if (candidates_.size() < capacity_) {
    candidates_.emplace(key, estimate);
    return;
  }
  // Evict the weakest stored candidate if the newcomer beats it.  Stored
  // values may lag by up to one refresh period, which only makes eviction
  // conservative.  Ties go to the smallest key, so the victim depends on
  // the table's contents, never on its hash-map iteration order — a copy
  // or a load() evolves exactly like the original.
  auto weakest = candidates_.begin();
  for (auto cand = candidates_.begin(); cand != candidates_.end(); ++cand)
    if (cand->second < weakest->second ||
        (cand->second == weakest->second && cand->first < weakest->first))
      weakest = cand;
  if (estimate > weakest->second) {
    candidates_.erase(weakest);
    candidates_.emplace(key, estimate);
  }
}

std::vector<HeavyHitters::Entry> HeavyHitters::top(std::size_t k) const {
  std::vector<Entry> out;
  out.reserve(candidates_.size());
  for (const auto& [key, stale] : candidates_) {
    (void)stale;
    out.push_back({key, sketch_.frequency(key)});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.estimate != b.estimate ? a.estimate > b.estimate : a.key < b.key;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<HeavyHitters::Entry> HeavyHitters::candidates() const {
  std::vector<Entry> out;
  out.reserve(candidates_.size());
  for (const auto& [key, est] : candidates_) out.push_back({key, est});
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  return out;
}

void HeavyHitters::restore_candidates(const std::vector<Entry>& entries) {
  candidates_.clear();
  for (const Entry& e : entries) {
    if (candidates_.size() >= capacity_) break;
    candidates_.emplace(e.key, e.estimate);
  }
  // Refreshes fall every `capacity_` inserts counted from time 0; keep
  // that phase, or a resumed table refreshes at different points.
  since_refresh_ = static_cast<std::size_t>(sketch_.time() % capacity_);
}

void HeavyHitters::clear() {
  sketch_.clear();
  candidates_.clear();
  since_refresh_ = 0;
}

}  // namespace she
