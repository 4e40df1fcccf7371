#include "she/she_bloom.hpp"

namespace she {

bool SheBloomFilter::contains(std::uint64_t key, std::uint64_t window) const {
  check_window(window);
  const bool track = obs::enabled();
  obs::AgeClassCounts cls;
  for (unsigned i = 0; i < k_; ++i) {
    std::size_t pos = BloomPolicy::probe(cfg_, key, i).pos;
    std::size_t gid = group_of(pos);
    std::uint64_t age = clock_.age(gid, time_);
    if (track) cls.add(age, window);
    if (age < window) continue;  // young cell: ignore (no false negatives)
    bool bit = clock_.stale(gid, time_) ? false : cells_.test(pos);
    if (!bit) {  // a zero mature bit proves absence
      if (track) {
        cls.commit(true);
        obs::she_metrics().hash_calls.inc(i + 1);
      }
      return false;
    }
  }
  // All probes were young or 1: no evidence of absence.
  if (track) {
    cls.commit(true);
    obs::she_metrics().hash_calls.inc(k_);
  }
  return true;
}

void SheBloomFilter::contains_batch(std::span<const std::uint64_t> keys,
                                    std::span<std::uint8_t> out,
                                    std::uint64_t window) const {
  check_window(window);
  if (out.size() < keys.size())
    throw std::invalid_argument("SheBloomFilter: contains_batch output too small");
  const bool track = obs::enabled();
  // Same probe-by-probe logic as contains(), over staged probes.
  query_batch(keys, [&](std::size_t i, const QueryProbe* probes) {
    obs::AgeClassCounts cls;
    bool present = true;
    for (unsigned h = 0; h < k_; ++h) {
      if (track) cls.add(probes[h].age, window);
      if (probes[h].age < window) continue;
      if (probes[h].stale || !cells_.test(probes[h].pos)) {
        present = false;
        break;
      }
    }
    out[i] = present ? 1 : 0;
    cls.commit(track);
  });
}

}  // namespace she
