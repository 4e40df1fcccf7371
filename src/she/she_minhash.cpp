#include "she/she_minhash.hpp"

#include <utility>

namespace she {

namespace {
constexpr const char* kJaccard = "SheMinHash::jaccard";
struct Matches {
  std::size_t match = 0, compared = 0;
};
}  // namespace

std::vector<double> SheMinHash::similarity(const SheMinHash& a,
                                           const SheMinHash& b,
                                           std::span<const Band> bands) {
  if (a.cells_.size() != b.cells_.size() || a.cfg_.seed != b.cfg_.seed)
    throw std::invalid_argument("SheMinHash::jaccard: incompatible signatures");
  if (a.time_ != b.time_)
    throw std::invalid_argument("SheMinHash::jaccard: signatures not in lock-step");
  // Ages and current marks are identical on both sides (same cfg, same
  // time, deterministic per-group offsets), so a's scan serves both
  // signatures; only the *stored* marks differ per side.
  const std::vector<Matches> counts = a.scan<Matches>(
      bands,
      [&](std::size_t i, std::uint32_t cur) {
        return std::pair{a.stale_at(i, cur) ? kEmpty : a.cells_[i],
                         b.stale_at(i, cur) ? kEmpty : b.cells_[i]};
      },
      [](Matches& acc, std::pair<std::uint32_t, std::uint32_t> slot) {
        if (slot.first == kEmpty && slot.second == kEmpty)
          return;  // neither window seen here
        ++acc.compared;
        if (slot.first == slot.second) ++acc.match;
      });
  std::vector<double> result;
  result.reserve(counts.size());
  for (const Matches& c : counts)
    result.push_back(c.compared == 0 ? 0.0
                                     : static_cast<double>(c.match) /
                                           static_cast<double>(c.compared));
  return result;
}

double SheMinHash::jaccard(const SheMinHash& a, const SheMinHash& b) {
  const Band band = a.full_band();
  return similarity(a, b, {&band, 1})[0];
}

double SheMinHash::jaccard(const SheMinHash& a, const SheMinHash& b,
                           std::uint64_t window) {
  return similarity(a, b, a.bands({&window, 1}, kJaccard))[0];
}

std::vector<double> SheMinHash::jaccard_batch(
    const SheMinHash& a, const SheMinHash& b,
    std::span<const std::uint64_t> windows) {
  return similarity(a, b, a.bands(windows, kJaccard));
}

}  // namespace she
