#include "she/she_bitmap.hpp"

#include <utility>

#include "sketch/bitmap.hpp"

namespace she {

namespace {
struct ZeroCount {
  std::size_t zeros = 0, observed = 0;
};
}  // namespace

std::vector<double> SheBitmap::estimate(std::span<const Band> bands) const {
  const std::vector<ZeroCount> counts = scan<ZeroCount>(
      bands,
      [&](std::size_t g, std::uint32_t cur) {
        const std::size_t first = g * cfg_.group_cells;
        const std::size_t count =
            std::min(cfg_.group_cells, cfg_.cells - first);
        // A stale group reads as all-zero.
        return std::pair{count, stale_at(g, cur)
                                    ? count
                                    : cells_.zeros_range(first, count)};
      },
      [](ZeroCount& acc, std::pair<std::size_t, std::size_t> group) {
        acc.observed += group.first;
        acc.zeros += group.second;
      });
  std::vector<double> result;
  result.reserve(counts.size());
  for (const ZeroCount& c : counts)
    result.push_back(fixed::linear_counting(c.zeros, c.observed,
                                            static_cast<double>(cfg_.cells)));
  return result;
}

double SheBitmap::cardinality() const {
  const Band band = full_band();
  return estimate({&band, 1})[0];
}

double SheBitmap::cardinality(std::uint64_t window) const {
  return estimate(bands({&window, 1}))[0];
}

std::vector<double> SheBitmap::cardinality_batch(
    std::span<const std::uint64_t> windows) const {
  return estimate(bands(windows));
}

}  // namespace she
