#include "she/she_hll.hpp"

#include <cmath>

#include "sketch/hyperloglog.hpp"

namespace she {

namespace {
struct HarmonicSum {
  double sum = 0.0;
  std::size_t observed = 0, zeros = 0;
};
}  // namespace

std::vector<double> SheHyperLogLog::estimate(
    std::span<const Band> bands) const {
  const std::vector<HarmonicSum> sums = scan<HarmonicSum>(
      bands,
      [&](std::size_t i, std::uint32_t cur) -> std::uint64_t {
        return stale_at(i, cur) ? 0 : cells_.get(i);
      },
      [](HarmonicSum& acc, std::uint64_t r) {
        ++acc.observed;
        if (r == 0) ++acc.zeros;
        acc.sum += std::ldexp(1.0, -static_cast<int>(r));
      });
  std::vector<double> result;
  result.reserve(sums.size());
  for (const HarmonicSum& s : sums)
    result.push_back(fixed::HyperLogLog::estimate(
        s.sum, s.observed, static_cast<double>(cells_.size()), s.zeros));
  return result;
}

double SheHyperLogLog::cardinality() const {
  const Band band = full_band();
  return estimate({&band, 1})[0];
}

double SheHyperLogLog::cardinality(std::uint64_t window) const {
  return estimate(bands({&window, 1}))[0];
}

std::vector<double> SheHyperLogLog::cardinality_batch(
    std::span<const std::uint64_t> windows) const {
  return estimate(bands(windows));
}

}  // namespace she
