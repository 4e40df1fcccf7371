// SHE-BM — linear-counting Bitmap under the SHE framework (paper Sec. 4.1).
//
// Insert sets the single hashed bit after CheckGroup-ing its group.  The
// cardinality query collects the *legal* groups — those with age in
// [beta*N, Tcycle), i.e. near-perfect young cells plus all aged cells (the
// base estimator has two-sided error, so near-window young cells reduce
// bias) — counts their zero bits, and extrapolates the zero fraction to the
// whole array: C_hat = -M * ln(u / (w * l)).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "she/engine.hpp"

namespace she {

/// <bit, K = 1, set>.
struct BitmapPolicy : HashedProbes, BitCells {
  static constexpr char kName[] = "SheBitmap";
  static constexpr char kTag[] = "SHBM";
};

/// Inserts, clear, time, config, memory_bytes and save come from SheEngine.
class SheBitmap : public SheEngine<BitmapPolicy> {
 public:
  explicit SheBitmap(const SheConfig& cfg) : SheEngine(cfg) {}

  /// Estimated number of distinct items in the last-N window (paper
  /// estimator: legal ages [beta*N, Tcycle)).
  [[nodiscard]] double cardinality() const;

  /// Multi-window query: distinct items in the last `window` items for any
  /// window in [1, N].  Uses the symmetric legal band
  /// [beta*window, (2-beta)*window) so the lumped group ages centre on the
  /// queried window; smaller windows leave fewer legal groups (higher
  /// variance).
  [[nodiscard]] double cardinality(std::uint64_t window) const;

  /// Batched multi-window query: element-wise identical to
  /// cardinality(windows[i]) but the group ages and zero counts are
  /// computed in ONE pass over the array instead of one scan per window.
  [[nodiscard]] std::vector<double> cardinality_batch(
      std::span<const std::uint64_t> windows) const;

  /// Number of groups currently in the legal age range (diagnostic; the
  /// variance analysis of Sec. 5.3 depends on it).
  using SheEngine::legal_groups;

  static SheBitmap load(BinaryReader& in) { return load_as<SheBitmap>(in); }

 private:
  std::vector<double> estimate(std::span<const Band> bands) const;
};

}  // namespace she
