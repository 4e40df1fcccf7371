// SHE-HLL — HyperLogLog under the SHE framework (paper Sec. 4.3).
//
// Each 5-bit register is its own group (w = 1).  Insert routes the item to
// register Hc(x) mod M, CheckGroups it, and keeps the maximum rank
// (leading-zero count + 1) of Hz(x).  The cardinality query uses only the
// legal registers (age in [beta*N, Tcycle)) and applies the standard
// bias-corrected harmonic estimator scaled to the full register count,
// C_hat = alpha_k * k * M / sum(2^-l_j), with linear-counting small-range
// correction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/int_math.hpp"
#include "she/engine.hpp"

namespace she {

/// <5-bit register, K = 1, max(rank)>.  The register index is the hashed
/// probe of seed; the rank comes from a second hash under seed + kRankSeed.
struct HllPolicy : HashedProbes {
  static constexpr char kName[] = "SheHyperLogLog";
  static constexpr char kTag[] = "SHLL";
  static constexpr bool kUnitGroups = true;
  static constexpr unsigned kHashesPerProbe = 2;  // register index + rank
  static constexpr unsigned kRankBits = 5;
  static constexpr std::uint32_t kRankSeed = 0x5eed;
  using Cells = PackedArray;

  static Cells make_cells(const SheConfig& cfg) {
    return Cells(cfg.cells, kRankBits);
  }
  /// Rank of a 32-bit hash, clamped to the register width.
  static std::uint64_t rank(std::uint32_t h) {
    return std::min<std::uint64_t>(hll_rank(h, 32), (1u << kRankBits) - 1);
  }
  static batch::Slot probe(const SheConfig& cfg, std::uint64_t key, unsigned) {
    return {HashedProbes::probe(cfg, key, 0).pos,
            rank(BobHash32(cfg.seed + kRankSeed)(key))};
  }
  /// The hashed stage (w = 1: the unit div_group copies pos into gid), then
  /// a second SIMD sweep for the ranks.
  static void stage(const StageContext& c, std::span<const std::uint64_t> keys,
                    std::size_t begin, std::size_t n, const StagedLanes& out) {
    HashedProbes::stage(c, keys, begin, n, out);
    simd::bobhash32_keys(keys.data() + begin, n, c.cfg.seed + kRankSeed,
                         out.val);
    for (std::size_t b = 0; b < n; ++b) out.val[b] = rank(out.val[b]);
  }
  static void reset(Cells& c, std::size_t first, std::size_t count) {
    c.clear_range(first, count);
  }
  static void update(Cells& c, std::size_t pos, std::uint64_t r) {
    if (r > c.get(pos)) c.set(pos, r);
  }
};

/// Inserts, clear, time, config, memory_bytes and save come from SheEngine.
class SheHyperLogLog : public SheEngine<HllPolicy> {
 public:
  /// `cfg.cells` registers; `cfg.group_cells` must be 1 (the paper fixes
  /// w = 1 for SHE-HLL).
  explicit SheHyperLogLog(const SheConfig& cfg) : SheEngine(cfg) {}

  /// Estimated number of distinct items in the last-N window (paper
  /// estimator: legal ages [beta*N, Tcycle)).
  [[nodiscard]] double cardinality() const;

  /// Multi-window query: distinct items in the last `window` items for any
  /// window in [1, N], using the symmetric legal band
  /// [beta*window, (2-beta)*window).
  [[nodiscard]] double cardinality(std::uint64_t window) const;

  /// Batched multi-window query: element-wise identical to
  /// cardinality(windows[i]) but the register ages and values are read in
  /// ONE pass instead of one scan per window.
  [[nodiscard]] std::vector<double> cardinality_batch(
      std::span<const std::uint64_t> windows) const;

  /// Registers currently in the legal age range (diagnostic).
  using SheEngine::legal_groups;

  static SheHyperLogLog load(BinaryReader& in) {
    return load_as<SheHyperLogLog>(in);
  }

 private:
  std::vector<double> estimate(std::span<const Band> bands) const;
};

}  // namespace she
