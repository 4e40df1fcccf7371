// SHE-CM — Count-Min sketch under the SHE framework (paper Sec. 4.4).
//
// Insert adds 1 to each of the k hashed 32-bit counters after CheckGroup-ing
// their groups.  The frequency query takes the minimum over the *mature*
// probed counters (age >= N); young counters are ignored because they may
// have lost in-window increments, which would break Count-Min's
// never-underestimate guarantee.  If every probe lands on a young group
// (probability (N/Tcycle)^k, e.g. 2^-8 at alpha = 1, k = 8) the query falls
// back to the minimum over all probes and may underestimate — the only
// two-sided corner, surfaced via `all_young_queries()`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "she/engine.hpp"

namespace she {

/// <32-bit counter, K = hashes, saturating +1>.
struct CountMinPolicy : HashedProbes {
  static constexpr char kName[] = "SheCountMin";
  static constexpr char kTag[] = "SHCM";
  static constexpr bool kTakesHashes = true;
  using Cells = std::vector<std::uint32_t>;
  static Cells make_cells(const SheConfig& cfg) { return Cells(cfg.cells, 0); }
  static void reset(Cells& c, std::size_t first, std::size_t count) {
    std::fill_n(c.begin() + first, count, 0u);
  }
  static void update(Cells& c, std::size_t pos, std::uint64_t) {
    if (c[pos] != std::numeric_limits<std::uint32_t>::max()) ++c[pos];
  }
};

/// Inserts, time, config, memory_bytes and save come from SheEngine.
class SheCountMin : public SheEngine<CountMinPolicy> {
 public:
  SheCountMin(const SheConfig& cfg, unsigned hashes) : SheEngine(cfg, hashes) {}

  /// Estimated frequency of `key` in the last-N window.
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key) const {
    return frequency(key, cfg_.window);
  }

  /// Multi-window query: frequency in the last `window` items for any
  /// window in [1, N] — counters with age >= window never under-count the
  /// sub-window; smaller windows include more aged overshoot.
  [[nodiscard]] std::uint64_t frequency(std::uint64_t key,
                                        std::uint64_t window) const;

  /// Batched frequency: answers are element-wise identical to
  /// frequency(keys[i], window) but the probe positions are hashed a block
  /// ahead with read-hinted prefetches.
  void frequency_batch(std::span<const std::uint64_t> keys,
                       std::span<std::uint64_t> out) const {
    frequency_batch(keys, out, cfg_.window);
  }
  void frequency_batch(std::span<const std::uint64_t> keys,
                       std::span<std::uint64_t> out,
                       std::uint64_t window) const;

  /// Reset to the empty state at time 0 (and the all-young counter).
  void clear() {
    SheEngine::clear();
    all_young_ = 0;
  }

  [[nodiscard]] unsigned hash_count() const { return k_; }

  /// Queries so far whose probes were all young (fallback path taken).
  [[nodiscard]] std::uint64_t all_young_queries() const { return all_young_; }

  /// load() resumes with identical answers (the all-young diagnostic
  /// counter restarts at 0).
  static SheCountMin load(BinaryReader& in) { return load_as<SheCountMin>(in); }

 private:
  /// The answer from the min over mature probes, or — every probe young —
  /// the min over all of them, counted as an all-young query.
  std::uint64_t settle(std::uint64_t best_mature, std::uint64_t best_any,
                       bool track) const;

  mutable std::uint64_t all_young_ = 0;
};

}  // namespace she
