// SHE-BF — Bloom filter under the SHE framework (paper Sec. 4.2), the
// hardware (lazy group-cleaning) version.
//
// Insert sets the k hashed bits after CheckGroup-ing their groups.  Query
// *ignores young bits* (age < N) and requires every remaining probed bit to
// be 1; a stale group reads as all-zero.  This preserves the Bloom filter's
// one-sided error exactly: SHE-BF never reports a false negative (property-
// tested), and false positives shrink as memory grows or alpha approaches
// the Eq. (2) optimum.
#pragma once

#include <cstdint>
#include <span>

#include "she/engine.hpp"

namespace she {

/// <bit, K = hashes, set>.
struct BloomPolicy : HashedProbes, BitCells {
  static constexpr char kName[] = "SheBloomFilter";
  static constexpr char kTag[] = "SHBF";
  static constexpr bool kTakesHashes = true;
};

/// Inserts, clear, time, config, memory_bytes and save come from SheEngine.
class SheBloomFilter : public SheEngine<BloomPolicy> {
 public:
  /// `cfg.cells` bits in groups of `cfg.group_cells`, probed by `hashes`
  /// hash functions.  Default alpha for SHE-BF should come from
  /// optimal_alpha_bf() (the paper uses ~3 at its default settings).
  SheBloomFilter(const SheConfig& cfg, unsigned hashes)
      : SheEngine(cfg, hashes) {}

  /// Membership of `key` in the last-N window.  One-sided: a `false` answer
  /// is always correct; `true` may be a false positive.
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return contains(key, cfg_.window);
  }

  /// Multi-window query: membership in the last `window` items for any
  /// window in [1, N] — one SHE structure answers every sub-window, with
  /// the same one-sided guarantee (cells of age >= window are usable; a
  /// zero such cell proves absence from the sub-window).  Smaller windows
  /// leave fewer usable probes, raising the FPR.
  [[nodiscard]] bool contains(std::uint64_t key, std::uint64_t window) const;

  /// Batched membership: answers are element-wise identical to
  /// contains(keys[i], window) but probe positions are hashed a block ahead
  /// with read-hinted prefetches (shared lines, nothing taken exclusive).
  /// out[i] != 0 means present.  Throws like contains() on a bad window.
  void contains_batch(std::span<const std::uint64_t> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch(keys, out, cfg_.window);
  }
  void contains_batch(std::span<const std::uint64_t> keys,
                      std::span<std::uint8_t> out, std::uint64_t window) const;

  [[nodiscard]] unsigned hash_count() const { return k_; }

  static SheBloomFilter load(BinaryReader& in) {
    return load_as<SheBloomFilter>(in);
  }
};

}  // namespace she
