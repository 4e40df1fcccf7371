// SHE-MH — MinHash under the SHE framework (paper Sec. 4.5).
//
// One SheMinHash holds the signature of one stream: M 24-bit min-value
// counters, each its own group (w = 1).  Insert CheckGroups every slot and
// keeps the minimum of H_i(x).  jaccard(a, b) compares two signatures built
// with the *same* configuration and hash seed over lock-step streams:
// slots whose age is legal on both sides are compared, and the similarity
// is (#equal legal slots) / (#legal slots).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "she/engine.hpp"

namespace she {

/// <24-bit minimum, K = M (every slot), min(H_i(x))>.
struct MinHashPolicy {
  static constexpr char kName[] = "SheMinHash";
  static constexpr char kTag[] = "SHMH";
  static constexpr bool kTakesHashes = false;
  static constexpr bool kUnitGroups = true;
  static constexpr unsigned kHashesPerProbe = 1;
  /// Stage 1 sweeps one key's whole signature at a time, so any K fits.
  static constexpr unsigned kMaxBlockProbes =
      std::numeric_limits<unsigned>::max();
  /// Empty-slot sentinel, larger than any 24-bit hash value.
  static constexpr std::uint32_t kEmpty = 1u << 24;
  using Cells = std::vector<std::uint32_t>;

  static unsigned probes(const SheConfig& cfg) {
    return static_cast<unsigned>(cfg.cells);
  }
  static Cells make_cells(const SheConfig& cfg) {
    return Cells(cfg.cells, kEmpty);
  }
  static batch::Slot probe(const SheConfig& cfg, std::uint64_t key,
                           unsigned i) {
    return {i, BobHash32(cfg.seed + i)(key) & 0xFFFFFFu};
  }
  /// Lane-parallel hashing across the seed axis (one key, M consecutive
  /// seeds); every slot of a key shares its time, so marks are staged with
  /// one range sweep per key (slots ARE the groups).
  static void stage(const StageContext& c, std::span<const std::uint64_t> keys,
                    std::size_t begin, std::size_t n, const StagedLanes& out) {
    const std::size_t m = c.probes;
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t s0 = b * m;
      simd::bobhash32_seeds(keys[begin + b], c.cfg.seed, m, out.val + s0);
      const std::uint64_t t = c.stager.time_of(begin + b);
      c.clock.stage_marks_range(0, m, c.clock.split(t), out.cur + s0);
      for (std::size_t i = 0; i < m; ++i) {
        out.pos[s0 + i] = out.gid[s0 + i] = static_cast<std::uint32_t>(i);
        out.val[s0 + i] &= 0xFFFFFFu;
      }
    }
  }
  static void reset(Cells& c, std::size_t first, std::size_t count) {
    std::fill_n(c.begin() + first, count, kEmpty);
  }
  static void update(Cells& c, std::size_t pos, std::uint64_t v) {
    c[pos] = std::min(c[pos], static_cast<std::uint32_t>(v));
  }
};

/// Inserts, clear, time, config and save come from SheEngine; every insert
/// updates every slot (MinHash's K = m in the CSM).
class SheMinHash : public SheEngine<MinHashPolicy> {
 public:
  /// `cfg.cells` signature slots; `cfg.group_cells` must be 1 (w = 1).
  explicit SheMinHash(const SheConfig& cfg) : SheEngine(cfg) {}

  [[nodiscard]] std::size_t slot_count() const { return cells_.size(); }

  /// Signature bytes (24-bit slots) + time marks.
  [[nodiscard]] std::size_t memory_bytes() const {
    return cells_.size() * 3 + clock_.memory_bytes();
  }

  static SheMinHash load(BinaryReader& in) { return load_as<SheMinHash>(in); }

  static constexpr std::uint32_t kEmpty = MinHashPolicy::kEmpty;

  /// Estimated Jaccard similarity of the two streams' last-N windows.
  /// Both signatures must share cfg (cells, window, alpha, seed) and be at
  /// the same stream time (lock-step insertion).
  static double jaccard(const SheMinHash& a, const SheMinHash& b);

  /// Multi-window query: similarity over the last `window` items for any
  /// window in [1, N], comparing slots whose age is in the symmetric band
  /// [beta*window, (2-beta)*window).
  static double jaccard(const SheMinHash& a, const SheMinHash& b,
                        std::uint64_t window);

  /// Batched multi-window query: element-wise identical to
  /// jaccard(a, b, windows[i]) but both signatures are scanned ONCE for
  /// all windows instead of once per window.
  static std::vector<double> jaccard_batch(
      const SheMinHash& a, const SheMinHash& b,
      std::span<const std::uint64_t> windows);

 private:
  static std::vector<double> similarity(const SheMinHash& a,
                                        const SheMinHash& b,
                                        std::span<const Band> bands);
};

}  // namespace she
