// The Common Sketch Model (CSM) as a compile-time policy framework —
// the paper's Fig. 2 abstraction made executable.
//
// The paper characterizes every base algorithm by a triple <C, K, F>:
// a cell type, a number of hashed locations, and an update function
// F(x, y) applied independently to each hashed cell.  SHE then extends any
// CSM algorithm to sliding windows via the group clock.  This header
// provides exactly that contract:
//
//   * `CsmPolicy` — the concept a base algorithm must model (cell type,
//     probe count, position hash, update function);
//   * `SlidingEstimator<Policy>` — the generic SHE hardware-version engine:
//     lazy group cleaning on insert, age-classified cell views for queries;
//   * the five paper policies (Bloom filter, Bitmap, HyperLogLog,
//     Count-Min, MinHash) plus their query functions, answer-equivalent to
//     the production estimators in she_*.hpp (tested);
//   * room for user-defined policies: any type modelling `CsmPolicy` gets
//     sliding-window behaviour for free (see examples/custom_sketch.cpp).
//
// The production estimators (SheEngine policies, she/engine.hpp) remain the
// recommended API for the five standard tasks (packed cell storage, the
// batched and SIMD paths); this layer is the extension point and the
// executable specification.
#pragma once

#include <concepts>
#include <stdexcept>
#include <cstdint>
#include <vector>

#include "common/bobhash.hpp"
#include "common/int_math.hpp"
#include "she/config.hpp"
#include "she/group_clock.hpp"

namespace she::csm {

/// The paper's <C, K, F> triple as a concept.  `probes(cells)` returns K
/// (which may equal the cell count, as for MinHash); `position` maps
/// (key, probe) to a cell index; `update` is F with the probe index
/// available so per-probe hash families work.
template <typename P>
concept CsmPolicy = requires(const P p, std::uint64_t key, unsigned probe,
                             std::size_t cells, typename P::Cell cell) {
  typename P::Cell;
  { p.probes(cells) } -> std::convertible_to<unsigned>;
  { p.position(key, probe, cells) } -> std::convertible_to<std::size_t>;
  { p.update(key, probe, cell) } -> std::convertible_to<typename P::Cell>;
  { P::empty_cell() } -> std::convertible_to<typename P::Cell>;
};

/// Age classification of one cell at query time (paper Sec. 3.2/3.3).
enum class CellAge : std::uint8_t {
  kYoung,    ///< age <  N: may have lost in-window items
  kPerfect,  ///< age == N: records the window exactly
  kAged,     ///< age >  N: may retain out-dated items
};

/// A queried cell: its effective value (stale groups read as empty) and
/// its age class.
template <typename Cell>
struct CellView {
  Cell value;
  std::uint64_t age;
  CellAge age_class;
};

/// Generic SHE hardware-version engine for any CSM policy.
template <CsmPolicy Policy>
class SlidingEstimator {
 public:
  using Cell = typename Policy::Cell;

  SlidingEstimator(const SheConfig& cfg, Policy policy = Policy{})
      : cfg_(cfg),
        policy_(std::move(policy)),
        clock_(cfg.groups(), cfg.tcycle(), cfg.mark_bits),
        cells_(cfg.cells, Policy::empty_cell()) {
    cfg_.validate();
  }

  /// Insert one item: CheckGroup then F, per hashed cell (Algorithm 1).
  void insert(std::uint64_t key) { insert_at(key, time_ + 1); }

  /// Time-based windows: insert at explicit timestamp `t` (monotone
  /// non-decreasing); `window` then counts time units instead of items.
  void insert_at(std::uint64_t key, std::uint64_t t) {
    advance_to(t);
    unsigned k = policy_.probes(cells_.size());
    for (unsigned i = 0; i < k; ++i) {
      std::size_t pos = policy_.position(key, i, cells_.size());
      touch_group(pos / cfg_.group_cells);
      cells_[pos] = policy_.update(key, i, cells_[pos]);
    }
  }

  /// Advance the clock without inserting (arrival gaps still age content).
  void advance_to(std::uint64_t t) {
    if (t < time_)
      throw std::invalid_argument("SlidingEstimator: time must not move backwards");
    time_ = t;
  }

  /// View of the cell probed by (key, probe) — const; stale groups read as
  /// empty without mutating.
  [[nodiscard]] CellView<Cell> probe(std::uint64_t key, unsigned i) const {
    return view(policy_.position(key, i, cells_.size()));
  }

  /// View of cell `pos`.
  [[nodiscard]] CellView<Cell> view(std::size_t pos) const {
    std::size_t gid = pos / cfg_.group_cells;
    std::uint64_t age = clock_.age(gid, time_);
    CellAge cls = age < cfg_.window
                      ? CellAge::kYoung
                      : (age == cfg_.window ? CellAge::kPerfect : CellAge::kAged);
    Cell value = clock_.stale(gid, time_) ? Policy::empty_cell() : cells_[pos];
    return {value, age, cls};
  }

  /// True if cell `pos`'s age is in the two-sided legal range
  /// [beta*N, Tcycle) (paper Sec. 4.1/4.3/4.5).
  [[nodiscard]] bool legal(std::size_t pos) const {
    auto lower =
        static_cast<std::uint64_t>(cfg_.beta * static_cast<double>(cfg_.window));
    return clock_.age(pos / cfg_.group_cells, time_) >= lower;
  }

  void clear() {
    std::fill(cells_.begin(), cells_.end(), Policy::empty_cell());
    clock_.reset();
    time_ = 0;
  }

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] const SheConfig& config() const { return cfg_; }
  [[nodiscard]] const Policy& policy() const { return policy_; }

  /// Memory model: policy-declared bits per cell plus the time marks.
  /// (Generic storage is one `Cell` per slot; the figure-grade specialized
  /// classes pack cells tightly, so budget experiments should use those.)
  [[nodiscard]] std::size_t memory_bytes() const {
    return ceil_div(cells_.size() * Policy::cell_bits(), 8) + clock_.memory_bytes();
  }

 private:
  void touch_group(std::size_t gid) {
    if (!clock_.touch(gid, time_)) return;
    std::size_t first = gid * cfg_.group_cells;
    std::size_t count = std::min(cfg_.group_cells, cells_.size() - first);
    std::fill(cells_.begin() + static_cast<std::ptrdiff_t>(first),
              cells_.begin() + static_cast<std::ptrdiff_t>(first + count),
              Policy::empty_cell());
  }

  SheConfig cfg_;
  Policy policy_;
  GroupClock clock_;
  std::vector<Cell> cells_;
  std::uint64_t time_ = 0;
};

// ---------------------------------------------------------------------------
// The five paper policies (Fig. 2's table).
// ---------------------------------------------------------------------------

/// Bloom filter: <bit, k, F(x,y) = 1>.
struct BloomPolicy {
  using Cell = std::uint8_t;
  unsigned hashes = 8;
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t) const { return hashes; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned i,
                                     std::size_t cells) const {
    return BobHash32(seed + i)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t, unsigned, Cell) const { return 1; }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 1; }
};

/// Bitmap: <bit, 1, F(x,y) = 1>.
struct BitmapPolicy {
  using Cell = std::uint8_t;
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t) const { return 1; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned,
                                     std::size_t cells) const {
    return BobHash32(seed)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t, unsigned, Cell) const { return 1; }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 1; }
};

/// HyperLogLog: <counter, 1, F(x,y) = max(rank(x), y)>.
struct HllPolicy {
  using Cell = std::uint8_t;
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t) const { return 1; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned,
                                     std::size_t cells) const {
    return BobHash32(seed)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t key, unsigned, Cell old) const {
    std::uint8_t rank = hll_rank(BobHash32(seed + 0x5eed)(key), 32);
    if (rank > 31) rank = 31;  // 5-bit register ceiling
    return rank > old ? rank : old;
  }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 5; }
};

/// Count-Min: <counter, k, F(x,y) = y + 1>.
struct CountMinPolicy {
  using Cell = std::uint32_t;
  unsigned hashes = 8;
  std::uint32_t seed = 0;

  [[nodiscard]] unsigned probes(std::size_t) const { return hashes; }
  [[nodiscard]] std::size_t position(std::uint64_t key, unsigned i,
                                     std::size_t cells) const {
    return BobHash32(seed + i)(key) % cells;
  }
  [[nodiscard]] Cell update(std::uint64_t, unsigned, Cell old) const {
    return old == ~Cell{0} ? old : old + 1;
  }
  static Cell empty_cell() { return 0; }
  static std::size_t cell_bits() { return 32; }
};

/// MinHash: <counter, m, F(x,y) = min(hash_i(x), y)> — every cell is probed.
struct MinHashPolicy {
  using Cell = std::uint32_t;
  std::uint32_t seed = 0;
  static constexpr Cell kEmpty = 1u << 24;

  [[nodiscard]] unsigned probes(std::size_t cells) const {
    return static_cast<unsigned>(cells);
  }
  [[nodiscard]] std::size_t position(std::uint64_t, unsigned i,
                                     std::size_t) const {
    return i;  // slot i is updated by hash function i
  }
  [[nodiscard]] Cell update(std::uint64_t key, unsigned i, Cell old) const {
    Cell v = BobHash32(seed + i)(key) & 0xFFFFFFu;
    return v < old ? v : old;
  }
  static Cell empty_cell() { return kEmpty; }
  static std::size_t cell_bits() { return 24; }
};

// ---------------------------------------------------------------------------
// Query functions for the standard policies (paper Sec. 4).
// ---------------------------------------------------------------------------

/// SHE-BF membership: ignore young probes; any zero mature probe proves
/// absence (one-sided, no false negatives).
template <CsmPolicy P>
  requires std::same_as<P, BloomPolicy>
[[nodiscard]] bool contains(const SlidingEstimator<P>& est, std::uint64_t key) {
  unsigned k = est.policy().probes(est.cell_count());
  for (unsigned i = 0; i < k; ++i) {
    auto cell = est.probe(key, i);
    if (cell.age_class == CellAge::kYoung) continue;
    if (cell.value == 0) return false;
  }
  return true;
}

/// SHE-BM cardinality: linear counting over the legal cells, scaled to the
/// whole array.
template <CsmPolicy P>
  requires std::same_as<P, BitmapPolicy>
[[nodiscard]] double cardinality(const SlidingEstimator<P>& est);

/// SHE-HLL cardinality: bias-corrected harmonic mean over legal registers.
template <CsmPolicy P>
  requires std::same_as<P, HllPolicy>
[[nodiscard]] double cardinality(const SlidingEstimator<P>& est);

/// SHE-CM frequency: min over mature probes; min over all probes if every
/// probe is young (the documented two-sided corner).
template <CsmPolicy P>
  requires std::same_as<P, CountMinPolicy>
[[nodiscard]] std::uint64_t frequency(const SlidingEstimator<P>& est,
                                      std::uint64_t key) {
  std::uint64_t best_mature = ~std::uint64_t{0};
  std::uint64_t best_any = ~std::uint64_t{0};
  unsigned k = est.policy().probes(est.cell_count());
  for (unsigned i = 0; i < k; ++i) {
    auto cell = est.probe(key, i);
    std::uint64_t v = cell.value;
    if (v < best_any) best_any = v;
    if (cell.age_class != CellAge::kYoung && v < best_mature) best_mature = v;
  }
  return best_mature != ~std::uint64_t{0} ? best_mature : best_any;
}

/// SHE-MH similarity: equal legal slots over compared legal slots.
[[nodiscard]] double jaccard(const SlidingEstimator<MinHashPolicy>& a,
                             const SlidingEstimator<MinHashPolicy>& b);

}  // namespace she::csm
