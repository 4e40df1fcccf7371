// SheEngine — the one machinery every SHE estimator runs on (paper Sec. 4,
// Fig. 2).  The paper models each estimator as <CellType, K, F> over a group
// clock: K probes per item land on cells, CheckGroup resets a group whose
// stored mark lags the current cycle, and F merges the item into the cell.
// SheEngine<Policy> owns everything that model shares:
//
//   * SheConfig validation, the GroupClock, stream time and advance_to;
//   * insert / insert_at and their batched forms: the per-key loop, the
//     scalar batch loop (the SHE_FORCE_SCALAR reference) and the
//     block-staged batch loop (SIMD stage 1), each written once;
//   * one block-staged loop for batched point queries (query_batch) and
//     one chunked group-age scan for window queries (scan);
//   * clear, memory_bytes and the save()/load() frame.
//
// A policy supplies the rest, as static members:
//
//   kName, kTag            class name (messages) and 4-char save() tag
//   kTakesHashes           K is the caller's hash count, serialized after
//                          the config (SHE-BF, SHE-CM); else probes(cfg)
//   kUnitGroups            w == 1, so a cell index is its group id
//   kHashesPerProbe        BobHash calls charged per probe (telemetry)
//   kMaxBlockProbes        the block path takes K up to this
//   Cells, make_cells      the cell store, one per estimator, so serialized
//                          bytes never drift: BitArray, PackedArray or
//                          std::vector<std::uint32_t>
//   probe(cfg, key, h)     scalar position and update operand of probe h
//   stage(ctx, keys, ...)  stage-1 block kernel filling StagedLanes
//   reset, update          the cell reset of a lazy clean, and F
//
// The public estimator classes derive from SheEngine<Policy> and add only
// their query code.  See docs/INTERNALS.md §8 and §13.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bit_array.hpp"
#include "common/bobhash.hpp"
#include "common/io.hpp"
#include "common/packed_array.hpp"
#include "obs/she_metrics.hpp"
#include "she/batch.hpp"
#include "she/batch_simd.hpp"
#include "she/config.hpp"
#include "she/group_clock.hpp"

namespace she {

/// One block of staged insert slots, structure-of-arrays and key-major
/// (slot b * K + h is probe h of key b).  Stage 1 fills every lane; stage 2
/// replays them in arrival order.
struct StagedLanes {
  std::uint32_t* pos;  ///< cell index
  std::uint32_t* gid;  ///< its group
  std::uint32_t* cur;  ///< the group's current mark at the key's time
  std::uint32_t* val;  ///< update operand (HLL rank, MH value), else scratch
};

/// What a stage-1 block kernel reads besides the keys.
struct StageContext {
  const SheConfig& cfg;
  const GroupClock& clock;
  unsigned probes;
  FastDiv32 mod_cells;  ///< pos = hash mod M
  FastDiv32 div_group;  ///< gid = pos / w
  batch::MarkStager stager;
};

/// One staged probe of a batched point query, at the current time.
struct QueryProbe {
  std::size_t pos;
  std::uint64_t age;
  bool stale;
};

/// The probe family of SHE-BF, SHE-BM and SHE-CM (and SHE-HLL's register
/// index): probe h of a key lands on cell BobHash32(seed + h)(key) mod M.
struct HashedProbes {
  static constexpr bool kTakesHashes = false;
  static constexpr bool kUnitGroups = false;
  static constexpr unsigned kHashesPerProbe = 1;
  /// Higher hash counts keep the scalar batch loop and per-slot query
  /// staging, as they always have.
  static constexpr unsigned kMaxBlockProbes = batch::kSlotBudget;

  static unsigned probes(const SheConfig&) { return 1; }

  static batch::Slot probe(const SheConfig& cfg, std::uint64_t key,
                           unsigned h) {
    return {BobHash32(cfg.seed + h)(key) % cfg.cells, 0};
  }

  /// Fused stage 1: one hash sweep, one position/group reduction and one
  /// mark staging call over the whole key-major block.
  static void stage(const StageContext& c, std::span<const std::uint64_t> keys,
                    std::size_t begin, std::size_t n, const StagedLanes& out) {
    simd::bobhash32_keys_multi(keys.data() + begin, n, c.cfg.seed, c.probes,
                               out.val);
    simd::positions_groups(out.val, n * c.probes, c.mod_cells, c.div_group,
                           out.pos, out.gid);
    c.stager.stage_rep(begin, n, c.probes, out.gid, out.cur);
  }
};

/// Bit cells (SHE-BF, SHE-BM): a lazy clean zeroes the group, F sets the bit.
struct BitCells {
  using Cells = BitArray;
  static Cells make_cells(const SheConfig& cfg) { return Cells(cfg.cells); }
  static void reset(Cells& c, std::size_t first, std::size_t count) {
    c.clear_range(first, count);
  }
  static void update(Cells& c, std::size_t pos, std::uint64_t) { c.set(pos); }
};

/// Footprint, prefetch and serialization of the three cell stores.
namespace cell_store {
template <typename A>
std::size_t bytes(const A& c) { return c.memory_bytes(); }
inline std::size_t bytes(const std::vector<std::uint32_t>& c) {
  return c.size() * sizeof(std::uint32_t);
}
template <typename A>
void prefetch(const A& c, std::size_t i, bool write) { c.prefetch(i, write); }
inline void prefetch(const std::vector<std::uint32_t>& c, std::size_t i,
                     bool write) {
  batch::prefetch_addr(c.data() + i, write);
}
template <typename A>
void save(BinaryWriter& out, const A& c) { c.save(out); }
inline void save(BinaryWriter& out, const std::vector<std::uint32_t>& c) {
  out.u32_vector(c);
}
template <typename A>
void load(BinaryReader& in, A& c) { c = A::load(in); }
inline void load(BinaryReader& in, std::vector<std::uint32_t>& c) {
  c = in.u32_vector();
}
}  // namespace cell_store

template <typename Policy>
class SheEngine {
 public:
  using Cells = typename Policy::Cells;

  /// Insert one item; advances the stream clock by one.
  void insert(std::uint64_t key) { insert_at(key, time_ + 1); }

  /// Time-based windows: insert at explicit timestamp `t` (monotone
  /// non-decreasing; throws std::invalid_argument if it moves backwards).
  /// With insert_at, `window` counts time units instead of items.
  void insert_at(std::uint64_t key, std::uint64_t t) {
    advance_to(t);
    for (unsigned h = 0; h < k_; ++h) {
      const batch::Slot s = Policy::probe(cfg_, key, h);
      const std::size_t gid = group_of(s.pos);
      if (clock_.touch(gid, time_)) reset_group(gid);
      Policy::update(cells_, s.pos, s.aux);
    }
    if (obs::enabled()) obs::she_metrics().hash_calls.inc(hash_cost());
  }

  /// Insert a batch, bit-for-bit equivalent to insert() per key in order.
  /// Probes are hashed a block ahead and the touched cell and mark lines
  /// prefetched; under vector dispatch stage 1 also hashes 8–16 keys per
  /// instruction and precomputes GroupClock marks (she/batch.hpp).
  void insert_batch(std::span<const std::uint64_t> keys) {
    insert_many(keys, nullptr);
  }

  /// Batched insert_at: key[i] inserted at times[i] (monotone
  /// non-decreasing, validated up front; throws like insert_at).  Runs the
  /// same pipeline as insert_batch.
  void insert_at_batch(std::span<const std::uint64_t> keys,
                       std::span<const std::uint64_t> times) {
    batch::validate_insert_times(keys, times, time_, Policy::kName);
    insert_many(keys, times.data());
  }

  /// Advance the clock to `t` without inserting, so queries reflect the
  /// window (t - N, t] even during arrival gaps.
  void advance_to(std::uint64_t t) {
    if (t < time_)
      throw std::invalid_argument(std::string(Policy::kName) +
                                  ": time must not move backwards");
    time_ = t;
  }

  /// Reset to the empty state at time 0.
  void clear() {
    Policy::reset(cells_, 0, cfg_.cells);
    clock_.reset();
    time_ = 0;
  }

  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] const SheConfig& config() const { return cfg_; }

  /// Payload + time-mark bytes (the figures' memory axis).
  [[nodiscard]] std::size_t memory_bytes() const {
    return cell_store::bytes(cells_) + clock_.memory_bytes();
  }

  /// Checkpoint the full sliding-window state; load() resumes with
  /// identical answers.
  void save(BinaryWriter& out) const {
    out.tag(Policy::kTag);
    cfg_.save(out);
    if constexpr (Policy::kTakesHashes) out.u32(k_);
    out.u64(time_);
    clock_.save(out);
    cell_store::save(out, cells_);
  }

 protected:
  /// `hashes` is K for kTakesHashes policies and ignored otherwise.
  explicit SheEngine(const SheConfig& cfg, unsigned hashes = 0)
      : cfg_(cfg),
        k_(Policy::kTakesHashes ? hashes : Policy::probes(cfg)),
        clock_(cfg.groups(), cfg.tcycle(), cfg.mark_bits),
        cells_(Policy::make_cells(cfg)) {
    cfg_.validate();
    if (k_ == 0)
      throw std::invalid_argument(std::string(Policy::kName) +
                                  ": hashes must be > 0");
    if (Policy::kUnitGroups && cfg_.group_cells != 1)
      throw std::invalid_argument(std::string(Policy::kName) +
                                  ": group_cells must be 1 (w = 1)");
  }

  /// The load() counterpart of save(), constructing a `Derived`.
  template <typename Derived>
  static Derived load_as(BinaryReader& in) {
    in.expect_tag(Policy::kTag);
    const SheConfig cfg = SheConfig::load(in);
    Derived est = [&] {
      if constexpr (Policy::kTakesHashes)
        return Derived(cfg, in.u32());
      else
        return Derived(cfg);
    }();
    est.time_ = in.u64();
    est.clock_ = GroupClock::load(in);
    cell_store::load(in, est.cells_);
    if (est.clock_.groups() != cfg.groups() || est.cells_.size() != cfg.cells)
      throw std::runtime_error(std::string(Policy::kName) +
                               "::load: shape mismatch");
    return est;
  }

  [[nodiscard]] std::size_t group_of(std::size_t pos) const {
    return Policy::kUnitGroups ? pos : pos / cfg_.group_cells;
  }

  /// True if a group whose current mark is `cur` still holds a lagging
  /// stored mark, i.e. its content must read as empty.
  [[nodiscard]] bool stale_at(std::size_t gid, std::uint32_t cur) const {
    return clock_.stored_mark(gid) != cur;
  }

  /// Throws unless `window` is in [1, N].
  void check_window(std::uint64_t window,
                    const char* who = Policy::kName) const {
    if (window == 0 || window > cfg_.window)
      throw std::invalid_argument(std::string(who) +
                                  ": query window must be in [1, N]");
  }

  /// Groups whose age is legal for the full-window query (diagnostic).
  [[nodiscard]] std::size_t legal_groups() const {
    const std::uint64_t lower = full_band().lower;
    std::size_t legal = 0;
    for_each_chunk([&](std::size_t, std::size_t n, const std::uint64_t* age,
                       const std::uint32_t*) {
      for (std::size_t i = 0; i < n; ++i) legal += age[i] >= lower ? 1 : 0;
    });
    return legal;
  }

  // --- Batched point queries ----------------------------------------------

  /// Stages every key's K probes a block ahead with read-hinted prefetches
  /// and calls eval(i, probes) with key i's probes in order.  Shapes the
  /// block path takes stage through the vector kernels; forced-scalar and
  /// out-of-shape queries stage per slot with the scalar hash and clock.
  /// Charges K hash calls per key, whatever eval reads.
  template <typename Eval>
  void query_batch(std::span<const std::uint64_t> keys, Eval&& eval) const {
    const std::size_t block = batch::block_keys(k_);
    // Local scratch keeps this const path safe for concurrent readers.
    const auto probes =
        std::make_unique_for_overwrite<QueryProbe[]>(2 * block * k_);
    const bool vectorized = block_path();
    const FastDiv32 mod_cells(
        static_cast<std::uint32_t>(vectorized ? cfg_.cells : 1));
    const FastDiv32 div_group(
        static_cast<std::uint32_t>(vectorized ? cfg_.group_cells : 1));
    const GroupClock::TimeParts now = clock_.split(time_);
    const bool warm_cells = cells_warm(), warm_marks = marks_warm();
    batch::double_buffered(
        keys.size(), block,
        [&](std::size_t begin, std::size_t n, std::size_t buf) {
          QueryProbe* out = probes.get() + buf * block * k_;
          const std::size_t m = n * k_;
          if (vectorized) {
            std::uint32_t h32[batch::kSlotBudget];
            std::uint32_t pos[batch::kSlotBudget];
            std::uint32_t gid[batch::kSlotBudget];
            std::uint32_t cur[batch::kSlotBudget];
            std::uint64_t age[batch::kSlotBudget];
            simd::bobhash32_keys_multi(keys.data() + begin, n, cfg_.seed, k_,
                                       h32);
            simd::positions_groups(h32, m, mod_cells, div_group, pos, gid);
            clock_.stage_marks(gid, m, now, cur, age);
            for (std::size_t s = 0; s < m; ++s)
              out[s] = {pos[s], age[s], stale_at(gid[s], cur[s])};
          } else {
            QueryProbe* p = out;
            for (std::size_t b = 0; b < n; ++b) {
              for (unsigned h = 0; h < k_; ++h, ++p) {
                const std::size_t pos =
                    Policy::probe(cfg_, keys[begin + b], h).pos;
                const std::size_t gid = group_of(pos);
                *p = {pos, clock_.age(gid, time_), clock_.stale(gid, time_)};
              }
            }
          }
          if (!warm_cells && !warm_marks) return;
          for (std::size_t s = 0; s < m; ++s) {
            if (warm_cells) cell_store::prefetch(cells_, out[s].pos, false);
            if (warm_marks) clock_.prefetch(group_of(out[s].pos), false);
          }
        },
        [&](std::size_t begin, std::size_t n, std::size_t buf) {
          const QueryProbe* in = probes.get() + buf * block * k_;
          for (std::size_t b = 0; b < n; ++b) eval(begin + b, in + b * k_);
        });
    if (obs::enabled())
      obs::she_metrics().hash_calls.inc(
          static_cast<std::uint64_t>(keys.size()) * hash_cost());
  }

  // --- Window scans ---------------------------------------------------------

  /// Legal ages [lower, upper) of one window query; `window` is what the
  /// age-class telemetry classifies against.
  struct Band {
    std::uint64_t window, lower, upper;
  };

  /// The paper's band for the full window N: ages in [beta*N, Tcycle).
  [[nodiscard]] Band full_band() const {
    return {cfg_.window,
            static_cast<std::uint64_t>(cfg_.beta *
                                       static_cast<double>(cfg_.window)),
            std::numeric_limits<std::uint64_t>::max()};
  }

  /// The symmetric band [beta*w, (2-beta)*w) of each sub-window w, which
  /// centres the lumped group ages on w.  Throws unless every w is in
  /// [1, N].
  [[nodiscard]] std::vector<Band> bands(std::span<const std::uint64_t> windows,
                                        const char* who = Policy::kName) const {
    std::vector<Band> out;
    out.reserve(windows.size());
    for (std::uint64_t w : windows) {
      check_window(w, who);
      const auto wd = static_cast<double>(w);
      out.push_back({w, static_cast<std::uint64_t>(cfg_.beta * wd),
                     static_cast<std::uint64_t>((2.0 - cfg_.beta) * wd)});
    }
    return out;
  }

  /// The one window scan.  A single chunked pass stages every group's age
  /// and current mark through the vectorized GroupClock kernels (one
  /// division per scan) and classifies the group for each band's
  /// telemetry; for each band whose range holds the age, add(acc, value)
  /// folds read(gid, cur) into that band's accumulator — read at most once
  /// per group, however many bands accept it.  Returns one Acc per band.
  template <typename Acc, typename Read, typename Add>
  std::vector<Acc> scan(std::span<const Band> bands, Read&& read,
                        Add&& add) const {
    const bool track = obs::enabled();
    std::vector<obs::AgeClassCounts> cls(track ? bands.size() : 0);
    std::vector<Acc> accs(bands.size());
    // Per-chunk loops over local copies keep counters and accumulators in
    // registers rather than carrying them through memory per group.
    for_each_chunk([&](std::size_t g0, std::size_t n, const std::uint64_t* age,
                       const std::uint32_t* cur) {
      for (std::size_t j = 0; j < cls.size(); ++j) {
        obs::AgeClassCounts c = cls[j];
        for (std::size_t i = 0; i < n; ++i) c.add(age[i], bands[j].window);
        cls[j] = c;
      }
      if (bands.size() == 1) {  // the common single-window query
        const Band band = bands[0];
        Acc acc = accs[0];
        for (std::size_t i = 0; i < n; ++i)
          if (age[i] >= band.lower && age[i] < band.upper)
            add(acc, read(g0 + i, cur[i]));
        accs[0] = acc;
        return;
      }
      for (std::size_t i = 0; i < n; ++i) {
        std::optional<decltype(read(g0, cur[i]))> value;
        for (std::size_t j = 0; j < bands.size(); ++j) {
          if (age[i] < bands[j].lower || age[i] >= bands[j].upper) continue;
          if (!value) value = read(g0 + i, cur[i]);
          add(accs[j], *value);
        }
      }
    });
    for (const obs::AgeClassCounts& c : cls) c.commit(true);
    return accs;
  }

  SheConfig cfg_;
  unsigned k_;  ///< probes per item (K)
  GroupClock clock_;
  Cells cells_;
  std::uint64_t time_ = 0;

 private:
  [[nodiscard]] std::uint64_t hash_cost() const {
    return std::uint64_t{k_} * Policy::kHashesPerProbe;
  }

  /// Vector stage 1 applies: a vector backend is dispatched, positions fit
  /// 32-bit lanes, and K is within the policy's block limit.
  [[nodiscard]] bool block_path() const {
    return batch::simd_eligible(cfg_.cells) && k_ <= Policy::kMaxBlockProbes;
  }

  // Cache-resident arrays are not worth prefetching (batch.hpp).
  [[nodiscard]] bool cells_warm() const {
    return cell_store::bytes(cells_) >= batch::kPrefetchFootprint;
  }
  [[nodiscard]] bool marks_warm() const {
    return clock_.memory_bytes() >= batch::kPrefetchFootprint;
  }

  /// visit(first, n, ages, curs) over every group at the current time, a
  /// chunk of groups [first, first + n) at a time, ages and current marks
  /// staged through the vectorized GroupClock kernels.
  template <typename Visit>
  [[gnu::always_inline]] void for_each_chunk(Visit&& visit) const {
    const GroupClock::TimeParts now = clock_.split(time_);
    constexpr std::size_t kChunk = 256;
    std::uint64_t age[kChunk];
    std::uint32_t cur[kChunk];
    const std::size_t groups = clock_.groups();
    for (std::size_t g0 = 0; g0 < groups; g0 += kChunk) {
      const std::size_t n = std::min(kChunk, groups - g0);
      clock_.stage_marks_range(g0, n, now, cur, age);
      visit(g0, n, age, cur);
    }
  }

  /// CheckGroup's reset of group `gid` (the last group may be partial).
  void reset_group(std::size_t gid) {
    const std::size_t first = gid * cfg_.group_cells;
    Policy::reset(cells_, first,
                  std::min(cfg_.group_cells, cfg_.cells - first));
  }

  // Shared batch-insert core: times == nullptr means +1 per key.  One
  // hash-call increment per batch: every path charges K hashes per key.
  void insert_many(std::span<const std::uint64_t> keys,
                   const std::uint64_t* times) {
    if (block_path())
      insert_blocks(keys, times);
    else
      insert_scalar(keys, times);
    if (obs::enabled())
      obs::she_metrics().hash_calls.inc(
          static_cast<std::uint64_t>(keys.size()) * hash_cost());
  }

  /// The scalar reference loop: stage 1 hashes and prefetches one probe at
  /// a time, stage 2 runs CheckGroup against the clock and applies F.
  void insert_scalar(std::span<const std::uint64_t> keys,
                     const std::uint64_t* times) {
    const std::size_t block = batch::block_keys(k_);
    scratch_.resize(2 * block * k_);
    const bool warm_cells = cells_warm(), warm_marks = marks_warm();
    batch::double_buffered(
        keys.size(), block,
        [&](std::size_t begin, std::size_t n, std::size_t buf) {
          batch::Slot* out = scratch_.data() + buf * block * k_;
          for (std::size_t b = 0; b < n; ++b) {
            for (unsigned h = 0; h < k_; ++h, ++out) {
              *out = Policy::probe(cfg_, keys[begin + b], h);
              if (warm_cells) cell_store::prefetch(cells_, out->pos, true);
              if (warm_marks) clock_.prefetch(group_of(out->pos), true);
            }
          }
        },
        [&](std::size_t begin, std::size_t n, std::size_t buf) {
          const batch::Slot* in = scratch_.data() + buf * block * k_;
          for (std::size_t b = 0; b < n; ++b) {
            time_ = times != nullptr ? times[begin + b] : time_ + 1;
            for (unsigned h = 0; h < k_; ++h, ++in) {
              const std::size_t gid = group_of(in->pos);
              if (clock_.touch(gid, time_)) reset_group(gid);
              Policy::update(cells_, in->pos, in->aux);
            }
          }
        });
  }

  /// The block path: the policy's stage-1 kernel fills a block's lanes
  /// (positions, groups, precomputed marks, operands), then stage 2 applies
  /// CheckGroup against the staged mark and F, division-free.
  void insert_blocks(std::span<const std::uint64_t> keys,
                     const std::uint64_t* times) {
    const std::size_t block = batch::block_keys(k_);
    const std::size_t lane = block * k_;
    lanes_.resize(2 * 4 * lane);  // two buffers of four lanes
    auto lanes = [&](std::size_t buf) {
      std::uint32_t* p = lanes_.data() + buf * 4 * lane;
      return StagedLanes{p, p + lane, p + 2 * lane, p + 3 * lane};
    };
    const StageContext ctx{
        cfg_,
        clock_,
        k_,
        FastDiv32(static_cast<std::uint32_t>(cfg_.cells)),
        FastDiv32(static_cast<std::uint32_t>(cfg_.group_cells)),
        batch::MarkStager(clock_, time_, times)};
    const bool warm_cells = cells_warm(), warm_marks = marks_warm();
    batch::double_buffered(
        keys.size(), block,
        [&](std::size_t begin, std::size_t n, std::size_t buf) {
          const StagedLanes out = lanes(buf);
          Policy::stage(ctx, keys, begin, n, out);
          if (!warm_cells && !warm_marks) return;
          for (std::size_t s = 0; s < n * k_; ++s) {
            if (warm_cells) cell_store::prefetch(cells_, out.pos[s], true);
            if (warm_marks) clock_.prefetch(out.gid[s], true);
          }
        },
        [&](std::size_t begin, std::size_t n, std::size_t buf) {
          const StagedLanes in = lanes(buf);
          for (std::size_t b = 0, s = 0; b < n; ++b) {
            time_ = times != nullptr ? times[begin + b] : time_ + 1;
            for (unsigned h = 0; h < k_; ++h, ++s) {
              if (clock_.touch_precomputed(in.gid[s], in.cur[s]))
                reset_group(in.gid[s]);
              Policy::update(cells_, in.pos[s], in.val[s]);
            }
          }
        });
  }

  std::vector<batch::Slot> scratch_;  // scalar batch staging (not state)
  std::vector<std::uint32_t> lanes_;  // block staging (not state)
};

}  // namespace she
