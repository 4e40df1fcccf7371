// Hash-ahead + prefetch batching, the loop shape of every SHE batch path.
//
// SHE's insert is a single-stage memory operation per hashed cell, so on a
// CPU the hot path is latency-bound: hash(key) -> load line -> update is one
// long dependency chain per item once the cell array outgrows the cache.
// Because the Common Sketch Model separates *where* an update lands
// (position(key, i), time-independent) from *what* it does (F and the
// CheckGroup against the current time), any CSM sketch can be software-
// pipelined the same way:
//
//   stage 1  hash a block of keys, record every (cell, operand) slot, and
//            issue prefetches for the touched cell words *and* the
//            GroupClock mark words (CheckGroup reads the mark before the
//            cell, so a cold mark line stalls the update just as surely as
//            a cold cell);
//   stage 2  replay the recorded slots in arrival order, advancing the
//            stream clock once per key and applying CheckGroup + F exactly
//            as the per-key path would.
//
// Stage 2 is byte-for-byte the per-key loop — positions never depend on
// time, so hashing ahead changes nothing observable.  double_buffered()
// below is the one loop: block i+1 is staged and prefetched *before*
// block i is consumed, so every prefetch has a full block's worth of work
// to land behind.  SheEngine (she/engine.hpp) runs its scalar batch insert,
// its block-staged batch insert and its batched point queries through it.
//
// Block sizing: kSlotBudget caps the scratch footprint so a high-K sketch
// (SHE-MH probes every cell) degrades to small blocks instead of blowing
// the L1; kMaxBlock caps lookahead so prefetched lines are still resident
// when stage 2 reaches them.  See docs/INTERNALS.md "Batched hot path".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace she::batch {

/// One staged scalar-path update: the cell index plus an optional operand
/// (SHE-HLL's rank, SHE-MH's candidate minimum) so stage 2 never re-hashes.
struct Slot {
  std::size_t pos;
  std::uint64_t aux;
};

inline constexpr std::size_t kMaxBlock = 32;    ///< keys staged per block
inline constexpr std::size_t kSlotBudget = 256; ///< max staged slots per block

/// Keys per block for a sketch probing `k` cells per insert.
[[nodiscard]] constexpr std::size_t block_keys(unsigned k) {
  const std::size_t by_budget = kSlotBudget / std::max(1u, k);
  return std::clamp<std::size_t>(by_budget, 1, kMaxBlock);
}

/// Arrays below this footprint are effectively cache-resident: prefetching
/// them spends request slots (and drops on TLB misses) without hiding any
/// latency, so the engine gates each warm target on its footprint.
inline constexpr std::size_t kPrefetchFootprint = std::size_t{1} << 19;

/// Fetch the line holding `p`; `write` picks the exclusive-state hint so
/// query batches don't steal lines from concurrent writers.
inline void prefetch_addr(const void* p, bool write) {
#if defined(__GNUC__) || defined(__clang__)
  if (write)
    __builtin_prefetch(p, 1, 3);
  else
    __builtin_prefetch(p, 0, 3);
#else
  (void)p;
  (void)write;
#endif
}

/// The double-buffered block loop over `nkeys` keys, `block` keys at a time:
/// stage(begin, n, buf) prepares keys [begin, begin + n) into buffer `buf`
/// (0 or 1); consume(begin, n, buf) then uses it.  Block b+1 is staged
/// before block b is consumed.  Always inlined: the caller's two lambdas
/// then share one frame, so their captures stay in registers across the
/// out-of-line hash and clock calls instead of being reloaded per probe.
template <typename StageFn, typename ConsumeFn>
[[gnu::always_inline]] inline void double_buffered(std::size_t nkeys,
                                                   std::size_t block,
                                                   StageFn&& stage,
                                                   ConsumeFn&& consume) {
  std::size_t cur = 0;
  std::size_t cur_n = std::min(block, nkeys);
  std::size_t buf = 0;
  if (cur_n > 0) stage(cur, cur_n, buf);
  while (cur < nkeys) {
    const std::size_t next = cur + cur_n;
    const std::size_t next_n = next < nkeys ? std::min(block, nkeys - next) : 0;
    if (next_n > 0) stage(next, next_n, 1 - buf);
    consume(cur, cur_n, buf);
    cur = next;
    cur_n = next_n;
    buf = 1 - buf;
  }
}

}  // namespace she::batch
