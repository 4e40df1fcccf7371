// Deterministic fault-injection harness for the ingest runtime.
//
// Recovery code that is never executed is broken code waiting for an
// outage, so the recovery/checkpoint/backpressure paths are driven by
// *injected* faults the tests (and `she_tool pipeline --inject`) can place
// deterministically:
//
//   kWorkerThrow        worker throws InjectedFault once its shard has
//                       consumed `at` items (checked before every drained
//                       block, so it fires mid-sweep; drives in-place
//                       recovery and dead shards)
//   kConsumerStall      worker sleeps `param` milliseconds once its shard
//                       has consumed `at` items (checked like kWorkerThrow;
//                       drives wedge detection and backpressure timeouts)
//   kCheckpointBitFlip  the shard's `at`-th checkpoint frame gets one bit
//                       flipped, at a position seeded by `param` (drives
//                       CRC rejection)
//   kCheckpointTruncate the shard's `at`-th checkpoint frame is cut in
//                       half before hitting disk (drives length rejection)
//   kWalTornWrite       the shard's WAL frame with seq `at` is cut inside
//                       its header before the append fails (a crash mid-
//                       write; drives torn-tail truncation on recovery)
//   kWalPartialFrame    same, but the whole header and half the payload
//                       land (the other torn shape: valid-looking prefix,
//                       CRC mismatch)
//   kWalShortFsync      the mode-required fdatasync for the WAL frame with
//                       seq `at` reports failure — the batch is written
//                       but must NOT be acked (drives replay + dedup)
//   kWalNoSpace         the WAL append for frame seq `at` fails with
//                       ENOSPC before anything reaches the file (drives
//                       degraded read-only mode + recovery probe)
//   kCheckpointEio      the shard's `at`-th checkpoint write fails with
//                       EIO (drives degraded mode from the snapshot path)
//
// Cost model: the whole harness is compiled out unless SHE_FAULT_INJECTION
// is defined (a CMake option, ON by default so tools and tests work out of
// the box; production builds turn it off for literally zero overhead).
// When compiled in, an unarmed injector costs one relaxed atomic load per
// drained block of `drain_batch` items — never per item — and arming is
// test-only, so determinism matters more than speed: armed checks take a
// mutex.
//
// The injector is process-global (`fault::injector()`): specs are armed by
// tests or the CLI before the pipeline runs and cleared afterwards.  Each
// spec fires at most once.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace she::runtime::fault {

enum class Point {
  kWorkerThrow,
  kConsumerStall,
  kCheckpointBitFlip,
  kCheckpointTruncate,
  kWalTornWrite,
  kWalPartialFrame,
  kWalShortFsync,
  kWalNoSpace,
  kCheckpointEio,
};

inline constexpr std::size_t kAnyShard = static_cast<std::size_t>(-1);

/// One armed fault.  `at` is compared against the shard's consumed-item
/// count (worker faults/stalls) or its checkpoint ordinal (corruptions);
/// the spec fires on the first check where the count reaches it.
struct Spec {
  Point point = Point::kWorkerThrow;
  std::size_t shard = kAnyShard;
  std::uint64_t at = 0;
  std::uint64_t param = 0;  ///< stall: milliseconds; bit-flip: seed
};

/// What an armed kWorkerThrow raises inside the worker loop.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse a CLI spec: "point[:shard[:at[:param]]]" with point one of
/// throw | stall | ckpt-bitflip | ckpt-truncate and shard a number or
/// "any".  Examples: "throw:0:5000", "stall:any:1000:250",
/// "ckpt-bitflip:0:1:42".  Throws std::invalid_argument on malformed
/// text.  Always compiled (the CLI rejects --inject up front when the
/// harness is off, with a message rather than a parse error).
[[nodiscard]] inline Spec parse_spec(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t colon = text.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
  if (parts.empty() || parts.size() > 4)
    throw std::invalid_argument("fault spec must be point[:shard[:at[:param]]]: " +
                                text);
  Spec s;
  if (parts[0] == "throw") s.point = Point::kWorkerThrow;
  else if (parts[0] == "stall") s.point = Point::kConsumerStall;
  else if (parts[0] == "ckpt-bitflip") s.point = Point::kCheckpointBitFlip;
  else if (parts[0] == "ckpt-truncate") s.point = Point::kCheckpointTruncate;
  else if (parts[0] == "wal-torn") s.point = Point::kWalTornWrite;
  else if (parts[0] == "wal-partial") s.point = Point::kWalPartialFrame;
  else if (parts[0] == "wal-short-fsync") s.point = Point::kWalShortFsync;
  else if (parts[0] == "wal-enospc") s.point = Point::kWalNoSpace;
  else if (parts[0] == "ckpt-eio") s.point = Point::kCheckpointEio;
  else
    throw std::invalid_argument(
        "fault point must be throw|stall|ckpt-bitflip|ckpt-truncate|"
        "wal-torn|wal-partial|wal-short-fsync|wal-enospc|ckpt-eio: " + text);
  auto number = [&](const std::string& t) -> std::uint64_t {
    std::size_t pos = 0;
    std::uint64_t v = 0;
    try {
      v = std::stoull(t, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != t.size() || t.empty())
      throw std::invalid_argument("bad number '" + t + "' in fault spec: " +
                                  text);
    return v;
  };
  if (parts.size() > 1 && parts[1] != "any")
    s.shard = static_cast<std::size_t>(number(parts[1]));
  if (parts.size() > 2) s.at = number(parts[2]);
  if (parts.size() > 3) s.param = number(parts[3]);
  return s;
}

#if defined(SHE_FAULT_INJECTION)

class Injector {
 public:
  void arm(const Spec& s) {
    std::lock_guard<std::mutex> lk(mu_);
    armed_specs_.push_back({s, false});
    armed_.store(true, std::memory_order_relaxed);
  }

  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    armed_specs_.clear();
    armed_.store(false, std::memory_order_relaxed);
  }

  /// One relaxed load — the only cost the runtime pays when nothing is
  /// armed.
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Fire (at most once per spec) the first armed spec matching
  /// (point, shard) whose trigger `at` has been reached.
  std::optional<Spec> fire(Point p, std::size_t shard, std::uint64_t count) {
    if (!armed()) return std::nullopt;
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& a : armed_specs_) {
      if (a.fired || a.spec.point != p) continue;
      if (a.spec.shard != kAnyShard && a.spec.shard != shard) continue;
      if (count < a.spec.at) continue;
      a.fired = true;
      return a.spec;
    }
    return std::nullopt;
  }

 private:
  struct Armed {
    Spec spec;
    bool fired = false;
  };
  mutable std::mutex mu_;
  std::vector<Armed> armed_specs_;
  std::atomic<bool> armed_{false};
};

inline Injector& injector() {
  static Injector i;
  return i;
}

/// Worker-loop check, before each drained block: throw once the shard has
/// consumed `count` items.
inline void maybe_throw(std::size_t shard, std::uint64_t count) {
  if (auto s = injector().fire(Point::kWorkerThrow, shard, count))
    throw InjectedFault("injected worker fault (shard " +
                        std::to_string(shard) + ", item " +
                        std::to_string(count) + ")");
}

/// Worker-loop check, before each drained block: sleep `param` ms once
/// the shard has consumed `count` items.
inline void maybe_stall(std::size_t shard, std::uint64_t count) {
  if (auto s = injector().fire(Point::kConsumerStall, shard, count))
    std::this_thread::sleep_for(std::chrono::milliseconds(s->param));
}

/// Checkpoint-write hook: corrupt `frame` in place for the shard's
/// `ordinal`-th checkpoint.  Bit position is derived from the spec's seed
/// so runs are reproducible.
inline void maybe_corrupt_frame(std::size_t shard, std::uint64_t ordinal,
                                std::vector<char>& frame) {
  if (frame.empty()) return;
  if (auto s = injector().fire(Point::kCheckpointBitFlip, shard, ordinal)) {
    std::uint64_t h = s->param + 0x9E3779B97F4A7C15ULL;
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    const std::size_t bit = static_cast<std::size_t>(h % (frame.size() * 8));
    frame[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(frame[bit / 8]) ^ (1u << (bit % 8)));
  }
  if (injector().fire(Point::kCheckpointTruncate, shard, ordinal))
    frame.resize(frame.size() / 2);
}

/// WAL-append hook: the byte count of the encoded frame that actually
/// reaches the file (the append then throws, simulating a crash mid-
/// write).  kWalTornWrite cuts inside the header; kWalPartialFrame writes
/// the whole header plus half the payload.  `seq` is the frame's WAL
/// sequence number, compared against the spec's `at`.
inline std::size_t maybe_torn_wal(std::size_t shard, std::uint64_t seq,
                                  std::size_t frame_bytes,
                                  std::size_t header_bytes) {
  if (injector().fire(Point::kWalTornWrite, shard, seq))
    return header_bytes / 2;
  if (injector().fire(Point::kWalPartialFrame, shard, seq))
    return header_bytes + (frame_bytes - header_bytes) / 2;
  return frame_bytes;
}

/// WAL-fsync hook: true = this frame's mode-required fdatasync must
/// report failure (the append throws after writing; the batch stays
/// unacked and the client's replay exercises the dedup path).
inline bool maybe_fail_fsync(std::size_t shard, std::uint64_t seq) {
  return injector().fire(Point::kWalShortFsync, shard, seq).has_value();
}

/// WAL-append hook: the errno this append must fail with before anything
/// reaches the file (0 = healthy).  Drives degraded read-only mode.
inline int maybe_disk_errno(std::size_t shard, std::uint64_t seq) {
  if (injector().fire(Point::kWalNoSpace, shard, seq)) return ENOSPC;
  return 0;
}

/// Checkpoint-write hook: true = the shard's `ordinal`-th checkpoint
/// write must fail with EIO (the frame never replaces the previous one;
/// the pipeline goes degraded instead of crashing the worker).
inline bool maybe_ckpt_eio(std::size_t shard, std::uint64_t ordinal) {
  return injector().fire(Point::kCheckpointEio, shard, ordinal).has_value();
}

#else  // !SHE_FAULT_INJECTION — zero-cost stubs, nothing to branch on.

class Injector {
 public:
  void arm(const Spec&) {}
  void clear() {}
  [[nodiscard]] bool armed() const noexcept { return false; }
  std::optional<Spec> fire(Point, std::size_t, std::uint64_t) {
    return std::nullopt;
  }
};

inline Injector& injector() {
  static Injector i;
  return i;
}

inline void maybe_throw(std::size_t, std::uint64_t) {}
inline void maybe_stall(std::size_t, std::uint64_t) {}
inline void maybe_corrupt_frame(std::size_t, std::uint64_t,
                                std::vector<char>&) {}
inline std::size_t maybe_torn_wal(std::size_t, std::uint64_t,
                                  std::size_t frame_bytes, std::size_t) {
  return frame_bytes;
}
inline bool maybe_fail_fsync(std::size_t, std::uint64_t) { return false; }
inline int maybe_disk_errno(std::size_t, std::uint64_t) { return 0; }
inline bool maybe_ckpt_eio(std::size_t, std::uint64_t) { return false; }

#endif  // SHE_FAULT_INJECTION

}  // namespace she::runtime::fault
