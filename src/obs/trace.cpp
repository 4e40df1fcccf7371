#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <ostream>
#include <thread>

namespace she::obs::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
thread_local bool t_suppress = false;
}  // namespace detail

// ----------------------------------------------------------------- clock --

namespace {

[[nodiscard]] std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] std::uint64_t raw_ticks() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(steady_ns());
#endif
}

struct Clock {
  std::uint64_t base_tick = 0;  ///< raw_ticks() at calibration
  std::int64_t base_ns = 0;     ///< steady_ns() at the same instant
  double ns_per_tick = 1.0;
};

[[nodiscard]] Clock calibrate() noexcept {
  Clock c;
  c.base_tick = raw_ticks();
  c.base_ns = steady_ns();
#if defined(__x86_64__) || defined(_M_X64)
  // One-time ~2ms sleep bounds the rate error at ~0.1% on a steady TSC,
  // plenty for span durations; paid at first use (or set_enabled(true)).
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t t1 = raw_ticks();
  const std::int64_t n1 = steady_ns();
  if (t1 > c.base_tick && n1 > c.base_ns) {
    c.ns_per_tick = static_cast<double>(n1 - c.base_ns) /
                    static_cast<double>(t1 - c.base_tick);
  }
#endif
  return c;
}

[[nodiscard]] const Clock& clock_data() noexcept {
  static const Clock c = calibrate();
  return c;
}

}  // namespace

std::uint64_t now_ticks() noexcept { return raw_ticks(); }

std::uint64_t ticks_to_ns(std::uint64_t ticks) noexcept {
  const double ns = static_cast<double>(ticks) * clock_data().ns_per_tick;
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns);
}

std::int64_t tick_to_steady_ns(std::uint64_t tick) noexcept {
  const Clock& c = clock_data();
  // Signed tick delta: spans recorded before calibration land before base.
  const double off = static_cast<double>(
                         static_cast<std::int64_t>(tick - c.base_tick)) *
                     c.ns_per_tick;
  return c.base_ns + static_cast<std::int64_t>(off);
}

// ----------------------------------------------------------------- rings --

namespace detail {

SpanRing::SpanRing(std::size_t capacity_pow2, std::uint32_t tid)
    : tid_(tid), slots_(capacity_pow2) {}

void SpanRing::record(const Span& s) noexcept {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[h & (slots_.size() - 1)];
  // Seqlock write: odd version while the payload is inconsistent; the
  // release fence orders it before the payload stores.
  const std::uint32_t v = slot.ver.load(std::memory_order_relaxed);
  slot.ver.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.name.store(s.name, std::memory_order_relaxed);
  slot.cat.store(s.cat, std::memory_order_relaxed);
  slot.start.store(s.start_ticks, std::memory_order_relaxed);
  slot.end.store(s.end_ticks, std::memory_order_relaxed);
  slot.trace.store(s.trace_id, std::memory_order_relaxed);
  slot.ver.store(v + 2, std::memory_order_release);
  head_.store(h + 1, std::memory_order_release);
}

void SpanRing::collect(std::vector<CollectedSpan>& out) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t floor = floor_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  std::uint64_t seq = head > cap ? head - cap : 0;
  seq = std::max(seq, floor);
  for (; seq < head; ++seq) {
    const Slot& slot = slots_[seq & (cap - 1)];
    const std::uint32_t v1 = slot.ver.load(std::memory_order_acquire);
    if (v1 & 1u) continue;  // writer is mid-slot
    Span s;
    s.name = slot.name.load(std::memory_order_relaxed);
    s.cat = slot.cat.load(std::memory_order_relaxed);
    s.start_ticks = slot.start.load(std::memory_order_relaxed);
    s.end_ticks = slot.end.load(std::memory_order_relaxed);
    s.trace_id = slot.trace.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint32_t v2 = slot.ver.load(std::memory_order_relaxed);
    if (v1 != v2) continue;  // torn: overwritten while copying
    if (s.name == nullptr) continue;
    CollectedSpan c;
    c.name = s.name;
    c.cat = s.cat;
    c.start_ns = tick_to_steady_ns(s.start_ticks);
    c.dur_ns = s.end_ticks >= s.start_ticks
                   ? ticks_to_ns(s.end_ticks - s.start_ticks)
                   : 0;
    c.trace_id = s.trace_id;
    c.tid = tid_;
    out.push_back(c);
  }
}

void SpanRing::clear() noexcept {
  // Never touches the slots (the owning thread may be writing); later
  // collects just ignore everything below the floor.
  floor_.store(head_.load(std::memory_order_acquire),
               std::memory_order_release);
}

Span SpanRing::slot_unsynchronized(std::uint64_t seq) const noexcept {
  const Slot& slot = slots_[seq & (slots_.size() - 1)];
  Span s;
  s.name = slot.name.load(std::memory_order_relaxed);
  s.cat = slot.cat.load(std::memory_order_relaxed);
  s.start_ticks = slot.start.load(std::memory_order_relaxed);
  s.end_ticks = slot.end.load(std::memory_order_relaxed);
  s.trace_id = slot.trace.load(std::memory_order_relaxed);
  return s;
}

namespace {

struct Rings {
  std::mutex mu;
  std::vector<std::shared_ptr<SpanRing>> all;   ///< every ring ever created
  std::vector<std::shared_ptr<SpanRing>> free;  ///< parked, recyclable
  std::uint32_t next_tid = 1;
};

// Leaked on purpose: rings must outlive thread-local destructors that run
// during process teardown.
Rings& rings() {
  static Rings* r = new Rings;
  return *r;
}

struct RingHolder {
  std::shared_ptr<SpanRing> ring;
  ~RingHolder() {
    if (!ring) return;
    Rings& r = rings();
    std::lock_guard<std::mutex> lk(r.mu);
    r.free.push_back(std::move(ring));
  }
};

}  // namespace

SpanRing& thread_ring() {
  thread_local RingHolder h;
  if (!h.ring) {
    Rings& r = rings();
    std::lock_guard<std::mutex> lk(r.mu);
    if (!r.free.empty()) {
      // Recycle a parked ring (its retained spans stay exportable); the
      // ring count is bounded by peak live threads, not thread churn.
      h.ring = r.free.back();
      r.free.pop_back();
    } else {
      h.ring = std::make_shared<SpanRing>(kRingCapacity, r.next_tid++);
      r.all.push_back(h.ring);
    }
  }
  return *h.ring;
}

}  // namespace detail

void record(const char* name, const char* cat, std::uint64_t start_ticks,
            std::uint64_t end_ticks, std::uint64_t trace_id) noexcept {
  if (!enabled() || suppressed()) return;
  Span s;
  s.name = name;
  s.cat = cat;
  s.start_ticks = start_ticks;
  s.end_ticks = end_ticks;
  s.trace_id = trace_id;
  detail::thread_ring().record(s);
}

void set_enabled(bool on) noexcept {
  if (on) (void)clock_data();  // calibrate before the first span lands
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// --------------------------------------------------------------- context --

namespace {
thread_local std::uint64_t t_trace_id = 0;
}  // namespace

std::uint64_t current_trace_id() noexcept { return t_trace_id; }
void set_current_trace_id(std::uint64_t id) noexcept { t_trace_id = id; }

void SpanGuard::finish() noexcept {
  record(name_, cat_, start_, now_ticks(), current_trace_id());
}

// ------------------------------------------------------------ collection --

std::vector<CollectedSpan> collect(std::uint64_t window_ns) {
  std::vector<std::shared_ptr<detail::SpanRing>> snapshot;
  {
    detail::Rings& r = detail::rings();
    std::lock_guard<std::mutex> lk(r.mu);
    snapshot = r.all;
  }
  std::vector<CollectedSpan> out;
  for (const auto& ring : snapshot) ring->collect(out);
  if (window_ns > 0) {
    const std::int64_t cutoff =
        steady_ns() - static_cast<std::int64_t>(window_ns);
    std::erase_if(out, [cutoff](const CollectedSpan& s) {
      return s.start_ns + static_cast<std::int64_t>(s.dur_ns) < cutoff;
    });
  }
  std::sort(out.begin(), out.end(),
            [](const CollectedSpan& a, const CollectedSpan& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

void reset() {
  std::vector<std::shared_ptr<detail::SpanRing>> snapshot;
  {
    detail::Rings& r = detail::rings();
    std::lock_guard<std::mutex> lk(r.mu);
    snapshot = r.all;
  }
  for (const auto& ring : snapshot) ring->clear();
}

ThreadCursor thread_cursor() {
  const detail::SpanRing& ring = detail::thread_ring();
  return ThreadCursor{&ring, ring.head()};
}

std::vector<CollectedSpan> spans_since(const ThreadCursor& cur) {
  std::vector<CollectedSpan> out;
  if (cur.ring == nullptr) return out;
  const detail::SpanRing& ring = *cur.ring;
  const std::uint64_t head = ring.head();
  std::uint64_t seq = cur.head;
  if (head > ring.capacity() && seq < head - ring.capacity())
    seq = head - ring.capacity();  // the oldest were overwritten
  for (; seq < head; ++seq) {
    const Span s = ring.slot_unsynchronized(seq);
    if (s.name == nullptr) continue;
    CollectedSpan c;
    c.name = s.name;
    c.cat = s.cat;
    c.start_ns = tick_to_steady_ns(s.start_ticks);
    c.dur_ns = s.end_ticks >= s.start_ticks
                   ? ticks_to_ns(s.end_ticks - s.start_ticks)
                   : 0;
    c.trace_id = s.trace_id;
    c.tid = ring.tid();
    out.push_back(c);
  }
  return out;
}

// ---------------------------------------------------------------- export --

namespace {

// Span names/cats are string literals by contract, but keep the output
// valid JSON even if a rogue one sneaks a quote or control byte in.
void json_string(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      os << '\\' << *s;
    } else if (c < 0x20) {
      static const char* hex = "0123456789abcdef";
      os << "\\u00" << hex[c >> 4] << hex[c & 0xf];
    } else {
      os << *s;
    }
  }
  os << '"';
}

// Microseconds with fixed 3-decimal nanosecond remainder, no float
// formatting involved.
void micros(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.';
  const std::uint64_t rem = ns % 1000;
  os << static_cast<char>('0' + rem / 100)
     << static_cast<char>('0' + (rem / 10) % 10)
     << static_cast<char>('0' + rem % 10);
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<CollectedSpan>& spans) {
  // Offset timestamps to the earliest span so viewers open at t=0 instead
  // of hours of steady-clock uptime.
  std::int64_t t0 = 0;
  for (const CollectedSpan& s : spans)
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const CollectedSpan& s : spans) {
    os << (first ? "\n" : ",\n") << "{\"name\":";
    json_string(os, s.name);
    os << ",\"cat\":";
    json_string(os, s.cat == nullptr ? "she" : s.cat);
    os << ",\"ph\":\"X\",\"ts\":";
    micros(os, static_cast<std::uint64_t>(s.start_ns - t0));
    os << ",\"dur\":";
    micros(os, s.dur_ns);
    os << ",\"pid\":1,\"tid\":" << s.tid;
    if (s.trace_id != 0) {
      os << ",\"args\":{\"trace_id\":\"";
      static const char* hex = "0123456789abcdef";
      os << "0x";
      bool seen = false;
      for (int shift = 60; shift >= 0; shift -= 4) {
        const unsigned nib = (s.trace_id >> shift) & 0xf;
        if (nib != 0 || seen || shift == 0) {
          os << hex[nib];
          seen = true;
        }
      }
      os << "\"}";
    }
    os << '}';
    first = false;
  }
  os << "\n]}\n";
}

void export_chrome_trace(std::ostream& os, std::uint64_t window_ns) {
  write_chrome_trace(os, collect(window_ns));
}

}  // namespace she::obs::trace
