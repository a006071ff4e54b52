// Hardware-related constants and small helpers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace sv {

// Destructive interference range. We avoid std::hardware_destructive_
// interference_size because GCC warns that its value is ABI-fragile.
inline constexpr std::size_t kCacheLineSize = 64;

// The address range of one shared word. Components list theirs as
// read-mostly or hot-written so that tests can check the two groups share
// no cache line: a write to a line invalidates every other core's copy of
// it, including the copies held only to read its other words.
struct WordSpan {
  const void* addr;
  std::size_t bytes;
};

// True when some cache line holds bytes of both `a` and `b`.
inline bool shares_line(const WordSpan& a, const WordSpan& b) noexcept {
  const auto first = [](const WordSpan& w) {
    return reinterpret_cast<std::uintptr_t>(w.addr) / kCacheLineSize;
  };
  const auto last = [](const WordSpan& w) {
    return (reinterpret_cast<std::uintptr_t>(w.addr) + w.bytes - 1) /
           kCacheLineSize;
  };
  return first(a) <= last(b) && first(b) <= last(a);
}

// Pause hint for spin loops.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Serialized cross-thread timestamp for history recording (src/check/):
// invariant-TSC cycles on x86-64, fenced on both sides so the stamp cannot
// drift into the operation it brackets; steady_clock nanoseconds elsewhere.
// Values are comparable across threads but carry no fixed unit -- only the
// happens-before order of (response, invoke) pairs is consumed.
inline std::uint64_t tsc_now() noexcept {
#if defined(__x86_64__)
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Read-prefetch hint. Never faults, even on stale or concurrently-retired
// pointers, so it is safe to issue on a speculatively-loaded next/down
// pointer before the seqlock validation that proves the pointer was
// current (src/core/skip_vector.h descent loops).
inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

inline unsigned hardware_threads() noexcept {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace sv
