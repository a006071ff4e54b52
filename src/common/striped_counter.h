// StripedCounter: a signed count that many threads update without sharing
// a cache line.
//
// A single atomic counter bumped by every operation moves its cache line
// between the cores that bump it, and every other word on that line moves
// with it. Here each thread adds to its own stripe (chosen once per
// thread), and readers sum the stripes. The sum is exact whenever no
// add() is in flight, so a map's size_approx() stays exact at
// quiescence; while adds run it is some interleaving of them.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/hw.h"

namespace sv {

class StripedCounter {
 public:
  // Threads are assigned stripes round-robin in order of first use, so up
  // to kStripes threads never share one. Beyond that, stripes are shared
  // and add() stays a relaxed fetch_add, correct under any sharing.
  static constexpr std::size_t kStripes = 16;

  void add(std::int64_t n) noexcept {
    stripes_[stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::int64_t sum() const noexcept {
    std::int64_t s = 0;
    for (const Stripe& st : stripes_) s += st.v.load(std::memory_order_relaxed);
    return s;
  }

  // Quiescent: set the count to `v`.
  void reset(std::int64_t v) noexcept {
    for (Stripe& st : stripes_) st.v.store(0, std::memory_order_relaxed);
    stripes_[0].v.store(v, std::memory_order_relaxed);
  }

  // The stripes' address range (layout checks; see WordSpan).
  WordSpan span() const noexcept { return {&stripes_, sizeof(stripes_)}; }

 private:
  // One aligned PAIR of cache lines per stripe: adjacent-line prefetchers
  // (the L2 spatial prefetcher on Intel cores) fetch lines in aligned
  // 128-byte pairs, so stripes one line apart still pass lines between the
  // threads writing them. On perfbench point-hot (4 clients, 4 vCPUs),
  // 64-byte stripes cost a median 6% of ops/s against 128-byte ones.
  struct alignas(2 * kCacheLineSize) Stripe {
    std::atomic<std::int64_t> v{0};
  };

  static std::size_t stripe_index() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return index;
  }

  std::array<Stripe, kStripes> stripes_{};
};

}  // namespace sv
