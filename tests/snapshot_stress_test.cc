// Snapshot-vs-writer and batch-atomicity stress, executed identically
// across every reclamation policy (hazard pointers, epochs, leak) crossed
// with both node allocators (malloc passthrough, slab pool).
//
// The properties under test (docs/SNAPSHOTS.md):
//   1. Wait-freedom: a versioned snapshot scan completes with ZERO
//      scan-phase restarts no matter how hard writers churn the scanned
//      range (kSnapshotScanRestarts stays 0; only the index-layer descent
//      may retry, and only against structural churn).
//   2. Stability: every mapping a pinned view returns is exactly the state
//      at its commit version -- writers that overwrite, erase, split or
//      merge after the pin are invisible.
//   3. Batch atomicity: apply_batch flips a batch-wide invariant in one
//      step; no snapshot, at any version, observes a mixed state.
//   4. The commit clock: writers bump it only while a snapshot is
//      registered, and a view pinned at any moment of an insert's commit
//      reads the same state every time it looks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/skip_vector.h"
#include "core/skip_vector_epoch.h"
#include "debug/fault_inject.h"
#include "stats/stats.h"

#if defined(__SANITIZE_ADDRESS__)
#define SV_TEST_ASAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SV_TEST_ASAN 1
#endif
#endif
#if defined(SV_TEST_ASAN)
#include <sanitizer/lsan_interface.h>
#endif

namespace sv::core {
namespace {

class ThreadLeakGuard {
 public:
  explicit ThreadLeakGuard(bool active) : active_(active) {
#if defined(SV_TEST_ASAN)
    if (active_) __lsan_disable();
#endif
  }
  ~ThreadLeakGuard() {
#if defined(SV_TEST_ASAN)
    if (active_) __lsan_enable();
#endif
  }

 private:
  [[maybe_unused]] bool active_;
};

template <class R, class A = alloc::MallocNodeAllocator>
struct Policy {
  using Reclaimer = R;
  using Alloc = A;
};

using Policies =
    testing::Types<Policy<reclaim::HazardReclaimer>,
                   Policy<reclaim::EpochReclaimer>,
                   Policy<reclaim::LeakReclaimer>,
                   Policy<reclaim::HazardReclaimer, alloc::PoolNodeAllocator>,
                   Policy<reclaim::EpochReclaimer, alloc::PoolNodeAllocator>,
                   Policy<reclaim::LeakReclaimer, alloc::PoolNodeAllocator>>;

template <class P>
class SnapshotStressTest : public testing::Test {
 protected:
  using Map =
      SkipVectorMap<std::uint64_t, std::uint64_t, typename P::Reclaimer,
                    typename P::Alloc>;

  static constexpr bool kLeaksByDesign =
      std::is_same_v<typename P::Reclaimer, reclaim::LeakReclaimer> &&
      !P::Alloc::kPooled;

  void SetUp() override {
#if defined(SV_TEST_ASAN)
    if (kLeaksByDesign) __lsan_disable();
#endif
  }
  void TearDown() override {
#if defined(SV_TEST_ASAN)
    if (kLeaksByDesign) __lsan_enable();
#endif
  }

  // Small chunks: maximum structural churn (splits/merges) per op.
  static Config Cfg() {
    Config c;
    c.layer_count = 5;
    c.target_data_vector_size = 4;
    c.target_index_vector_size = 4;
    return c;
  }
};

TYPED_TEST_SUITE(SnapshotStressTest, Policies);

// Writers churn [0, kRange) with the full mutation surface while snapshot
// readers continuously pin views and scan. Every scan is checked for
// internal consistency (values stamped with their key) and the map's
// counters for the wait-freedom invariant.
TYPED_TEST(SnapshotStressTest, ScansNeverRestartUnderWriteStorm) {
  typename TestFixture::Map m(TestFixture::Cfg());
  constexpr std::uint64_t kRange = 512;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> scans{0};

  for (std::uint64_t k = 0; k < kRange; k += 2) {
    ASSERT_TRUE(m.insert(k, k << 8));
  }

  std::vector<std::thread> threads;
  // 3 writers: inserts, removes, updates, batches -- heavy split/merge.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      ThreadLeakGuard guard(TestFixture::kLeaksByDesign);
      Xoshiro256 rng(100 + t);
      using Op = typename TestFixture::Map::BatchOp;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(kRange);
        switch (rng.next_below(6)) {
          case 0:
          case 1:
            m.insert(k, k << 8);
            break;
          case 2:
            m.remove(k);
            break;
          case 3:
            m.update(k, k << 8);
            break;
          case 4: {
            std::vector<Op> ops;
            for (int b = 0; b < 4; ++b) {
              const std::uint64_t bk = rng.next_below(kRange);
              if (rng.next_below(2) == 0) {
                ops.push_back(Op::put(bk, bk << 8));
              } else {
                ops.push_back(Op::remove(bk));
              }
            }
            m.apply_batch(ops);
            break;
          }
          default:
            m.range_transform(k, k + 8, [](std::uint64_t tk, std::uint64_t) {
              return tk << 8;
            });
            break;
        }
      }
    });
  }
  // 2 snapshot readers: values must be self-consistent (stamped by key).
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      ThreadLeakGuard guard(TestFixture::kLeaksByDesign);
      Xoshiro256 rng(200 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t lo = rng.next_below(kRange);
        const std::uint64_t hi = lo + rng.next_below(64);
        auto view = m.snapshot_at();
        std::uint64_t prev = 0;
        bool first = true;
        m.range_for_each_at(view, lo, hi,
                            [&](std::uint64_t k, std::uint64_t v) {
                              if (v != k << 8) errors.fetch_add(1);
                              if (k < lo || k > hi) errors.fetch_add(1);
                              if (!first && k <= prev) errors.fetch_add(1);
                              prev = k;
                              first = false;
                            });
        scans.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(3));
  stop.store(true);
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(scans.load(), 0u);
  const stats::Snapshot s = m.stats_registry().snapshot();
  if constexpr (stats::kEnabled) {
    // The acceptance invariant: the versioned data-layer walk NEVER
    // restarts, no matter the write mix. (Per-chunk re-reads and descent
    // retries are bounded and expected; full scan restarts are not.)
    EXPECT_EQ(s[stats::Counter::kSnapshotScanRestarts], 0u);
    EXPECT_GT(s[stats::Counter::kSnapshotScans], 0u);
    EXPECT_GT(s[stats::Counter::kVersionRecords], 0u);
  }
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
}

// Batch atomicity: the map always holds a complete "generation" -- every
// key in [0, kKeys) mapped to the same generation stamp. Writers advance
// the generation with one apply_batch; snapshot readers at ANY version must
// see exactly one generation across the whole range. A torn batch (some
// keys old-gen, some new) is a violation regardless of version.
TYPED_TEST(SnapshotStressTest, BatchesAreAtomicUnderSnapshots) {
  typename TestFixture::Map m(TestFixture::Cfg());
  constexpr std::uint64_t kKeys = 96;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> torn{0};

  using Op = typename TestFixture::Map::BatchOp;
  {
    std::vector<Op> init;
    for (std::uint64_t k = 0; k < kKeys; ++k) init.push_back(Op::put(k, 0));
    ASSERT_EQ(m.apply_batch(init), kKeys);
  }

  std::vector<std::thread> threads;
  // One batch writer advancing the generation (single writer: generations
  // are strictly ordered, so any mixed scan is unambiguously a torn batch).
  threads.emplace_back([&] {
    ThreadLeakGuard guard(TestFixture::kLeaksByDesign);
    for (std::uint64_t gen = 1; !stop.load(std::memory_order_relaxed);
         ++gen) {
      std::vector<Op> ops;
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        ops.push_back(Op::put(k, gen));
      }
      m.apply_batch(ops);
    }
  });
  // Noise writers OUTSIDE the generation range: force splits/merges of the
  // chunks holding generation keys without touching their values.
  threads.emplace_back([&] {
    ThreadLeakGuard guard(TestFixture::kLeaksByDesign);
    Xoshiro256 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k = kKeys + rng.next_below(256);
      if (rng.next_below(2) == 0) {
        m.insert(k, k);
      } else {
        m.remove(k);
      }
    }
  });
  // Snapshot readers: a scan of [0, kKeys) must return kKeys mappings all
  // carrying one single generation value.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      ThreadLeakGuard guard(TestFixture::kLeaksByDesign);
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = m.snapshot(0, kKeys - 1);
        if (snap.size() != kKeys) {
          errors.fetch_add(1);
          continue;
        }
        const std::uint64_t gen = snap.front().second;
        for (const auto& [k, v] : snap) {
          if (v != gen) {
            torn.fetch_add(1);
            break;
          }
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(3));
  stop.store(true);
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0u) << "snapshot returned an incomplete key set";
  EXPECT_EQ(torn.load(), 0u) << "observed a partially applied batch";
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
}

// Pinned views stay stable across arbitrarily much later churn, and many
// concurrently pinned views each resolve their own version.
TYPED_TEST(SnapshotStressTest, PinnedViewsSurviveChurn) {
  typename TestFixture::Map m(TestFixture::Cfg());
  ThreadLeakGuard guard(TestFixture::kLeaksByDesign);
  constexpr std::uint64_t kRange = 256;
  for (std::uint64_t k = 0; k < kRange; ++k) ASSERT_TRUE(m.insert(k, 1));

  auto v1 = m.snapshot_at();
  ASSERT_TRUE(v1.versioned());
  // Concurrent churn between the pins: removes, re-inserts, overwrites.
  {
    std::vector<std::thread> churn;
    for (int t = 0; t < 3; ++t) {
      churn.emplace_back([&, t] {
        ThreadLeakGuard tguard(TestFixture::kLeaksByDesign);
        Xoshiro256 rng(300 + t);
        for (int i = 0; i < 20'000; ++i) {
          const std::uint64_t k = rng.next_below(kRange);
          switch (rng.next_below(3)) {
            case 0: m.remove(k); break;
            case 1: m.insert(k, 2); break;
            default: m.update(k, 2); break;
          }
        }
      });
    }
    for (auto& th : churn) th.join();
  }
  auto v2 = m.snapshot_at();
  ASSERT_TRUE(v2.versioned());
  // Settle the live map to a third, known state.
  for (std::uint64_t k = 0; k < kRange; ++k) {
    m.insert(k, 3);
    m.update(k, 3);
  }

  // v1 must read exactly the initial state: all kRange keys at value 1.
  std::uint64_t n1 = 0, bad1 = 0;
  m.range_for_each_at(v1, 0, kRange - 1,
                      [&](std::uint64_t, std::uint64_t v) {
                        ++n1;
                        bad1 += v != 1 ? 1 : 0;
                      });
  EXPECT_EQ(n1, kRange);
  EXPECT_EQ(bad1, 0u);
  // v2 sees only values from {1, 2} (churn values), never 3.
  std::uint64_t bad2 = 0;
  m.range_for_each_at(v2, 0, kRange - 1,
                      [&](std::uint64_t, std::uint64_t v) {
                        bad2 += (v != 1 && v != 2) ? 1 : 0;
                      });
  EXPECT_EQ(bad2, 0u);
  // The live map is at state 3 everywhere.
  std::uint64_t bad3 = 0;
  m.range_for_each(0, kRange - 1, [&](std::uint64_t, std::uint64_t v) {
    bad3 += v != 3 ? 1 : 0;
  });
  EXPECT_EQ(bad3, 0u);
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
}

// Registry exhaustion degrades gracefully: view kSlots+1 falls back to the
// locked path (unversioned) and still returns a consistent result.
TYPED_TEST(SnapshotStressTest, RegistryFullFallsBackUnversioned) {
  typename TestFixture::Map m(TestFixture::Cfg());
  ThreadLeakGuard guard(TestFixture::kLeaksByDesign);
  for (std::uint64_t k = 0; k < 32; ++k) ASSERT_TRUE(m.insert(k, k));

  using View = typename TestFixture::Map::SnapshotView;
  std::vector<View> held;
  for (std::size_t i = 0; i < mvcc::SnapshotRegistry::kSlots; ++i) {
    held.push_back(m.snapshot_at());
    ASSERT_TRUE(held.back().versioned()) << i;
  }
  auto extra = m.snapshot_at();
  EXPECT_FALSE(extra.versioned());
  std::size_t n = m.range_for_each_at(extra, 0, 100,
                                      [](std::uint64_t, std::uint64_t) {});
  EXPECT_EQ(n, 32u);  // locked fallback still works
  held.clear();       // releases every slot
  auto again = m.snapshot_at();
  EXPECT_TRUE(again.versioned());
}

// Every (key, value) the view holds in [lo, hi], in key order.
template <class Map>
std::vector<std::pair<std::uint64_t, std::uint64_t>> ReadAt(
    Map& m, const typename Map::SnapshotView& view, std::uint64_t lo,
    std::uint64_t hi) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  m.range_for_each_at(view, lo, hi, [&](std::uint64_t k, std::uint64_t v) {
    out.emplace_back(k, v);
  });
  return out;
}

// An insert's commit window: the data chunk is frozen by the inserter but
// not yet write-locked, so readers still read it. A view pinned inside the
// window must not see the chunk first without k and then, once the insert
// releases, with k stamped at or below its pin: the insert must reserve
// its version only after write-locking the chunk. Deterministic: the
// inserter is parked at the insert-commit point while the view is pinned
// and read.
TYPED_TEST(SnapshotStressTest, PinInsideInsertCommitWindowReadsOneState) {
  using debug::FaultInjector;
  using debug::Point;
  typename TestFixture::Map m(TestFixture::Cfg());
  for (std::uint64_t k : {10, 20, 30}) ASSERT_TRUE(m.insert(k, k << 8));

  std::atomic<bool> parked{false};
  std::atomic<bool> resume{false};
  FaultInjector::instance().set_handler([&](Point p, std::uint64_t) {
    if (p != Point::kInsertCommit || parked.load()) return;
    parked.store(true);
    while (!resume.load()) std::this_thread::yield();
  });
  std::thread inserter([&] {
    ThreadLeakGuard guard(TestFixture::kLeaksByDesign);
    EXPECT_TRUE(m.insert_with_height(25, 25 << 8, 0));
  });
  while (!parked.load()) std::this_thread::yield();

  {
    auto view = m.snapshot_at();
    EXPECT_TRUE(view.versioned());  // no ASSERT: the inserter must be joined
    const auto before = ReadAt(m, view, 0, 100);
    resume.store(true);
    inserter.join();
    const auto after = ReadAt(m, view, 0, 100);
    EXPECT_EQ(before, after) << "one pinned view read two states";
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected{
        {10, 10 << 8}, {20, 20 << 8}, {30, 30 << 8}};
    EXPECT_EQ(after, expected);
  }
  FaultInjector::instance().clear();
  EXPECT_EQ(m.lookup(25), std::optional<std::uint64_t>(25 << 8));
}

// While no snapshot is registered, commits stamp the current clock value
// instead of bumping it; once one is, every commit bumps it.
TYPED_TEST(SnapshotStressTest, ClockMovesOnlyWhileASnapshotIsPinned) {
  typename TestFixture::Map m(TestFixture::Cfg());
  const std::uint64_t v0 = m.commit_version();
  // Enough churn for splits (and the merges removes leave behind).
  for (std::uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(m.insert(k, k));
  for (std::uint64_t k = 0; k < 64; k += 2) ASSERT_TRUE(m.update(k, k + 1));
  for (std::uint64_t k = 0; k < 64; k += 3) ASSERT_TRUE(m.remove(k));
  EXPECT_FALSE(m.remove(1000));
  EXPECT_GT(m.counters().capacity_splits + m.counters().tower_splits, 0u);
  EXPECT_EQ(m.commit_version(), v0);

  {
    auto view = m.snapshot_at();
    ASSERT_TRUE(view.versioned());
    ASSERT_TRUE(m.insert(1000, 1));
    const std::uint64_t v1 = m.commit_version();
    EXPECT_GT(v1, v0);
    ASSERT_TRUE(m.update(1000, 2));
    EXPECT_GT(m.commit_version(), v1);
  }
  const std::uint64_t v2 = m.commit_version();
  ASSERT_TRUE(m.remove(1000));
  ASSERT_TRUE(m.insert(1001, 1));
  EXPECT_EQ(m.commit_version(), v2);
}

// Writes in an unregistered period share one stamp. A view pinned between
// two writes holds the first only; a view pinned after several holds them
// all, through later overwrites, removes and splits of their chunks.
TYPED_TEST(SnapshotStressTest, ViewsAroundUnregisteredWritesResolveThem) {
  using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  typename TestFixture::Map m(TestFixture::Cfg());
  for (std::uint64_t k = 0; k < 40; k += 4) ASSERT_TRUE(m.insert(k, k));

  ASSERT_TRUE(m.insert(1, 100));
  {
    auto between = m.snapshot_at();
    ASSERT_TRUE(between.versioned());
    ASSERT_TRUE(m.insert(21, 200));
    EXPECT_EQ(ReadAt(m, between, 0, 4), (Pairs{{0, 0}, {1, 100}, {4, 4}}));
    EXPECT_EQ(ReadAt(m, between, 20, 24), (Pairs{{20, 20}, {24, 24}}));
  }

  const std::uint64_t stamp = m.commit_version();
  ASSERT_TRUE(m.update(1, 101));   // unregistered period again: all three
  ASSERT_TRUE(m.insert(3, 300));   // writes, on different chunks, carry
  ASSERT_TRUE(m.update(21, 201));  // the same stamp
  ASSERT_EQ(m.commit_version(), stamp);
  auto after = m.snapshot_at();
  ASSERT_TRUE(after.versioned());
  const Pairs pinned = ReadAt(m, after, 0, 100);
  ASSERT_EQ(pinned.size(), 13u);
  EXPECT_EQ(ReadAt(m, after, 0, 4),
            (Pairs{{0, 0}, {1, 101}, {3, 300}, {4, 4}}));

  ASSERT_TRUE(m.update(1, 102));
  ASSERT_TRUE(m.remove(3));
  ASSERT_TRUE(m.remove(21));
  for (std::uint64_t k = 2; k < 40; k += 4) ASSERT_TRUE(m.insert(k, k));
  EXPECT_EQ(ReadAt(m, after, 0, 100), pinned);
}

}  // namespace
}  // namespace sv::core
