// Unit tests for the VectorMap chunk container: both layouts, boundary
// conditions, and the structural operations (steal/split/merge) the skip
// vector builds on. Typed tests run every case against Sorted and Unsorted.
// The last sections check the chunk searches against std::map oracles: per
// chunk, under a writer racing speculative readers, and through the whole
// map under every reclaimer.
#include "vectormap/vector_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "core/skip_vector.h"
#include "core/skip_vector_epoch.h"
#include "sync/sequence_lock.h"

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

namespace sv::vectormap {
namespace {

// Owning harness: VectorMap itself is a non-owning view (the skip vector
// packs the arrays into node allocations). The layout is a runtime ctor
// argument now; the template parameter only feeds the typed suite.
template <Layout L>
class Chunk {
 public:
  explicit Chunk(std::uint32_t cap)
      : keys_(std::make_unique<std::atomic<std::uint64_t>[]>(cap)),
        vals_(std::make_unique<std::atomic<std::uint64_t>[]>(cap)),
        map_(keys_.get(), vals_.get(), cap, L) {}
  VectorMap<std::uint64_t, std::uint64_t>& operator*() { return map_; }
  VectorMap<std::uint64_t, std::uint64_t>* operator->() { return &map_; }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> keys_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> vals_;
  VectorMap<std::uint64_t, std::uint64_t> map_;
};

template <class T>
class VectorMapTypedTest : public testing::Test {};

struct SortedTag {
  static constexpr Layout kL = Layout::kSorted;
};
struct UnsortedTag {
  static constexpr Layout kL = Layout::kUnsorted;
};
using Layouts = testing::Types<SortedTag, UnsortedTag>;
TYPED_TEST_SUITE(VectorMapTypedTest, Layouts);

TYPED_TEST(VectorMapTypedTest, EmptyChunk) {
  Chunk<TypeParam::kL> c(8);
  EXPECT_TRUE(c->empty());
  EXPECT_FALSE(c->full());
  EXPECT_EQ(c->size(), 0u);
  EXPECT_FALSE(c->contains(1));
  EXPECT_FALSE(c->get(1).has_value());
  EXPECT_FALSE(c->find_le(100).found);
  EXPECT_FALSE(c->erase(1));
}

TYPED_TEST(VectorMapTypedTest, InsertGetEraseRoundTrip) {
  Chunk<TypeParam::kL> c(8);
  EXPECT_TRUE(c->insert(5, 50));
  EXPECT_TRUE(c->insert(3, 30));
  EXPECT_TRUE(c->insert(7, 70));
  EXPECT_EQ(c->size(), 3u);
  EXPECT_EQ(c->get(3).value(), 30u);
  EXPECT_EQ(c->get(5).value(), 50u);
  EXPECT_EQ(c->get(7).value(), 70u);
  EXPECT_EQ(c->min_key(), 3u);
  EXPECT_EQ(c->max_key(), 7u);
  std::uint64_t out = 0;
  EXPECT_TRUE(c->erase(5, &out));
  EXPECT_EQ(out, 50u);
  EXPECT_FALSE(c->contains(5));
  EXPECT_EQ(c->size(), 2u);
}

TYPED_TEST(VectorMapTypedTest, InsertRejectsWhenFull) {
  Chunk<TypeParam::kL> c(4);
  for (std::uint64_t k = 0; k < 4; ++k) EXPECT_TRUE(c->insert(k, k));
  EXPECT_TRUE(c->full());
  EXPECT_FALSE(c->insert(99, 99));
  EXPECT_EQ(c->size(), 4u);
}

TYPED_TEST(VectorMapTypedTest, FindLESemantics) {
  Chunk<TypeParam::kL> c(8);
  for (std::uint64_t k : {10u, 20u, 30u}) ASSERT_TRUE(c->insert(k, k * 2));
  auto r = c->find_le(25);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 20u);
  EXPECT_EQ(r.val, 40u);
  r = c->find_le(30);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 30u);  // exact match is <=
  r = c->find_le(9);
  EXPECT_FALSE(r.found);  // everything greater
  r = c->find_le(1000);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 30u);
}

TYPED_TEST(VectorMapTypedTest, AssignOverwritesInPlace) {
  Chunk<TypeParam::kL> c(4);
  ASSERT_TRUE(c->insert(1, 10));
  EXPECT_TRUE(c->assign(1, 11));
  EXPECT_EQ(c->get(1).value(), 11u);
  EXPECT_FALSE(c->assign(2, 20));
  EXPECT_EQ(c->size(), 1u);
}

TYPED_TEST(VectorMapTypedTest, StealGreaterMovesStrictSuffix) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 3u, 5u, 7u, 9u}) ASSERT_TRUE(a->insert(k, k));
  a->steal_greater(5, *b);
  EXPECT_EQ(a->size(), 3u);  // 1, 3, 5 (pivot itself stays)
  EXPECT_EQ(b->size(), 2u);  // 7, 9
  EXPECT_TRUE(a->contains(5));
  EXPECT_FALSE(a->contains(7));
  EXPECT_EQ(b->min_key(), 7u);
  EXPECT_EQ(b->max_key(), 9u);
}

TYPED_TEST(VectorMapTypedTest, StealGreaterWithNoMatchesIsNoop) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 2u, 3u}) ASSERT_TRUE(a->insert(k, k));
  a->steal_greater(100, *b);
  EXPECT_EQ(a->size(), 3u);
  EXPECT_TRUE(b->empty());
}

TYPED_TEST(VectorMapTypedTest, SplitHalfBalances) {
  Chunk<TypeParam::kL> a(16), b(16);
  for (std::uint64_t k = 0; k < 16; ++k) ASSERT_TRUE(a->insert(k * 10, k));
  const std::uint64_t b_min = a->split_half(*b);
  EXPECT_EQ(a->size(), 8u);
  EXPECT_EQ(b->size(), 8u);
  EXPECT_EQ(b_min, b->min_key());
  EXPECT_LT(a->max_key(), b->min_key()) << "split must preserve key order";
}

TYPED_TEST(VectorMapTypedTest, SplitHalfOddCount) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 2u, 3u, 4u, 5u}) ASSERT_TRUE(a->insert(k, k));
  a->split_half(*b);
  EXPECT_EQ(a->size() + b->size(), 5u);
  EXPECT_GE(a->size(), 2u);
  EXPECT_GE(b->size(), 2u);
  EXPECT_LT(a->max_key(), b->min_key());
}

TYPED_TEST(VectorMapTypedTest, MergeFromRightNeighbor) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 2u}) ASSERT_TRUE(a->insert(k, k * 10));
  for (std::uint64_t k : {5u, 6u, 7u}) ASSERT_TRUE(b->insert(k, k * 10));
  a->merge_from(*b);
  EXPECT_EQ(a->size(), 5u);
  EXPECT_TRUE(b->empty());
  for (std::uint64_t k : {1u, 2u, 5u, 6u, 7u}) {
    EXPECT_EQ(a->get(k).value(), k * 10) << k;
  }
}

TYPED_TEST(VectorMapTypedTest, OrderedIterationIsSorted) {
  Chunk<TypeParam::kL> c(16);
  std::vector<std::uint64_t> keys = {9, 2, 14, 7, 1, 11, 4};
  for (auto k : keys) ASSERT_TRUE(c->insert(k, k + 100));
  std::vector<std::uint64_t> seen;
  c->for_each_ordered([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(v, k + 100);
    seen.push_back(k);
  });
  ASSERT_EQ(seen.size(), keys.size());
  for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i - 1], seen[i]);
}

TYPED_TEST(VectorMapTypedTest, RandomizedOracle) {
  Chunk<TypeParam::kL> c(64);
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(12345);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next_below(100);
    switch (rng.next_below(4)) {
      case 0:
        if (oracle.size() < 64 && !oracle.count(k)) {
          const std::uint64_t v = rng.next();
          ASSERT_TRUE(c->insert(k, v));
          oracle[k] = v;
        }
        break;
      case 1:
        ASSERT_EQ(c->erase(k), oracle.erase(k) > 0);
        break;
      case 2: {
        auto it = oracle.find(k);
        const std::uint64_t v = rng.next();
        ASSERT_EQ(c->assign(k, v), it != oracle.end());
        if (it != oracle.end()) it->second = v;
        break;
      }
      default: {
        auto got = c->get(k);
        auto it = oracle.find(k);
        ASSERT_EQ(got.has_value(), it != oracle.end());
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
      }
    }
    ASSERT_EQ(c->size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(c->min_key(), oracle.begin()->first);
      ASSERT_EQ(c->max_key(), oracle.rbegin()->first);
    }
  }
}

TYPED_TEST(VectorMapTypedTest, FindGESemantics) {
  Chunk<TypeParam::kL> c(8);
  for (std::uint64_t k : {10u, 20u, 30u}) ASSERT_TRUE(c->insert(k, k * 2));
  auto r = c->find_ge(15);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 20u);
  EXPECT_EQ(r.val, 40u);
  r = c->find_ge(20);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 20u);  // exact match is >=
  r = c->find_ge(31);
  EXPECT_FALSE(r.found);  // everything smaller
  r = c->find_ge(0);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 10u);
}

TYPED_TEST(VectorMapTypedTest, MinMaxEntry) {
  Chunk<TypeParam::kL> c(8);
  EXPECT_FALSE(c->min_entry().found);
  EXPECT_FALSE(c->max_entry().found);
  for (std::uint64_t k : {7u, 3u, 9u, 5u}) ASSERT_TRUE(c->insert(k, k + 1));
  auto mn = c->min_entry();
  auto mx = c->max_entry();
  ASSERT_TRUE(mn.found && mx.found);
  EXPECT_EQ(mn.key, 3u);
  EXPECT_EQ(mn.val, 4u);
  EXPECT_EQ(mx.key, 9u);
  EXPECT_EQ(mx.val, 10u);
}

TYPED_TEST(VectorMapTypedTest, TransformRangeTouchesExactlyTheRange) {
  Chunk<TypeParam::kL> c(16);
  for (std::uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(c->insert(k, 0));
  const std::uint32_t n =
      c->transform_range(3, 6, [](std::uint64_t k, std::uint64_t) {
        return k * 100;
      });
  EXPECT_EQ(n, 4u);
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(c->get(k).value(), (k >= 3 && k <= 6) ? k * 100 : 0u) << k;
  }
  // Degenerate ranges.
  EXPECT_EQ(c->transform_range(100, 200, [](auto, auto v) { return v; }), 0u);
  EXPECT_EQ(c->transform_range(5, 5, [](auto, auto) { return 1u; }), 1u);
}

TYPED_TEST(VectorMapTypedTest, CapacityOneChunk) {
  Chunk<TypeParam::kL> c(1);
  EXPECT_TRUE(c->insert(5, 50));
  EXPECT_TRUE(c->full());
  EXPECT_FALSE(c->insert(6, 60));
  EXPECT_EQ(c->min_key(), 5u);
  EXPECT_EQ(c->max_key(), 5u);
  EXPECT_TRUE(c->erase(5));
  EXPECT_TRUE(c->empty());
}

TYPED_TEST(VectorMapTypedTest, MergeIntoPartiallyFilled) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 2u, 3u}) ASSERT_TRUE(a->insert(k, k));
  for (std::uint64_t k : {10u, 11u}) ASSERT_TRUE(b->insert(k, k));
  a->merge_from(*b);
  EXPECT_EQ(a->size(), 5u);
  EXPECT_TRUE(b->empty());
  EXPECT_EQ(a->min_key(), 1u);
  EXPECT_EQ(a->max_key(), 11u);
}

// Layout-specific behaviors.
TEST(VectorMapSorted, KeysStoredInOrderEnablesBinarySearch) {
  Chunk<Layout::kSorted> c(8);
  for (std::uint64_t k : {5u, 1u, 3u}) ASSERT_TRUE(c->insert(k, k));
  std::vector<std::uint64_t> raw;
  c->for_each([&](std::uint64_t k, std::uint64_t) { raw.push_back(k); });
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_TRUE(raw[0] < raw[1] && raw[1] < raw[2])
      << "sorted layout must keep physical order";
}

TEST(VectorMapUnsorted, InsertAppendsConstantTime) {
  Chunk<Layout::kUnsorted> c(8);
  for (std::uint64_t k : {5u, 1u, 3u}) ASSERT_TRUE(c->insert(k, k));
  std::vector<std::uint64_t> raw;
  c->for_each([&](std::uint64_t k, std::uint64_t) { raw.push_back(k); });
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0], 5u);  // append order preserved
  EXPECT_EQ(raw[1], 1u);
  EXPECT_EQ(raw[2], 3u);
}

TEST(VectorMapSpeculation, ClampedSizeNeverExceedsCapacity) {
  // A racing writer can make `size` transiently exceed what a reader should
  // trust; size() must clamp so scans stay in bounds.
  Chunk<Layout::kUnsorted> c(4);
  for (std::uint64_t k = 0; k < 4; ++k) ASSERT_TRUE(c->insert(k, k));
  EXPECT_EQ(c->size(), 4u);
  EXPECT_TRUE(c->full());
}

// ---- Search parity with a std::map oracle ---------------------------------

template <Layout L>
void vectormap_oracle_parity() {
  std::mt19937_64 rng(7);
  for (const std::uint32_t cap : {1u, 2u, 7u, 64u, 129u, 256u}) {
    Chunk<L> c(cap);
    std::map<std::uint64_t, std::uint64_t> oracle;
    std::uniform_int_distribution<std::uint64_t> dist(0, 3 * cap);
    while (oracle.size() < cap) {
      const std::uint64_t k = dist(rng);
      if (oracle.emplace(k, k * 2 + 1).second) {
        ASSERT_TRUE(c->insert(k, k * 2 + 1));
      }
    }
    for (std::uint64_t k = 0; k <= 3 * cap + 2; ++k) {
      const auto fle = c->find_le(k);
      auto it = oracle.upper_bound(k);
      if (it == oracle.begin()) {
        EXPECT_FALSE(fle.found);
      } else {
        --it;
        ASSERT_TRUE(fle.found) << "k=" << k;
        EXPECT_EQ(fle.key, it->first);
        EXPECT_EQ(fle.val, it->second);
      }
      const auto fge = c->find_ge(k);
      const auto ge = oracle.lower_bound(k);
      if (ge == oracle.end()) {
        EXPECT_FALSE(fge.found);
      } else {
        ASSERT_TRUE(fge.found) << "k=" << k;
        EXPECT_EQ(fge.key, ge->first);
        EXPECT_EQ(fge.val, ge->second);
      }
      const auto got = c->get(k);
      const auto oit = oracle.find(k);
      EXPECT_EQ(got.has_value(), oit != oracle.end());
      if (got && oit != oracle.end()) {
        EXPECT_EQ(*got, oit->second);
      }
    }
    EXPECT_EQ(c->min_key(), oracle.begin()->first);
    EXPECT_EQ(c->max_key(), oracle.rbegin()->first);
    EXPECT_EQ(c->min_entry().val, oracle.begin()->second);
    EXPECT_EQ(c->max_entry().val, oracle.rbegin()->second);
    // Erase half and re-check exact lookups.
    std::vector<std::uint64_t> keys;
    for (const auto& [k, v] : oracle) keys.push_back(k);
    for (std::size_t i = 0; i < keys.size(); i += 2) {
      EXPECT_TRUE(c->erase(keys[i]));
      oracle.erase(keys[i]);
    }
    for (const std::uint64_t k : keys) {
      EXPECT_EQ(c->contains(k), oracle.count(k) == 1) << "k=" << k;
    }
  }
}

TEST(VectorMapRouting, SortedMatchesOracle) {
  vectormap_oracle_parity<Layout::kSorted>();
}
TEST(VectorMapRouting, UnsortedMatchesOracle) {
  vectormap_oracle_parity<Layout::kUnsorted>();
}

// ---- Torn-read convergence --------------------------------------------------

// A writer churns a chunk under its sequence lock while readers run the
// speculative protocol (read_begin -> find_le/find_ge -> validate). The
// searches may observe arbitrarily torn states mid-mutation; the property
// is that validated results are always consistent (key from the maintained
// universe, val == key * 3, correct side of the probe) and that readers
// keep making progress (the retry loop converges).
template <Layout L>
void torn_read_convergence() {
  constexpr std::uint32_t kCap = 128;
  Chunk<L> c(kCap);
  sync::SequenceLock lock;
  // Universe: even keys 2..2*kCap; writer inserts/erases them, val = 3*key.
  for (std::uint64_t k = 2; k <= kCap; k += 2) c->insert(k, k * 3);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> validated{0};

  std::thread writer([&] {
    std::mt19937_64 rng(11);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k =
          2 * (1 + rng() % kCap);  // even keys only, 2..2*kCap
      lock.acquire();
      std::uint64_t dummy;
      if (!c->erase(k, &dummy)) c->insert(k, k * 3);
      lock.release();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(100 + r);
      std::uint64_t mine = 0;
      while (mine < 3000) {
        const std::uint64_t probe = rng() % (2 * kCap + 3);
        const auto w = lock.read_begin();
        const auto fle = c->find_le(probe);
        const auto fge = c->find_ge(probe);
        if (!lock.validate(w)) continue;  // torn: retry (must converge)
        if (fle.found) {
          EXPECT_LE(fle.key, probe);
          EXPECT_EQ(fle.key % 2, 0u);
          EXPECT_EQ(fle.val, fle.key * 3);
        }
        if (fge.found) {
          EXPECT_GE(fge.key, probe);
          EXPECT_EQ(fge.key % 2, 0u);
          EXPECT_EQ(fge.val, fge.key * 3);
        }
        ++mine;
      }
      validated.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(validated.load(), 2u * 3000u);
}

TEST(TornReads, SortedConverges) { torn_read_convergence<Layout::kSorted>(); }
TEST(TornReads, UnsortedConverges) {
  torn_read_convergence<Layout::kUnsorted>();
}

// ---- Full-map read parity under every reclaimer -----------------------------

// LeakSanitizer scope guard: the LeakReclaimer map variant below leaks its
// retired nodes by design, which would otherwise fail the ASan lane. Every
// other variant stays fully leak-checked.
class ScopedLeakCheckDisabler {
 public:
  explicit ScopedLeakCheckDisabler(bool active) : active_(active) {
#if defined(SV_TEST_ASAN)
    if (active_) __lsan_disable();
#endif
  }
  ~ScopedLeakCheckDisabler() {
#if defined(SV_TEST_ASAN)
    if (active_) __lsan_enable();
#endif
  }

 private:
  [[maybe_unused]] bool active_;
};

template <class Map>
class MapReadParityTest : public testing::Test {};
using MapTypes =
    testing::Types<core::SkipVector<std::uint64_t, std::uint64_t>,
                   core::SkipVectorLeak<std::uint64_t, std::uint64_t>,
                   core::SkipVectorSeq<std::uint64_t, std::uint64_t>,
                   core::SkipVectorEpoch<std::uint64_t, std::uint64_t>>;
TYPED_TEST_SUITE(MapReadParityTest, MapTypes);

// The read path (lookup, floor, ceiling -- every descent plus every chunk
// search) agrees with std::map under each reclaimer variant.
TYPED_TEST(MapReadParityTest, ReadPathMatchesOracle) {
  const ScopedLeakCheckDisabler allow_designed_leaks(
      std::is_same_v<TypeParam,
                     core::SkipVectorLeak<std::uint64_t, std::uint64_t>>);
  TypeParam m(core::Config::for_elements(4096));
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t k = rng() % 8192;
    if (oracle.emplace(k, k + 1).second) {
      EXPECT_TRUE(m.insert(k, k + 1));
    }
  }
  for (int i = 0; i < 2048; ++i) {
    const std::uint64_t k = rng() % 8192;
    if (oracle.erase(k) != 0) {
      EXPECT_TRUE(m.remove(k));
    }
  }
  for (std::uint64_t k = 0; k < 8192; k += 3) {
    const auto got = m.lookup(k);
    const auto it = oracle.find(k);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << "k=" << k;
    if (got) {
      EXPECT_EQ(*got, it->second);
    }

    const auto fl = m.floor(k);
    auto ub = oracle.upper_bound(k);
    if (ub == oracle.begin()) {
      EXPECT_FALSE(fl.has_value());
    } else {
      --ub;
      ASSERT_TRUE(fl.has_value()) << "k=" << k;
      EXPECT_EQ(fl->first, ub->first);
    }

    const auto ce = m.ceiling(k);
    const auto lb = oracle.lower_bound(k);
    if (lb == oracle.end()) {
      EXPECT_FALSE(ce.has_value());
    } else {
      ASSERT_TRUE(ce.has_value()) << "k=" << k;
      EXPECT_EQ(ce->first, lb->first);
    }
  }
}

}  // namespace
}  // namespace sv::vectormap
