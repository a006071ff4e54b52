// PoolNodeAllocator: a Bonwick-style slab allocator specialized for skip
// vector nodes (see docs/MEMORY.md for the full design discussion).
//
// Why: every chunk the map churns through (splits, merges, tower builds)
// round-trips the general-purpose allocator, which costs a global malloc
// on the mutation path and scatters successor chunks across the heap --
// exactly the locality the structure exists to exploit. The pool instead:
//
//   * reserves large cache-line-aligned ARENAS (2 MiB; with
//     PoolOptions::huge_pages, 2 MiB-aligned whole multiples of 2 MiB,
//     madvise(MADV_HUGEPAGE)d so the kernel can back them with THPs),
//   * carves per-size-class SLABS of node blocks from the arenas, so nodes
//     of the same shape are densely co-located,
//   * serves allocation/free through per-thread MAGAZINES (a small array of
//     cached blocks per class) -- the common-case free is a thread-local
//     array store, no atomics, no locks,
//   * overflows/refills magazines against a mutex-guarded central DEPOT in
//     batches of half a magazine, keeping the lock off the common path,
//   * releases every arena wholesale at destruction, so a map whose
//     Reclaimer never frees (LeakReclaimer) still returns all node memory
//     when it dies.
//
// Blocks are never returned to the OS before destruction: the pool's
// footprint is the high-water mark of each size class (the standard slab
// trade of memory for determinism). Sizes beyond the largest class fall
// back to the aligned global heap; those blocks are tracked in a registry
// so destruction still returns every byte.
//
// Thread exit: magazines live in allocator-owned ThreadCache records (TLS
// holds only a serial-keyed pointer, the same pattern as stats::Registry),
// so blocks cached by an exited thread are not lost -- they are simply
// unavailable until the allocator dies. There is deliberately no exit-time
// flush: it would have to race allocator destruction.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <unordered_set>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "alloc/allocator.h"
#include "common/hw.h"
#include "stats/stats.h"

namespace sv::alloc {

struct PoolOptions {
  // Arena reservation size. 2 MiB matches the x86-64 huge page size so a
  // single madvise can back a whole arena with one THP.
  std::size_t arena_bytes = 2u << 20;
  // Target bytes per slab carve (rounded to whole blocks, >= 1 block).
  std::size_t slab_bytes = 16u << 10;
  // Blocks cached per (thread, size class); overflow flushes half.
  std::uint32_t magazine_capacity = 32;
  // Align each arena to 2 MiB, round its size up to a multiple of 2 MiB and
  // madvise(MADV_HUGEPAGE) it (the madvise is Linux only), so every 2 MiB of
  // an arena is one huge-page-sized, huge-page-aligned range the kernel can
  // back with a THP. Whether it does depends on the host's THP mode. Off by
  // default: THP backing changes fault timing, which benchmarks should opt
  // into knowingly (docs/TUNING.md).
  bool huge_pages = false;
};

class PoolNodeAllocator {
 public:
  static constexpr bool kPooled = true;

  // Size classes: cache-line granules up to 4 KiB (covers every default
  // node shape), then power-of-two classes up to 256 KiB for jumbo chunks
  // (e.g. oversized split nodes). Beyond that: oversize heap fallback.
  static constexpr std::size_t kGranule = kCacheLineSize;
  static constexpr std::size_t kLinearMax = 4096;
  static constexpr std::size_t kLinearClasses = kLinearMax / kGranule;  // 64
  static constexpr std::size_t kPow2Classes = 6;  // 8K 16K 32K 64K 128K 256K
  static constexpr std::size_t kClassCount = kLinearClasses + kPow2Classes;
  static constexpr std::size_t kMaxClassBytes = 256u << 10;
  // x86-64 huge page size: arena alignment and size granule under
  // PoolOptions::huge_pages.
  static constexpr std::size_t kHugePageBytes = 2u << 20;

  explicit PoolNodeAllocator(PoolOptions opt = {}) : opt_(opt) {
    if (opt_.magazine_capacity < 2) opt_.magazine_capacity = 2;
    if (opt_.arena_bytes < kMaxClassBytes) opt_.arena_bytes = kMaxClassBytes;
    if (opt_.slab_bytes < kGranule) opt_.slab_bytes = kGranule;
  }

  PoolNodeAllocator(const PoolNodeAllocator&) = delete;
  PoolNodeAllocator& operator=(const PoolNodeAllocator&) = delete;

  ~PoolNodeAllocator() {
    // Wholesale release: every block ever carved lives inside an arena, so
    // freeing the arenas returns all pooled bytes regardless of what the
    // map's Reclaimer did or didn't hand back. Oversize blocks are tracked
    // individually.
    for (void* p : oversize_live_) {
      ::operator delete(p, std::align_val_t{kCacheLineSize});
    }
    for (const Arena& a : arenas_) {
      ::operator delete(a.base, std::align_val_t{a.align});
    }
    ThreadCache* tc = caches_.load(std::memory_order_acquire);
    while (tc != nullptr) {
      ThreadCache* next = tc->next;
      delete tc;
      tc = next;
    }
  }

  void* allocate(std::size_t bytes) {
    const int cls = class_of(bytes);
    if (cls < 0) return allocate_oversize(bytes);
    ThreadCache& tc = thread_cache();
    Magazine& mag = tc.magazine(cls);
    tc.counters.alloc_bytes.fetch_add(class_bytes(cls),
                                      std::memory_order_relaxed);
    count_alloc_bytes(class_bytes(cls));
    if (mag.count > 0) {
      tc.counters.pool_hits.fetch_add(1, std::memory_order_relaxed);
      stats::count(stats::Counter::kPoolHits);
      return mag.items[--mag.count];
    }
    refill(cls, mag);
    tc.counters.pool_misses.fetch_add(1, std::memory_order_relaxed);
    stats::count(stats::Counter::kPoolMisses);
    return mag.items[--mag.count];
  }

  void deallocate(void* p, std::size_t bytes) {
    const int cls = class_of(bytes);
    if (cls < 0) {
      deallocate_oversize(p, bytes);
      return;
    }
    ThreadCache& tc = thread_cache();
    Magazine& mag = tc.magazine(cls);
    tc.counters.free_bytes.fetch_add(class_bytes(cls),
                                     std::memory_order_relaxed);
    count_free_bytes(class_bytes(cls));
    // A thread may free blocks of a class it never allocated from
    // (alloc-here/free-there); size its magazine on first touch.
    if (mag.items.empty()) mag.items.resize(opt_.magazine_capacity, nullptr);
    if (mag.count == mag.items.size()) {
      flush_half(cls, mag);
      tc.counters.depot_flushes.fetch_add(1, std::memory_order_relaxed);
    }
    mag.items[mag.count++] = p;
    tc.counters.magazine_frees.fetch_add(1, std::memory_order_relaxed);
  }

  AllocatorStats stats() const {
    AllocatorStats s;
    std::uint64_t alloc_bytes = 0, free_bytes = 0;
    for (const ThreadCache* tc = caches_.load(std::memory_order_acquire);
         tc != nullptr; tc = tc->next) {
      const auto& c = tc->counters;
      s.pool_hits += c.pool_hits.load(std::memory_order_relaxed);
      s.pool_misses += c.pool_misses.load(std::memory_order_relaxed);
      s.magazine_frees += c.magazine_frees.load(std::memory_order_relaxed);
      s.depot_flushes += c.depot_flushes.load(std::memory_order_relaxed);
      alloc_bytes += c.alloc_bytes.load(std::memory_order_relaxed);
      free_bytes += c.free_bytes.load(std::memory_order_relaxed);
    }
    s.slab_allocs = slab_allocs_.load(std::memory_order_relaxed);
    s.oversize_allocs = oversize_allocs_.load(std::memory_order_relaxed);
    s.arena_bytes = arena_bytes_.load(std::memory_order_relaxed);
    alloc_bytes += oversize_alloc_bytes_.load(std::memory_order_relaxed);
    free_bytes += oversize_free_bytes_.load(std::memory_order_relaxed);
    s.live_bytes = alloc_bytes - free_bytes;  // mod 2^64; exact at quiescence
    return s;
  }

  const PoolOptions& options() const noexcept { return opt_; }

  // (base, bytes) of every arena reserved so far (tests).
  std::vector<std::pair<const void*, std::size_t>> arena_spans() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::pair<const void*, std::size_t>> out;
    for (const Arena& a : arenas_) out.emplace_back(a.base, a.size);
    return out;
  }

  // ---- Size classes (exposed for tests) -------------------------------------

  // Class index for an allocation size, or -1 for the oversize fallback.
  static constexpr int class_of(std::size_t bytes) noexcept {
    if (bytes == 0) bytes = 1;
    if (bytes <= kLinearMax) {
      return static_cast<int>((bytes + kGranule - 1) / kGranule) - 1;
    }
    if (bytes > kMaxClassBytes) return -1;
    std::size_t cb = kLinearMax * 2;  // 8 KiB, first pow2 class
    int cls = static_cast<int>(kLinearClasses);
    while (cb < bytes) {
      cb *= 2;
      ++cls;
    }
    return cls;
  }

  // Block size of a class (>= every size mapping to it).
  static constexpr std::size_t class_bytes(int cls) noexcept {
    if (cls < static_cast<int>(kLinearClasses)) {
      return (static_cast<std::size_t>(cls) + 1) * kGranule;
    }
    return (kLinearMax * 2) << (cls - static_cast<int>(kLinearClasses));
  }

 private:
  // ---- Per-thread magazines --------------------------------------------------

  struct Magazine {
    std::uint32_t cls = 0;
    std::uint32_t count = 0;
    std::vector<void*> items;  // fixed capacity after construction
  };

  struct alignas(kCacheLineSize) Counters {
    std::atomic<std::uint64_t> pool_hits{0};
    std::atomic<std::uint64_t> pool_misses{0};
    std::atomic<std::uint64_t> magazine_frees{0};
    std::atomic<std::uint64_t> depot_flushes{0};
    std::atomic<std::uint64_t> alloc_bytes{0};
    std::atomic<std::uint64_t> free_bytes{0};
  };

  struct ThreadCache {
    // A map instance touches ~2 classes (data node, index node), so a tiny
    // linear-scanned vector beats a kClassCount-wide array per thread.
    std::vector<Magazine> mags;
    Counters counters;
    ThreadCache* next = nullptr;  // intrusive list, append-only

    Magazine& magazine(int cls) {
      for (Magazine& m : mags) {
        if (m.cls == static_cast<std::uint32_t>(cls)) return m;
      }
      mags.emplace_back();
      Magazine& m = mags.back();
      m.cls = static_cast<std::uint32_t>(cls);
      return m;
    }
  };

  ThreadCache& thread_cache() {
    struct Entry {
      std::uint64_t serial;
      ThreadCache* cache;
    };
    thread_local std::vector<Entry> tls;
    for (const Entry& e : tls) {
      if (e.serial == serial_) return *e.cache;
    }
    auto* tc = new ThreadCache();
    ThreadCache* old_head = caches_.load(std::memory_order_relaxed);
    do {
      tc->next = old_head;
    } while (!caches_.compare_exchange_weak(old_head, tc,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
    tls.push_back({serial_, tc});
    return *tc;
  }

  // ---- Central depot + arenas (mutex-guarded; off the common path) -----------

  struct Arena {
    char* base = nullptr;
    std::size_t used = 0;
    std::size_t size = 0;
    std::size_t align = kCacheLineSize;
  };

  void refill(int cls, Magazine& mag) {
    if (mag.items.empty()) mag.items.resize(opt_.magazine_capacity, nullptr);
    const std::size_t want = mag.items.size() / 2;
    std::lock_guard<std::mutex> lk(mu_);
    auto& depot = depots_[static_cast<std::size_t>(cls)];
    if (depot.size() < want) carve_slab(cls, depot);
    std::size_t take = depot.size() < want ? depot.size() : want;
    while (take-- > 0) {
      mag.items[mag.count++] = depot.back();
      depot.pop_back();
    }
  }

  void flush_half(int cls, Magazine& mag) {
    const std::size_t keep = mag.items.size() / 2;
    std::lock_guard<std::mutex> lk(mu_);
    auto& depot = depots_[static_cast<std::size_t>(cls)];
    while (mag.count > keep) {
      depot.push_back(mag.items[--mag.count]);
    }
  }

  // Carve one slab of `cls` blocks from the current arena (growing the
  // arena list if needed) and push the blocks into `depot`. mu_ held.
  void carve_slab(int cls, std::vector<void*>& depot) {
    const std::size_t cb = class_bytes(cls);
    std::size_t blocks = opt_.slab_bytes / cb;
    if (blocks == 0) blocks = 1;
    if (arenas_.empty() || arenas_.back().size - arenas_.back().used < cb) {
      new_arena(blocks * cb);
    }
    Arena& a = arenas_.back();
    const std::size_t fit = (a.size - a.used) / cb;
    if (blocks > fit) blocks = fit;
    for (std::size_t i = 0; i < blocks; ++i) {
      depot.push_back(a.base + a.used);
      a.used += cb;
    }
    slab_allocs_.fetch_add(1, std::memory_order_relaxed);
    stats::count(stats::Counter::kSlabAllocs);
  }

  void new_arena(std::size_t min_bytes) {
    std::size_t size = opt_.arena_bytes;
    if (size < min_bytes) size = min_bytes;  // jumbo class: size the arena up
    Arena a;
    if (opt_.huge_pages) {
      // A THP can only back an aligned 2 MiB range that lies wholly inside
      // the advised region; a merely cache-line-aligned 2 MiB arena
      // contains none.
      a.align = kHugePageBytes;
      size = (size + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
    }
    a.base = static_cast<char*>(::operator new(size, std::align_val_t{a.align}));
    a.size = size;
#if defined(__linux__)
    if (opt_.huge_pages) (void)madvise(a.base, size, MADV_HUGEPAGE);
#endif
    arenas_.push_back(a);
    arena_bytes_.fetch_add(size, std::memory_order_relaxed);
  }

  // ---- Oversize fallback ------------------------------------------------------

  void* allocate_oversize(std::size_t bytes) {
    void* p = ::operator new(bytes, std::align_val_t{kCacheLineSize});
    {
      std::lock_guard<std::mutex> lk(mu_);
      oversize_live_.insert(p);
    }
    oversize_allocs_.fetch_add(1, std::memory_order_relaxed);
    oversize_alloc_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    stats::count(stats::Counter::kPoolMisses);
    count_alloc_bytes(bytes);
    return p;
  }

  void deallocate_oversize(void* p, std::size_t bytes) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      oversize_live_.erase(p);
    }
    oversize_free_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    count_free_bytes(bytes);
    ::operator delete(p, std::align_val_t{kCacheLineSize});
  }

  static std::uint64_t next_serial() noexcept {
    static std::atomic<std::uint64_t> c{1};
    return c.fetch_add(1, std::memory_order_relaxed);
  }

  PoolOptions opt_;
  const std::uint64_t serial_ = next_serial();

  std::mutex mu_;  // depots_, arenas_, oversize_live_
  std::array<std::vector<void*>, kClassCount> depots_;
  std::vector<Arena> arenas_;
  std::unordered_set<void*> oversize_live_;

  std::atomic<ThreadCache*> caches_{nullptr};
  std::atomic<std::uint64_t> slab_allocs_{0};
  std::atomic<std::uint64_t> arena_bytes_{0};
  std::atomic<std::uint64_t> oversize_allocs_{0};
  std::atomic<std::uint64_t> oversize_alloc_bytes_{0};
  std::atomic<std::uint64_t> oversize_free_bytes_{0};
};

}  // namespace sv::alloc
