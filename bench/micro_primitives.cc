// Microbenchmarks (google-benchmark) for the substrate primitives: sequence
// lock transitions, chunk operations at various sizes and layouts, hazard
// pointer publish cost, and single-threaded skip vector point operations.
// Not a paper figure; used to sanity-check the constant factors the paper's
// arguments rest on (e.g., O(1) unsorted insert, O(log T) sorted lookup).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/pool_allocator.h"
#include "benchutil/json_report.h"
#include "common/rng.h"
#include "core/skip_vector.h"
#include "reclaim/hazard_pointers.h"
#include "sync/sequence_lock.h"
#include "vectormap/vector_map.h"

namespace {

using sv::Xoshiro256;
using sv::sync::SequenceLock;
using sv::vectormap::Layout;
using sv::vectormap::VectorMap;

void BM_SeqlockReadValidate(benchmark::State& state) {
  SequenceLock l;
  for (auto _ : state) {
    auto w = l.read_begin();
    benchmark::DoNotOptimize(w);
    benchmark::DoNotOptimize(l.validate(w));
  }
}
BENCHMARK(BM_SeqlockReadValidate);

void BM_SeqlockWriteCycle(benchmark::State& state) {
  SequenceLock l;
  for (auto _ : state) {
    auto w = l.read_begin();
    if (l.try_upgrade(w)) l.release();
  }
}
BENCHMARK(BM_SeqlockWriteCycle);

void BM_SeqlockFreezeThaw(benchmark::State& state) {
  SequenceLock l;
  for (auto _ : state) {
    auto w = l.read_begin();
    if (l.try_freeze(w)) l.thaw();
  }
}
BENCHMARK(BM_SeqlockFreezeThaw);

void BM_HazardProtectDrop(benchmark::State& state) {
  sv::reclaim::HazardDomain d;
  auto ctx = d.thread_ctx();
  int x = 0;
  for (auto _ : state) {
    ctx.protect(0, &x);
    ctx.drop(0);
  }
}
BENCHMARK(BM_HazardProtectDrop);

template <Layout L>
void BM_ChunkFindLE(benchmark::State& state) {
  const auto cap = static_cast<std::uint32_t>(state.range(0));
  auto keys = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
  auto vals = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
  VectorMap<std::uint64_t, std::uint64_t> vm(keys.get(), vals.get(), cap, L);
  Xoshiro256 rng(1);
  for (std::uint32_t i = 0; i < cap; ++i) vm.insert(i * 3, i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.find_le(rng.next_below(cap * 3)));
  }
}
BENCHMARK(BM_ChunkFindLE<Layout::kSorted>)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_ChunkFindLE<Layout::kUnsorted>)->Arg(8)->Arg(64)->Arg(512);

template <Layout L>
void BM_ChunkInsertErase(benchmark::State& state) {
  const auto cap = static_cast<std::uint32_t>(state.range(0));
  auto keys = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
  auto vals = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
  VectorMap<std::uint64_t, std::uint64_t> vm(keys.get(), vals.get(), cap, L);
  for (std::uint32_t i = 0; i + 1 < cap; ++i) vm.insert(i * 2, i);
  // Repeatedly insert/erase an interior key: worst case for sorted shifts.
  const std::uint64_t k = cap;  // odd -> absent, lands mid-chunk
  for (auto _ : state) {
    vm.insert(k + 1, 0);
    vm.erase(k + 1);
  }
}
BENCHMARK(BM_ChunkInsertErase<Layout::kSorted>)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_ChunkInsertErase<Layout::kUnsorted>)->Arg(8)->Arg(64)->Arg(512);

void BM_SkipVectorLookupHit(benchmark::State& state) {
  const std::uint64_t n = 1ULL << static_cast<std::uint64_t>(state.range(0));
  sv::core::SkipVectorSeq<std::uint64_t, std::uint64_t> m(
      sv::core::Config::for_elements(n));
  for (std::uint64_t k = 0; k < n; ++k) m.insert(k, k);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.lookup(rng.next_below(n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkipVectorLookupHit)->Arg(10)->Arg(14)->Arg(18);

void BM_SkipVectorInsertRemove(benchmark::State& state) {
  const std::uint64_t n = 1ULL << static_cast<std::uint64_t>(state.range(0));
  sv::core::SkipVectorSeq<std::uint64_t, std::uint64_t> m(
      sv::core::Config::for_elements(n));
  for (std::uint64_t k = 0; k < n; k += 2) m.insert(k, k);
  Xoshiro256 rng(3);
  for (auto _ : state) {
    const std::uint64_t k = rng.next_below(n) | 1;  // odd: absent initially
    m.insert(k, k);
    m.remove(k);
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_SkipVectorInsertRemove)->Arg(10)->Arg(14)->Arg(18);

// ---- Node allocator churn (src/alloc/) --------------------------------------
//
// The isolated alloc/free path the map's split/merge machinery pays: keep a
// ring of live node-sized blocks per thread and randomly replace them, the
// steady-state recycling pattern of a 50/50 insert/remove mix. One shared
// allocator instance across threads, as in a real map, so the
// multi-threaded rows include the pool's cross-thread depot traffic vs
// the global heap's internal locking. Arg = block bytes: 320 ~ a T=16 data
// node, 1344 ~ a T=64 node (NodeLayout-rounded sizes).

template <class Alloc>
void BM_NodeAllocChurn(benchmark::State& state) {
  static Alloc alloc;  // shared across benchmark threads by design
  const auto bytes = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLive = 128;
  std::vector<void*> ring(kLive);
  Xoshiro256 rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
  for (auto& p : ring) p = alloc.allocate(bytes);
  for (auto _ : state) {
    const std::size_t i = rng.next_below(kLive);
    alloc.deallocate(ring[i], bytes);
    void* p = alloc.allocate(bytes);
    std::memset(p, 0, sv::kCacheLineSize);  // touch the header line, as node init does
    ring[i] = p;
    benchmark::DoNotOptimize(ring[i]);
  }
  for (void* p : ring) alloc.deallocate(p, bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeAllocChurn<sv::alloc::MallocNodeAllocator>)
    ->Name("BM_NodeAllocChurn_Malloc")
    ->Arg(320)->Arg(1344)
    ->Threads(1)->Threads(4);
BENCHMARK(BM_NodeAllocChurn<sv::alloc::PoolNodeAllocator>)
    ->Name("BM_NodeAllocChurn_Pool")
    ->Arg(320)->Arg(1344)
    ->Threads(1)->Threads(4);

// Console output stays the default google-benchmark table; this reporter
// additionally collects every run so main() can emit sv-bench JSON rows.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    // Collect everything: the error/skipped field changed name across
    // google-benchmark versions, and these single-threaded micro benches
    // have no error paths worth filtering.
    collected_.insert(collected_.end(), runs.begin(), runs.end());
    ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<Run>& collected() const { return collected_; }

 private:
  std::vector<Run> collected_;
};

}  // namespace

// google-benchmark owns the command line, so BENCHMARK_MAIN() is expanded by
// hand here with one extension: --json=PATH is peeled off before
// benchmark::Initialize sees (and would reject) it.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      json_path = std::string(a.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (!json_path.empty()) {
    using sv::benchutil::BenchReport;
    using sv::benchutil::JsonValue;
    BenchReport report("micro_primitives");
    for (const auto& r : reporter.collected()) {
      JsonValue& row = report.add_result(r.benchmark_name());
      row.set("params", JsonValue::object());
      JsonValue& metrics = row.set("metrics", JsonValue::object());
      metrics.set("real_time_ns", r.GetAdjustedRealTime());
      metrics.set("cpu_time_ns", r.GetAdjustedCPUTime());
      metrics.set("iterations",
                  static_cast<std::uint64_t>(r.iterations));
      const auto items = r.counters.find("items_per_second");
      if (items != r.counters.end()) {
        metrics.set("items_per_second",
                    static_cast<double>(items->second.value));
      }
    }
    if (!report.write(json_path)) return 1;
  }
  benchmark::Shutdown();
  return 0;
}
