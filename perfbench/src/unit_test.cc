// Unit tests for the perfbench measurement helpers: the tail-percentile
// rule, histogram quantiles, median and slice grouping, and span self time.
// Exits nonzero when any check fails. Run: perfbench_unit
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(e) check((e), #e, __LINE__)

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

perfbench::Span span(std::int64_t lo, std::int64_t hi, std::uint32_t parent) {
  perfbench::Span s;
  s.start_ns = lo;
  s.end_ns = hi;
  s.parent = parent;
  return s;
}

void test_supported_quantile() {
  using perfbench::supported_quantile;
  // p99 needs ten samples beyond it: 1000 samples and up.
  CHECK(supported_quantile(1000, 0.99) == 0.99);
  CHECK(supported_quantile(1'000'000, 0.99) == 0.99);
  // Fewer samples fall back to the highest percentile they support.
  CHECK(near(supported_quantile(500, 0.99), 0.98, 1e-12));
  CHECK(near(supported_quantile(100, 0.99), 0.90, 1e-12));
  CHECK(near(supported_quantile(50, 0.99), 0.80, 1e-12));
  // Never below the median, also for empty and tiny samples.
  CHECK(supported_quantile(20, 0.99) == 0.5);
  CHECK(supported_quantile(5, 0.99) == 0.5);
  CHECK(supported_quantile(0, 0.99) == 0.5);
  // A lower request is honoured when supported.
  CHECK(supported_quantile(1000, 0.5) == 0.5);
}

void test_histogram() {
  using perfbench::Histogram;
  // Bucket bounds contain their values across the exact and log ranges.
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 255ull, 256ull, 1000ull,
                          123456ull, 987654321ull}) {
    const auto [lo, width] = Histogram::bounds(Histogram::index(v));
    CHECK(lo <= v && v < lo + width);
    CHECK(static_cast<double>(width) <= 1.0 + static_cast<double>(v) / 128.0);
  }
  Histogram empty;
  CHECK(empty.quantile(0.5) == 0.0);

  // Exact range: 1..100 ns, one sample each.
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  CHECK(h.count() == 100);
  CHECK(near(h.quantile(0.5), 50.5, 1.0));
  CHECK(near(h.quantile(0.99), 99.5, 1.0));
  CHECK(h.quantile(0.0) >= 1.0 && h.quantile(0.0) < 2.0);

  // Log range: quantiles land within one bucket width (< 1%).
  Histogram g;
  for (std::uint64_t v = 1; v <= 100000; ++v) g.record(v * 10);
  CHECK(near(g.quantile(0.5), 500000, 500000 * 0.01));
  CHECK(near(g.quantile(0.99), 990000, 990000 * 0.01));

  // Merge adds counts.
  Histogram m;
  m.merge(h);
  m.merge(h);
  CHECK(m.count() == 200);
  CHECK(near(m.quantile(0.5), h.quantile(0.5), 1.0));
}

void test_median_and_groups() {
  using perfbench::group_slices;
  using perfbench::median;
  CHECK(median({}) == 0.0);
  CHECK(median({3, 1, 2}) == 2.0);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  using Groups = std::vector<std::pair<std::size_t, std::size_t>>;
  // Slices join until a group holds `need` samples.
  CHECK((group_slices({500, 600, 300, 900, 1200}, 1000) ==
         Groups{{0, 2}, {2, 4}, {4, 5}}));
  // A short tail joins the group before it.
  CHECK((group_slices({1000, 10}, 1000) == Groups{{0, 2}}));
  // Too few samples overall: one group of everything.
  CHECK((group_slices({10, 20}, 1000) == Groups{{0, 2}}));
  CHECK(group_slices({}, 1000).empty());
}

void test_self_times() {
  using perfbench::Span;
  using perfbench::self_times;
  // Root [0,100] with two overlapping children [10,40] and [30,60]: the
  // union covers 50, so the root's own time is 50.
  {
    std::vector<Span> s = {span(0, 100, Span::kNoParent), span(10, 40, 0),
                           span(30, 60, 0)};
    const auto self = self_times(s.data(), s.size());
    CHECK(self[0] == 50);
    CHECK(self[1] == 30);
    CHECK(self[2] == 30);
  }
  // A child nested inside another child, and disjoint children.
  {
    std::vector<Span> s = {span(0, 100, Span::kNoParent), span(10, 20, 0),
                           span(12, 18, 0), span(50, 70, 0)};
    const auto self = self_times(s.data(), s.size());
    CHECK(self[0] == 70);
  }
  // A child sticking out of its parent is clipped to the parent.
  {
    std::vector<Span> s = {span(0, 100, Span::kNoParent), span(90, 130, 0)};
    const auto self = self_times(s.data(), s.size());
    CHECK(self[0] == 90);
    CHECK(self[1] == 40);
  }
  // Grandchildren count against their own parent only.
  {
    std::vector<Span> s = {span(0, 100, Span::kNoParent), span(10, 60, 0),
                           span(20, 50, 1)};
    const auto self = self_times(s.data(), s.size());
    CHECK(self[0] == 50);
    CHECK(self[1] == 20);
    CHECK(self[2] == 30);
  }
  // Children touching end to start merge into one covered stretch.
  {
    std::vector<Span> s = {span(0, 10, Span::kNoParent), span(0, 5, 0),
                           span(5, 10, 0)};
    const auto self = self_times(s.data(), s.size());
    CHECK(self[0] == 0);
  }
}

}  // namespace

int main() {
  test_supported_quantile();
  test_histogram();
  test_median_and_groups();
  test_self_times();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench_unit: all checks passed\n");
  return EXIT_SUCCESS;
}
