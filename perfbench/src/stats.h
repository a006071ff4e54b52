// Measurement helpers for the perfbench harness: a log-linear latency
// histogram, the tail-percentile rule, and span self time. Kept free of
// any library include so the unit tests (unit_test.cc) exercise exactly
// the code the benchmark reports with.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// A tail percentile is reported only where at least this many samples lie
// beyond it; below that the estimate is a handful of outliers.
inline constexpr double kMinTailSamples = 10.0;

// The highest quantile <= `want` that leaves kMinTailSamples samples above
// it, never below the median: 0.99 from 1000 samples up, 0.98 at 500, the
// median at 20 or fewer.
inline double supported_quantile(std::uint64_t n, double want) {
  if (n == 0) return 0.5;
  const double q = 1.0 - kMinTailSamples / static_cast<double>(n);
  return std::clamp(q, 0.5, want);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Splits consecutive time slices into groups of at least `need` samples
// each, as [begin, end) index pairs; a short tail joins the group before
// it. Per-group estimates, reduced by their median, keep a burst of
// interference in one slice out of the reported value.
inline std::vector<std::pair<std::size_t, std::size_t>> group_slices(
    const std::vector<std::uint64_t>& counts, std::uint64_t need) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  std::size_t begin = 0;
  std::uint64_t have = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    have += counts[i];
    if (have >= need) {
      groups.emplace_back(begin, i + 1);
      begin = i + 1;
      have = 0;
    }
  }
  if (begin < counts.size()) {
    if (groups.empty()) {
      groups.emplace_back(0, counts.size());
    } else {
      groups.back().second = counts.size();
    }
  }
  return groups;
}

// Nanosecond latencies. Values below 2^kSubBits land in exact 1 ns
// buckets; above, each power-of-two range is split into 2^kSubBits
// buckets (< 0.8% wide). Quantiles interpolate linearly inside the bucket
// that holds the rank, so two runs that differ only inside a bucket still
// read differently.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kMaxBits = 44;  // clamp at ~4.9 hours
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  Histogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++n_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  std::uint64_t count() const { return n_; }

  // Value at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n_ - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (rank < static_cast<double>(below + c)) {
        const auto [lo, width] = bounds(i);
        const double within =
            (rank - static_cast<double>(below) + 0.5) / static_cast<double>(c);
        return static_cast<double>(lo) + within * static_cast<double>(width);
      }
      below += c;
    }
    const auto [lo, width] = bounds(kBuckets - 1);
    return static_cast<double>(lo + width);
  }

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = std::min(static_cast<int>(std::bit_width(v)) - 1, kMaxBits);
    if (e == kMaxBits) return kBuckets - 1;
    const int shift = e - kSubBits;
    return static_cast<std::size_t>(shift + 1) * kSub +
           static_cast<std::size_t>((v >> shift) - kSub);
  }

  // [lower bound, width) of bucket i.
  static std::pair<std::uint64_t, std::uint64_t> bounds(std::size_t i) {
    if (i < kSub) return {i, 1};
    const std::size_t shift = i / kSub - 1;
    const std::uint64_t sub = kSub + i % kSub;
    return {sub << shift, std::uint64_t{1} << shift};
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

// One timed interval. `parent` indexes the span array the span belongs to
// (kNoParent for a root); spans of one client operation share `op_id`.
// `items` carries a per-call count, e.g. the keys a scan visited.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::uint64_t op_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint16_t name = 0;
  std::uint32_t items = 0;
};

// Self time of every span in `spans`: its duration minus the length of
// the union of its direct children's intervals, each clipped to the span.
// Children may overlap each other or stick out of their parent.
inline std::vector<std::int64_t> self_times(const Span* spans,
                                            std::size_t n) {
  std::vector<std::int64_t> out(n);
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    kids.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (spans[j].parent != i) continue;
      const std::int64_t lo = std::max(spans[j].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[j].end_ns, s.end_ns);
      if (lo < hi) kids.emplace_back(lo, hi);
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

}  // namespace perfbench
