// Sampled client-side tracing for the perfbench harness. A traced client
// operation records a root span plus one child span per public library
// call it makes, into a buffer its thread preallocated; nothing is written
// until the run ends. Tracing inside the library is out of scope here: the
// spans bracket calls from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

enum SpanName : std::uint16_t {
  kOp,              // one client operation (root)
  kSetup,           // one build-and-load of the map (root)
  kLookup,          // SkipVectorMap::lookup
  kInsert,          // SkipVectorMap::insert
  kRemove,          // SkipVectorMap::remove
  kPayment,         // TpccLite::payment, to commit
  kNewOrder,        // TpccLite::new_order, to commit
  kSnapshotAt,      // SkipVectorMap::snapshot_at
  kRangeForEachAt,  // SkipVectorMap::range_for_each_at
  kBulkLoad,        // SkipVectorMap::bulk_load
  kLoad,            // TpccLite::load
  kSpanNameCount
};

inline const char* span_name(std::uint16_t n) {
  static constexpr const char* kNames[kSpanNameCount] = {
      "op",      "setup",     "lookup",      "insert",
      "remove",  "payment",   "new_order",   "snapshot_at",
      "range_for_each_at",    "bulk_load",   "load"};
  return n < kSpanNameCount ? kNames[n] : "?";
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One thread's span buffer. Capacity is fixed up front; an operation that
// would not fit is dropped whole and counted, so every kept operation has
// its complete span tree.
class TraceBuffer {
 public:
  static constexpr std::size_t kMaxSpansPerOp = 8;

  explicit TraceBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  // Opens a root span. False (and nothing recorded) when full.
  bool begin(std::uint64_t op_id, std::uint16_t name) {
    if (spans_.capacity() - spans_.size() < kMaxSpansPerOp) {
      ++dropped_ops_;
      return false;
    }
    root_ = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.op_id = op_id;
    s.name = name;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return true;
  }

  void child(std::uint16_t name, std::int64_t start_ns, std::int64_t end_ns,
             std::uint32_t items = 0) {
    Span s;
    s.op_id = spans_[root_].op_id;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.parent = root_;
    s.items = items;
    spans_.push_back(s);
  }

  void end() { spans_[root_].end_ns = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped_ops() const { return dropped_ops_; }

 private:
  std::vector<Span> spans_;
  std::uint32_t root_ = 0;
  std::uint64_t dropped_ops_ = 0;
};

// Writes every buffered span as CSV (times relative to `origin_ns`).
// Parent indices are rebased to the row number in the file.
inline bool write_spans_csv(const std::string& path,
                            const std::vector<const TraceBuffer*>& buffers,
                            std::int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "row,op_id,span,parent_row,start_ns,end_ns,items\n");
  std::uint64_t row = 0;
  for (const TraceBuffer* b : buffers) {
    const std::uint64_t base = row;
    for (const Span& s : b->spans()) {
      const long long parent =
          s.parent == Span::kNoParent ? -1
                                      : static_cast<long long>(base + s.parent);
      std::fprintf(f, "%llu,%llu,%s,%lld,%lld,%lld,%u\n",
                   static_cast<unsigned long long>(row),
                   static_cast<unsigned long long>(s.op_id),
                   span_name(s.name), parent,
                   static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.end_ns - origin_ns), s.items);
      ++row;
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
