// perfbench: the repository's end-to-end benchmark. Three in-process,
// closed-loop workloads drive the library's default map type
// (sv::core::SkipVector<u64, u64>, built with Config::for_elements) from
// kClients threads through its public API only:
//
//   point-large  90/5/5 lookup/insert/remove, uniform keys, 2^24 range,
//                2^23 keys bulk-loaded (several times L3)
//   point-hot    50/25/25, Zipf 0.99 keys, 2^16 range, 2^15 loaded (fits
//                in L2)
//   txn-scan     TPC-C-lite payment/new-order (90%) plus read-only
//                order-status queries over a pinned snapshot (10%)
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) sample 1-in-N client operations into per-thread span
// buffers and report the per-layer metrics. Every run checks the map's
// outputs against oracles; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is nonzero when any check failed.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scale full|tiny] [--git-sha SHA] [--trace-out PATH]
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "core/skip_vector.h"
#include "dbx/tpcc.h"
#include "stats.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Map = sv::core::SkipVector<std::uint64_t, std::uint64_t>;
using Tpcc = sv::dbx::tpcc::TpccLite<Map>;
using sv::stats::Counter;

constexpr unsigned kClients = 4;

// ---- Arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0|1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--scale") {
      if (v != "full" && v != "tiny") {
        throw std::invalid_argument("--scale is full|tiny");
      }
      a.tiny = v == "tiny";
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "required: --workload --seed --seconds --trace");
  }
  if (!(a.seconds > 0 && a.seconds <= 600)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

// ---- Input generation ------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A seeded bijection on [0, 2^bits): xor, odd multiplies and xorshifts all
// stay invertible modulo 2^bits. Used to pick the loaded key set and to
// scatter Zipf ranks so hot keys do not share a chunk by construction.
std::uint64_t permute(std::uint64_t x, unsigned bits, std::uint64_t seed) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const unsigned half = (bits + 1) / 2;
  x = (x ^ seed) & mask;
  x = (x * 0x9e3779b97f4a7c15ULL) & mask;
  x ^= x >> half;
  x = (x * 0xbf58476d1ce4e5b9ULL) & mask;
  x ^= x >> half;
  x = (x * 0x94d049bb133111ebULL) & mask;
  x ^= x >> half;
  return x;
}

// The value every writer stores for key k; lookups check it.
std::uint64_t value_of(std::uint64_t k) {
  return splitmix64(k ^ 0x5bd1e9955bd1e995ULL);
}

std::uint64_t thread_seed(std::uint64_t seed, unsigned tid) {
  return splitmix64(splitmix64(seed) + tid + 1);
}

// ---- Reporting -------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note) {
    std::printf("  %-36s %16.6f %-9s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    metrics_.push_back({name, value, unit});
  }

  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf(
        "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Samples a group needs so that p99 has kMinTailSamples beyond it.
constexpr std::uint64_t kTailGroupSamples = 1000;

// p50 and p99 of per-slice latency histograms, in microseconds: slices are
// grouped until each group supports p99 (group_slices), each group gives
// its own p50 and tail, and the reported value is the median over groups.
// With too few samples for p99 the tail falls back per supported_quantile.
void add_latency(Report& r, const std::string& stem,
                 const std::vector<Histogram>& slices, const char* what) {
  std::vector<std::uint64_t> counts;
  std::uint64_t n = 0;
  for (const auto& h : slices) {
    counts.push_back(h.count());
    n += h.count();
  }
  std::vector<double> p50, tail;
  double tail_q = 0.99;
  for (const auto& [b, e] : group_slices(counts, kTailGroupSamples)) {
    Histogram g;
    for (std::size_t i = b; i < e; ++i) g.merge(slices[i]);
    const double q = supported_quantile(g.count(), 0.99);
    tail_q = std::min(tail_q, q);
    p50.push_back(g.quantile(0.5) / 1000.0);
    tail.push_back(g.quantile(q) / 1000.0);
  }
  r.add(stem + "_p50_us", median(p50), "us",
        fmt("%s, n=%" PRIu64 ", median over %zu groups of slices", what, n,
            p50.size()));
  r.add(stem + "_p99_us", median(tail), "us",
        fmt("%s, n=%" PRIu64 ", p%.4g%s", what, n, tail_q * 100,
            tail_q < 0.99 ? " (too few samples for p99)" : ""));
}

// ---- Closed-loop harness ---------------------------------------------------

// Per-client state the client pool reads after the run. Owned by its
// thread while the run is live; `ops` is the only field read concurrently.
struct alignas(64) Client {
  std::atomic<std::uint64_t> ops{0};  // all completed ops, stored by owner
  std::uint64_t measured[2] = {0, 0};  // in the window: [untraced, traced]
  std::uint64_t failed = 0;            // oracle violations
  // Untraced latencies per measured time slice (see ClientPool).
  std::vector<Histogram> read;   // lookup() / order-status query
  std::vector<Histogram> write;  // insert()+remove() / txn to commit
  std::unique_ptr<TraceBuffer> trace;
};

enum Phase : int { kWarmup, kMeasure, kStop };

// How the client pool asks for one client operation: whether it falls in
// the measured window, whether to record its latency, and the span buffer
// of its sampled trace (null when untraced).
struct OpCtx {
  bool measuring;
  bool record;
  unsigned slice;  // index into Client::read / Client::write
  TraceBuffer* tb;
};

// What a workload hands the client pool: one client operation, and the
// count of structural events whose rate decides when warm-up has settled.
struct Workload {
  std::function<void(Client&, unsigned, const OpCtx&)> op;
  std::function<std::uint64_t()> structural_events;
};

// What ClientPool::run measured; runs over several fresh maps add up.
struct RunStats {
  double warmup_s = 0;
  unsigned warmup_windows = 0;
  unsigned warmups = 0;
  unsigned steady_warmups = 0;  // ended on a steady split/merge rate
  double window_s[2] = {0, 0};  // measured seconds: [untraced, traced]
  std::uint64_t window_ops[2] = {0, 0};
  sv::stats::Snapshot delta;  // registry counters over the windows
  std::vector<double> slice_ops_per_s;  // untraced runs: per time slice

  RunStats& operator+=(const RunStats& o) {
    warmup_s += o.warmup_s;
    warmup_windows += o.warmup_windows;
    warmups += o.warmups;
    steady_warmups += o.steady_warmups;
    for (int i = 0; i < 2; ++i) {
      window_s[i] += o.window_s[i];
      window_ops[i] += o.window_ops[i];
    }
    delta += o.delta;
    slice_ops_per_s.insert(slice_ops_per_s.end(), o.slice_ops_per_s.begin(),
                           o.slice_ops_per_s.end());
    return *this;
  }
};

// Runs kClients closed-loop client threads against one map: a warm-up,
// then a measured window cut into equal time slices. Untraced runs keep
// latencies and ops/s per slice, and the report takes medians over slices,
// so a burst of outside interference spoils one slice rather than the run.
class ClientPool {
 public:
  ClientPool(const Args& args, std::uint64_t sample_period,
             std::size_t slices)
      : args_(args), sample_period_(sample_period), clients_(kClients) {
    for (auto& c : clients_) {
      c.read.resize(slices);
      c.write.resize(slices);
    }
    if (args.trace) {
      // Sized so the sampled spans of a full run fit: at most
      // (window ops / sample period) * spans per op, across kClients.
      for (auto& c : clients_) {
        c.trace = std::make_unique<TraceBuffer>(std::size_t{1} << 17);
      }
    }
  }

  std::vector<Client>& clients() { return clients_; }
  std::uint64_t sample_period() const { return sample_period_; }

  // Warm-up, then `seconds` of measurement in `slices` slices whose
  // latencies land in Client::read/write[first_slice...].
  RunStats run(const Map& map, const Workload& w, double seconds,
               std::size_t slices, std::size_t first_slice) {
    RunStats rs;
    rs.warmups = 1;
    // Read before the clients start: they write these once measuring.
    const std::uint64_t measured0[2] = {measured(0), measured(1)};
    slice_.store(static_cast<unsigned>(first_slice));
    // Traced runs over several maps start on alternate modes, so a workload
    // that slows within a run does not favour the untraced slices.
    bool traced = first_slice % 2 == 1;
    traced_.store(traced);
    phase_.store(kWarmup);
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] { client_loop(w, t, ready); });
    }
    while (ready.load() < kClients) std::this_thread::yield();

    // Warm-up: windows until the structural event rate (splits + merges per
    // op) of two consecutive windows agrees, so bulk-loaded chunks have
    // reached their steady split/merge regime before anything is timed.
    const double win = args_.tiny ? 0.05 : 0.2;
    const double max_warm = args_.tiny ? 0.3 : 3.0;
    const std::int64_t warm0 = now_ns();
    std::uint64_t prev_ops = total_ops(), prev_ev = w.structural_events();
    double prev_rate = -1;
    for (;;) {
      sleep_s(win);
      const std::uint64_t ops = total_ops(), ev = w.structural_events();
      const double rate = ratio(1000.0 * static_cast<double>(ev - prev_ev),
                                static_cast<double>(ops - prev_ops));
      ++rs.warmup_windows;
      rs.warmup_s = static_cast<double>(now_ns() - warm0) * 1e-9;
      if (rs.warmup_windows >= 3 && prev_rate >= 0 &&
          std::fabs(rate - prev_rate) <=
              0.25 * std::max(rate, prev_rate) + 0.05) {
        rs.steady_warmups = 1;
        break;
      }
      if (rs.warmup_s >= max_warm) break;
      prev_rate = rate;
      prev_ops = ops;
      prev_ev = ev;
    }

    const sv::stats::Snapshot before = map.stats_registry().snapshot();
    const std::int64_t t0 = now_ns();
    phase_.store(kMeasure);
    if (args_.trace) {
      // Alternate untraced and traced windows so both tracing modes see
      // the same map state; their ops/s ratio is the tracing overhead.
      const double slice = args_.tiny ? 0.05 : 0.25;
      std::int64_t slice0 = t0;
      while (static_cast<double>(now_ns() - t0) * 1e-9 < seconds) {
        const double left =
            seconds - static_cast<double>(now_ns() - t0) * 1e-9;
        sleep_s(std::min(slice, left));
        const std::int64_t t = now_ns();
        rs.window_s[traced] += static_cast<double>(t - slice0) * 1e-9;
        slice0 = t;
        traced = !traced;
        traced_.store(traced, std::memory_order_relaxed);
      }
    } else {
      std::uint64_t last = total_ops();
      std::int64_t tl = t0;
      const double slice_s = seconds / static_cast<double>(slices);
      for (std::size_t i = 0; i < slices; ++i) {
        const double left =
            seconds - static_cast<double>(now_ns() - t0) * 1e-9;
        sleep_s(std::min(slice_s, left));
        if (i + 1 < slices) {
          slice_.store(static_cast<unsigned>(first_slice + i + 1));
        }
        const std::uint64_t n = total_ops();
        const std::int64_t t = now_ns();
        rs.slice_ops_per_s.push_back(static_cast<double>(n - last) /
                                     (static_cast<double>(t - tl) * 1e-9));
        last = n;
        tl = t;
      }
      rs.window_s[0] = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    phase_.store(kStop);
    for (auto& t : threads) t.join();
    rs.delta = map.stats_registry().snapshot() - before;
    for (int i = 0; i < 2; ++i) rs.window_ops[i] = measured(i) - measured0[i];
    return rs;
  }

  // Ops completed in measured windows so far: [untraced, traced].
  std::uint64_t measured(int traced) const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c.measured[traced];
    return n;
  }

  std::uint64_t total_ops() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c.ops.load(std::memory_order_relaxed);
    return n;
  }

 private:
  static void sleep_s(double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  }

  void client_loop(const Workload& w, unsigned tid,
                   std::atomic<unsigned>& ready) {
    Client& c = clients_[tid];
    ready.fetch_add(1);
    std::uint64_t n = c.ops.load(std::memory_order_relaxed);
    for (;;) {
      const int p = phase_.load(std::memory_order_relaxed);
      if (p == kStop) break;
      const bool measuring = p == kMeasure;
      const bool traced_window =
          args_.trace && measuring && traced_.load(std::memory_order_relaxed);
      TraceBuffer* tb = nullptr;
      if (traced_window && n % sample_period_ == 0 &&
          c.trace->begin((std::uint64_t{tid} << 48) | n, kOp)) {
        tb = c.trace.get();
      }
      w.op(c, tid,
           OpCtx{measuring, measuring && !args_.trace,
                 slice_.load(std::memory_order_relaxed), tb});
      if (tb != nullptr) tb->end();
      c.ops.store(++n, std::memory_order_relaxed);
      if (measuring) ++c.measured[traced_window];
    }
  }

  const Args& args_;
  const std::uint64_t sample_period_;
  std::vector<Client> clients_;
  std::atomic<int> phase_{kWarmup};
  std::atomic<bool> traced_{false};
  std::atomic<unsigned> slice_{0};
};

// ---- Span analysis ---------------------------------------------------------

struct SpanSummary {
  Histogram self_ns[kSpanNameCount];
  double total_self_ns[kSpanNameCount] = {};
  std::uint64_t items[kSpanNameCount] = {};
  std::uint64_t spans = 0;
  std::uint64_t ops = 0;
  std::uint64_t dropped_ops = 0;
};

SpanSummary summarize(const std::vector<const TraceBuffer*>& buffers) {
  SpanSummary s;
  std::vector<Span> op;
  auto flush = [&] {
    if (op.empty()) return;
    const auto self = self_times(op.data(), op.size());
    for (std::size_t i = 0; i < op.size(); ++i) {
      const auto name = op[i].name;
      s.self_ns[name].record(static_cast<std::uint64_t>(std::max<std::int64_t>(
          self[i], 0)));
      s.total_self_ns[name] += static_cast<double>(self[i]);
      s.items[name] += op[i].items;
    }
    s.spans += op.size();
    if (op[0].name == kOp) ++s.ops;
    op.clear();
  };
  for (const TraceBuffer* b : buffers) {
    s.dropped_ops += b->dropped_ops();
    std::uint32_t root = 0;
    const auto& spans = b->spans();
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      Span sp = spans[i];
      if (sp.parent == Span::kNoParent) {
        flush();
        root = i;
      } else {
        sp.parent -= root;  // rebase to the op's own span array
      }
      op.push_back(sp);
    }
    flush();
  }
  return s;
}

// ---- Run context -----------------------------------------------------------

long l3_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return v;
  std::FILE* f =
      std::fopen("/sys/devices/system/cpu/cpu0/cache/index3/size", "r");
  if (f == nullptr) return 0;
  long kib = 0;
  if (std::fscanf(f, "%ldK", &kib) != 1) kib = 0;
  std::fclose(f);
  return kib * 1024;
}

void print_context(const Args& a, const char* why) {
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"scale\": \"%s\", \"clients\": %u, "
      "\"nproc\": %u, \"l3_bytes\": %ld, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"stats_enabled\": %s}\n",
      a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
      a.tiny ? "tiny" : "full", kClients, std::thread::hardware_concurrency(),
      l3_bytes(), __VERSION__, PERFBENCH_BUILD_TYPE, a.git_sha.c_str(),
      sv::stats::kEnabled ? "true" : "false");
  std::printf("why %s\n", why);
}

// ---- Result assembly -------------------------------------------------------

// Everything a workload contributes to the final report.
struct Outcome {
  const Map* map = nullptr;
  RunStats rs;
  std::vector<double> setup_s;  // each build-and-load, seconds
  std::unique_ptr<TraceBuffer> setup_trace;  // traced runs: set-up spans
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;  // failed quiescent checks
  const char* read_what = "";
  const char* write_what = "";
  std::uint64_t queries = 0;    // order-status queries in the window
  std::uint64_t fallbacks = 0;  // ...whose view was unversioned
  std::uint64_t writes = 0;     // write calls in the window
};

// Times one build-and-load into o.setup_s: build() constructs, load()
// fills. Traced runs also record a kSetup root span with a `load_name`
// child around load().
template <class Build, class Load>
void timed_setup(Outcome& o, std::uint16_t load_name, Build&& build,
                 Load&& load) {
  TraceBuffer* tb = o.setup_trace.get();
  if (tb != nullptr) tb->begin(o.setup_s.size(), kSetup);
  const std::int64_t t0 = now_ns();
  build();
  const std::int64_t t1 = now_ns();
  load();
  const std::int64_t t2 = now_ns();
  if (tb != nullptr) {
    tb->child(load_name, t1, t2);
    tb->end();
  }
  o.setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
}

void report_end_to_end(Report& r, const Outcome& o,
                       const std::vector<Client>& clients) {
  std::vector<Histogram> read(clients[0].read.size());
  std::vector<Histogram> write(clients[0].write.size());
  for (const auto& c : clients) {
    for (std::size_t i = 0; i < read.size(); ++i) {
      read[i].merge(c.read[i]);
      write[i].merge(c.write[i]);
    }
  }
  const double ops = static_cast<double>(o.rs.window_ops[0]);
  r.add("ops_per_s", median(o.rs.slice_ops_per_s), "1/s",
        fmt("median over %zu slices; %.0f ops over %.3f s, %u closed-loop "
            "clients",
            o.rs.slice_ops_per_s.size(), ops, o.rs.window_s[0], kClients));
  add_latency(r, "read", read, o.read_what);
  add_latency(r, "write", write, o.write_what);
  const double live = static_cast<double>(o.map->allocator_stats().live_bytes);
  const double keys = static_cast<double>(o.map->size_approx());
  r.add("bytes_per_key", ratio(live, keys), "B/key",
        fmt("allocator live_bytes=%.0f / size_approx=%.0f, quiescent", live,
            keys));
  r.add("setup_s", median(o.setup_s), "s",
        fmt("median of %zu build-and-load runs", o.setup_s.size()));
}

void report_per_layer(Report& r, const Outcome& o, const SpanSummary& s) {
  const auto& d = o.rs.delta;
  const auto c = [&](Counter k) { return static_cast<double>(d[k]); };
  const double ops =
      static_cast<double>(o.rs.window_ops[0] + o.rs.window_ops[1]);
  const double kops = ops / 1000.0;
  const auto per_kop = [&](double n) { return ratio(n, kops); };
  const auto span_q = [&](std::uint16_t name, double q) {
    return s.self_ns[name].quantile(
        supported_quantile(s.self_ns[name].count(), q));
  };
  const auto span_n = [&](std::uint16_t name) {
    return s.self_ns[name].count();
  };
  const auto span_note = [&](const char* what, std::uint16_t name) {
    return fmt("%s span self time, n=%" PRIu64, what, span_n(name));
  };
  Histogram writes_ns;
  writes_ns.merge(s.self_ns[kInsert]);
  writes_ns.merge(s.self_ns[kRemove]);
  const double wq = supported_quantile(writes_ns.count(), 0.99);
  const auto end = o.map->stats_registry().snapshot();
  const auto shape = o.map->stats();
  const double keys = static_cast<double>(o.map->size_approx());

  r.add("core.ops", ops, "count", "client ops in the window (kop base)");
  r.add("core.lookup_ns.p50", span_q(kLookup, 0.5), "ns",
        span_note("lookup()", kLookup));
  r.add("core.lookup_ns.p99", span_q(kLookup, 0.99), "ns",
        span_note("lookup()", kLookup));
  r.add("core.write_ns.p50", writes_ns.quantile(0.5), "ns",
        fmt("insert()+remove() span self time, n=%" PRIu64,
            writes_ns.count()));
  r.add("core.write_ns.p99", writes_ns.quantile(wq), "ns",
        fmt("insert()+remove() span self time, n=%" PRIu64 ", p%.4g",
            writes_ns.count(), wq * 100));
  r.add("core.restarts_per_kop", per_kop(c(Counter::kOpRestarts)), "1/kop",
        fmt("op_restarts=%.0f", c(Counter::kOpRestarts)));
  const double splits = c(Counter::kCapacitySplits) + c(Counter::kTowerSplits);
  const double merges = c(Counter::kOrphanMerges) + c(Counter::kStealAbove);
  r.add("core.splits_per_kop", per_kop(splits), "1/kop",
        fmt("capacity_splits+tower_splits=%.0f", splits));
  r.add("core.merges_per_kop", per_kop(merges), "1/kop",
        fmt("orphan_merges+steal_above=%.0f", merges));
  const double lookups = c(Counter::kLookupHit) + c(Counter::kLookupMiss);
  r.add("core.lookups", lookups, "count", "lookup_hit+lookup_miss");
  r.add("core.lookup_hit_ratio", ratio(c(Counter::kLookupHit), lookups),
        "ratio", fmt("lookup_hit=%.0f of %.0f", c(Counter::kLookupHit),
                     lookups));
  r.add("core.hash_hit_ratio", ratio(c(Counter::kHashHits), lookups), "ratio",
        fmt("hash_hits=%.0f of %.0f lookups", c(Counter::kHashHits), lookups));
  r.add("core.bulk_load_s", span_q(kBulkLoad, 0.5) * 1e-9, "s",
        span_note("bulk_load() at set-up, median", kBulkLoad));

  const double shifted = c(Counter::kChunkShiftedSlots);
  r.add("vectormap.writes", static_cast<double>(o.writes), "count",
        "write calls in the window (insert/remove or committed txns)");
  r.add("vectormap.shifted_slots_per_write",
        ratio(shifted, static_cast<double>(o.writes)), "slots",
        fmt("chunk_shifted_slots=%.0f", shifted));
  const double searches =
      c(Counter::kSimdSearches) + c(Counter::kScalarFallbacks);
  r.add("vectormap.searches", searches, "count",
        "simd_searches+scalar_fallbacks");
  r.add("vectormap.simd_search_ratio",
        ratio(c(Counter::kSimdSearches), searches), "ratio",
        fmt("simd_searches=%.0f of %.0f", c(Counter::kSimdSearches),
            searches));
  r.add("vectormap.data_fill", shape.layers[0].avg_fill, "ratio",
        fmt("quiescent data-layer fill over %zu chunks",
            shape.layers[0].nodes));

  r.add("sync.read_retries_per_kop",
        per_kop(c(Counter::kSeqlockReadRetries)), "1/kop",
        fmt("seqlock_read_retries=%.0f", c(Counter::kSeqlockReadRetries)));
  r.add("sync.acquire_retries_per_kop",
        per_kop(c(Counter::kSeqlockAcquireRetries)), "1/kop",
        fmt("seqlock_acquire_retries=%.0f",
            c(Counter::kSeqlockAcquireRetries)));
  r.add("sync.freezes_per_kop", per_kop(c(Counter::kFreezes)), "1/kop",
        fmt("freezes=%.0f", c(Counter::kFreezes)));

  r.add("reclaim.retired_per_kop", per_kop(c(Counter::kRetired)), "1/kop",
        fmt("retired=%.0f", c(Counter::kRetired)));
  r.add("reclaim.hp_scans_per_kop", per_kop(c(Counter::kHpScanPasses)),
        "1/kop", fmt("hp_scan_passes=%.0f", c(Counter::kHpScanPasses)));
  const double backlog = static_cast<double>(end[Counter::kRetired]) -
                         static_cast<double>(end[Counter::kReclaimed]);
  r.add("reclaim.backlog", backlog, "count",
        "retired - reclaimed since construction, at the end");

  r.add("alloc.linked_bytes_per_key",
        ratio(static_cast<double>(shape.bytes), keys), "B/key",
        fmt("stats().bytes=%zu / size_approx=%.0f", shape.bytes, keys));

  r.add("mvcc.queries", static_cast<double>(o.queries), "count",
        "order-status queries in the window");
  r.add("mvcc.pin_ns.p50", span_q(kSnapshotAt, 0.5), "ns",
        span_note("snapshot_at()", kSnapshotAt));
  r.add("mvcc.scanned_keys", static_cast<double>(s.items[kRangeForEachAt]),
        "count", "keys visited by traced range_for_each_at()");
  r.add("mvcc.scan_ns_per_key",
        ratio(s.total_self_ns[kRangeForEachAt],
              static_cast<double>(s.items[kRangeForEachAt])),
        "ns/key",
        fmt("range_for_each_at() self time over %" PRIu64 " calls",
            span_n(kRangeForEachAt)));
  const double chunks =
      c(Counter::kSnapshotChunksLive) + c(Counter::kSnapshotChunksChain);
  r.add("mvcc.chunks", chunks, "count",
        "snapshot_chunks_live+snapshot_chunks_chain");
  r.add("mvcc.chain_chunk_ratio",
        ratio(c(Counter::kSnapshotChunksChain), chunks), "ratio",
        fmt("snapshot_chunks_chain=%.0f of %.0f",
            c(Counter::kSnapshotChunksChain), chunks));
  r.add("mvcc.scans", c(Counter::kSnapshotScans), "count", "snapshot_scans");
  r.add("mvcc.chunk_retries_per_scan",
        ratio(c(Counter::kSnapshotChunkRetries), c(Counter::kSnapshotScans)),
        "1/scan",
        fmt("snapshot_chunk_retries=%.0f",
            c(Counter::kSnapshotChunkRetries)));
  r.add("mvcc.fallback_ratio",
        ratio(static_cast<double>(o.fallbacks),
              static_cast<double>(o.queries)),
        "ratio", fmt("unversioned views=%" PRIu64, o.fallbacks));
  r.add("mvcc.scan_restarts",
        static_cast<double>(end[Counter::kSnapshotScanRestarts]), "count",
        "snapshot_scan_restarts since construction (must be 0)");
  const double commits = c(Counter::kTxnCommits);
  r.add("mvcc.version_records_per_commit",
        ratio(c(Counter::kVersionRecords), commits), "1/commit",
        fmt("version_records=%.0f", c(Counter::kVersionRecords)));
  r.add("mvcc.version_backlog",
        static_cast<double>(end[Counter::kVersionRecords]) -
            static_cast<double>(end[Counter::kVersionRecordsFreed]),
        "count", "version_records - version_records_freed, at the end");

  const double attempts = commits + c(Counter::kTxnAborts);
  r.add("txn.commits", commits, "count", "txn_commits");
  r.add("txn.attempts_per_commit", ratio(attempts, commits), "ratio",
        fmt("txn_commits+txn_aborts=%.0f", attempts));
  r.add("txn.lock_fail_ratio", ratio(c(Counter::kTxnLockFail), attempts),
        "ratio", fmt("txn_lock_fail=%.0f", c(Counter::kTxnLockFail)));

  r.add("dbx.payment_ns.p50", span_q(kPayment, 0.5), "ns",
        span_note("payment()", kPayment));
  r.add("dbx.payment_ns.p99", span_q(kPayment, 0.99), "ns",
        span_note("payment()", kPayment));
  r.add("dbx.new_order_ns.p50", span_q(kNewOrder, 0.5), "ns",
        span_note("new_order()", kNewOrder));
  r.add("dbx.new_order_ns.p99", span_q(kNewOrder, 0.99), "ns",
        span_note("new_order()", kNewOrder));
  r.add("dbx.load_s", span_q(kLoad, 0.5) * 1e-9, "s",
        span_note("TpccLite::load() at set-up, median", kLoad));

  r.add("client.self_ns.p50", span_q(kOp, 0.5), "ns",
        span_note("client op (input generation + oracle)", kOp));
  r.add("trace.sampled_ops", static_cast<double>(s.ops), "count",
        fmt("%" PRIu64 " spans", s.spans));
  r.add("trace.dropped_ops", static_cast<double>(s.dropped_ops), "count",
        "sampled ops that did not fit the span buffers");
  const double untraced = ratio(static_cast<double>(o.rs.window_ops[0]),
                                o.rs.window_s[0]);
  const double traced = ratio(static_cast<double>(o.rs.window_ops[1]),
                              o.rs.window_s[1]);
  r.add("trace.untraced_ops_per_s", untraced, "1/s",
        fmt("%" PRIu64 " ops over %.3f s", o.rs.window_ops[0],
            o.rs.window_s[0]));
  r.add("trace.traced_ops_per_s", traced, "1/s",
        fmt("%" PRIu64 " ops over %.3f s", o.rs.window_ops[1],
            o.rs.window_s[1]));
  r.add("trace.overhead_pct", 100.0 * (1.0 - ratio(traced, untraced)), "%",
        "1 - traced/untraced ops_per_s");
}

// ---- Point workloads -------------------------------------------------------

// Splits and merges so far: the rate warm-up waits to settle.
std::uint64_t structural_events(const Map& m) {
  const auto s = m.stats_registry().snapshot();
  return s[Counter::kCapacitySplits] + s[Counter::kTowerSplits] +
         s[Counter::kOrphanMerges] + s[Counter::kStealAbove];
}

struct PointSpec {
  unsigned range_bits;
  unsigned loaded_bits;
  double zipf_theta;  // 0 = uniform
  unsigned lookup_pct;
  unsigned insert_pct;  // remove gets the rest
  unsigned setups;
};

// Point workloads are stationary: one map, up to ten equal slices.
std::size_t point_slices(const Args& a) {
  return static_cast<std::size_t>(std::clamp(std::floor(a.seconds), 1.0, 10.0));
}

struct alignas(64) PointClient {
  sv::Xoshiro256 rng;
  std::unique_ptr<sv::ZipfGenerator> zipf;
  std::uint64_t inserted = 0, removed = 0, writes_measured = 0;
};

Outcome run_point(const Args& a, const PointSpec& spec, ClientPool& pool,
                  std::unique_ptr<Map>& map) {
  Outcome o;
  o.read_what = "lookup()";
  o.write_what = "insert()+remove()";
  const std::uint64_t range = std::uint64_t{1} << spec.range_bits;
  const std::uint64_t loaded = std::uint64_t{1} << spec.loaded_bits;
  const std::uint64_t load_seed = splitmix64(a.seed ^ 0x10ad);
  const std::uint64_t key_seed = splitmix64(a.seed ^ 0x4e75);

  // The loaded set: the images of [0, loaded) under a seeded permutation of
  // the key range, gathered in ascending order through a bitmap.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted;
  {
    std::vector<bool> present(range, false);
    for (std::uint64_t i = 0; i < loaded; ++i) {
      present[permute(i, spec.range_bits, load_seed)] = true;
    }
    sorted.reserve(loaded);
    for (std::uint64_t k = 0; k < range; ++k) {
      if (present[k]) sorted.emplace_back(k, value_of(k));
    }
  }

  if (a.trace) {
    o.setup_trace = std::make_unique<TraceBuffer>(
        spec.setups * TraceBuffer::kMaxSpansPerOp);
  }
  for (unsigned i = 0; i < spec.setups; ++i) {
    map.reset();
    timed_setup(
        o, kBulkLoad,
        [&] {
          map = std::make_unique<Map>(sv::core::Config::for_elements(loaded));
        },
        [&] { map->bulk_load(sorted); });
  }
  std::printf("setup %u x (construct + bulk_load of %zu keys), range 2^%u\n",
              spec.setups, sorted.size(), spec.range_bits);
  sorted.clear();
  sorted.shrink_to_fit();

  std::vector<PointClient> pcs(kClients);
  for (unsigned t = 0; t < kClients; ++t) {
    const std::uint64_t ts = thread_seed(a.seed, t);
    pcs[t].rng = sv::Xoshiro256(ts);
    if (spec.zipf_theta > 0) {
      pcs[t].zipf =
          std::make_unique<sv::ZipfGenerator>(range, spec.zipf_theta, ts ^ 1);
    }
  }

  Map& m = *map;
  Workload w;
  w.structural_events = [&m] { return structural_events(m); };
  w.op = [&](Client& c, unsigned tid, const OpCtx& x) {
    PointClient& pc = pcs[tid];
    TraceBuffer* tb = x.tb;
    const std::uint64_t dice = pc.rng.next_below(100);
    const std::uint64_t k =
        pc.zipf ? permute(pc.zipf->next(), spec.range_bits, key_seed)
                : pc.rng.next_below(range);
    if (dice < spec.lookup_pct) {
      const std::int64_t t0 = now_ns();
      const std::optional<std::uint64_t> v = m.lookup(k);
      const std::int64_t t1 = now_ns();
      if (tb) tb->child(kLookup, t0, t1);
      if (x.record) c.read[x.slice].record(static_cast<std::uint64_t>(t1 - t0));
      if (v && *v != value_of(k)) ++c.failed;
      return;
    }
    const bool ins = dice < spec.lookup_pct + spec.insert_pct;
    const std::int64_t t0 = now_ns();
    const bool ok = ins ? m.insert(k, value_of(k)) : m.remove(k);
    const std::int64_t t1 = now_ns();
    if (tb) tb->child(ins ? kInsert : kRemove, t0, t1);
    if (x.record) c.write[x.slice].record(static_cast<std::uint64_t>(t1 - t0));
    if (ok) ++(ins ? pc.inserted : pc.removed);
    if (x.measuring) ++pc.writes_measured;
  };

  o.rs = pool.run(m, w, a.seconds, point_slices(a), 0);
  o.map = &m;

  // Quiescent oracles: structure, and the exact element count.
  std::uint64_t ins = 0, rem = 0;
  for (const auto& pc : pcs) {
    ins += pc.inserted;
    rem += pc.removed;
    o.writes += pc.writes_measured;
  }
  std::string err;
  if (!m.validate(&err)) o.failures.push_back("validate(): " + err);
  const std::uint64_t expect = loaded + ins - rem;
  if (m.size_approx() != expect) {
    o.failures.push_back(fmt("size_approx()=%zu, expected loaded %" PRIu64
                             " + inserted %" PRIu64 " - removed %" PRIu64,
                             m.size_approx(), loaded, ins, rem));
  }
  o.attempted = pool.total_ops() + 2;  // ops plus the two quiescent checks
  return o;
}

// ---- TPC-C-lite with order-status queries ----------------------------------

constexpr unsigned kQueryPct = 10;
constexpr std::uint32_t kQueryOrders = 20;
// Expected map size for Config::for_elements: the 8020 loaded rows plus
// the ~30k order and order-line rows one epoch appends.
constexpr std::uint64_t kTxnExpectedKeys = std::uint64_t{1} << 16;

struct alignas(64) TxnClient {
  explicit TxnClient(const sv::dbx::tpcc::TpccConfig& cfg, std::uint64_t seed)
      : rnd(cfg, seed),
        rng(splitmix64(seed ^ 0x5ca9)),
        new_orders(cfg.warehouses * cfg.districts_per_warehouse, 0) {}
  sv::dbx::tpcc::TpccRandom rnd;
  sv::Xoshiro256 rng;
  sv::dbx::tpcc::TpccStats st;
  std::uint64_t queries = 0, fallbacks = 0, txns = 0;
  std::vector<std::uint64_t> new_orders;  // committed, per district
};

// Quiescent audit of the two TpccLite invariants check_invariants() states
// -- balance conservation, and per-district order ids gap-free from the
// initial id up to next_oid with exactly each order's line count of lines
// -- computed from ordered range scans, so its cost is linear in the map
// size. check_invariants() probes every order with lookup(), and on a map
// whose order regions have no index entries each probe walks the region;
// after a full-length run that took minutes.
bool audit_tpcc(Map& m, const sv::dbx::tpcc::TpccConfig& cfg,
                const std::vector<std::uint64_t>& committed,
                std::string* err) {
  using namespace sv::dbx::tpcc;
  const auto scan = [&m](Table t, auto&& fn) {
    m.range_for_each(make_key(t, 0, 0, 0),
                     make_key(t, 0xffff, 0xff, 0xffffffffu),
                     [&](std::uint64_t k, std::uint64_t v) {
                       fn(split_key(k), v);
                     });
  };
  const std::uint64_t customers = std::uint64_t{cfg.warehouses} *
                                  cfg.districts_per_warehouse *
                                  cfg.customers_per_district;
  std::uint64_t sum = 0;
  for (Table t : {Table::kWarehouseYtd, Table::kDistrictYtd,
                  Table::kCustomerBalance}) {
    scan(t, [&](const KeyParts&, std::uint64_t v) { sum += v; });
  }
  if (sum != customers * cfg.initial_balance) {
    *err = fmt("balance sum %" PRIu64 " != initial %" PRIu64, sum,
               customers * cfg.initial_balance);
    return false;
  }
  const std::uint32_t dpw = cfg.districts_per_warehouse;
  const std::size_t districts = std::size_t{cfg.warehouses} * dpw;
  std::vector<std::uint64_t> next(districts, 0);
  scan(Table::kDistrictNextOid, [&](const KeyParts& p, std::uint64_t v) {
    next[p.warehouse * dpw + p.district] = v;
  });
  // Line counts of each district's orders, in oid order; a gap or a
  // duplicate shows as an oid that is not the next expected one.
  std::vector<std::vector<std::uint32_t>> lines(districts);
  bool ok = true;
  scan(Table::kOrder, [&](const KeyParts& p, std::uint64_t v) {
    auto& l = lines[p.warehouse * dpw + p.district];
    if (p.slot != cfg.initial_next_oid + l.size()) ok = false;
    l.push_back(static_cast<std::uint32_t>(v));
  });
  if (!ok) {
    *err = "order ids are not gap-free";
    return false;
  }
  std::vector<std::vector<std::uint32_t>> seen(districts);
  for (std::size_t i = 0; i < districts; ++i) seen[i].resize(lines[i].size());
  scan(Table::kOrderLine, [&](const KeyParts& p, std::uint64_t) {
    const std::size_t dist = p.warehouse * dpw + p.district;
    const std::uint64_t i = (p.slot >> 8) - cfg.initial_next_oid;
    if (i >= seen[dist].size() || (p.slot & 0xff) >= lines[dist][i]) {
      ok = false;
      return;
    }
    ++seen[dist][i];
  });
  for (std::size_t dist = 0; dist < districts && ok; ++dist) {
    if (next[dist] != cfg.initial_next_oid + committed[dist] ||
        lines[dist].size() != committed[dist] || seen[dist] != lines[dist]) {
      *err = fmt("district %zu: next_oid %" PRIu64 ", %zu orders, %" PRIu64
                 " committed, or lines missing",
                 dist, next[dist], lines[dist].size(), committed[dist]);
      return false;
    }
  }
  if (!ok) *err = "order line outside its order";
  return ok;
}

// txn-scan runs kTxnEpochs back-to-back epochs, each on a freshly built
// and loaded database, and reports medians over epochs (one slice each).
// The order tables only grow and every operation slows as they do, so a
// single long run never settles; repeating the same trajectory does.
constexpr unsigned kTxnEpochs = 10;
constexpr unsigned kTxnSetupsPerEpoch = 3;

unsigned txn_epochs(const Args& a) { return a.tiny ? 1 : kTxnEpochs; }

// One epoch of txn-scan on a freshly loaded database, then its quiescent
// checks; failures and counts accumulate into `o`.
void run_txn_epoch(const Args& a, const sv::dbx::tpcc::TpccConfig& cfg,
                   ClientPool& pool, unsigned epoch, unsigned epochs, Map& m,
                   Tpcc& d, Outcome& o) {
  using namespace sv::dbx::tpcc;
  std::vector<std::unique_ptr<TxnClient>> tcs;
  for (unsigned t = 0; t < kClients; ++t) {
    tcs.push_back(std::make_unique<TxnClient>(
        cfg, thread_seed(splitmix64(a.seed) + epoch, t)));
  }
  Workload w;
  w.structural_events = [&m] { return structural_events(m); };
  w.op = [&](Client& c, unsigned tid, const OpCtx& x) {
    TxnClient& tc = *tcs[tid];
    TraceBuffer* tb = x.tb;
    if (tc.rng.next_below(100) >= kQueryPct) {
      // The same draws, in the same order, as TpccLite::run_one, with the
      // two transaction types called directly so each gets its own span.
      const std::uint32_t wh = tc.rnd.warehouse();
      const std::uint32_t di = tc.rnd.district();
      std::int64_t t0, t1;
      std::uint16_t name;
      if (tc.rnd.is_payment()) {
        const std::uint32_t cu = tc.rnd.customer();
        const std::uint64_t amount = tc.rnd.amount();
        t0 = now_ns();
        d.payment(wh, di, cu, amount, &tc.st);
        t1 = now_ns();
        name = kPayment;
      } else {
        std::uint32_t items[64];
        std::uint32_t qtys[64];
        const std::uint32_t n = tc.rnd.order_lines();
        for (std::uint32_t j = 0; j < n; ++j) {
          items[j] = tc.rnd.item();
          qtys[j] = 1 + (j % 10);
        }
        t0 = now_ns();
        d.new_order(wh, di, items, qtys, n, &tc.st);
        t1 = now_ns();
        name = kNewOrder;
        ++tc.new_orders[wh * cfg.districts_per_warehouse + di];
      }
      if (tb) tb->child(name, t0, t1);
      if (x.record) {
        c.write[x.slice].record(static_cast<std::uint64_t>(t1 - t0));
      }
      if (x.measuring) ++tc.txns;
      return;
    }

    // Order-status: one district's next order id and its last
    // kQueryOrders orders with their lines, all read in one pinned view.
    const auto wh =
        static_cast<std::uint32_t>(tc.rng.next_below(cfg.warehouses));
    const auto di = static_cast<std::uint32_t>(
        tc.rng.next_below(cfg.districts_per_warehouse));
    const std::int64_t t0 = now_ns();
    Map::SnapshotView view = m.snapshot_at();
    const std::int64_t t1 = now_ns();
    if (tb) tb->child(kSnapshotAt, t0, t1);
    if (!view.versioned()) ++tc.fallbacks;
    std::uint64_t next = 0;
    unsigned found = 0;
    const std::uint64_t dk = make_key(Table::kDistrictNextOid, wh, di, 0);
    std::int64_t s0 = now_ns();
    m.range_for_each_at(view, dk, dk, [&](std::uint64_t, std::uint64_t v) {
      next = v;
      ++found;
    });
    std::int64_t s1 = now_ns();
    if (tb) tb->child(kRangeForEachAt, s0, s1, found);
    const std::uint64_t first = cfg.initial_next_oid;
    const std::uint64_t lo =
        next > first + kQueryOrders ? next - kQueryOrders : first;
    std::uint32_t order_lines[kQueryOrders] = {};
    std::uint32_t seen_lines[kQueryOrders] = {};
    bool have_order[kQueryOrders] = {};
    bool bad = found != 1;
    if (!bad && next > lo) {
      const auto o_lo = static_cast<std::uint32_t>(lo);
      const auto o_hi = static_cast<std::uint32_t>(next - 1);
      s0 = now_ns();
      const std::size_t n_orders = m.range_for_each_at(
          view, make_key(Table::kOrder, wh, di, o_lo),
          make_key(Table::kOrder, wh, di, o_hi),
          [&](std::uint64_t k, std::uint64_t v) {
            const std::uint64_t i = split_key(k).slot - lo;
            order_lines[i] = static_cast<std::uint32_t>(v);
            have_order[i] = true;
          });
      s1 = now_ns();
      if (tb) {
        tb->child(kRangeForEachAt, s0, s1,
                  static_cast<std::uint32_t>(n_orders));
      }
      s0 = now_ns();
      const std::size_t n_lines = m.range_for_each_at(
          view, make_key(Table::kOrderLine, wh, di, order_line_slot(o_lo, 0)),
          make_key(Table::kOrderLine, wh, di, order_line_slot(o_hi, 0xff)),
          [&](std::uint64_t k, std::uint64_t v) {
            const std::uint32_t slot = split_key(k).slot;
            const std::uint64_t i = (slot >> 8) - lo;
            if ((slot & 0xff) >= order_lines[i] || (v & 0xffffffffu) == 0) {
              bad = true;
            }
            ++seen_lines[i];
          });
      s1 = now_ns();
      if (tb) {
        tb->child(kRangeForEachAt, s0, s1,
                  static_cast<std::uint32_t>(n_lines));
      }
      for (std::uint64_t i = 0; i < next - lo; ++i) {
        if (!have_order[i] || seen_lines[i] != order_lines[i]) bad = true;
      }
    }
    if (x.record) c.read[x.slice].record(static_cast<std::uint64_t>(s1 - t0));
    if (bad) ++c.failed;
    if (x.measuring) ++tc.queries;
  };

  o.rs += pool.run(m, w, a.seconds / epochs, 1, epoch);

  for (const auto& tc : tcs) {
    o.queries += tc->queries;
    o.fallbacks += tc->fallbacks;
    o.writes += tc->txns;
  }
  std::vector<std::uint64_t> committed(tcs[0]->new_orders.size(), 0);
  for (const auto& tc : tcs) {
    for (std::size_t i = 0; i < committed.size(); ++i) {
      committed[i] += tc->new_orders[i];
    }
  }
  const std::string at = fmt("epoch %u: ", epoch);
  std::string err;
  if (!audit_tpcc(m, cfg, committed, &err)) {
    o.failures.push_back(at + "TPC-C audit: " + err);
  }
  // check_invariants() costs a lookup() per order and line (see
  // audit_tpcc); it runs where the map is small enough for that.
  if (a.tiny && !d.check_invariants(&err)) {
    o.failures.push_back(at + "check_invariants(): " + err);
  }
  if (!m.validate(&err)) o.failures.push_back(at + "validate(): " + err);
  const std::uint64_t restarts =
      m.stats_registry().snapshot()[Counter::kSnapshotScanRestarts];
  if (restarts != 0) {
    o.failures.push_back(at + fmt("snapshot_scan_restarts=%" PRIu64, restarts));
  }
  o.attempted += a.tiny ? 4 : 3;  // the quiescent checks
}

Outcome run_txn_scan(const Args& a, ClientPool& pool,
                     std::unique_ptr<Map>& map, std::unique_ptr<Tpcc>& db) {
  using namespace sv::dbx::tpcc;
  Outcome o;
  o.read_what = "order-status query: snapshot_at() + range_for_each_at()";
  o.write_what = "payment()/new_order() to commit, retries included";
  const TpccConfig cfg;
  const unsigned epochs = txn_epochs(a);
  if (a.trace) {
    o.setup_trace = std::make_unique<TraceBuffer>(
        epochs * kTxnSetupsPerEpoch * TraceBuffer::kMaxSpansPerOp);
  }
  for (unsigned e = 0; e < epochs; ++e) {
    for (unsigned i = 0; i < kTxnSetupsPerEpoch; ++i) {
      db.reset();
      map.reset();
      timed_setup(
          o, kLoad,
          [&] {
            map = std::make_unique<Map>(
                sv::core::Config::for_elements(kTxnExpectedKeys));
            db = std::make_unique<Tpcc>(cfg, *map);
          },
          [&] { db->load(); });
    }
    if (e == 0) {
      std::printf("setup %u x (construct + TpccLite::load of %zu rows), "
                  "%u warehouses, in each of %u epochs\n",
                  kTxnSetupsPerEpoch, map->size_approx(), cfg.warehouses,
                  epochs);
    }
    run_txn_epoch(a, cfg, pool, e, epochs, *map, *db, o);
  }
  o.map = map.get();
  o.attempted += pool.total_ops();
  return o;
}

struct WorkloadInfo {
  const char* name;
  const char* why;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"point-large",
     "every op is a descent that misses cache, so descent, chunk search and "
     "locality changes show here; writes are rare"},
    {"point-hot",
     "writes on a hot L2-resident map: seqlock contention, splits/merges, "
     "slot shifting and reclamation dominate, descent misses vanish"},
    {"txn-scan",
     "the only workload through src/txn and core/mvcc.h: NO_WAIT multi-key "
     "commits and snapshot scans over adjacent keys"},
};

int run(const Args& a) {
  const std::int64_t origin_ns = now_ns();
  const WorkloadInfo* info = nullptr;
  for (const auto& w : kWorkloads) {
    if (a.workload == w.name) info = &w;
  }
  if (info == nullptr) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0);
  print_context(a, info->why);

  std::unique_ptr<Map> map;
  std::unique_ptr<Tpcc> db;
  Outcome o;
  std::unique_ptr<ClientPool> pool;
  if (a.workload == "txn-scan") {
    pool = std::make_unique<ClientPool>(a, 16, txn_epochs(a));
    o = run_txn_scan(a, *pool, map, db);
  } else {
    const bool large = a.workload == "point-large";
    PointSpec spec = large ? PointSpec{24, 23, 0.0, 90, 5, 5}
                           : PointSpec{16, 15, 0.99, 50, 25, 101};
    if (a.tiny) {
      spec.range_bits = large ? 14 : 10;
      spec.loaded_bits = spec.range_bits - 1;
      spec.setups = 3;
    }
    pool =
        std::make_unique<ClientPool>(a, large ? 64 : 256, point_slices(a));
    o = run_point(a, spec, *pool, map);
  }
  const RunStats& rs = o.rs;
  if (!rs.slice_ops_per_s.empty()) {
    std::printf("ops_per_s by slice:");
    for (double v : rs.slice_ops_per_s) std::printf(" %.0f", v);
    std::printf("\n");
  }
  std::printf("warmup %.3f s over %u windows in %u warm-up(s), %u ended on "
              "a steady split/merge rate, the rest at the time cap\n",
              rs.warmup_s, rs.warmup_windows, rs.warmups, rs.steady_warmups);

  // Each operation the oracle rejects counts once, and so does each failed
  // quiescent check (validate, size, invariants).
  std::uint64_t failed = o.failures.size();
  for (const auto& c : pool->clients()) failed += c.failed;
  if (failed > o.failures.size()) {
    std::printf("FAILED %" PRIu64 " operations returned values the oracle "
                "rejects\n",
                failed - o.failures.size());
  }
  for (const auto& f : o.failures) std::printf("FAILED %s\n", f.c_str());

  Report r;
  if (a.trace) {
    std::vector<const TraceBuffer*> bufs;
    for (const auto& c : pool->clients()) bufs.push_back(c.trace.get());
    bufs.push_back(o.setup_trace.get());
    const SpanSummary s = summarize(bufs);
    std::printf("per-layer metrics (traced run, 1 in %" PRIu64
                " client ops sampled):\n",
                pool->sample_period());
    report_per_layer(r, o, s);
    if (!a.trace_out.empty()) {
      if (!write_spans_csv(a.trace_out, bufs, origin_ns)) {
        std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
        return 2;
      }
      std::printf("spans written to %s\n", a.trace_out.c_str());
    }
  } else {
    std::printf("end-to-end metrics (untraced run):\n");
    report_end_to_end(r, o, pool->clients());
  }
  std::printf("  %-36s %16.9f %-9s failed=%" PRIu64 " / attempted=%" PRIu64
              "\n",
              "error_ratio",
              ratio(static_cast<double>(failed),
                    static_cast<double>(o.attempted)),
              "ratio", failed, o.attempted);
  const bool correct = failed == 0;
  r.print_json(correct, o.attempted, failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  // Keep freed heap memory in the process. Set-up builds the map several
  // times; handing each build's pages back to the kernel would make the
  // next build pay page faults whose cost tracks the host, not the library.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
