// Tests for the sv::txn transaction layer (txn/txn.h, txn/lock_mgr.h):
// atomic multi-key commits through the shared chunk-lock manager,
// read-your-writes, undo-free aborts, commit-time read validation, the
// towered-remove demote path, the run() retry helper, and the transaction
// counters. Concurrency tests pin the serializability story: lost-update
// freedom for RMW increments and conserved totals for multi-key transfers.
// Shape tests pin the index that commit-time tower promotion builds over
// keys inserted only through commits; contention tests pin the chunk split
// that isolates a key whose commit lost the lock on a shared chunk.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "check/history.h"
#include "check/wgl.h"
#include "common/rng.h"
#include "core/adapters.h"
#include "core/skip_vector.h"
#include "txn/txn.h"

namespace sv::core {
namespace {

using Map = SkipVector<std::uint64_t, std::uint64_t>;
using Txn = txn::Txn<Map>;
using MA = txn::MapAccess<Map>;
using txn::TxnResult;

Config Tiny() {
  Config c;
  c.layer_count = 4;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  return c;
}

std::uint64_t counter(const Map& m, stats::Counter c) {
  return m.stats_registry().snapshot()[c];
}

// ---- Single-threaded semantics ---------------------------------------------

TEST(Txn, EmptyTxnCommits) {
  Map m(Config::for_elements(64));
  Txn t(m);
  EXPECT_EQ(t.commit(), TxnResult::kCommitted);
  EXPECT_EQ(counter(m, stats::Counter::kTxnCommits), 1u);
}

TEST(Txn, MultiKeyCommitIsAtomicAndVisible) {
  Map m(Config::for_elements(1024));
  ASSERT_TRUE(m.insert(5, 50));

  Txn t(m);
  t.put(1, 10);
  t.put(9, 90);
  t.remove(5);
  ASSERT_EQ(t.commit(), TxnResult::kCommitted);

  EXPECT_EQ(m.lookup(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(m.lookup(9), std::optional<std::uint64_t>(90));
  EXPECT_FALSE(m.lookup(5).has_value());
  // applied flags: both puts inserted fresh keys, the remove hit.
  ASSERT_EQ(t.writes().size(), 3u);
  EXPECT_TRUE(t.writes()[0].applied);
  EXPECT_TRUE(t.writes()[1].applied);
  EXPECT_TRUE(t.writes()[2].applied);
  EXPECT_EQ(counter(m, stats::Counter::kTxnCommits), 1u);
  EXPECT_EQ(counter(m, stats::Counter::kTxnAborts), 0u);
}

TEST(Txn, ReadYourWrites) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(1, 100));

  Txn t(m);
  EXPECT_EQ(t.get(1), std::optional<std::uint64_t>(100));  // live read
  t.put(1, 111);
  EXPECT_EQ(t.get(1), std::optional<std::uint64_t>(111));  // buffered write
  t.remove(1);
  EXPECT_FALSE(t.get(1).has_value());  // buffered remove
  t.put(2, 22);
  EXPECT_EQ(t.get(2), std::optional<std::uint64_t>(22));  // never in the map
  ASSERT_EQ(t.commit(), TxnResult::kCommitted);
  EXPECT_FALSE(m.lookup(1).has_value());
  EXPECT_EQ(m.lookup(2), std::optional<std::uint64_t>(22));
}

TEST(Txn, RepeatedReadReturnsFirstObservation) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(7, 70));
  Txn t(m);
  EXPECT_EQ(t.get(7), std::optional<std::uint64_t>(70));
  ASSERT_TRUE(m.update(7, 71));  // external writer between the reads
  // The txn's view stays at the first observation (that is what commit
  // validates), so the commit must now fail validation.
  EXPECT_EQ(t.get(7), std::optional<std::uint64_t>(70));
  EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
}

TEST(Txn, AbortIsUndoFreeAndInvisible) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(3, 30));

  Txn t(m);
  t.put(3, 999);
  t.put(4, 40);
  t.remove(3);
  t.abort();
  EXPECT_EQ(m.lookup(3), std::optional<std::uint64_t>(30));
  EXPECT_FALSE(m.lookup(4).has_value());
  EXPECT_TRUE(t.reads().empty());
  EXPECT_TRUE(t.writes().empty());

  // The handle is reusable as a fresh transaction after abort().
  t.put(4, 44);
  ASSERT_EQ(t.commit(), TxnResult::kCommitted);
  EXPECT_EQ(m.lookup(4), std::optional<std::uint64_t>(44));
}

TEST(Txn, ValidationFailLeavesMapUntouched) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(10, 1));

  Txn t(m);
  ASSERT_EQ(t.get(10), std::optional<std::uint64_t>(1));
  t.put(20, 2);  // write to a DIFFERENT key than the stale read
  ASSERT_TRUE(m.update(10, 5));  // interleaved external writer
  EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
  // The failed commit applied nothing.
  EXPECT_FALSE(m.lookup(20).has_value());
  EXPECT_EQ(m.lookup(10), std::optional<std::uint64_t>(5));
  EXPECT_EQ(counter(m, stats::Counter::kTxnAborts), 1u);
  EXPECT_EQ(counter(m, stats::Counter::kTxnCommits), 0u);
}

TEST(Txn, ValidationCoversPresenceBothWays) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(1, 11));
  {
    // Read-present, then externally removed: validation must fail.
    Txn t(m);
    ASSERT_TRUE(t.get(1).has_value());
    ASSERT_TRUE(m.remove(1));
    EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
  }
  {
    // Read-absent, then externally inserted: validation must fail.
    Txn t(m);
    ASSERT_FALSE(t.get(2).has_value());
    ASSERT_TRUE(m.insert(2, 22));
    EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
  }
  {
    // Unchanged reads validate: read-only txn commits.
    Txn t(m);
    ASSERT_TRUE(t.get(2).has_value());
    ASSERT_FALSE(t.get(3).has_value());
    EXPECT_EQ(t.commit(), TxnResult::kCommitted);
  }
}

TEST(Txn, ScanIsReadCommitted) {
  Map m(Config::for_elements(256));
  for (std::uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(m.insert(k, k * 10));
  Txn t(m);
  std::uint64_t sum = 0;
  const std::size_t n =
      t.scan(0, 9, [&](std::uint64_t, std::uint64_t v) { sum += v; });
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(sum, 450u);
  EXPECT_EQ(t.commit(), TxnResult::kCommitted);
}

TEST(Txn, SameKeyIntentsApplyInSubmissionOrder) {
  Map m(Config::for_elements(64));
  Txn t(m);
  t.put(1, 10);
  t.remove(1);
  t.put(1, 30);  // last write wins, like apply_batch
  ASSERT_EQ(t.commit(), TxnResult::kCommitted);
  EXPECT_EQ(m.lookup(1), std::optional<std::uint64_t>(30));
}

// Every key removed through its own transaction, on a tiny-chunk map where
// many keys are towered chunk minima: exercises the internal kNeedDemote
// retry (demote, then re-run the commit pass) end to end.
TEST(Txn, ToweredRemovesCommitViaDemote) {
  Map m(Tiny());
  constexpr std::uint64_t kN = 512;
  for (std::uint64_t k = 0; k < kN; ++k) ASSERT_TRUE(m.insert(k, k));
  for (std::uint64_t k = 0; k < kN; ++k) {
    Txn t(m);
    t.remove(k);
    ASSERT_EQ(t.commit(), TxnResult::kCommitted) << "key " << k;
  }
  EXPECT_EQ(m.size_approx(), 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// ---- run() helper -----------------------------------------------------------

TEST(TxnRun, BodyAbortReturnsFalseWithoutRetry) {
  Map m(Config::for_elements(64));
  int calls = 0;
  const bool ok = txn::run(m, [&](Txn& t) {
    ++calls;
    t.put(1, 1);
    return false;  // user abort
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(m.lookup(1).has_value());
}

TEST(TxnRun, CommitsAndReturnsTrue) {
  Map m(Config::for_elements(64));
  const bool ok = txn::run(m, [](Txn& t) {
    t.put(1, 10);
    t.put(2, 20);
    return true;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(m.lookup(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(m.lookup(2), std::optional<std::uint64_t>(20));
}

// ---- Concurrency ------------------------------------------------------------

// Lost-update freedom: N threads x M transactional increments of one hot
// key must sum exactly (optimistic reads + commit validation make the RMW
// serializable; retries come from txn::run).
TEST(TxnConcurrent, HotKeyRmwLosesNoUpdates) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(0, 0));
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 2000;

  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) {
        ASSERT_TRUE(txn::run(m, [](Txn& t) {
          const auto v = t.get(0);
          t.put(0, *v + 1);
          return true;
        }));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(m.lookup(0), std::optional<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(counter(m, stats::Counter::kTxnCommits), kThreads * kPerThread);
  // Aborts and retries line up: every abort was retried by run().
  EXPECT_EQ(counter(m, stats::Counter::kTxnAborts),
            counter(m, stats::Counter::kTxnRetries));
}

// Conserved-total transfers: concurrent two-key transfer transactions plus
// transactional auditors summing every account read-serializably. Any lost
// update, partial commit, or stale-read commit breaks the total.
TEST(TxnConcurrent, TransfersConserveTotal) {
  constexpr std::uint64_t kAccounts = 64;
  constexpr std::uint64_t kInitial = 1000;
  constexpr unsigned kWriters = 6;
  constexpr unsigned kAuditors = 2;
  constexpr std::uint64_t kTransfersPerWriter = 3000;

  Map m(Config::for_elements(kAccounts));
  for (std::uint64_t k = 0; k < kAccounts; ++k) {
    ASSERT_TRUE(m.insert(k, kInitial));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> audits{0};
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kWriters; ++i) {
    threads.emplace_back([&, i] {
      Xoshiro256 rng(i + 1);
      for (std::uint64_t n = 0; n < kTransfersPerWriter; ++n) {
        const std::uint64_t a = rng.next_below(kAccounts);
        std::uint64_t b = rng.next_below(kAccounts);
        if (b == a) b = (b + 1) % kAccounts;
        const std::uint64_t amount = rng.next_below(10) + 1;
        ASSERT_TRUE(txn::run(m, [&](Txn& t) {
          const auto va = t.get(a);
          const auto vb = t.get(b);
          if (*va < amount) return true;  // commit the no-op reads
          t.put(a, *va - amount);
          t.put(b, *vb + amount);
          return true;
        }));
      }
    });
  }
  for (unsigned i = 0; i < kAuditors; ++i) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t sum = 0;
        const bool ok = txn::run(m, [&](Txn& t) {
          sum = 0;
          for (std::uint64_t k = 0; k < kAccounts; ++k) sum += *t.get(k);
          return true;
        });
        ASSERT_TRUE(ok);
        ASSERT_EQ(sum, kAccounts * kInitial);  // serializable read of all
        audits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (unsigned i = 0; i < kWriters; ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  for (unsigned i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_GT(audits.load(), 0u);
  std::uint64_t final_sum = 0;
  m.for_each([&](std::uint64_t, std::uint64_t v) { final_sum += v; });
  EXPECT_EQ(final_sum, kAccounts * kInitial);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// Transactions and plain batches share one lock manager: mixing them on
// the same keys must preserve batch atomicity and txn serializability.
TEST(TxnConcurrent, TxnsAndBatchesInterleave) {
  constexpr std::uint64_t kKeys = 32;
  Map m(Config::for_elements(kKeys));
  for (std::uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(m.insert(k, 0));

  std::atomic<bool> stop{false};
  std::thread batcher([&] {
    Xoshiro256 rng(42);
    std::vector<Map::BatchOp> ops;
    while (!stop.load(std::memory_order_relaxed)) {
      ops.clear();
      // Even-aligned pairs so no two batches overlap on one key: the
      // invariant "key 2i == key 2i+1" survives any batch interleaving.
      const std::uint64_t base = rng.next_below(kKeys / 2) * 2;
      const std::uint64_t v = rng.next();
      ops.push_back(Map::BatchOp::put(base, v));
      ops.push_back(Map::BatchOp::put(base + 1, v));
      m.apply_batch(ops);
    }
  });
  std::thread verifier([&] {
    Xoshiro256 rng(7);
    for (int n = 0; n < 20000; ++n) {
      const std::uint64_t base = rng.next_below(kKeys / 2) * 2;
      std::uint64_t va = 0, vb = 0;
      ASSERT_TRUE(txn::run(m, [&](Txn& t) {
        va = *t.get(base);
        vb = *t.get(base + 1);
        return true;
      }));
      ASSERT_EQ(va, vb) << "torn batch visible at " << base;
    }
  });
  verifier.join();
  stop.store(true, std::memory_order_relaxed);
  batcher.join();
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// ---- Snapshots --------------------------------------------------------------

// A wait-free snapshot pinned before a transactional commit must not see
// the commit (transactions ride the same preserve-pre-image MVCC path as
// batches).
TEST(TxnSnapshots, PinnedSnapshotInvisibleToLaterTxn) {
  Map m(Config::for_elements(256));
  for (std::uint64_t k = 0; k < 16; ++k) ASSERT_TRUE(m.insert(k, 1));

  auto view = m.snapshot_at();
  ASSERT_TRUE(txn::run(m, [](Txn& t) {
    for (std::uint64_t k = 0; k < 16; ++k) t.put(k, 2);
    t.put(100, 2);
    return true;
  }));

  std::uint64_t snap_sum = 0, snap_n = 0;
  m.range_for_each_at(view, 0, 200, [&](std::uint64_t, std::uint64_t v) {
    snap_sum += v;
    ++snap_n;
  });
  EXPECT_EQ(snap_n, 16u);   // key 100 did not exist at the pin
  EXPECT_EQ(snap_sum, 16u);  // all pre-commit values
  std::uint64_t live_sum = 0;
  m.range_for_each(0, 200, [&](std::uint64_t, std::uint64_t v) {
    live_sum += v;
  });
  EXPECT_EQ(live_sum, 34u);  // 16 * 2 + 2
}

// ---- Index shape of committed inserts ----------------------------------------

// Committed inserts draw the same random tower heights insert() does, so a
// key range that grows only through commits gets an index: about one
// layer-1 entry per T_D keys, and short orphan runs below each entry.
constexpr std::uint32_t kShapeTd = 16;

Config ShapeCfg() {
  Config c;
  c.layer_count = 5;
  c.target_data_vector_size = kShapeTd;
  c.target_index_vector_size = 8;
  return c;
}

// Keys [kRangeLo, kRangeLo + n) start absent; bulk-loaded neighbors on both
// sides make the range an empty gap inside a populated map.
constexpr std::uint64_t kRangeLo = 1'000'000;

void LoadNeighbors(Map& m) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;
  for (std::uint64_t k = 0; k < 2000; ++k) rows.emplace_back(k, k);
  for (std::uint64_t k = 0; k < 2000; ++k) {
    rows.emplace_back(2 * kRangeLo + k, k);
  }
  m.bulk_load(rows);
}

void ExpectCommittedShape(Map& m, std::uint64_t n,
                          std::size_t layer1_before) {
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(m.lookup(kRangeLo + i), std::optional<std::uint64_t>(i));
  }
  const auto st = m.stats();
  const std::size_t entries = st.layers[1].elements - layer1_before;
  // Each committed key gets a layer-1 entry with p = 1/T_D, independently:
  // a binomial count, accepted within 6 standard deviations of its mean
  // (a false failure has odds below 1e-8). Without commit towers it is 0.
  const double p = 1.0 / kShapeTd;
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(static_cast<double>(n) * p * (1 - p));
  EXPECT_NEAR(static_cast<double>(entries), mean, 6 * sd);
  EXPECT_EQ(counter(m, stats::Counter::kTowerPromotions), entries);
  // Lateral distance: a key's floor lies at most max_orphan_run data
  // chunks right of its layer-1 entry. With ascending appends, a run of r
  // orphans needs about (r + 1) * T_D consecutive untowered keys, odds
  // ~e^-(r+1) per entry, so over n / T_D entries a run above 20 has odds
  // below 1e-6. Without commit towers the whole range is one orphan run
  // of about n / T_D chunks.
  EXPECT_LE(st.layers[0].max_orphan_run, 20u);
}

TEST(TxnShape, AscendingTxnCommitsBuildIndex) {
  Map m(ShapeCfg());
  LoadNeighbors(m);
  const std::size_t layer1_before = m.stats().layers[1].elements;
  constexpr std::uint64_t kN = 4096;
  for (std::uint64_t i = 0; i < kN; i += 4) {
    Txn t(m);
    for (std::uint64_t j = i; j < i + 4; ++j) t.put(kRangeLo + j, j);
    ASSERT_EQ(t.commit(), TxnResult::kCommitted);
  }
  ExpectCommittedShape(m, kN, layer1_before);
}

TEST(TxnShape, AscendingBatchesBuildIndex) {
  Map m(ShapeCfg());
  LoadNeighbors(m);
  const std::size_t layer1_before = m.stats().layers[1].elements;
  constexpr std::uint64_t kN = 4096;
  std::vector<Map::BatchOp> ops;
  for (std::uint64_t i = 0; i < kN; i += 8) {
    ops.clear();
    for (std::uint64_t j = i; j < i + 8; ++j) {
      ops.push_back(Map::BatchOp::put(kRangeLo + j, j));
    }
    ASSERT_EQ(m.apply_batch(ops), 8u);
  }
  ExpectCommittedShape(m, kN, layer1_before);
}

// Committed towers are real towers: removing every committed key through
// batches must demote them (kNeedDemote -> demote_tower) and leave a valid,
// empty range.
TEST(TxnShape, CommittedTowersDemoteOnRemove) {
  Map m(ShapeCfg());
  constexpr std::uint64_t kN = 2048;
  for (std::uint64_t i = 0; i < kN; i += 4) {
    Txn t(m);
    for (std::uint64_t j = i; j < i + 4; ++j) t.put(kRangeLo + j, j);
    ASSERT_EQ(t.commit(), TxnResult::kCommitted);
  }
  ASSERT_GT(counter(m, stats::Counter::kTowerPromotions), 0u);
  std::vector<Map::BatchOp> ops;
  for (std::uint64_t i = 0; i < kN; i += 8) {
    ops.clear();
    for (std::uint64_t j = i; j < i + 8; ++j) {
      ops.push_back(Map::BatchOp::remove(kRangeLo + j));
    }
    ASSERT_EQ(m.apply_batch(ops), 8u);
  }
  EXPECT_EQ(m.size_approx(), 0u);
  EXPECT_EQ(m.stats().layers[1].elements, 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// Without index layers there is nothing to promote into: a height-0
// "promotion" would run insert's plain path and store k a second time.
TEST(TxnShape, PromoteOnSingleLayerMapIsNoOp) {
  Map m(Config::for_elements(32));
  ASSERT_EQ(m.config().layer_count, 1u);
  for (std::uint64_t k = 0; k < 8; ++k) ASSERT_TRUE(m.insert(k, k * 10));
  {
    txn::OpScope<Map> scope(m);
    EXPECT_FALSE(MA::promote_tower(m, scope.ctx(), 5, 1));
  }
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
  std::size_t n = 0;
  m.for_each([&](std::uint64_t, std::uint64_t) { ++n; });
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(m.lookup(5), std::optional<std::uint64_t>(50));
}

// ---- Contention splits ------------------------------------------------------

// Aborts the process if the guarded scope does not finish in time: a pass
// livelocking on a chunk it already holds, or deadlocked against a demote,
// never returns, so no in-test assertion could report it.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: no completion within %llds\n",
                         static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

Config ContentionCfg() {
  Config c;
  c.layer_count = 3;
  c.target_data_vector_size = 16;
  c.target_index_vector_size = 8;
  return c;
}

// Keys [0, n) with no towers: they all share the data layer's head chunk.
void LoadSharedChunk(Map& m, std::uint64_t n) {
  for (std::uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(m.insert_with_height(k, 0, 0));
  }
  ASSERT_EQ(m.stats().layers[1].elements, 0u);
}

// Minimum of k's floor chunk, read under the lock a commit pass takes.
std::uint64_t FloorMin(Map& m, std::uint64_t k) {
  txn::OpScope<Map> scope(m);
  MA::Node* chunk = nullptr;
  while (MA::lock_floor_descent(m, scope.ctx(), k, &chunk) !=
         MA::Acquire::kLocked) {
  }
  txn::ChunkLockSet<Map> held;
  held.push(chunk);
  return MA::min_key(m, chunk);
}

// Freezes k's floor chunk, as an insert's write phase does (thaw() ends
// it). A commit's try_upgrade refuses a frozen chunk like a locked one, but
// its descent does not wait for a frozen word to clear -- a locked one it
// would -- so the refusal happens at once rather than only in a race.
// Retries while other threads hold the chunk. Data chunks here are never
// merged away, so the chunk stays valid once its lock is released.
MA::Node* FreezeFloor(Map& m, std::uint64_t k) {
  for (;;) {
    txn::OpScope<Map> scope(m);
    MA::Node* chunk = nullptr;
    if (MA::lock_floor_descent(m, scope.ctx(), k, &chunk) !=
        MA::Acquire::kLocked) {
      continue;
    }
    chunk->lock.release();
    if (chunk->lock.try_freeze(chunk->lock.try_read_begin())) return chunk;
  }
}

// A commit refused by its key's chunk, which the key shares with smaller
// keys, splits the key off into a chunk of its own; the next commit on it
// no longer collides with whoever holds its old neighbors.
TEST(TxnContention, RefusedSharedChunkSplitsKey) {
  Map m(ContentionCfg());
  LoadSharedChunk(m, 8);
  constexpr std::uint64_t k1 = 2, k2 = 5;
  // A pass that waited on the frozen chunk instead of failing would never
  // let the loop below end.
  Watchdog watchdog(std::chrono::seconds(60));

  MA::Node* frozen = FreezeFloor(m, k1);
  std::atomic<int> result{-1};
  std::thread committer([&] {
    Txn t(m);
    t.put(k2, 50);
    result.store(static_cast<int>(t.commit()));
  });
  // The pass has failed; its split cannot finish while the chunk is frozen.
  while (counter(m, stats::Counter::kTxnLockFail) == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(counter(m, stats::Counter::kContentionSplits), 0u);
  frozen->lock.thaw();
  committer.join();
  EXPECT_EQ(result.load(), static_cast<int>(TxnResult::kLockConflict));
  EXPECT_EQ(counter(m, stats::Counter::kContentionSplits), 1u);
  EXPECT_EQ(counter(m, stats::Counter::kTowerPromotions), 0u);
  EXPECT_EQ(m.stats().layers[1].elements, 1u);
  EXPECT_EQ(FloorMin(m, k2), k2);
  EXPECT_EQ(FloorMin(m, k2 + 1), k2);  // larger keys moved along with it
  EXPECT_EQ(FloorMin(m, k1), 0u);       // smaller ones stayed behind

  // k1's chunk frozen again: a commit on k2 now goes straight through.
  frozen = FreezeFloor(m, k1);
  Txn t(m);
  t.put(k2, 51);
  EXPECT_EQ(t.commit(), TxnResult::kCommitted);
  frozen->lock.thaw();
  EXPECT_EQ(counter(m, stats::Counter::kTxnLockFail), 1u);
  EXPECT_EQ(m.lookup(k2), std::optional<std::uint64_t>(51));
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// A refusal by a chunk k already heads (here the head chunk, whose minimum
// is k) is a conflict on k's own chunk: no split.
TEST(TxnContention, RefusalByChunkHeadedByKeyDoesNotSplit) {
  Map m(ContentionCfg());
  LoadSharedChunk(m, 8);
  // A split here would wait forever on the chunk this thread froze.
  Watchdog watchdog(std::chrono::seconds(60));
  MA::Node* frozen = FreezeFloor(m, 3);
  Txn t(m);
  t.put(0, 1);
  EXPECT_EQ(t.commit(), TxnResult::kLockConflict);
  frozen->lock.thaw();
  EXPECT_EQ(counter(m, stats::Counter::kTxnLockFail), 1u);
  EXPECT_EQ(counter(m, stats::Counter::kContentionSplits), 0u);
  EXPECT_EQ(m.stats().layers[1].elements, 0u);
}

// Four threads increment adjacent counters that start in one chunk, so
// every lock conflict among them is false sharing. The threads run in
// rounds. A round starts with one counter's chunk frozen, as by a
// concurrent insert's write phase, so commits on that chunk lose their
// lock; a key that shares it with a smaller one is split off. Once keys
// 1..3 head chunks of their own (key 0 heads the original), a last round
// runs with nothing frozen and its commits share no lock. A key splits at
// most once, which bounds the added chunks. Rounds keep the recorded
// history short: the WGL search is quadratic in the ops per key.
TEST(TxnContention, AdjacentCountersSplitApart) {
  using RMap = RecordingMap<Map>;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kSplitsWanted = kThreads - 1;
  constexpr std::uint64_t kPerRound = 50;  // transactions per thread
  constexpr std::uint64_t kLate = 1000;    // per thread, after the splits
  constexpr int kMaxRounds = 200;
  check::HistoryRecorder rec;
  RMap map(&rec, ContentionCfg());
  LoadSharedChunk(map.inner(), kThreads);
  auto count = [&](stats::Counter c) { return counter(map.inner(), c); };

  std::atomic<int> round{0};  // workers run round r once round >= r
  std::atomic<std::uint64_t> round_txns{kPerRound};
  std::atomic<int> finished{0};  // thread-rounds completed
  std::atomic<bool> stop{false};
  std::uint64_t done[kThreads] = {};
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&, i] {
      const std::uint64_t k = static_cast<std::uint64_t>(i);
      for (int r = 1;; ++r) {
        while (round.load() < r && !stop.load()) std::this_thread::yield();
        if (stop.load()) return;
        const std::uint64_t n = round_txns.load();
        for (std::uint64_t j = 0; j < n; ++j) {
          ASSERT_TRUE(map.run_txn([&](Txn& t) {
            t.put(k, *t.get(k) + 1);
            return true;
          }));
        }
        done[i] += n;
        finished.fetch_add(1);
      }
    });
  }
  // One round with `frozen` held for its first millisecond (if any);
  // returns the lock conflicts in the round.
  int rounds = 0;
  auto run_round = [&](MA::Node* frozen) {
    const std::uint64_t fails_before = count(stats::Counter::kTxnLockFail);
    round.store(++rounds);
    if (frozen != nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      frozen->lock.thaw();
    }
    while (finished.load() < kThreads * rounds) std::this_thread::yield();
    return count(stats::Counter::kTxnLockFail) - fails_before;
  };

  // Round r freezes key (r mod 3) + 1's chunk: every key not yet split
  // shares a frozen chunk with a smaller key once in three rounds.
  std::uint64_t early_fails = 0;
  while (count(stats::Counter::kContentionSplits) < kSplitsWanted &&
         rounds < kMaxRounds) {
    early_fails +=
        run_round(FreezeFloor(map.inner(), 1 + rounds % kSplitsWanted));
  }
  const double early = static_cast<double>(early_fails) /
                       static_cast<double>(kThreads * kPerRound * rounds);
  round_txns.store(kLate);
  const double late = static_cast<double>(run_round(nullptr)) /
                      static_cast<double>(kThreads * kLate);
  stop.store(true);
  for (auto& t : ts) t.join();

  EXPECT_LT(rounds, kMaxRounds);
  EXPECT_EQ(count(stats::Counter::kContentionSplits), kSplitsWanted);
  EXPECT_EQ(map.inner().stats().layers[1].elements, kSplitsWanted);
  EXPECT_LT(late, early);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(map.inner().lookup(static_cast<std::uint64_t>(i)),
              std::optional<std::uint64_t>(done[i]));
  }
  std::string err;
  EXPECT_TRUE(map.validate(&err)) << err;
  const check::History h = rec.merge();
  const check::CheckResult res = check::check_history(h);
  std::stringstream dump;
  if (!res.ok()) h.dump(dump);
  ASSERT_TRUE(res.ok()) << res.explanation << "\n" << dump.str();
}

// ---- Promotions under concurrency -------------------------------------------

// Ascending Txn appends (promotions on every commit) race batch removes of
// possibly-towered committed keys (kNeedDemote -> demote_tower) and pinned
// snapshot scans over the appenders' tails. The recorded history must be
// linearizable, every transaction must commit within a bounded number of
// attempts, and versioned scans must never restart.
TEST(TxnConcurrent, PromotionsRaceDemotesAndSnapshots) {
  using RMap = RecordingMap<Map>;
  constexpr int kAppenders = 2;
  constexpr std::uint64_t kTxnsPerAppender = 3000;
  constexpr std::uint64_t kKeysPerTxn = 4;
  constexpr std::uint64_t kSpan = std::uint64_t{1} << 20;
  auto key = [](int a, std::uint64_t i) {
    return kRangeLo + static_cast<std::uint64_t>(a) * kSpan + i;
  };

  check::HistoryRecorder rec;
  RMap map(&rec, ShapeCfg());
  std::atomic<std::uint64_t> appended[kAppenders] = {};
  std::atomic<int> appenders_left{kAppenders};
  std::atomic<bool> gave_up{false};
  {
    Watchdog watchdog(std::chrono::seconds(120));
    std::vector<std::thread> ts;
    for (int a = 0; a < kAppenders; ++a) {
      ts.emplace_back([&, a] {
        // A pass that livelocked on its own chunk would exhaust this.
        const txn::RetryPolicy policy{/*max_attempts=*/100000};
        for (std::uint64_t n = 0; n < kTxnsPerAppender; ++n) {
          const std::uint64_t base = n * kKeysPerTxn;
          const bool committed = map.run_txn(
              [&](Txn& t) {
                for (std::uint64_t j = 0; j < kKeysPerTxn; ++j) {
                  t.put(key(a, base + j), base + j);
                }
                return true;
              },
              policy);
          if (!committed) {
            gave_up.store(true);
            break;
          }
          appended[a].store(base + kKeysPerTxn, std::memory_order_release);
        }
        appenders_left.fetch_sub(1);
      });
    }
    ts.emplace_back([&] {  // batch remover of committed keys
      Xoshiro256 rng(99);
      std::vector<Map::BatchOp> ops;
      while (appenders_left.load() > 0) {
        const int a = static_cast<int>(rng.next_below(kAppenders));
        const std::uint64_t hi = appended[a].load(std::memory_order_acquire);
        if (hi == 0) continue;
        ops.clear();
        for (int j = 0; j < 3; ++j) {
          ops.push_back(Map::BatchOp::remove(key(a, rng.next_below(hi))));
        }
        map.apply_batch(ops);
      }
    });
    ts.emplace_back([&] {  // pinned snapshot scans over the tails
      Xoshiro256 rng(7);
      while (appenders_left.load() > 0) {
        const int a = static_cast<int>(rng.next_below(kAppenders));
        const std::uint64_t hi = appended[a].load(std::memory_order_acquire);
        const std::uint64_t lo = hi > 24 ? hi - 24 : 0;
        map.snapshot_range(key(a, lo), key(a, hi + 8),
                           [](std::uint64_t, std::uint64_t) {});
      }
    });
    for (auto& t : ts) t.join();
  }

  EXPECT_FALSE(gave_up.load());
  const check::History h = rec.merge();
  const check::CheckResult res = check::check_history(h);
  std::stringstream dump;
  if (!res.ok()) h.dump(dump);
  ASSERT_TRUE(res.ok()) << res.explanation << "\n" << dump.str();
  EXPECT_GT(counter(map.inner(), stats::Counter::kTowerPromotions), 0u);
  EXPECT_GT(counter(map.inner(), stats::Counter::kSnapshotScans), 0u);
  EXPECT_EQ(counter(map.inner(), stats::Counter::kSnapshotScanRestarts), 0u);
  std::string err;
  EXPECT_TRUE(map.validate(&err)) << err;
}

}  // namespace
}  // namespace sv::core
