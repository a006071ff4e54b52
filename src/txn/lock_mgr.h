// sv::txn lock manager: the chunk-granularity NO_WAIT two-phase-locking
// protocol shared by every multi-key mutation in the repo. Extracted from
// SkipVectorMap::try_apply_batch (which used to inline it) so that
// apply_batch, the cross-shard gates in core/sharded.h, and the user-facing
// Txn handle (txn/txn.h) all run on ONE code path. docs/TRANSACTIONS.md is
// the narrative companion.
//
// Protocol summary (2PLSF direction, NO_WAIT flavor):
//   - Growing phase: the floor data chunk of every accessed key is
//     write-locked in ascending key order -- a global acquisition order, so
//     two passes can never deadlock. The first key descends the tower
//     (MapAccess::lock_floor_descent); later keys peek at the last held
//     chunk's successor and otherwise descend the index without waiting
//     (MapAccess::lock_floor_from). Neither step ever blocks: a locked
//     word (or a frozen data chunk) aborts the whole pass.
//   - Validation: optimistic reads (Txn's read set) are re-checked against
//     the locked chunks; a mismatch aborts before anything mutates.
//   - Commit: ONE commit version is reserved for the whole write set;
//     pre-images are staged iff snapshots are pinned; each chunk absorbs its
//     ops; every touched piece is stamped with the commit version; locks
//     release in reverse order (shrinking phase). Newly inserted keys then
//     draw random tower heights and are promoted outside the locks.
//   - Abort: locks release in reverse, nothing was mutated (mutations are
//     deferred to the commit step), the caller backs off and retries. When
//     the lock lost was k's own floor chunk and k shares it with smaller
//     keys, k is first split off into a chunk of its own (a contention
//     split, outside the locks), so false sharing does not recur.
//
// This header deliberately does NOT include core/skip_vector.h: MapAccess
// is a friend template of SkipVectorMap (forward-declared there), so the
// map's private navigation/mutation primitives are reached through it and
// the include arrow points core -> txn only.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/mvcc.h"
#include "debug/fault_inject.h"
#include "stats/stats.h"
#include "sync/backoff.h"

namespace sv::txn {

namespace mvcc = ::sv::core::mvcc;

// Bounded exponential-backoff retry policy for NO_WAIT aborts. Retrying
// forever (max_attempts == 0) matches apply_batch's historical semantics;
// bounded callers (e.g. interactive transactions) give up and surface the
// conflict after max_attempts re-executions.
struct RetryPolicy {
  std::uint32_t max_attempts = 0;  // 0 = retry until committed
  std::uint32_t max_spins = 4096;  // truncation for the exponential backoff
};

// MapAccess<Map>: the single privileged bridge into SkipVectorMap's private
// lock/navigation/mutation primitives (it is a friend template of the map).
// Everything the lock manager and Txn need from the map flows through these
// static wrappers, which keeps the privilege surface explicit and greppable.
template <class Map>
struct MapAccess {
  using Node = typename Map::NodeBase;
  using Ctx = typename Map::Ctx;
  using K = typename Map::key_type;
  using V = typename Map::mapped_type;
  using Op = typename Map::BatchOp;
  using Lock = typename Map::Lock;
  using Word = typename Map::Word;

  // ---- Chunk inspection (callable only under the chunk's write lock or
  // with the chunk otherwise pinned) ---------------------------------------

  static std::uint32_t size(Map& m, Node* n) noexcept {
    return m.node_size(n);
  }
  static K min_key(Map& m, Node* n) noexcept { return m.node_min_key(n); }
  static bool is_head(Node* n) noexcept { return n->is_head; }
  static bool is_orphan(Node* n) noexcept {
    return Lock::is_orphan(n->lock.load_relaxed());
  }

  // Point read inside a locked data chunk (used to validate a Txn's read
  // set: the lock freezes the chunk's contents, so this is the committed
  // state at the pass's serialization point).
  static std::optional<V> read_in_chunk(Map& m, Node* chunk, K k) {
    return m.as_data(chunk)->vec.get(k);
  }

  // ---- Lock acquisition (the extracted 2PL growing-phase primitives) -----

  // True when `k` still belongs to locked chunk `c` (no better floor to its
  // right). c's lock pins its successor; a successor's minimum never
  // decreases, so a positive answer stays valid while we hold the lock.
  static bool covers(Map& m, Node* c, K k) {
    Node* next = c->next.load(std::memory_order_acquire);
    if (next == nullptr) return true;
    const std::uint32_t sz = m.node_size(next);
    return sz > 0 && k < m.node_min_key(next);
  }

  // Outcome of a no-wait floor lock (lock_floor_descent, lock_floor_from).
  enum class Acquire : std::uint8_t {
    kLocked,    // *out is write-locked by the caller
    kConflict,  // a held or changing word: abort the pass
    kShared,    // as kConflict, refused by k's floor chunk itself while k
                // shares it with smaller keys: isolating k may help
  };

  // Upgrade floor chunk `n` of k, observed at `ver`. On refusal, k's chunk
  // is "shared" when its minimum, read before the upgrade, is below k. The
  // read is unvalidated -- a hint: a stale one costs one no-op promotion.
  static Acquire upgrade_floor(Map& m, Node* n, Word ver, K k) {
    const bool shared = m.node_size(n) > 0 && m.node_min_key(n) < k;
    if (n->lock.try_upgrade(ver)) return Acquire::kLocked;
    return shared ? Acquire::kShared : Acquire::kConflict;
  }

  // Full speculative descent to the data-layer floor chunk for k, then a
  // no-wait write-lock. Used for the pass's first key (no locks held, so
  // blocking reads inside the shared traversal are safe).
  static Acquire lock_floor_descent(Map& m, Ctx& ctx, K k, Node** out) {
    typename Map::Trav t = m.begin_traversal(ctx);
    while (t.node->layer > 0) {
      if (!m.traverse_right(ctx, t, k, /*mutator=*/false)) {
        return Acquire::kConflict;
      }
      Node* down = nullptr;
      bool exact = false;
      if (!m.index_down(t, k, &down, &exact)) return Acquire::kConflict;
      if (!m.exchange_down(ctx, t, down)) return Acquire::kConflict;
    }
    if (!m.traverse_right(ctx, t, k, /*mutator=*/false)) {
      return Acquire::kConflict;
    }
    const Acquire a = upgrade_floor(m, t.node, t.ver, k);
    if (a == Acquire::kLocked) *out = t.node;
    return a;
  }

  // Outcome of a no-wait lateral walk (walk_floor).
  enum class Walk : std::uint8_t {
    kFloor,  // floor found
    kAbort,  // a held or changing word: abort the pass
    kFar,    // the floor lies beyond the walk's step budget
  };
  static constexpr std::size_t kUnbounded = ~std::size_t{0};

  // A word the walk must not wait on: locked anywhere, or (data layer)
  // frozen -- a frozen data chunk is about to be locked by its inserter.
  // Frozen index chunks stay readable, as for every speculative reader.
  static bool blocked(const Node* n, Word w) noexcept {
    return Lock::is_locked(w) || (n->layer == 0 && Lock::is_frozen(w));
  }

  // No-wait lateral walk in one layer, from `start` to k's floor: the
  // rightmost non-empty node with min <= k (the caller guarantees `start`
  // qualifies). NEVER blocks: while holding chunk locks, waiting on
  // another thread's word (even a read_begin spin) could deadlock two
  // passes against each other, so any blocked word aborts. Empty nodes
  // (demoted or drained, awaiting an orphan merge) hold no floor candidate
  // and are hopped over rather than aborted on: an empty chunk that no
  // descent happens to cross would otherwise wedge every pass whose key
  // span crosses it.
  //
  // `held`: start is write-locked by this pass, so its contents and
  // successor are pinned and need no validation. Otherwise start_ver is
  // its observed word and start is hazard-protected in slot 2. The walk
  // inspects at most `max_steps` nodes right of start and answers kFar
  // when the floor may lie further. On kFloor, *out / *out_ver name the
  // floor, hazard-protected in slot 2 unless it is the held start.
  static Walk walk_floor(Map& m, Ctx& ctx, Node* start, Word start_ver,
                         bool held, K k, std::size_t max_steps, Node** out,
                         Word* out_ver) {
    Node* best = start;
    Word best_ver = start_ver;
    Node* node = start;
    Word ver = start_ver;
    int slot = -1;  // walking slot protecting `node` (none for start)
    for (std::size_t steps = 0;;) {
      const bool pinned = held && node == start;
      Node* next = node->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        // Validate before trusting "node is last" -- an unvalidated read
        // must not settle the floor.
        if (!pinned && !node->lock.validate(ver)) return Walk::kAbort;
        break;
      }
      const int nslot = slot == 0 ? 1 : 0;
      ctx.protect(nslot, next);
      // Covers the size/min reads of node and the next read: node is
      // unchanged, so next is its real successor (never the retired
      // sentinel) and safe to dereference.
      if (!pinned && !node->lock.validate(ver)) return Walk::kAbort;
      const Word nver = next->lock.try_read_begin();
      if (blocked(next, nver)) return Walk::kAbort;
      // Hand over hand: node still unchanged AFTER nver was read, so next
      // was linked at nver -- a merge that retires it later must bump it
      // (a held node pins its successor: the merge would need its lock).
      if (!pinned && !node->lock.validate(ver)) return Walk::kAbort;
      if (slot >= 0) ctx.drop(slot);
      node = next;
      ver = nver;
      slot = nslot;
      ++steps;
      if (m.node_size(node) > 0) {
        if (k < m.node_min_key(node)) {
          // Validate the basis for stopping before trusting it.
          if (!node->lock.validate(ver)) return Walk::kAbort;
          break;
        }
        best = node;
        best_ver = ver;
        ctx.protect(2, node);
        if (!node->lock.validate(ver)) return Walk::kAbort;
      }
      if (steps == max_steps) return Walk::kFar;
    }
    *out = best;
    *out_ver = best_ver;
    return Walk::kFloor;
  }

  // No-wait descent through the index layers for k: returns the data chunk
  // a lateral walk to k's floor should start from. That is the chunk of
  // k's layer-1 floor entry when the entry lies right of `held` -- decided
  // by key, entry key > held's stable minimum (a head's minimum is -inf) --
  // and `held` itself otherwise, so the walk never starts left of a chunk
  // this pass holds (it would abort on its own lock on every retry).
  // Spinning is unsafe here: demote_tower and towered removes hold an
  // index lock while acquire()-ing the data chunk below it, which may be
  // one this pass holds -- so a locked index word aborts instead. A
  // non-held start comes back hazard-protected in slot 2.
  static bool index_start(Map& m, Ctx& ctx, Node* held, K k, Node** start,
                          Word* start_ver) {
    *start = held;
    *start_ver = 0;
    Node* node = m.head_;
    if (node->layer == 0) return true;  // no index layers
    ctx.protect(2, node);  // heads are immortal, but keep it uniform
    Word ver = node->lock.try_read_begin();
    if (blocked(node, ver)) return false;
    for (;;) {
      Node* floor = nullptr;
      Word fver = 0;
      if (walk_floor(m, ctx, node, ver, /*held=*/false, k, kUnbounded, &floor,
                     &fver) != Walk::kFloor) {
        return false;
      }
      const auto fle = m.as_index(floor)->vec.find_le(k);
      Node* const down = fle.found      ? fle.val
                         : floor->is_head ? floor->head_down
                                          : nullptr;
      const bool right_of_held =
          fle.found && (held->is_head || m.node_min_key(held) < fle.key);
      // Covers the entry read: a consistent index state routes k to down.
      if (!floor->lock.validate(fver) || down == nullptr) return false;
      if (floor->layer == 1 && !right_of_held) return true;  // from held
      ctx.protect(0, down);  // hand over hand: floor still in slot 2
      if (!floor->lock.validate(fver)) return false;
      const Word dver = down->lock.try_read_begin();
      if (blocked(down, dver)) return false;
      // Entry still in place after dver was read: down was not yet
      // orphaned (let alone merged away) at dver.
      if (!floor->lock.validate(fver)) return false;
      ctx.protect(2, down);
      if (down->layer == 0) {
        *start = down;
        *start_ver = dver;
        return true;
      }
      node = down;
      ver = dver;
    }
  }

  // Lock the floor chunk for a later (larger) key while `held` -- the
  // pass's last lock -- is held. A short lateral peek covers keys in the
  // held chunk's successor; anything further descends the index without
  // waiting (index_start) and walks only the chunks below k's layer-1
  // entry, so the cost is O(log n) rather than O(distance), and hot
  // chunks in between (another table's sequence row, say) are never
  // touched. Locks stay ascending by key. When the floor is `held` itself
  // (only empty chunks up to the first min > k) it is returned, still
  // locked, in *out -- the caller must not re-push it. A walk or descent
  // that aborts on some word is a plain kConflict: the word may belong to
  // a chunk in between, and only a refused floor says k's chunk is shared.
  static Acquire lock_floor_from(Map& m, Ctx& ctx, Node* held, K k,
                                 Node** out) {
    Node* floor = nullptr;
    Word ver = 0;
    Walk w = walk_floor(m, ctx, held, 0, /*held=*/true, k, /*max_steps=*/2,
                        &floor, &ver);
    if (w == Walk::kFar) {
      Node* start = nullptr;
      Word start_ver = 0;
      if (!index_start(m, ctx, held, k, &start, &start_ver)) {
        return Acquire::kConflict;
      }
      w = walk_floor(m, ctx, start, start_ver, /*held=*/start == held, k,
                     kUnbounded, &floor, &ver);
    }
    if (w != Walk::kFloor) return Acquire::kConflict;
    if (floor != held) {
      const Acquire a = upgrade_floor(m, floor, ver, k);
      if (a != Acquire::kLocked) return a;
    }
    *out = floor;
    return Acquire::kLocked;
  }

  // ---- Commit-path map primitives ----------------------------------------

  static std::uint64_t version_reserve(Map& m) { return m.version_reserve(); }
  static bool snapshots_active(Map& m) { return m.snapshots_active(); }
  static void apply_chunk_ops(Map& m, Node* chunk, Op* ops,
                              const std::vector<std::uint32_t>& order,
                              std::size_t begin, std::size_t end,
                              std::uint64_t c, bool preserve,
                              std::vector<Node*>& locked, std::size_t& applied,
                              std::int64_t& delta) {
    m.apply_chunk_ops(chunk, ops, order, begin, end, c, preserve, locked,
                      applied, delta);
  }
  static void demote_tower(Map& m, Ctx& ctx, K k) { m.demote_tower(ctx, k); }
  static std::uint32_t random_height(Map& m) { return m.random_height(); }
  static bool promote_tower(Map& m, Ctx& ctx, K k, std::uint32_t h) {
    return m.promote_tower(ctx, k, h);
  }

  // ---- Bookkeeping -------------------------------------------------------

  static Ctx thread_ctx(Map& m) { return m.reclaimer_.thread_ctx(); }
  static void note_restart(Map& m) noexcept {
    m.restarts_.fetch_add(1, std::memory_order_relaxed);
  }
  static void note_size_delta(Map& m, std::int64_t delta) noexcept {
    if (delta != 0) m.approx_size_.fetch_add(delta, std::memory_order_relaxed);
  }
};

// Pins the calling thread's reclamation epoch for the duration of a
// transaction-layer operation (the Txn equivalent of the map's internal
// OpGuard).
template <class Map>
class OpScope {
 public:
  explicit OpScope(Map& m) : ctx_(MapAccess<Map>::thread_ctx(m)) {
    ctx_.begin_op();
  }
  ~OpScope() { ctx_.end_op(); }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  typename MapAccess<Map>::Ctx& ctx() noexcept { return ctx_; }

 private:
  typename MapAccess<Map>::Ctx ctx_;
};

// Owned set of write-locked chunks of one map: the RAII "lock set" of the
// growing phase. Locks release in REVERSE acquisition order (shrinking
// phase), automatically on destruction if the pass aborted early.
template <class Map>
class ChunkLockSet {
 public:
  using Node = typename MapAccess<Map>::Node;

  ChunkLockSet() = default;
  ~ChunkLockSet() { release_all(); }
  ChunkLockSet(const ChunkLockSet&) = delete;
  ChunkLockSet& operator=(const ChunkLockSet&) = delete;

  bool empty() const noexcept { return locked_.empty(); }
  Node* back() const noexcept { return locked_.back(); }
  void push(Node* n) { locked_.push_back(n); }
  std::vector<Node*>& nodes() noexcept { return locked_; }

  void release_all() noexcept {
    for (auto it = locked_.rbegin(); it != locked_.rend(); ++it) {
      (*it)->lock.release();
    }
    locked_.clear();
  }

 private:
  std::vector<Node*> locked_;
};

// One optimistic read to validate at commit: the key, whether it was
// observed present, and (if present) the observed value. Entries handed to
// LockMgr::try_commit must be sorted by key and unique.
template <class K, class V>
struct ReadValidation {
  K key;
  bool present;
  V value;
};

enum class PassStatus : std::uint8_t {
  kCommitted,       // writes applied at one commit version, locks released
  kLockConflict,    // NO_WAIT acquisition failed (or transient floor state)
  kValidationFail,  // an optimistic read no longer holds: true conflict
  kNeedDemote,      // a remove targets a towered key: demote, then retry
};

// LockMgr<Map>: the shared two-phase commit algorithm. One pass =
// growing phase (ascending NO_WAIT floor locks over the union of read and
// write keys) + read-set validation + single-version commit + reverse
// release. apply_batch passes an empty read set; Txn::commit passes its
// recorded reads.
template <class Map>
struct LockMgr {
  using MA = MapAccess<Map>;
  using Node = typename MA::Node;
  using Ctx = typename MA::Ctx;
  using K = typename MA::K;
  using V = typename MA::V;
  using Op = typename MA::Op;
  using Read = ReadValidation<K, V>;

  struct PassResult {
    PassStatus status = PassStatus::kLockConflict;
    K demote_key{};          // valid iff status == kNeedDemote
    std::size_t applied = 0;  // presence-changing ops (iff committed)
    std::int64_t delta = 0;   // net size change (iff committed)
  };

  // One no-wait pass. `order` indexes `ops` in stable ascending-key order
  // (same-key ops keep submission order); `reads` is sorted by key, unique.
  // On success every op has been applied at a single commit version, each
  // op's `applied` field is written, and all locks are released; on failure
  // all locks are released, nothing was mutated, and the caller backs off
  // (after demoting the towered key when kNeedDemote).
  static PassResult try_commit(Map& m, Ctx& ctx, Op* ops,
                               const std::vector<std::uint32_t>& order,
                               std::span<const Read> reads) {
    PassResult res;
    ChunkLockSet<Map> locks;
    auto& locked = locks.nodes();
    // Per locked chunk: the half-open run of sorted-op positions it absorbs
    // (kNoRun = read-only chunk, left untouched by the commit step).
    constexpr std::uint32_t kNoRun = ~std::uint32_t{0};
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
    std::vector<std::uint32_t> read_chunk(reads.size());
    // Set when k's own floor chunk refused its lock while k shared it with
    // smaller keys (Acquire::kShared).
    std::optional<K> isolate;

    auto fail = [&](PassStatus s) {
      locks.release_all();
      ctx.drop_all();
      res.status = s;
      if (s == PassStatus::kLockConflict) {
        stats::count(stats::Counter::kTxnLockFail);
        // Contention split: k starts its own chunk, so the next pass
        // locks k without its smaller neighbors (and they without k).
        if (isolate && MA::promote_tower(m, ctx, *isolate, 1)) {
          stats::count(stats::Counter::kContentionSplits);
        }
      }
      return res;
    };

    // Lock k's floor chunk unless the last held lock already covers it.
    // Returns false on a NO_WAIT conflict or a transient floor state.
    auto ensure_locked = [&](K k) -> bool {
      if (!locked.empty() && MA::covers(m, locked.back(), k)) return true;
      Node* chunk = nullptr;
      const auto a = locked.empty()
                         ? MA::lock_floor_descent(m, ctx, k, &chunk)
                         : MA::lock_floor_from(m, ctx, locked.back(), k,
                                               &chunk);
      if (a != MA::Acquire::kLocked) {
        if (a == MA::Acquire::kShared) isolate = k;
        return false;
      }
      if (locked.empty() || chunk != locked.back()) {
        locks.push(chunk);
        runs.emplace_back(kNoRun, kNoRun);
        // Verify floor-ness under the lock: a non-head floor chunk must
        // hold a minimum <= k (otherwise a put would break the index
        // entry's min invariant; transient states abort instead). When
        // the lateral walk settled back on the already-locked chunk
        // (only empty chunks up to the first min > k), it passed this
        // for an earlier, smaller key, so min <= k holds a fortiori.
        if (!chunk->is_head &&
            (MA::size(m, chunk) == 0 || k < MA::min_key(m, chunk))) {
          return false;
        }
      }
      return true;
    };

    // Phase 1: growing -- ascending over the union of write-op keys and
    // read keys, lock each key's floor chunk exactly once.
    const std::size_t n_ops = order.size();
    std::size_t oi = 0;  // position in sorted-op space
    std::size_t ri = 0;  // position in the (sorted, unique) read set
    while (oi < n_ops || ri < reads.size()) {
      const bool take_read =
          oi >= n_ops ||
          (ri < reads.size() && !(ops[order[oi]].key < reads[ri].key));
      if (take_read) {
        if (!ensure_locked(reads[ri].key)) {
          return fail(PassStatus::kLockConflict);
        }
        read_chunk[ri] = static_cast<std::uint32_t>(locked.size() - 1);
        ++ri;
      } else {
        const K k = ops[order[oi]].key;
        if (!ensure_locked(k)) return fail(PassStatus::kLockConflict);
        Node* chunk = locked.back();
        if (ops[order[oi]].kind == mvcc::BatchOpKind::kRemove &&
            !chunk->is_head && !MA::is_orphan(chunk) &&
            MA::size(m, chunk) > 0 && MA::min_key(m, chunk) == k) {
          // k is the minimum of a non-orphan chunk: it may have a tower in
          // the index layers, and erasing it here would dangle those
          // entries. Demote outside the pass, then retry.
          res.demote_key = k;
          locks.release_all();
          ctx.drop_all();
          res.status = PassStatus::kNeedDemote;
          return res;
        }
        auto& run = runs.back();
        if (run.first == kNoRun) run.first = static_cast<std::uint32_t>(oi);
        run.second = static_cast<std::uint32_t>(oi + 1);
        ++oi;
      }
    }

    // Validation: every optimistic read must still hold against the locked
    // chunks. The locks freeze the committed state, so the whole read set
    // is checked at one serialization point; any mismatch is a real
    // conflict (a committed writer got between the read and this commit).
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const std::optional<V> now =
          MA::read_in_chunk(m, locked[read_chunk[i]], reads[i].key);
      const bool still_holds = reads[i].present
                                   ? (now.has_value() && *now == reads[i].value)
                                   : !now.has_value();
      if (!still_holds) return fail(PassStatus::kValidationFail);
    }

    // Phase 2: commit. All floor chunks are locked; reserve ONE commit
    // version, then stage pre-images and apply per chunk. Speculative
    // readers cannot validate against any touched chunk until its release,
    // and versioned readers at v < c use the pre-images -- so the whole
    // write set is atomic. Read-only chunks are neither stamped nor
    // pre-imaged: their contents do not change.
    if (n_ops > 0) {
      SV_FAULT_POINT(debug::Point::kBatchCommit);
      const std::uint64_t c = MA::version_reserve(m);
      const bool preserve = MA::snapshots_active(m);
      const std::size_t n_chunks = runs.size();  // splits append past this
      for (std::size_t ci = 0; ci < n_chunks; ++ci) {
        if (runs[ci].first == kNoRun) continue;
        MA::apply_chunk_ops(m, locked[ci], ops, order, runs[ci].first,
                            runs[ci].second, c, preserve, locked, res.applied,
                            res.delta);
      }
    }
    locks.release_all();
    ctx.drop_all();
    promote_inserted(m, ctx, ops, order);
    res.status = PassStatus::kCommitted;
    return res;
  }

  // Index shape of committed inserts: after the pass commits and its locks
  // are released, every key it newly inserted draws a random height -- the
  // distribution insert() uses -- and gets a tower when the draw is > 0.
  // Without this, key ranges that grow only through commits become one
  // orphan chain that every descent has to walk. A key counts as newly
  // inserted when its last op is a put and one of its puts applied.
  static void promote_inserted(Map& m, Ctx& ctx, const Op* ops,
                               const std::vector<std::uint32_t>& order) {
    bool inserted = false;
    for (std::size_t s = 0; s < order.size(); ++s) {
      const Op& op = ops[order[s]];
      const bool put = op.kind == mvcc::BatchOpKind::kPut;
      inserted = put && (inserted || op.applied);
      const bool last_of_key =
          s + 1 == order.size() || op.key < ops[order[s + 1]].key;
      if (!last_of_key) continue;
      if (inserted) {
        const std::uint32_t h = MA::random_height(m);
        if (h > 0 && MA::promote_tower(m, ctx, op.key, h)) {
          stats::count(stats::Counter::kTowerPromotions);
        }
      }
      inserted = false;
    }
  }

  struct BatchOutcome {
    std::size_t applied = 0;
    std::int64_t delta = 0;
  };

  // apply_batch's engine: sort once, then retry the commit pass until it
  // lands (batches carry no read set, so only lock conflicts and towered
  // removes can abort -- both are transient, hence the unbounded retry).
  static BatchOutcome run_batch(Map& m, Ctx& ctx, Op* ops, std::size_t n) {
    // Stable key order: lock acquisition order for deadlock freedom, and
    // same-key ops keep their submission order.
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ops[a].key < ops[b].key;
                     });
    sync::Backoff backoff;
    for (;;) {
      const PassResult r = try_commit(m, ctx, ops, order, {});
      if (r.status == PassStatus::kCommitted) {
        return BatchOutcome{r.applied, r.delta};
      }
      stats::count(stats::Counter::kBatchAborts);
      MA::note_restart(m);
      if (r.status == PassStatus::kNeedDemote) {
        // A remove targets a towered key: demote its tower (a benign
        // structural op -- the key stays present) outside the locking
        // pass, then retry the batch.
        MA::demote_tower(m, ctx, r.demote_key);
      }
      backoff.pause();
    }
  }
};

// Ordered gate set over a fixed array of shard mutexes: the cross-shard
// half of the lock manager. Multi-shard operations lock the gates of every
// involved shard in ascending shard order (the same deadlock-freedom
// argument as the ascending-key chunk locks); single-shard operations never
// touch a gate. Guards release in reverse order on destruction.
class ShardGates {
 public:
  explicit ShardGates(std::size_t n) {
    gates_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      gates_.push_back(std::make_unique<std::mutex>());
    }
  }

  class Guard {
   public:
    Guard() = default;
    Guard(Guard&&) = default;
    Guard& operator=(Guard&&) = default;
    bool holds_any() const noexcept { return !held_.empty(); }

   private:
    friend class ShardGates;
    std::vector<std::unique_lock<std::mutex>> held_;
  };

  // Lock the gates of shards [first, last] for which `involved` returns
  // true, ascending. Callers use this only for spans covering >= 2 involved
  // shards; a span of one (or zero) involved shards returns an empty guard
  // by construction of the predicate loop, preserving the single-shard
  // fast path ONLY if the caller pre-filters -- so callers should skip the
  // call entirely when first == last.
  template <class Pred>
  Guard lock_span(std::size_t first, std::size_t last, Pred&& involved) {
    Guard g;
    g.held_.reserve(last - first + 1);
    for (std::size_t s = first; s <= last && s < gates_.size(); ++s) {
      if (involved(s)) g.held_.emplace_back(*gates_[s]);
    }
    return g;
  }

  Guard lock_span(std::size_t first, std::size_t last) {
    return lock_span(first, last, [](std::size_t) { return true; });
  }

  std::size_t size() const noexcept { return gates_.size(); }

 private:
  // Heap-allocated so the owning container stays movable.
  std::vector<std::unique_ptr<std::mutex>> gates_;
};

}  // namespace sv::txn
