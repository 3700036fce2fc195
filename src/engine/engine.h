// The memoizing closure engine: interned template classes and shared
// decision caches for the Section 2.4 kernels (see DESIGN.md, "The engine
// layer").
//
// Every decision procedure in the library runs the same
// substitute -> reduce -> canonicalize -> homomorphism pipeline over
// overlapping template sets. An Engine owns that pipeline once per
// analysis run: templates are interned into equivalence classes (same
// TableauId iff equivalent mappings), the hot kernels are memoized behind
// bounded LRU caches, and every cache exports hit/miss/eviction counters
// through an EngineStats snapshot.
//
// Thread-safety contract: every Engine method may be called concurrently
// from the threads of a call that answers independent membership
// questions at once — equivalence's two dominance directions, a
// redundancy scan's leave-one-out tests, an index build's views (DESIGN.md,
// "Parallel search"); each membership search itself is serial.
// The memo caches are striped behind per-shard mutexes, interning's
// canonical-key lookup-or-insert is atomic under a shard lock, the
// interning store is guarded by a reader/writer lock (published classes
// are immutable and their references stable), and the statistics
// counters are relaxed atomics. The expensive kernels themselves (reduce,
// canonicalize, substitute, homomorphism search) run OUTSIDE all locks.
// The row-embedding and expansion memos collapse concurrent misses on one
// key to one execution (waiters block until the first caller publishes),
// so those kernels run at most once per key. Interning does not: racing
// interns of one new form may both reduce and key it, and the shard lock
// still yields one id, so for the same questions asked concurrently only
// the reduce and canonical-key run counts can differ between runs — never
// an id, a verdict or a witness. The catalog behind the engine is only read;
// callers minting relations concurrently with searches must provide
// their own exclusion (the library's drivers mint before searching).
#ifndef VIEWCAP_ENGINE_ENGINE_H_
#define VIEWCAP_ENGINE_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algebra/expr.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "tableau/hom_kernel.h"
#include "tableau/soa.h"
#include "tableau/substitution.h"
#include "tableau/tableau.h"

namespace viewcap {

/// Identifier of an interned equivalence class of templates. Two templates
/// interned into one Engine receive the same TableauId if and only if they
/// realize the same mapping (Proposition 2.4.3): interning reduces to the
/// core (unique up to isomorphism, Section 4.2) and looks up the core's
/// exact canonical key, which names the class. Ids are dense indices,
/// stable for the engine's lifetime — the interning store never evicts.
using TableauId = std::size_t;

inline constexpr TableauId kInvalidTableauId =
    static_cast<TableauId>(-1);

/// Outcome of a closure-membership test (Theorem 2.4.11). Lives in the
/// engine layer because membership verdicts are what the engine's verdict
/// cache stores; views/capacity.h re-exports it for its callers.
struct MembershipResult {
  /// True when the query was shown to be in the closure.
  bool member = false;
  /// When member: an expression over the query-set handles whose expansion
  /// is equivalent to the query — the paper's construction T -> beta with
  /// T the witness's template (Theorem 2.3.2).
  ExprPtr witness;
  /// True when a negative verdict is inconclusive because the enumeration
  /// ran short of the Lemma 2.4.8 bound: it stopped on max_candidates
  /// before finding a witness or exhausting the leaf budget, or it
  /// exhausted a leaf budget that max_leaves held below the reduced
  /// query's row count.
  bool budget_exhausted = false;
  std::size_t candidates_tried = 0;
  std::size_t leaf_budget = 0;
};

/// Outcome of a dominance test "does `v` dominate `w`", i.e. is Cap(W)
/// contained in Cap(V)? Decided via Lemma 1.5.4: every defining query of
/// W must lie in Cap(V). Lives in the engine layer for the same reason as
/// MembershipResult — whole dominance answers are what the engine's
/// dominance cache stores; views/equivalence.h re-exports it.
struct DominanceResult {
  bool dominates = false;
  /// True when some membership test hit its candidate budget: a negative
  /// answer is then not a proof of non-dominance.
  bool inconclusive = false;
  /// For each definition of `w` (by index) that was found in Cap(V): an
  /// expression over V's schema whose expansion answers it.
  std::vector<ExprPtr> witnesses;
  /// Indices of `w` definitions not found in Cap(V).
  std::vector<std::size_t> missing;
};

/// How a live membership search reached its verdict (see
/// CapacityOracle::Contains). Verdict-cache and index hits are not live
/// searches: their own counters count them.
enum class MembershipRoute {
  kCanonicalWitness,  ///< The single-copy canonical witness was equivalent.
  kRefutation,        ///< The canonical rewriting proved non-membership.
  kEnumeration,       ///< The Lemma 2.4.10 enumeration decided (or ran out).
};

/// Live membership verdicts per MembershipRoute.
struct MembershipCounters {
  std::size_t canonical_witness = 0;
  std::size_t refutation = 0;
  std::size_t enumeration = 0;

  bool operator==(const MembershipCounters&) const = default;
};

/// Engine tuning.
struct EngineOptions {
  /// Per-cache entry bound for the memo caches (the intern fingerprint
  /// memo, row embeddings, expansions, membership and dominance
  /// verdicts). 0 disables memoization (every request is a miss and
  /// nothing is stored). The interning store is exempt: evicting a class
  /// would invalidate issued TableauIds.
  std::size_t max_memo_entries = 1 << 16;
};

/// Counter snapshot for one memo cache. `requests - runs` is the hit
/// count; `runs` counts actual kernel executions (misses).
struct CacheCounters {
  std::size_t requests = 0;
  std::size_t runs = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;

  std::size_t hits() const { return requests - runs; }

  bool operator==(const CacheCounters&) const = default;
};

/// Point-in-time snapshot of an engine's caches (see
/// RenderEngineStats in core/report.h for the human-readable form). Under
/// concurrent use the counters are relaxed atomics: totals are exact once
/// the workers have quiesced, but a snapshot taken mid-search may be
/// momentarily inconsistent across counters (e.g. requests read before a
/// racing run is counted).
struct EngineStats {
  CacheCounters row_embedding;  ///< Row-embedding between interned pairs.
  CacheCounters expansion;      ///< Reduced T -> beta expansion classes.
  CacheCounters verdict;        ///< Membership verdicts per (set, query).
  CacheCounters dominance;      ///< Dominance verdicts per (view pair).

  std::size_t intern_requests = 0;
  std::size_t intern_hits = 0;       ///< Existing class found.
  std::size_t interned_classes = 0;  ///< Live classes (never evicted).
  /// Kernel runs behind Intern's fingerprint memo: one Reduce
  /// (Prop 2.4.4) per memo miss, one CanonicalKey per core form the memo
  /// has not seen.
  std::size_t reduce_runs = 0;
  std::size_t canonical_key_runs = 0;

  /// Candidate-filter activity of the kernel searches the engine ran
  /// (`survivors / rows` is the survivor rate the stats renderer
  /// reports). Filter work happens only inside kernel executions (cache
  /// misses), so like the `runs` counters these are exact at threads=1.
  FilterCounters filter;

  /// How the live membership searches over this engine were settled.
  MembershipCounters membership;

  bool operator==(const EngineStats&) const = default;
};

/// Exact structural fingerprint of a template: equal strings iff equal
/// universe, rows, tags and symbols (no renaming). The key of Intern's
/// memo: it costs one pass over the rows, where finding the class costs
/// a Reduce and a canonical-labeling search.
std::string TableauFingerprint(const Tableau& t);

/// Version of the fingerprint/cache-key scheme: TableauFingerprint's
/// format, CanonicalKey's format, the verdict-key layout built by
/// CapacityOracle::VerdictKey and the dominance-key layout of
/// DominanceKeyFor. Bump whenever any of those encodings changes, and
/// whenever what a live search returns for a key changes (a verdict's
/// witness, candidates_tried or budget_exhausted) — the persistent capacity
/// index stamps this version into its header and a reader rejects files
/// written under a different scheme (src/index/), so stale key layouts and
/// stale stored verdicts are never silently served.
inline constexpr std::uint32_t kFingerprintSchemeVersion = 3;

class Engine;

/// One membership question as the persistent index sees it: the query
/// set's members (handles and interned classes, in member order), the
/// interned query class, and the search limits the caller is using.
/// Everything is expressed in process-local TableauIds; the index
/// implementation translates them to its stored class ordinals via the
/// engine's canonical keys (see src/index/index_reader.h).
struct MembershipProbe {
  const std::vector<RelId>* handles = nullptr;
  const std::vector<TableauId>* member_ids = nullptr;
  /// The oracle's set fingerprint — a process-local cache key the index
  /// may use to memoize its own set resolution (never persisted).
  const std::string* set_fingerprint = nullptr;
  TableauId query_id = kInvalidTableauId;
  std::size_t extra_leaves = 0;
  std::size_t max_leaves = 0;
  std::size_t max_candidates = 0;
};

/// A read-only source of precomputed verdicts consulted between the
/// engine's in-memory caches and a live closure search (the persistent
/// capacity index of src/index/ is the one implementation; tests stub
/// it). A lookup either returns the exact verdict the live engine would
/// compute — bit-identical member/witness/budget fields — or nullopt, in
/// which case the caller falls back to the live search. Implementations
/// must be safe for concurrent lookups and must record their own
/// hit/miss/fallback counters.
class VerdictIndex {
 public:
  virtual ~VerdictIndex() = default;

  /// Precomputed Theorem 2.4.11 membership verdict, or nullopt when the
  /// probe's set, query class or limits are not covered.
  virtual std::optional<MembershipResult> LookupMembership(
      Engine& engine, const MembershipProbe& probe) = 0;

  /// Precomputed Lemma 1.5.4 dominance verdict under the exact
  /// process-independent dominance key (DominanceKeyFor), or nullopt.
  virtual std::optional<DominanceResult> LookupDominance(
      Engine& engine, const std::string& key) = 0;
};

/// A bounded memo cache with LRU eviction. Values are returned by pointer
/// valid only until the next Put (eviction may free them); callers copy
/// immediately. Capacity 0 disables the cache entirely: Get always misses
/// and Put stores nothing. NOT thread-safe — this is the single-stripe
/// core; concurrent callers go through StripedMemoCache, which shards keys
/// across independently locked MemoCache stripes.
template <typename Value>
class MemoCache {
 public:
  explicit MemoCache(std::size_t capacity) : capacity_(capacity) {}

  /// nullptr on miss; refreshes recency on hit.
  const Value* Get(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// No-op when the cache is disabled (capacity 0).
  void Put(const std::string& key, Value value) {
    if (capacity_ == 0) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    if (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  std::size_t size() const { return index_.size(); }
  std::size_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<std::pair<std::string, Value>> order_;  // Front = most recent.
  std::unordered_map<std::string,
                     typename std::list<std::pair<std::string, Value>>::
                         iterator>
      index_;
  std::size_t evictions_ = 0;
};

/// Thread-safe facade over hash-sharded MemoCache stripes, each behind its
/// own mutex. The total capacity is divided exactly across the stripes, so
/// the aggregate entry bound equals the configured capacity; LRU recency
/// is tracked per stripe (an approximation of global LRU — see DESIGN.md,
/// "Parallel search", for the tradeoff against per-worker caches). Small
/// capacities (or 0 = disabled) collapse to a single stripe so the
/// historical single-threaded eviction order is preserved exactly.
template <typename Value>
class StripedMemoCache {
 public:
  /// Stripe count for capacities large enough to shard.
  static constexpr std::size_t kStripes = 8;

  explicit StripedMemoCache(std::size_t capacity) {
    const std::size_t stripes =
        capacity >= kStripes * kStripes ? kStripes : 1;
    stripes_.reserve(stripes);
    for (std::size_t i = 0; i < stripes; ++i) {
      // Distribute the capacity exactly: the first capacity % stripes
      // stripes take one extra entry.
      const std::size_t share =
          capacity / stripes + (i < capacity % stripes ? 1 : 0);
      stripes_.push_back(std::make_unique<Stripe>(share));
    }
  }

  /// Copy-out get: the stripe lock is held only for the lookup, so the
  /// returned value stays valid regardless of concurrent Puts.
  std::optional<Value> Get(const std::string& key) {
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    const Value* hit = stripe.cache.Get(key);
    if (hit == nullptr) return std::nullopt;
    return *hit;
  }

  void Put(const std::string& key, Value value) {
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.cache.Put(key, std::move(value));
  }

  /// Compute-once get. On a miss, exactly one caller runs `compute`
  /// (outside the stripe lock); concurrent requests for the same key
  /// block until the result is published and then return it as a hit.
  /// `*ran` reports whether THIS call executed `compute`, so run counters
  /// derived from it count one execution per key regardless of how the
  /// requests interleave — the property the engine's differential stats
  /// tests depend on. `compute` returns std::optional<Value>; nullopt is
  /// not cached (the caller surfaces its own error) and releases any
  /// waiters to compute for themselves, matching the serial behavior of
  /// re-running an uncacheable request. With the cache disabled
  /// (capacity 0) every call computes immediately and nothing blocks.
  template <typename Fn>
  std::optional<Value> GetOrCompute(const std::string& key,
                                    const Fn& compute, bool* ran) {
    Stripe& stripe = StripeFor(key);
    {
      std::unique_lock<std::mutex> lock(stripe.mu);
      if (!stripe.disabled) {
        for (;;) {
          if (const Value* hit = stripe.cache.Get(key)) {
            *ran = false;
            return *hit;
          }
          if (stripe.in_flight.find(key) == stripe.in_flight.end()) break;
          stripe.cv.wait(lock);
        }
        stripe.in_flight.insert(key);
      }
    }
    *ran = true;
    std::optional<Value> value = compute();
    if (stripe.disabled) return value;
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      stripe.in_flight.erase(key);
      if (value.has_value()) stripe.cache.Put(key, *value);
    }
    stripe.cv.notify_all();
    return value;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe->mu);
      total += stripe->cache.size();
    }
    return total;
  }

  std::size_t evictions() const {
    std::size_t total = 0;
    for (const auto& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe->mu);
      total += stripe->cache.evictions();
    }
    return total;
  }

 private:
  struct Stripe {
    explicit Stripe(std::size_t capacity)
        : cache(capacity), disabled(capacity == 0) {}
    mutable std::mutex mu;
    std::condition_variable cv;
    MemoCache<Value> cache;
    /// Keys whose value is being computed by some caller right now
    /// (GetOrCompute); requests for them wait instead of duplicating the
    /// kernel execution.
    std::unordered_set<std::string> in_flight;
    const bool disabled;
  };

  Stripe& StripeFor(const std::string& key) {
    return *stripes_[std::hash<std::string>{}(key) % stripes_.size()];
  }

  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// One analysis run's shared closure machinery. The catalog must outlive
/// the engine; catalog growth (minted handles) is fine — the engine never
/// enumerates the catalog. Safe for concurrent use by the parallel search
/// workers (see the file comment for the exact contract).
class Engine {
 public:
  explicit Engine(const Catalog* catalog, EngineOptions options = {});

  const Catalog& catalog() const { return *catalog_; }
  const EngineOptions& options() const { return options_; }

  /// Interns `t`'s equivalence class: reduce to the core, take its exact
  /// canonical key, and look the key up — equal keys are one class. One
  /// exact-fingerprint memo fronts the pipeline and maps both the input's
  /// and its core's fingerprint to the id, so re-interning a form seen
  /// before (an input, or a representative) runs no kernel, and a new
  /// input whose core was seen before runs Reduce but not CanonicalKey.
  /// The key lookup-or-insert is atomic under a per-key shard lock, so
  /// concurrent interns of equivalent templates agree on one id.
  TableauId Intern(const Tableau& t);

  /// The class's stored reduced representative. The reference is stable
  /// for the engine's lifetime: the interning store is a deque, so adding
  /// classes never moves previously stored representatives, and published
  /// representatives are immutable.
  const Tableau& Representative(TableauId id) const;

  /// The class representative's cached SoA lowering — computed exactly
  /// once per equivalence class, when the class is interned. Reference
  /// stability mirrors Representative(): the store is a deque of
  /// immutable published entries.
  const SoaTemplate& SoaForm(TableauId id) const;

  /// The exact canonical key that names the class (CanonicalKey of its
  /// representative), as computed when the class was interned. The
  /// persistent index stores and resolves classes by it.
  const std::string& ClassKey(TableauId id) const;

  /// Mapping equivalence as an id comparison (Proposition 2.4.3 via the
  /// interning invariant).
  bool Equivalent(const Tableau& a, const Tableau& b);

  /// Memoized row-embedding existence between class representatives (the
  /// capacity search's completeness-preserving prune). Row embeddings
  /// compose with the two-way homomorphisms linking a class member to its
  /// representative, so the verdict is class-invariant.
  bool RowEmbeds(TableauId from, TableauId to);

  /// The class of the reduced expansion Reduce(Representative(level) ->
  /// beta), memoized by (level, interned classes of beta's assignments on
  /// RN(level)). By the substitution congruence (Lemma 2.3.1) the class
  /// depends only on those inputs, so the cache is shared across query
  /// sets that route the same handles to equivalent queries — redundancy's
  /// leave-one-out loops reuse the full-set closure frontier.
  Result<TableauId> ExpansionClass(TableauId level,
                                   const TemplateAssignment& beta);

  /// Cached membership verdict lookup. Keys are built by the capacity
  /// oracle from (query-set fingerprint, search limits, query class); see
  /// DESIGN.md for why the set fingerprint includes the handle names.
  /// Returns by value: under concurrency a pointer into the cache could
  /// dangle on the next store.
  std::optional<MembershipResult> LookupVerdict(const std::string& key);
  void StoreVerdict(const std::string& key, const MembershipResult& verdict);

  /// Cached dominance verdict lookup (whole Lemma 1.5.4 answers, one
  /// level above the membership verdicts). Keys are built by
  /// views/equivalence from the member-wise fingerprints of both views
  /// plus the search limits — fingerprints, not interned ids, so a warm
  /// hit costs string building and one probe, never an intern.
  std::optional<DominanceResult> LookupDominance(const std::string& key);
  void StoreDominance(const std::string& key, const DominanceResult& verdict);

  /// Counts one live membership verdict under `route`
  /// (EngineStats::membership).
  void CountMembership(MembershipRoute route);

  /// The worker pool shared by every call over this engine that runs
  /// independent questions at once, sized for `total_threads` concurrent
  /// threads (the pool holds total_threads - 1 workers; the calling
  /// thread itself is the last party). Callers ask for no more threads
  /// than they have questions, so no call starts workers it cannot use.
  /// Null for total_threads <= 1, which ParallelFor runs as a plain loop,
  /// so a serial call never builds a pool. Created lazily and grown, never
  /// shrunk, by later calls asking for more.
  ThreadPool* SharedPool(std::size_t total_threads);

  /// One-call consistent snapshot of the relaxed-atomic statistics: the
  /// counters are re-read until two consecutive full reads agree (bounded
  /// retries), so a quiescent engine always reports an exact, mutually
  /// consistent vector and a busy one reports the last stable-enough
  /// read. This is the single entry point for every stats consumer — the
  /// CLI's --engine-stats, the daemon's live `stats` method, the report
  /// renderer — none of them read individual counters field-by-field.
  EngineStats StatsSnapshot() const;

  /// Attaches a precomputed verdict source (or detaches with nullptr).
  /// The index must outlive its attachment; verdict consumers
  /// (CapacityOracle::Contains, Dominates) consult it after an in-memory
  /// cache miss and before a live search. Attachment is atomic so a
  /// serving process may attach while searches run; lookups already in
  /// flight simply miss it.
  void AttachIndex(VerdictIndex* index) {
    attached_index_.store(index, std::memory_order_release);
  }
  VerdictIndex* attached_index() const {
    return attached_index_.load(std::memory_order_acquire);
  }

 private:
  /// One relaxed pass over every counter; under concurrent use the result
  /// may mix before/after values of a racing update (StatsSnapshot's
  /// retry loop is what restores consistency).
  EngineStats ReadStatsOnce() const;

  /// Relaxed-atomic counter shorthand (statistics only; never used for
  /// synchronization).
  using Counter = std::atomic<std::size_t>;
  static std::size_t Load(const Counter& c) {
    return c.load(std::memory_order_relaxed);
  }
  static void Bump(Counter& c) { c.fetch_add(1, std::memory_order_relaxed); }
  static void Add(Counter& c, std::size_t n) {
    if (n != 0) c.fetch_add(n, std::memory_order_relaxed);
  }

  /// The thread-local kernel scratch with its filter counters zeroed.
  /// Every kernel call site pairs it with HarvestFilter, which folds the
  /// counters the calls accumulated into the engine's filter stats.
  /// Leases never nest: each site prepares, runs its searches, and
  /// harvests before returning to code that could take another lease.
  HomScratch& PreparedScratch();
  void HarvestFilter(const HomScratch& scratch);

  /// Shard count for the interning key locks.
  static constexpr std::size_t kInternShards = 16;

  const Catalog* catalog_;
  EngineOptions options_;

  // One interned class: its reduced representative, the representative's
  // SoA lowering, and its canonical key (the key of its class_of_key_
  // entry; map nodes never move or die).
  struct InternedClass {
    Tableau representative;
    SoaTemplate soa;
    const std::string* key;
  };

  // Interning store: never evicted (ids must stay valid). A deque, not a
  // vector, so Representative() references survive later Intern() growth
  // (ExpansionClass interns beta's assignments while holding the level's
  // representative). classes_mu_ guards the deque's internal structure
  // only: published elements are immutable and their references stable, so
  // readers hold the lock just for the index operation.
  mutable std::shared_mutex classes_mu_;
  std::deque<InternedClass> classes_;

  // Canonical key -> class id. keys_mu_ guards the map's find-or-insert
  // (references to mapped values survive rehashing); each mapped id is
  // then owned by the shard lock of its key, which is held across the
  // whole lookup-or-insert so concurrent interns of one class serialize.
  std::mutex keys_mu_;
  std::array<std::mutex, kInternShards> intern_shard_mu_;
  std::unordered_map<std::string, TableauId> class_of_key_;

  // Lazily created parallel-search pool (SharedPool).
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;

  // Exact fingerprint -> interned id, for inputs and their cores. Ids are
  // never invalidated (classes are not evicted), so a bounded LRU over the
  // mapping is safe: eviction only re-routes a future request through the
  // kernels, which re-derive the same id.
  StripedMemoCache<TableauId> intern_cache_;
  StripedMemoCache<bool> embed_cache_;
  StripedMemoCache<TableauId> expansion_cache_;
  StripedMemoCache<MembershipResult> verdict_cache_;
  StripedMemoCache<DominanceResult> dominance_cache_;

  // requests/runs counters; entries/evictions come from the caches.
  Counter embed_requests_{0}, embed_runs_{0};
  Counter expansion_requests_{0}, expansion_runs_{0};
  Counter verdict_requests_{0}, verdict_runs_{0};
  Counter dominance_requests_{0}, dominance_runs_{0};
  Counter intern_requests_{0}, intern_hits_{0};
  Counter reduce_runs_{0}, key_runs_{0};
  // Candidate-filter counters (EngineStats::filter), harvested from
  // kernel scratch after each search batch.
  Counter filter_invocations_{0}, filter_rows_{0}, filter_survivors_{0};
  // Live membership verdicts, indexed by MembershipRoute.
  std::array<Counter, 3> membership_routes_{};

  std::atomic<VerdictIndex*> attached_index_{nullptr};
};

}  // namespace viewcap

#endif  // VIEWCAP_ENGINE_ENGINE_H_
