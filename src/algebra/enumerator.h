// Systematic enumeration of PJ expressions over a fixed set of relation
// names, by leaf budget. This is the engine behind the decision procedures
// of Section 2.4: it explores the same space as the J_k template
// enumeration of Lemma 2.4.9, organized by expressions (every expression
// template arises from Algorithm 2.1.1, and an expression with m leaf
// occurrences yields a template with at most m rows).
#ifndef VIEWCAP_ALGEBRA_ENUMERATOR_H_
#define VIEWCAP_ALGEBRA_ENUMERATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "algebra/expr.h"
#include "base/thread_pool.h"

namespace viewcap {

/// Budgets for the bounded enumerations implementing the paper's decision
/// procedures (Lemma 2.4.10 and its users). The leaf budget defaults to
/// the reduced row count of the query under test — the bound Lemma 2.4.8
/// establishes for the needed construction — plus `extra_leaves` slack;
/// see DESIGN.md for the completeness discussion.
struct SearchLimits {
  /// Extra leaves beyond the Lemma 2.4.8 row bound.
  std::size_t extra_leaves = 0;
  /// Hard cap on the leaf budget regardless of the query's size.
  std::size_t max_leaves = 10;
  /// Cap on candidate expressions examined before giving up.
  std::size_t max_candidates = 200000;
  /// Worker threads for the closure searches. 1 (the default) is the
  /// exact legacy serial behavior; 0 means hardware_concurrency; any
  /// other value is the total thread count including the calling thread.
  /// Verdicts, witnesses and search statistics are identical for every
  /// value (see ExprEnumerator::EnumerateSharded), so the knob is not part
  /// of the engine's verdict-cache key.
  std::size_t threads = 1;
};

/// Enumerates expressions in normalized form: a leaf, or a binary join of
/// previously-kept candidates, each optionally wrapped in one projection
/// (consecutive projections compose, so one per node is complete).
/// Associativity/commutativity duplicates are expected; the caller's visit
/// callback is responsible for semantic deduplication and decides which
/// candidates become building blocks for larger expressions.
class ExprEnumerator {
 public:
  enum class Verdict {
    kKeep,  ///< Record as a building block for larger candidates.
    kSkip,  ///< Drop (duplicate or uninteresting), keep enumerating.
    kStop,  ///< Abort the whole enumeration.
  };

  struct Stats {
    std::size_t generated = 0;  ///< Candidates passed to the callback.
    std::size_t kept = 0;       ///< Candidates the callback kept.
    bool stopped = false;       ///< Callback requested kStop.
    bool exhausted_budget = false;  ///< Hit max_candidates.
  };

  using Visitor = std::function<Verdict(const ExprPtr&)>;

  /// `names` are the permitted leaf relation names (typically a view
  /// schema). The catalog must outlive the enumerator.
  ExprEnumerator(const Catalog* catalog, std::vector<RelId> names);

  /// Visits candidates in nondecreasing leaf count up to `max_leaves`,
  /// stopping early after `max_candidates` callback invocations.
  Stats Enumerate(std::size_t max_leaves, std::size_t max_candidates,
                  const Visitor& visit) const;

  /// The sharded (parallel) enumeration driver behind the Lemma 2.4.10
  /// closure searches. Key fact making this possible: the candidate
  /// stream at leaf level s depends only on the kKeep verdicts at levels
  /// strictly below s (level-s joins combine kept blocks of a + b = s
  /// leaves with a, b >= 1), so enumeration proceeds in level waves:
  ///
  ///   1. generate the level's candidates — a deterministic list;
  ///   2. evaluate them on up to `threads` workers (`evaluate`, which
  ///      must be thread-safe and must not touch enumeration state),
  ///      sharded dynamically by candidate index; a candidate whose
  ///      evaluation `is_stop` (witness or failure) ratchets the shared
  ///      cancellation bound down to its index, and workers skip every
  ///      candidate above the bound — but never one below it, so the
  ///      SMALLEST stop index is always found exactly;
  ///   3. commit the results in enumeration-index order on the calling
  ///      thread (`commit` — the only place allowed to touch dedup
  ///      registries and kept blocks), stopping at the first kStop.
  ///
  /// The committed verdict sequence — and with it Stats — is identical to
  /// Enumerate() running evaluate+commit fused, for every thread count:
  /// `generated` counts committed candidates (the serial callback-
  /// invocation count; speculative evaluations beyond a stop index are
  /// not observable), `exhausted_budget` is set only when the enumeration
  /// truncated the stream at max_candidates AND no earlier commit
  /// stopped it — a cancelled (witness-found) search never reports an
  /// exhausted budget.
  ///
  /// `commit` may return kStop for a candidate `is_stop` was false for
  /// (and vice versa — e.g. a failure that dedup would have skipped);
  /// cancellation is only a work-saving hint. If the commit walk passes
  /// the cancellation bound, the remaining (skipped) candidates are
  /// evaluated lazily on the calling thread.
  template <typename EvalResult>
  struct ShardedVisitor {
    /// Worker-side per-candidate evaluation (thread-safe, order-free).
    /// The commit walk also calls it for candidates the cancellation bound
    /// skipped.
    std::function<EvalResult(const ExprPtr&)> evaluate;
    /// Worker-side cancellation predicate over an evaluation (cheap).
    std::function<bool(const EvalResult&)> is_stop;
    /// Serial, enumeration-index-order verdict (sole state mutator).
    std::function<Verdict(const ExprPtr&, const EvalResult&)> commit;
  };

  /// Candidates per worker chunk. Small enough to keep the cancellation
  /// bound responsive, large enough to amortize per-chunk dispatch.
  static constexpr std::size_t kWaveChunk = 8;

  template <typename EvalResult>
  Stats EnumerateSharded(std::size_t max_leaves, std::size_t max_candidates,
                         std::size_t threads, ThreadPool* pool,
                         const ShardedVisitor<EvalResult>& visitor) const {
    Stats stats;
    if (max_leaves == 0) return stats;
    std::vector<std::vector<ExprPtr>> kept(max_leaves + 1);
    for (std::size_t s = 1; s <= max_leaves; ++s) {
      const std::size_t remaining = max_candidates - stats.generated;
      std::vector<ExprPtr> level;
      const bool truncated = GenerateLevel(s, kept, remaining, &level);
      if (truncated) stats.exhausted_budget = true;

      // Evaluate the wave. Chunks of kWaveChunk candidates are handed out
      // in increasing order, and a chunk is skipped only when its first
      // index is beyond the stop bound, so every index at or below the
      // final stop bound is evaluated before the workers drain; rounds
      // past a settled stop bound are skipped (left empty).
      std::vector<std::optional<EvalResult>> evals(level.size());
      std::atomic<std::size_t> stop_bound{
          std::numeric_limits<std::size_t>::max()};
      const auto ratchet = [&stop_bound](std::size_t i) {
        // Ratchet down to the smallest stop index seen.
        std::size_t bound = stop_bound.load(std::memory_order_acquire);
        while (i < bound && !stop_bound.compare_exchange_weak(
                                bound, i, std::memory_order_acq_rel)) {
        }
      };
      const std::size_t chunks = (level.size() + kWaveChunk - 1) / kWaveChunk;
      const auto run_chunk = [&](std::size_t c) {
        const std::size_t end = std::min(level.size(), (c + 1) * kWaveChunk);
        for (std::size_t i = c * kWaveChunk; i < end; ++i) {
          EvalResult eval = visitor.evaluate(level[i]);
          if (visitor.is_stop(eval)) ratchet(i);
          evals[i] = std::move(eval);
        }
      };
      // Chunks are dispatched in fixed rounds of `threads` with a barrier
      // between rounds, and the cancellation bound is consulted only at
      // round boundaries (where every prior chunk has quiesced). The set
      // of evaluated candidates is therefore a pure function of the level
      // and the smallest stop index — never of thread timing — which is
      // what keeps the engine's memo counters identical across runs at a
      // given thread count (racing interns aside: engine.h).
      // Rounds of one chunk at threads <= 1 reproduce the serial
      // check-before-every-chunk behavior exactly.
      const std::size_t round = threads > 1 ? threads : 1;
      for (std::size_t first = 0; first < chunks; first += round) {
        if (first * kWaveChunk > stop_bound.load(std::memory_order_acquire)) {
          break;
        }
        const std::size_t last = std::min(chunks, first + round);
        ParallelFor(pool, threads, last - first,
                    [&](std::size_t k) { run_chunk(first + k); });
      }

      // Commit in enumeration order; this is the serial replay that makes
      // every thread count observationally identical.
      for (std::size_t i = 0; i < level.size(); ++i) {
        if (!evals[i].has_value()) {
          // Beyond a stop bound the commit walk out-voted (e.g. the stop
          // candidate was a duplicate): fall back to lazy evaluation.
          evals[i] = visitor.evaluate(level[i]);
        }
        ++stats.generated;
        switch (visitor.commit(level[i], *evals[i])) {
          case Verdict::kKeep:
            ++stats.kept;
            kept[s].push_back(level[i]);
            break;
          case Verdict::kSkip:
            break;
          case Verdict::kStop:
            stats.stopped = true;
            stats.exhausted_budget = false;
            return stats;
        }
      }
      if (truncated) return stats;
    }
    return stats;
  }

 private:
  /// Appends level-`s` candidates to *out in exact enumeration order
  /// (each base candidate followed by its nontrivial projections): level
  /// 1 is the relation names; level s >= 2 is binary joins of kept
  /// blocks with a + b = s leaves. Generates at most `cap` candidates;
  /// returns true when the level was truncated by the cap (i.e. at least
  /// one more candidate existed).
  bool GenerateLevel(std::size_t s,
                     const std::vector<std::vector<ExprPtr>>& kept,
                     std::size_t cap, std::vector<ExprPtr>* out) const;

  const Catalog* catalog_;
  std::vector<RelId> names_;
};

}  // namespace viewcap

#endif  // VIEWCAP_ALGEBRA_ENUMERATOR_H_
