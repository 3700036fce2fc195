#include "views/redundancy.h"

#include <numeric>
#include <optional>
#include <vector>

#include "base/check.h"
#include "base/thread_pool.h"
#include "tableau/reduce.h"

namespace viewcap {

namespace {

/// Runs the |F| leave-one-out membership tests of a redundancy scan
/// concurrently (each IsRedundant builds its oracle over the shared,
/// thread-safe engine) and returns the per-index results for the caller
/// to replay in index order. QuerySet::Without never mints catalog names,
/// so the workers only read the catalog, as the engine contract requires.
std::vector<Result<RedundancyResult>> ScanAllMembers(Engine& engine,
                                                     const QuerySet& set,
                                                     SearchLimits limits,
                                                     std::size_t threads) {
  std::vector<std::optional<Result<RedundancyResult>>> slots(set.size());
  ParallelFor(engine.SharedPool(threads), threads, set.size(),
              [&](std::size_t i) {
                slots[i] = IsRedundant(engine, set, i, limits);
              });
  std::vector<Result<RedundancyResult>> results;
  results.reserve(slots.size());
  for (std::optional<Result<RedundancyResult>>& slot : slots) {
    results.push_back(*std::move(slot));
  }
  return results;
}

}  // namespace

Result<RedundancyResult> IsRedundant(Engine& engine, const QuerySet& set,
                                     std::size_t index, SearchLimits limits) {
  if (index >= set.size()) {
    return Status::InvalidArgument("query set member index out of range");
  }
  RedundancyResult result;
  if (set.size() == 1) {
    // The closure of the empty query set is empty: a singleton is never
    // redundant.
    return result;
  }
  CapacityOracle oracle(&engine, set.Without(index), limits);
  VIEWCAP_ASSIGN_OR_RETURN(result.membership,
                           oracle.Contains(set.members()[index].query));
  result.redundant = result.membership.member;
  return result;
}

Result<bool> IsNonredundantSet(Engine& engine, const QuerySet& set,
                               SearchLimits limits, bool* inconclusive) {
  if (inconclusive != nullptr) *inconclusive = false;
  const std::size_t threads = ThreadPool::DecideThreads(limits.threads);
  if (threads == 1 || set.size() <= 1) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      VIEWCAP_ASSIGN_OR_RETURN(RedundancyResult r,
                               IsRedundant(engine, set, i, limits));
      if (r.redundant) return false;
      if (r.membership.budget_exhausted && inconclusive != nullptr) {
        *inconclusive = true;
      }
    }
    return true;
  }
  // All leave-one-out oracles run concurrently; the verdict fold below
  // replays the serial loop in index order, so the returned verdict and
  // the inconclusive flag match threads == 1 exactly (members past the
  // first redundant one are evaluated speculatively but not observed).
  std::vector<Result<RedundancyResult>> scans =
      ScanAllMembers(engine, set, limits, threads);
  for (Result<RedundancyResult>& scan : scans) {
    VIEWCAP_ASSIGN_OR_RETURN(RedundancyResult r, std::move(scan));
    if (r.redundant) return false;
    if (r.membership.budget_exhausted && inconclusive != nullptr) {
      *inconclusive = true;
    }
  }
  return true;
}

Result<NonredundantViewResult> MakeNonredundant(Engine& engine,
                                                const View& view,
                                                SearchLimits limits) {
  NonredundantViewResult result;
  result.kept.resize(view.size());
  std::iota(result.kept.begin(), result.kept.end(), std::size_t{0});

  // Pass 1: drop definitions whose query duplicates an earlier one's
  // mapping (the #(F) < n case of Section 3.1). Interned equivalence
  // classes make this an id comparison.
  {
    std::vector<std::size_t> unique;
    for (std::size_t i : result.kept) {
      bool duplicate = false;
      for (std::size_t j : unique) {
        if (engine.Equivalent(view.definitions()[i].tableau,
                              view.definitions()[j].tableau)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) unique.push_back(i);
    }
    result.kept = std::move(unique);
  }

  // Pass 2: greedily drop redundant members until a fixpoint. Dropping one
  // redundant member keeps the closure intact, so re-testing against the
  // shrunken set stays correct.
  const std::size_t threads = ThreadPool::DecideThreads(limits.threads);
  bool changed = true;
  while (changed && result.kept.size() > 1) {
    changed = false;
    View current = view.Restrict(result.kept);
    QuerySet set = QuerySet::FromView(current);
    if (threads == 1) {
      for (std::size_t pos = 0; pos < result.kept.size(); ++pos) {
        VIEWCAP_ASSIGN_OR_RETURN(RedundancyResult r,
                                 IsRedundant(engine, set, pos, limits));
        if (r.membership.budget_exhausted) result.inconclusive = true;
        if (r.redundant) {
          result.kept.erase(result.kept.begin() +
                            static_cast<std::ptrdiff_t>(pos));
          changed = true;
          break;
        }
      }
    } else {
      // Concurrent leave-one-out scan; replaying in index order keeps the
      // victim choice — the smallest redundant position — and the
      // inconclusive flag identical to the serial loop, which is what
      // makes the final kept set thread-count-deterministic.
      std::vector<Result<RedundancyResult>> scans =
          ScanAllMembers(engine, set, limits, threads);
      for (std::size_t pos = 0; pos < scans.size(); ++pos) {
        VIEWCAP_ASSIGN_OR_RETURN(RedundancyResult r, std::move(scans[pos]));
        if (r.membership.budget_exhausted) result.inconclusive = true;
        if (r.redundant) {
          result.kept.erase(result.kept.begin() +
                            static_cast<std::ptrdiff_t>(pos));
          changed = true;
          break;
        }
      }
    }
  }
  result.view = view.Restrict(result.kept);
  return result;
}

std::size_t NonredundantSizeBound(Engine& engine, const QuerySet& set) {
  std::size_t bound = 0;
  for (const QuerySet::Member& m : set.members()) {
    bound += Reduce(engine.catalog(), m.query).size();
  }
  return bound;
}

}  // namespace viewcap
