#include "views/redundancy.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <vector>

#include "base/check.h"
#include "base/thread_pool.h"
#include "tableau/reduce.h"

namespace viewcap {

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

namespace {

/// One leave-one-out scan, shared by IsNonredundantSet and
/// MakeNonredundant: the smallest redundant position (set.size() when no
/// member is redundant), and whether a test before it hit its budget.
struct LeaveOneOutScan {
  std::size_t redundant = 0;
  bool inconclusive = false;
};

/// Runs up to `limits.threads` leave-one-out tests at once over the
/// shared engine, claiming positions in ascending order and skipping every
/// position past the smallest redundant (or failed) one found so far. So
/// threads = 1 runs exactly the serial loop's tests, and at any thread
/// count every position the index-order fold reads has been tested.
/// QuerySet::Without never mints catalog names, so the tests only read the
/// catalog, as the engine contract requires.
Result<LeaveOneOutScan> ScanLeaveOneOut(Engine& engine, const QuerySet& set,
                                        SearchLimits limits) {
  const std::size_t threads =
      std::min(ThreadPool::DecideThreads(limits.threads), set.size());
  std::vector<std::optional<Result<RedundancyResult>>> tests(set.size());
  std::atomic<std::size_t> stop{set.size()};
  ParallelFor(engine.SharedPool(threads), threads, set.size(),
              [&](std::size_t pos) {
                if (pos > stop.load()) return;
                Result<RedundancyResult> test =
                    IsRedundant(engine, set, pos, limits);
                if (!test.ok() || test->redundant) {
                  std::size_t bound = stop.load();
                  while (pos < bound &&
                         !stop.compare_exchange_weak(bound, pos)) {
                  }
                }
                tests[pos] = std::move(test);
              });
  LeaveOneOutScan scan;
  for (; scan.redundant < set.size(); ++scan.redundant) {
    VIEWCAP_ASSIGN_OR_RETURN(RedundancyResult r,
                             *std::move(tests[scan.redundant]));
    if (r.redundant) break;
    if (r.membership.budget_exhausted) scan.inconclusive = true;
  }
  return scan;
}

}  // namespace

Result<bool> IsNonredundantSet(Engine& engine, const QuerySet& set,
                               SearchLimits limits, bool* inconclusive) {
  if (inconclusive != nullptr) *inconclusive = false;
  VIEWCAP_ASSIGN_OR_RETURN(LeaveOneOutScan scan,
                           ScanLeaveOneOut(engine, set, limits));
  if (inconclusive != nullptr) *inconclusive = scan.inconclusive;
  return scan.redundant == set.size();
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

  // Pass 2: greedily drop the smallest redundant position until a
  // fixpoint. Dropping one redundant member keeps the closure intact, so
  // re-testing against the shrunken set stays correct.
  while (result.kept.size() > 1) {
    VIEWCAP_ASSIGN_OR_RETURN(
        LeaveOneOutScan scan,
        ScanLeaveOneOut(engine,
                        QuerySet::FromView(view.Restrict(result.kept)),
                        limits));
    if (scan.inconclusive) result.inconclusive = true;
    if (scan.redundant == result.kept.size()) break;
    result.kept.erase(result.kept.begin() +
                      static_cast<std::ptrdiff_t>(scan.redundant));
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
