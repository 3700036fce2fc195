#include "views/equivalence.h"

#include <algorithm>
#include <optional>
#include <string>

#include "base/thread_pool.h"

namespace viewcap {

// Built from fingerprints rather than interned ids so a warm repeat never
// touches the interning store (see the header for the key's contract).
std::string DominanceKeyFor(const View& v, const View& w,
                            const SearchLimits& limits) {
  std::string key = "D";
  const auto append_members = [&key](const View& view) {
    for (const ViewDefinition& d : view.definitions()) {
      key += std::to_string(d.rel);
      key += ':';
      key += TableauFingerprint(d.tableau);
      key += ';';
    }
  };
  append_members(v);
  key += '|';
  append_members(w);
  key += '|';
  key += std::to_string(limits.extra_leaves);
  key += ',';
  key += std::to_string(limits.max_leaves);
  key += ',';
  key += std::to_string(limits.max_candidates);
  return key;
}

Result<DominanceResult> Dominates(Engine& engine, const View& v,
                                  const View& w, SearchLimits limits) {
  if (v.universe() != w.universe()) {
    return Status::IllFormed(
        "views are not over the same underlying universe");
  }
  const std::string dominance_key = DominanceKeyFor(v, w, limits);
  if (std::optional<DominanceResult> cached =
          engine.LookupDominance(dominance_key)) {
    return *std::move(cached);
  }
  // A persistent index answers by the same process-independent key; a hit
  // is promoted into the in-memory dominance cache so the next repeat is
  // a pure memory lookup.
  if (VerdictIndex* index = engine.attached_index()) {
    if (std::optional<DominanceResult> hit =
            index->LookupDominance(engine, dominance_key)) {
      engine.StoreDominance(dominance_key, *hit);
      return *std::move(hit);
    }
  }
  CapacityOracle oracle(&engine, v, limits);
  DominanceResult result;
  result.dominates = true;
  result.witnesses.resize(w.size());
  for (std::size_t j = 0; j < w.size(); ++j) {
    VIEWCAP_ASSIGN_OR_RETURN(
        MembershipResult membership,
        oracle.Contains(w.definitions()[j].tableau));
    if (membership.member) {
      result.witnesses[j] = membership.witness;
    } else {
      result.dominates = false;
      result.missing.push_back(j);
      if (membership.budget_exhausted) result.inconclusive = true;
    }
  }
  engine.StoreDominance(dominance_key, result);
  return result;
}

Result<EquivalenceResult> AreEquivalent(Engine& engine, const View& v,
                                        const View& w, SearchLimits limits) {
  // The two dominance directions are independent questions over the
  // shared engine, run at once when `limits.threads` allows. Both are
  // always computed in full, so the combined verdict is order-independent.
  const std::size_t threads =
      std::min<std::size_t>(ThreadPool::DecideThreads(limits.threads), 2);
  std::optional<Result<DominanceResult>> directions[2];
  ParallelFor(engine.SharedPool(threads), threads, 2, [&](std::size_t i) {
    directions[i] = i == 0 ? Dominates(engine, v, w, limits)
                           : Dominates(engine, w, v, limits);
  });
  EquivalenceResult result;
  VIEWCAP_ASSIGN_OR_RETURN(result.v_over_w, *std::move(directions[0]));
  VIEWCAP_ASSIGN_OR_RETURN(result.w_over_v, *std::move(directions[1]));
  result.equivalent =
      result.v_over_w.dominates && result.w_over_v.dominates;
  result.inconclusive =
      result.v_over_w.inconclusive || result.w_over_v.inconclusive;
  return result;
}

}  // namespace viewcap
