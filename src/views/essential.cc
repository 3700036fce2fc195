#include "views/essential.h"

#include <algorithm>
#include <unordered_set>

#include "base/check.h"
#include "base/strings.h"

namespace viewcap {

DescendantAnalysis AnalyzeDescendants(const Tableau& q, const Tableau& t,
                                      const ExhibitedConstruction& c) {
  DescendantAnalysis analysis;
  analysis.immediate_descendant.resize(q.size());
  for (std::size_t p = 0; p < q.size(); ++p) {
    const TaggedTuple& rho = q.rows()[p];
    const TaggedTuple image{rho.rel, rho.tuple.Apply(c.hom)};
    // Locate the block containing the image row. blocks[i] is the
    // <tau_i, beta(lambda_i)> block for the i-th row of the level template.
    bool found = false;
    for (std::size_t i = 0; i < c.substitution.blocks.size() && !found; ++i) {
      const RelId lambda = c.level_template.rows()[i].rel;
      for (std::size_t j = 0; j < c.substitution.blocks[i].size(); ++j) {
        if (c.substitution.blocks[i][j] == image) {
          if (c.beta.at(lambda) == t) {
            // A T-block: the immediate descendant is the j-th row of T
            // (block rows are images of beta(lambda)'s rows in order).
            analysis.immediate_descendant[p] = j;
          }
          found = true;
          break;
        }
      }
    }
    VIEWCAP_CHECK(found && "exhibited hom image missing from substitution");
  }
  return analysis;
}

std::vector<std::size_t> Lineage(const DescendantAnalysis& analysis,
                                 std::size_t row) {
  std::vector<std::size_t> lineage;
  std::unordered_set<std::size_t> seen;
  std::size_t current = row;
  while (true) {
    VIEWCAP_CHECK(current < analysis.immediate_descendant.size());
    const std::optional<std::size_t>& next =
        analysis.immediate_descendant[current];
    if (!next.has_value()) break;  // Finite lineage: non-T-block child.
    if (!seen.insert(*next).second) {
      lineage.push_back(*next);  // Close the cycle once, then stop.
      break;
    }
    lineage.push_back(*next);
    current = *next;
  }
  return lineage;
}

bool IsSelfDescendent(const DescendantAnalysis& analysis, std::size_t row) {
  std::vector<std::size_t> lineage = Lineage(analysis, row);
  return std::find(lineage.begin(), lineage.end(), row) != lineage.end();
}

namespace {

/// The generalized Example 3.2.2 criterion: a homomorphic image of the row
/// preserves its tag and its distinguished attributes, and lands on a block
/// row <epsilon, sigma> whose distinguished set is contained in sigma's. If
/// the only (member, row) pair with the same tag and a superset
/// distinguished pattern is the row itself, every exhibited construction of
/// T must route it through a T-block copy of itself, so it is
/// self-descendent everywhere and essential by Proposition 3.2.5.
bool UniquePatternCriterion(const QuerySet& set, std::size_t member_index,
                            std::size_t row_index) {
  const TaggedTuple& tau =
      set.members()[member_index].query.rows()[row_index];
  const AttrSet dist = tau.tuple.DistinguishedAttrs();
  if (dist.empty()) return false;
  for (std::size_t m = 0; m < set.size(); ++m) {
    const Tableau& member = set.members()[m].query;
    for (std::size_t r = 0; r < member.size(); ++r) {
      if (m == member_index && r == row_index) continue;
      const TaggedTuple& sigma = member.rows()[r];
      if (sigma.rel != tau.rel) continue;
      if (dist.SubsetOf(sigma.tuple.DistinguishedAttrs())) return false;
    }
  }
  return true;
}

}  // namespace

Result<EssentialResult> ClassifyEssential(const Catalog* catalog,
                                          const QuerySet& set,
                                          std::size_t member_index,
                                          std::size_t row_index,
                                          SearchLimits limits,
                                          std::size_t max_constructions) {
  if (member_index >= set.size()) {
    return Status::InvalidArgument("member index out of range");
  }
  const Tableau& t = set.members()[member_index].query;
  if (row_index >= t.size()) {
    return Status::InvalidArgument("row index out of range");
  }
  EssentialResult result;

  if (UniquePatternCriterion(set, member_index, row_index)) {
    result.verdict = EssentialVerdict::kEssential;
    result.reason =
        "unique tag + distinguished pattern across the query set "
        "(Example 3.2.2 generalized)";
    return result;
  }

  // Refutation search (Proposition 3.2.5): look for an exhibited
  // construction of T from the set under which the row is not
  // self-descendent.
  Engine engine(catalog);
  CapacityOracle oracle(&engine, set, limits);
  VIEWCAP_ASSIGN_OR_RETURN(
      std::vector<ExhibitedConstruction> constructions,
      oracle.FindConstructions(t, max_constructions));
  result.constructions_examined = constructions.size();
  for (const ExhibitedConstruction& c : constructions) {
    DescendantAnalysis analysis = AnalyzeDescendants(t, t, c);
    if (!IsSelfDescendent(analysis, row_index)) {
      result.verdict = EssentialVerdict::kNotEssential;
      result.reason = StrCat(
          "row is not self-descendent under the construction realized by a ",
          c.expr->LeafCount(), "-leaf expression (Proposition 3.2.5)");
      return result;
    }
  }
  result.verdict = EssentialVerdict::kUnknown;
  result.reason =
      StrCat("self-descendent under all ", constructions.size(),
             " constructions examined; uniqueness criterion inapplicable");
  return result;
}

Result<std::optional<std::vector<std::size_t>>> FindEssentialComponent(
    const Catalog* catalog, const QuerySet& set, std::size_t member_index,
    SearchLimits limits, std::size_t max_constructions) {
  if (member_index >= set.size()) {
    return Status::InvalidArgument("member index out of range");
  }
  const Tableau& t = set.members()[member_index].query;
  for (const std::vector<std::size_t>& component : ConnectedComponents(t)) {
    bool all_essential = true;
    for (std::size_t row : component) {
      VIEWCAP_ASSIGN_OR_RETURN(
          EssentialResult r,
          ClassifyEssential(catalog, set, member_index, row, limits,
                            max_constructions));
      if (r.verdict != EssentialVerdict::kEssential) {
        all_essential = false;
        break;
      }
    }
    if (all_essential) return std::optional(component);
  }
  return std::optional<std::vector<std::size_t>>();
}

}  // namespace viewcap
