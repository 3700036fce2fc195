#include "views/simplify.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>

#include "base/check.h"
#include "base/hash.h"
#include "base/strings.h"
#include "tableau/build.h"

namespace viewcap {

namespace {

Result<std::vector<QuerySet::Member>> ProjectionMembers(
    Catalog* catalog, const Tableau& t, const std::vector<AttrSet>& subsets) {
  std::vector<QuerySet::Member> members;
  SymbolPool pool;
  t.ReserveSymbols(pool);
  for (const AttrSet& x : subsets) {
    VIEWCAP_ASSIGN_OR_RETURN(Tableau projected,
                             ProjectTableau(*catalog, t, x, pool));
    RelId handle = catalog->MintRelation("__proj", x);
    members.push_back(QuerySet::Member{handle, std::move(projected)});
  }
  return members;
}

std::vector<AttrSet> MaximalProperSubsets(const AttrSet& trs) {
  std::vector<AttrSet> out;
  for (AttrId a : trs) {
    AttrSet x = trs.Difference(AttrSet{a});
    if (!x.empty()) out.push_back(std::move(x));
  }
  return out;
}

}  // namespace

Result<std::vector<QuerySet::Member>> ProperProjectionMembers(
    Catalog* catalog, const Tableau& t) {
  return ProjectionMembers(catalog, t, t.Trs().NonemptyProperSubsets());
}

Result<std::vector<QuerySet::Member>> MaximalProperProjectionMembers(
    Catalog* catalog, const Tableau& t) {
  return ProjectionMembers(catalog, t, MaximalProperSubsets(t.Trs()));
}

// Note on parallelism: simplification runs serially at every
// limits.threads. Its per-member loops (here and in Simplify) mint fresh
// "__proj" handles in the catalog, which is not synchronized, and each
// membership search is itself serial.
Result<SimplicityResult> IsSimple(Engine& engine, Catalog* catalog,
                                  const QuerySet& set, std::size_t index,
                                  SearchLimits limits) {
  if (index >= set.size()) {
    return Status::InvalidArgument("query set member index out of range");
  }
  const Tableau& t = set.members()[index].query;
  // Maximal projections generate the same closure as all proper
  // projections, so the verdict is identical and the search much smaller.
  VIEWCAP_ASSIGN_OR_RETURN(std::vector<QuerySet::Member> projections,
                           MaximalProperProjectionMembers(catalog, t));
  QuerySet test_set = set.Without(index).With(std::move(projections));
  SimplicityResult result;
  if (test_set.size() == 0) {
    // Single member with a one-attribute TRS: the closure of the empty set
    // is empty, so the member is trivially simple.
    result.simple = true;
    return result;
  }
  CapacityOracle oracle(&engine, std::move(test_set), limits);
  VIEWCAP_ASSIGN_OR_RETURN(result.membership, oracle.Contains(t));
  result.simple = !result.membership.member;
  return result;
}

Result<bool> IsSimplifiedView(Engine& engine, Catalog* catalog,
                              const View& view, SearchLimits limits,
                              bool* inconclusive) {
  if (inconclusive != nullptr) *inconclusive = false;
  QuerySet set = QuerySet::FromView(view);
  for (std::size_t i = 0; i < set.size(); ++i) {
    VIEWCAP_ASSIGN_OR_RETURN(SimplicityResult r,
                             IsSimple(engine, catalog, set, i, limits));
    if (!r.simple) return false;
    if (r.membership.budget_exhausted && inconclusive != nullptr) {
      *inconclusive = true;
    }
  }
  return true;
}

namespace {

struct WorkingQuery {
  ExprPtr expr;     // Over the base schema; stays in lockstep with tableau.
  Tableau tableau;  // Reduced.
};

// Fixed-width lowercase hex of the low 32 bits of `h`.
std::string Hex8(std::uint64_t h) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[h & 0xf];
    h >>= 4;
  }
  return out;
}

}  // namespace

Result<SimplifyOutcome> Simplify(Engine& engine, Catalog* catalog,
                                 const View& view, SearchLimits limits) {
  SimplifyOutcome outcome;
  std::vector<WorkingQuery> working;
  working.reserve(view.size());
  for (const ViewDefinition& d : view.definitions()) {
    working.push_back(
        WorkingQuery{d.query, engine.Representative(engine.Intern(d.tableau))});
  }

  // Replacement loop; terminates because replacing a query by proper
  // projections strictly decreases the multiset of TRS sizes
  // (Dershowitz-Manna order). The round cap is a defensive backstop.
  constexpr std::size_t kMaxRounds = 256;
  for (outcome.rounds = 0; outcome.rounds < kMaxRounds; ++outcome.rounds) {
    // Drop mapping-duplicates; interned classes make this id comparisons.
    std::vector<WorkingQuery> unique;
    for (WorkingQuery& w : working) {
      bool duplicate = false;
      for (const WorkingQuery& u : unique) {
        if (engine.Equivalent(w.tableau, u.tableau)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) unique.push_back(std::move(w));
    }
    working = std::move(unique);

    // Build the current query set.
    std::vector<Tableau> tableaux;
    tableaux.reserve(working.size());
    for (const WorkingQuery& w : working) tableaux.push_back(w.tableau);
    VIEWCAP_ASSIGN_OR_RETURN(
        QuerySet set,
        QuerySet::FromTableaux(catalog, view.universe(), std::move(tableaux)));

    // Find a non-simple member and replace it by its proper projections.
    std::optional<std::size_t> replace;
    for (std::size_t i = 0; i < working.size(); ++i) {
      VIEWCAP_ASSIGN_OR_RETURN(SimplicityResult r,
                               IsSimple(engine, catalog, set, i, limits));
      if (r.membership.budget_exhausted) outcome.inconclusive = true;
      if (!r.simple) {
        replace = i;
        break;
      }
    }
    if (!replace.has_value()) break;  // All simple: normal form reached.

    WorkingQuery victim = std::move(working[*replace]);
    working.erase(working.begin() + static_cast<std::ptrdiff_t>(*replace));
    SymbolPool pool;
    victim.tableau.ReserveSymbols(pool);
    // Maximal projections suffice (same closure as all proper projections);
    // any that are themselves non-simple get decomposed in later rounds.
    for (const AttrSet& x : MaximalProperSubsets(victim.tableau.Trs())) {
      VIEWCAP_ASSIGN_OR_RETURN(
          Tableau projected,
          ProjectTableau(*catalog, victim.tableau, x, pool));
      working.push_back(
          WorkingQuery{Expr::MustProject(x, victim.expr),
                       engine.Representative(engine.Intern(projected))});
    }
  }
  if (outcome.rounds >= kMaxRounds) {
    return Status::BudgetExhausted("Simplify exceeded its round cap");
  }
  VIEWCAP_CHECK(!working.empty());

  // Materialize the normal form with deterministic names: the name tag is
  // a hash of the input view (its name plus the exact fingerprint of every
  // definition), not a process-local mint counter, so the same view
  // simplifies to byte-identical text in a cold CLI run and a warm daemon
  // session alike. AddRelation is get-or-create for an identical
  // (name, scheme) pair, so re-simplifying the same view in one catalog
  // reuses the names; a genuine clash (another relation already holds the
  // name with a different scheme) falls through to deterministic probing.
  std::uint64_t seed = Fnv1a64(view.name());
  for (const ViewDefinition& d : view.definitions()) {
    seed = Fnv1a64(TableauFingerprint(d.tableau), seed);
  }
  const std::string prefix =
      StrCat(view.name().empty() ? "view" : view.name(), "_s", Hex8(seed));
  std::vector<std::pair<RelId, ExprPtr>> definitions;
  definitions.reserve(working.size());
  for (std::size_t i = 0; i < working.size(); ++i) {
    const WorkingQuery& w = working[i];
    const std::string name = StrCat(prefix, "_", i);
    Result<RelId> rel = catalog->AddRelation(name, w.expr->trs());
    for (std::uint32_t bump = 2; !rel.ok(); ++bump) {
      if (bump > 64) return rel.status();
      rel = catalog->AddRelation(StrCat(name, "_", bump), w.expr->trs());
    }
    definitions.push_back({*rel, w.expr});
  }
  VIEWCAP_ASSIGN_OR_RETURN(
      outcome.view,
      View::Create(catalog, view.base(), std::move(definitions),
                   StrCat(view.name(), "_simplified")));
  return outcome;
}

Result<bool> SameQueriesUpToRenaming(Engine& engine, const View& a,
                                     const View& b) {
  if (a.size() != b.size()) return false;
  if (a.universe() != b.universe()) return false;
  const std::size_t n = a.size();
  // Interning turns the compatibility matrix into id comparisons: the ids
  // for a's definitions are computed once, not once per pair.
  std::vector<TableauId> a_ids(n), b_ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    a_ids[i] = engine.Intern(a.definitions()[i].tableau);
    b_ids[i] = engine.Intern(b.definitions()[i].tableau);
  }
  // Exact bipartite matching by backtracking (views are small).
  std::vector<bool> used(n, false);
  std::function<bool(std::size_t)> match = [&](std::size_t i) -> bool {
    if (i == n) return true;
    for (std::size_t j = 0; j < n; ++j) {
      if (!used[j] && a_ids[i] == b_ids[j]) {
        used[j] = true;
        if (match(i + 1)) return true;
        used[j] = false;
      }
    }
    return false;
  };
  return match(0);
}

}  // namespace viewcap
